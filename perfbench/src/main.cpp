// drx benchmark program. Usage:
//   drx_perfbench --workload <serve_hot|append_scan|zone_rw> --seed <n>
//                 --seconds <s> --trace <0|1>
// Prints a summary, then one JSON result line (the last line of stdout).
// Exit codes: 0 ok, 1 verification or ledger mismatch, 2 bad usage or
// thread budget, 3 watchdog abort.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "codec/codec.hpp"
#include "harness.hpp"
#include "io/config.hpp"
#include "mpio/file.hpp"
#include "obs/flight.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: drx_perfbench --workload "
               "<serve_hot|append_scan|zone_rw> --seed <n> --seconds <s> "
               "--trace <0|1>\n",
               why);
  std::exit(2);
}

// Every knob the workloads do not set through Options / AsyncOptions /
// codec fields is pinned here to its library default, so the environment
// cannot change what is measured.
void pin_knobs() {
  drx::io::set_io_threads(0);
  drx::io::set_prefetch_depth(0);
  drx::io::set_cache_shards(0);
  drx::io::set_cache_admit(drx::io::CacheAdmit::kAuto);
  drx::io::set_cache_fast_reads(1);
  drx::io::set_serve_queue_depth(128);
  drx::codec::set_default_codec(drx::codec::CodecId::kNone);
  drx::mpio::set_read_sieve_gap(64 * 1024);
  drx::obs::set_flight_path(".bench_out/drx-flight.json");
}

// Every round rebuilds its simulated devices in RAM. By default glibc
// returns those large buffers to the kernel and the next round faults
// them in again: a cost no real device has, which was 40% of zone_rw's
// CPU time on a 4-vCPU VM and varies with the host. Freed memory stays
// in the process instead (peak_rss_mb still shows any growth).
void keep_freed_memory() {
  mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);  // glibc's maximum
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || args.seconds <= 0) usage("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty() || !have_trace) usage("missing arguments");
  std::filesystem::create_directories(".bench_out");
  pin_knobs();
  keep_freed_memory();

  std::vector<perfbench::RoundResult> rounds;
  if (args.workload == "serve_hot") {
    rounds = perfbench::run_serve_hot(args);
  } else if (args.workload == "append_scan") {
    rounds = perfbench::run_append_scan(args);
  } else if (args.workload == "zone_rw") {
    rounds = perfbench::run_zone_rw(args);
  } else {
    usage(("unknown workload " + args.workload).c_str());
  }
  return perfbench::report(args, rounds);
}
