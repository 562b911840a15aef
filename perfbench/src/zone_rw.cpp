// zone_rw: the paper's parallel path. Four simpi ranks grow a
// [rows, 2048] double array on an 8-server striped Pfs: each step extends
// by 64 rows (extend_all), writes the new band with each rank owning a
// chunk-aligned quarter of the columns (write_box_all), and reads every
// rank's BLOCK zone back collectively in both memory orders
// (read_my_zone). Loads drxmp, two-phase mpio, simpi collectives and
// striping; serve, the cache and the codec stay idle.
#include <cstdio>
#include <vector>

#include "core/drxmp.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "pfs/pfs.hpp"
#include "simpi/runtime.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using drx::core::Box;
using drx::core::DrxFile;
using drx::core::DrxMpFile;
using drx::core::Index;
using drx::core::MemoryOrder;
using drx::core::Shape;

constexpr int kRanks = 4;
constexpr std::uint64_t kCols = 2048;
constexpr std::uint64_t kChunk = 64;
constexpr std::uint64_t kBand = 64;  // rows per step
constexpr int kSteps = 16;           // steps per round: a 16 MiB array
constexpr double kDeadlineS = 5.0;

// v(r, c) = salt * 2^32 + r * 2048 + c: the coordinates plus a per-round
// salt from the seed, so stale data from another round cannot pass.
double value(std::uint64_t salt, std::uint64_t r, std::uint64_t c) {
  return static_cast<double>(salt) * 4294967296.0 +
         static_cast<double>(r * kCols + c);
}

drx::pfs::PfsConfig pfs_config() {
  drx::pfs::PfsConfig c;
  c.num_servers = 8;
  c.stripe_size = 64 * 1024;
  return c;
}

RoundResult round(const Args& args, int index, bool traced, Watchdog& dog) {
  RoundResult r;
  const std::uint64_t salt =
      mix(args.seed * 1000003 + static_cast<std::uint64_t>(index)) % 1000;
  drx::pfs::Pfs fs(pfs_config());
  const drx::obs::MetricsSnapshot reg0 = registry_now();
  const std::vector<drx::pfs::IoStats> srv0 = fs.server_stats();
  const LayerLedger led0 = collect_ledger();

  // Written by rank 0 only (read after simpi::run joins the ranks).
  std::vector<drx::pfs::IoStats> measured0;
  std::vector<drx::pfs::IoStats> measured1;
  double setup_s = 0;
  double cpu0 = 0;
  // Per-rank tallies, merged after the run.
  struct Tally {
    std::uint64_t ops = 0, attempted = 0, failed = 0, mismatches = 0;
    std::vector<float> latency_us;
  };
  std::vector<Tally> tally(kRanks);

  const double setup_cpu = process_cpu_s();
  drx::simpi::run(kRanks, [&](drx::simpi::Comm& comm) {
    const int me = comm.rank();
    Tally& t = tally[static_cast<std::size_t>(me)];
    DrxFile::Options options;
    options.dtype = drx::core::ElementType::kDouble;
    options.codec = drx::codec::CodecId::kNone;
    auto created = DrxMpFile::create(comm, fs, "zone", Shape{0, kCols},
                                     Shape{kChunk, kChunk}, options);
    if (!created.is_ok()) {
      std::fprintf(stderr, "rank %d: create failed: %s\n", me,
                   created.status().message().c_str());
      std::exit(1);
    }
    DrxMpFile f = std::move(created).value();
    // This rank's input for the whole round, generated up front.
    const std::uint64_t c0 = static_cast<std::uint64_t>(me) * kCols / kRanks;
    const std::uint64_t c1 = c0 + kCols / kRanks;
    const std::uint64_t band_size = kBand * (c1 - c0);
    std::vector<double> input(kSteps * band_size);
    for (std::uint64_t row = 0; row < kSteps * kBand; ++row) {
      for (std::uint64_t c = c0; c < c1; ++c) {
        input[row * (c1 - c0) + (c - c0)] = value(salt, row, c);
      }
    }
    comm.barrier();
    if (me == 0) {
      cpu0 = process_cpu_s();
      setup_s = cpu0 - setup_cpu;
      measured0 = fs.server_stats();
    }
    Tracer::get().set_rank(me);

    std::vector<double> zone;
    std::vector<drx::pfs::IoStats> phase0;

    // One collective call: watched, then a barrier so the next phase
    // starts together (the wait is the rank's skew).
    const auto collective = [&](Layer layer, auto&& body) {
      ++t.attempted;
      dog.begin(static_cast<std::size_t>(me));
      bool ok = false;
      {
        Span span(layer);
        ok = body().is_ok();
      }
      if (dog.end(static_cast<std::size_t>(me)) || !ok) ++t.failed;
      Span skew(Layer::kSkewWait);
      comm.barrier();
    };
    // Rank 0 measures each phase: wall time and the Pfs phase time (the
    // busiest server's busy delta). The barrier keeps every rank's I/O
    // after the opening snapshot.
    const auto phase = [&](double& wall_s, double& sim_us, auto&& body) {
      if (me == 0) phase0 = fs.server_stats();
      {
        Span skew(Layer::kSkewWait);
        comm.barrier();
      }
      const std::uint64_t s = now_ns();
      body();
      if (me == 0) {
        wall_s += static_cast<double>(now_ns() - s) / 1e9;
        sim_us += drx::pfs::Pfs::phase_elapsed_us(phase0, fs.server_stats());
      }
    };

    {
      Span root(Layer::kRound);
      for (int step = 0; step < kSteps; ++step) {
        // One op = one rank's step: extend, write, read in both orders.
        const std::uint64_t step_start = now_ns();
        ++t.ops;
        const std::uint64_t r0 = static_cast<std::uint64_t>(step) * kBand;
        const auto band = std::span<const double>(input).subspan(
            static_cast<std::uint64_t>(step) * band_size, band_size);
        phase(r.write_wall_s, r.sim_write_us, [&] {
          collective(Layer::kExtendAll, [&] { return f.extend_all(0, kBand); });
          collective(Layer::kWriteBoxAll, [&] {
            const Box box{Index{r0, c0}, Index{r0 + kBand, c1}};
            return f.write_box_all(
                box, MemoryOrder::kRowMajor, std::as_bytes(band));
          });
        });
        if (me == 0) r.user_write_bytes += kBand * kCols * sizeof(double);

        const drx::core::Distribution dist = f.block_distribution();
        const Box zb = f.zone_element_box(dist, me);
        zone.assign(zb.volume(), 0.0);
        for (const MemoryOrder order :
             {MemoryOrder::kRowMajor, MemoryOrder::kColMajor}) {
          phase(r.read_wall_s, r.sim_read_us, [&] {
            collective(Layer::kReadMyZone, [&] {
              return f.read_my_zone(
                  dist, order, std::as_writable_bytes(std::span<double>(zone)));
            });
          });
          if (me == 0) {
            r.user_read_bytes += (r0 + kBand) * kCols * sizeof(double);
          }
          Span verify(Layer::kVerify);
          const std::uint64_t h = zb.hi[0] - zb.lo[0];
          const std::uint64_t w = zb.hi[1] - zb.lo[1];
          for (std::uint64_t k = 0; k < zone.size(); ++k) {
            const std::uint64_t i = order == MemoryOrder::kRowMajor ? k / w
                                                                    : k % h;
            const std::uint64_t j = order == MemoryOrder::kRowMajor ? k % w
                                                                    : k / h;
            if (zone[k] != value(salt, zb.lo[0] + i, zb.lo[1] + j)) {
              ++t.mismatches;
              ++t.failed;
              break;
            }
          }
        }
        t.latency_us.push_back(static_cast<float>(
            static_cast<double>(now_ns() - step_start) / 1e3));
      }
    }
    if (me == 0) {
      measured1 = fs.server_stats();
      r.cpu_s = process_cpu_s() - cpu0;
    }
    if (!f.close().is_ok()) ++t.failed;
  });

  r.ops = tally[0].ops;  // steps; every rank takes each one
  for (Tally& t : tally) {
    r.attempted += t.attempted;
    r.failed += t.failed;
    r.mismatches += t.mismatches;
    r.latency_us.insert(r.latency_us.end(), t.latency_us.begin(),
                        t.latency_us.end());
  }
  r.setup_s = setup_s;
  r.wall_s = r.write_wall_s + r.read_wall_s;
  const std::vector<drx::pfs::IoStats> dev = delta(measured0, measured1);
  const drx::pfs::IoStats dev_total = total(dev);
  r.device_bytes = dev_total.bytes_read + dev_total.bytes_written;
  for (const char* name : {"zone.xmd", "zone.xta"}) {
    auto h = fs.open(name);
    if (h.is_ok()) r.stored_bytes += h.value().size();
  }
  r.logical_bytes = kSteps * kBand * kCols * sizeof(double);

  if (traced) {
    const drx::obs::MetricsSnapshot reg1 = registry_now();
    add_registry_layers(reg0, reg1,
                        static_cast<double>(r.user_read_bytes +
                                            r.user_write_bytes),
                        r);
    add_ledger_layers(collect_ledger().minus(led0), kRanks, r);
    add_device_layers(dev, r);
    // Rank registries fold into the process registry when simpi::run
    // joins, so the whole run (set-up included) is compared.
    reconcile_registry(total(delta(srv0, fs.server_stats())), reg0, reg1, r);
  }
  return r;
}

}  // namespace

std::vector<RoundResult> run_zone_rw(const Args& args) {
  check_thread_budget("zone_rw", kRanks, "4 simpi ranks, no I/O threads");
  Watchdog dog(kRanks, kDeadlineS, 30.0);
  return run_rounds(args, 3, [&](int index, bool traced) {
    Tracer::get().set_enabled(traced);
    return round(args, index, traced, dog);
  });
}

}  // namespace perfbench
