// Shared machinery of the drx benchmark: command line, spans and the
// per-layer ledger, the watchdog, a counting storage wrapper, registry
// deltas and the result line.
//
// Every workload runs in rounds of fixed work. A round builds its own
// array (set-up, timed apart), runs the measured part, and reports a
// RoundResult. End-to-end metrics are medians over untraced rounds;
// per-layer metrics are means over traced rounds.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "pfs/storage.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// splitmix64: the single source of every generated input.
[[nodiscard]] inline std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(mix(seed)) {}
  std::uint64_t next() { return state_ = mix(state_); }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

// ---- spans ------------------------------------------------------------------

/// Layers the benchmark brackets from outside the library. Pool-thread
/// work (a span with no parent on a thread that does not drive the
/// workload) is its own layer, never a child of the demand call.
enum class Layer : std::uint8_t {
  kRound,          ///< root of one driving thread's round; self = residual
  kGen,            ///< benchmark: building serve request payloads
  kVerify,         ///< benchmark: checking returned data
  kWait,           ///< serve generator blocked on the completion queue
  kServeSubmit,    ///< Session::submit
  kServeRequest,   ///< submit -> completion (spans threads; own layer)
  kCacheWriteBox,  ///< CachedDrxFile::write_box
  kCacheReadBox,   ///< CachedDrxFile::read_box
  kCacheFlush,     ///< CachedDrxFile::flush
  kFileExtend,     ///< DrxFile::extend
  kStorage,        ///< pfs::Storage call through the counting wrapper
  kExtendAll,      ///< DrxMpFile::extend_all
  kWriteBoxAll,    ///< DrxMpFile::write_box_all
  kReadMyZone,     ///< DrxMpFile::read_my_zone
  kSkewWait,       ///< benchmark barrier after each collective
  kCount
};
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);
[[nodiscard]] const char* layer_name(Layer layer);

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t thread = 0;
  Layer layer = Layer::kRound;
};

/// Per-thread span totals. Written by the owning thread, read by the main
/// thread after a round (relaxed atomics keep the cross-thread read clean).
struct LayerTotals {
  std::atomic<std::uint64_t> self_ns{0};
  std::atomic<std::uint64_t> total_ns{0};
};

struct ThreadTrace {
  std::uint32_t thread = 0;
  std::atomic<int> rank{-1};  ///< simpi rank, -1 outside a rank body
  std::array<LayerTotals, kLayers> nested;  ///< round roots and their children
  std::array<LayerTotals, kLayers> orphan;  ///< parentless (pool) spans
  std::vector<SpanRecord> spans;            ///< capped sample for the dump
  struct Frame {
    std::uint64_t id;
    std::uint64_t child_ns;
  };
  std::vector<Frame> stack;
};

/// Span recorder. Off unless a traced round is running; an off span costs
/// one relaxed load.
class Tracer {
 public:
  static Tracer& get();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Tags the calling thread with its simpi rank (per-rank self times).
  void set_rank(int rank);

  ThreadTrace& local();
  void record(ThreadTrace& t, Layer layer, std::uint64_t start,
              std::uint64_t end, std::uint64_t parent, std::uint64_t request,
              std::uint64_t id, std::uint64_t self_ns);
  std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Every thread's totals; the pointers stay valid for the process.
  std::vector<ThreadTrace*> threads();

  /// Writes the retained spans (capped) as JSON lines.
  void dump(const std::string& path);

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> retained_{0};
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadTrace>> threads_;
};

/// RAII span around one call into a layer; nests on the calling thread.
class Span {
 public:
  explicit Span(Layer layer, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  ThreadTrace* t_ = nullptr;
  Layer layer_;
  std::uint64_t request_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t start_ = 0;
};

/// Records a finished span that crossed threads (no parent, own layer).
void record_async_span(Layer layer, std::uint64_t start, std::uint64_t end,
                       std::uint64_t request);

/// Sum over threads of the span totals, in integer nanoseconds so the
/// ledger identity (layer self times + residual == wall) is exact.
struct LayerLedger {
  static constexpr int kMaxRanks = 16;
  std::array<std::uint64_t, kLayers> self_ns{};    ///< nested spans
  std::array<std::uint64_t, kLayers> orphan_ns{};  ///< pool / cross-thread
  std::array<std::uint64_t, kLayers> nested_total_ns{};
  /// Nested self time per simpi rank (threads tagged by set_rank).
  std::array<std::array<std::uint64_t, kLayers>, kMaxRanks> rank_self_ns{};

  /// Wall time of the driving threads: the sum of their round spans.
  [[nodiscard]] std::uint64_t wall_ns() const {
    return nested_total_ns[static_cast<std::size_t>(Layer::kRound)];
  }
  /// Round self time: wall not covered by any layer span.
  [[nodiscard]] std::uint64_t residual_ns() const {
    return self_ns[static_cast<std::size_t>(Layer::kRound)];
  }
  [[nodiscard]] LayerLedger minus(const LayerLedger& before) const;
};
[[nodiscard]] LayerLedger collect_ledger();

// ---- watchdog ---------------------------------------------------------------

/// One in-flight operation slot. begin()/end() bracket an op; end()
/// reports whether the op overran the deadline.
class Watchdog {
 public:
  /// `slots` ops may be in flight at once; an op slower than `deadline_s`
  /// is a failure; one still running `abort_s` after it started makes
  /// the whole run fail (result printed, exit code 3) instead of hanging.
  Watchdog(std::size_t slots, double deadline_s, double abort_s);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void begin(std::size_t slot);
  /// True when the op overran the deadline (count it failed).
  bool end(std::size_t slot);

 private:
  void loop();

  std::unique_ptr<std::atomic<std::uint64_t>[]> start_;
  std::size_t slots_;
  std::uint64_t deadline_ns_;
  std::uint64_t abort_ns_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ---- storage ----------------------------------------------------------------

/// Benchmark-owned pfs::Storage wrapper used in traced rounds: counts the
/// requests and bytes it forwards, times each call (a kStorage span) and
/// sums the inner MemStorage's busy-time delta per call, so the ledger
/// can be reconciled against MemStorage::stats().
class CountingStorage final : public drx::pfs::Storage {
 public:
  explicit CountingStorage(std::unique_ptr<drx::pfs::MemStorage> inner)
      : inner_(std::move(inner)) {}

  drx::Status read_at(std::uint64_t offset, std::span<std::byte> out) override;
  [[nodiscard]] drx::Status write_at(std::uint64_t offset,
                                     std::span<const std::byte> data) override;
  [[nodiscard]] std::uint64_t size() const override { return inner_->size(); }
  [[nodiscard]] drx::Status truncate(std::uint64_t new_size) override {
    return inner_->truncate(new_size);
  }
  [[nodiscard]] drx::Status flush() override { return inner_->flush(); }

  struct Counts {
    std::uint64_t requests = 0;
    std::uint64_t bytes = 0;
    double busy_us = 0;
    double call_us = 0;
  };
  [[nodiscard]] Counts counts() const;

 private:
  void account(std::uint64_t bytes, double busy_before, std::uint64_t t0);

  std::unique_ptr<drx::pfs::MemStorage> inner_;
  mutable std::mutex mu_;
  Counts counts_;
};

/// A serial array's storage pair: plain MemStorage in untraced rounds (the
/// program as users get it), CountingStorage in traced rounds.
struct StoragePair {
  std::unique_ptr<drx::pfs::Storage> meta, data;
  drx::pfs::MemStorage* meta_mem = nullptr;
  drx::pfs::MemStorage* data_mem = nullptr;
  CountingStorage* meta_counting = nullptr;
  CountingStorage* data_counting = nullptr;

  static StoragePair make(bool counting);
  /// Sum of both MemStorage stats.
  [[nodiscard]] drx::pfs::IoStats stats() const;
  [[nodiscard]] std::uint64_t stored_bytes() const {
    return meta_mem->size() + data_mem->size();
  }
};

// ---- registry ---------------------------------------------------------------

/// Whole-process registry view at one instant (rank registries included).
[[nodiscard]] drx::obs::MetricsSnapshot registry_now();
[[nodiscard]] std::uint64_t counter_delta(const drx::obs::MetricsSnapshot& a,
                                          const drx::obs::MetricsSnapshot& b,
                                          std::string_view name);
/// Histogram delta (count, sum, buckets) between two snapshots.
[[nodiscard]] drx::obs::HistogramSample histogram_delta(
    const drx::obs::MetricsSnapshot& a, const drx::obs::MetricsSnapshot& b,
    std::string_view name);

// ---- results ----------------------------------------------------------------

/// One round's measured outcome. Times in seconds unless named otherwise.
struct RoundResult {
  bool traced = false;
  double setup_s = 0;       ///< process CPU time of the set-up
  double wall_s = 0;        ///< measured part
  double write_wall_s = 0;  ///< part spent in the write phase
  double read_wall_s = 0;   ///< part spent in the read phase
  double cpu_s = 0;         ///< process CPU over the measured part
  std::uint64_t ops = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;  ///< verification failures (subset of failed)
  std::vector<float> latency_us;  ///< per op; folded into p50/p99 and freed
  double p50_us = 0;
  double p99_us = 0;
  std::uint64_t user_write_bytes = 0;
  std::uint64_t user_read_bytes = 0;
  double sim_write_us = 0;
  double sim_read_us = 0;
  std::uint64_t device_bytes = 0;
  std::uint64_t stored_bytes = 0;
  std::uint64_t logical_bytes = 0;
  std::uint64_t ledger_mismatches = 0;
  double host_steal_frac = 0;  ///< share of CPU time the host took
  /// Per-layer values of a traced round (summed over traced rounds).
  std::map<std::string, double> layer;
};

/// Process CPU time (all threads). Time a hypervisor steals from the VM
/// is not in it.
[[nodiscard]] double process_cpu_s();
/// Process peak resident set so far (getrusage).
[[nodiscard]] double peak_rss_mb();
[[nodiscard]] unsigned nproc();
/// Linear-interpolated quantile q in [0, 1] (0.5 = median).
[[nodiscard]] double quantile(std::vector<double> v, double q);
/// Host steal and total ticks summed over CPUs, from /proc/stat (zeros
/// where it cannot be read).
[[nodiscard]] std::array<std::uint64_t, 2> host_cpu_ticks();
[[nodiscard]] double host_steal_frac(const std::array<std::uint64_t, 2>& before,
                                     const std::array<std::uint64_t, 2>& after);
[[nodiscard]] double percentile(std::vector<float>& v, double q);

/// Prints the thread budget and dies (exit 2, no result) when the
/// workload would use more threads than the machine has cores.
void check_thread_budget(const char* workload, unsigned threads,
                         const char* breakdown);

/// Runs rounds of `round(traced)` until `args.seconds` have passed (at
/// least `min_rounds`, and in traced runs alternating untraced/traced
/// rounds so obs.tracing_overhead compares like with like).
template <typename RoundFn>
std::vector<RoundResult> run_rounds(const Args& args, int min_rounds,
                                    RoundFn&& round);

/// Turns the rounds into the result line and prints it (plus a
/// human-readable summary before it). Returns the process exit code.
int report(const Args& args, const std::vector<RoundResult>& rounds);

/// Marks the run failed from the watchdog thread: prints the result line
/// with what was counted so far and exits with code 3.
[[noreturn]] void abort_run(const char* why);

/// Ops counted so far across rounds (for abort_run).
void note_progress(std::uint64_t attempted, std::uint64_t failed);

template <typename RoundFn>
std::vector<RoundResult> run_rounds(const Args& args, int min_rounds,
                                    RoundFn&& round) {
  std::vector<RoundResult> rounds;
  const std::uint64_t start = now_ns();
  const auto budget_ns = static_cast<std::uint64_t>(args.seconds * 1e9);
  for (int i = 0;; ++i) {
    const bool traced = args.trace && (i % 2 == 1);
    Tracer::get().set_enabled(false);
    const std::array<std::uint64_t, 2> ticks = host_cpu_ticks();
    RoundResult r = round(i, traced);
    Tracer::get().set_enabled(false);
    r.host_steal_frac = host_steal_frac(ticks, host_cpu_ticks());
    r.p50_us = percentile(r.latency_us, 0.50);
    r.p99_us = percentile(r.latency_us, 0.99);
    r.latency_us = {};
    r.traced = traced;
    note_progress(r.attempted, r.failed);
    std::fprintf(stderr,
                 "round %d%s: setup %.6f s cpu, measured %.4f s wall / "
                 "%.4f s cpu, %.6g op/s, host steal %.1f%%\n",
                 i, traced ? " (traced)" : "", r.setup_s, r.wall_s, r.cpu_s,
                 r.wall_s > 0 ? static_cast<double>(r.ops) / r.wall_s : 0.0,
                 100 * r.host_steal_frac);
    rounds.push_back(std::move(r));
    const int needed = args.trace ? 2 * min_rounds : min_rounds;
    if (now_ns() - start >= budget_ns && i + 1 >= needed) break;
  }
  return rounds;
}

}  // namespace perfbench
