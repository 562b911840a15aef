#include "harness.hpp"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

namespace perfbench {

namespace {

// Spans kept for the dump at exit; totals keep counting past the cap.
constexpr std::uint64_t kRetainedSpans = 200000;

// Per-layer metrics of the traced run: name and unit. Values are per round
// (the workload's fixed unit of work), averaged over the traced rounds; a
// layer a workload leaves idle reports 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"serve.submit_block_us", "us"},
    {"serve.queue_wait_us", "us"},
    {"serve.request_us", "us"},
    {"serve.failed", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.fast_hit_ratio", "ratio"},
    {"cache.lock_wait_us", "us"},
    {"cache.shard_imbalance", "ratio"},
    {"cache.capacity_borrows", "count"},
    {"cache.write_box_us", "us"},
    {"cache.read_box_us", "us"},
    {"cache.flush_us", "us"},
    {"cache.prefetch_useful_ratio", "ratio"},
    {"cache.prefetch_wasted", "count"},
    {"cache.prefetch_waits", "count"},
    {"cache.prefetch_wait_us", "us"},
    {"cache.evictions", "count"},
    {"cache.writebacks", "count"},
    {"cache.deferred_writebacks", "count"},
    {"cache.write_queue_hits", "count"},
    {"file.extend_us", "us"},
    {"file.chunk_reads", "count"},
    {"file.chunk_read_batches", "count"},
    {"copy.elements_per_run", "elem/run"},
    {"copy.plan_hit_ratio", "ratio"},
    {"codec.encode_us", "us"},
    {"codec.decode_us", "us"},
    {"codec.stored_ratio", "ratio"},
    {"codec.slot_relocations", "count"},
    {"codec.frag_bytes", "B"},
    {"io.job_us", "us"},
    {"io.queue_depth_p95", "count"},
    {"io.failed", "count"},
    {"io.inline_runs", "count"},
    {"drxmp.extend_all_us_mean", "us"},
    {"drxmp.extend_all_us_max", "us"},
    {"drxmp.write_box_all_us_mean", "us"},
    {"drxmp.write_box_all_us_max", "us"},
    {"drxmp.read_my_zone_us_mean", "us"},
    {"drxmp.read_my_zone_us_max", "us"},
    {"simpi.skew_wait_us", "us"},
    {"simpi.coll_bytes_per_user_byte", "ratio"},
    {"simpi.p2p_bytes_per_user_byte", "ratio"},
    {"simpi.messages", "count"},
    {"mpio.agg_pieces_per_run", "ratio"},
    {"mpio.collective_ops", "count"},
    {"pfs.requests", "count"},
    {"pfs.seeks", "count"},
    {"pfs.bytes", "B"},
    {"pfs.mean_request_kb", "kB"},
    {"pfs.server_busy_imbalance", "ratio"},
    {"pfs.storage_call_us", "us"},
    {"bench.gen_us", "us"},
    {"bench.verify_us", "us"},
    {"bench.wait_us", "us"},
    {"ledger.wall_us", "us"},
    {"ledger.residual_us", "us"},
    {"ledger.residual_frac", "ratio"},
    {"ledger.pool_us", "us"},
    {"ledger.mismatches", "count"},
    {"obs.tracing_overhead", "ratio"},
    {"wall.ops_per_s", "op/s"},
    {"wall.latency_p50_us", "us"},
    {"wall.latency_p99_us", "us"},
    {"wall.write_mb_s", "MB/s"},
    {"wall.read_mb_s", "MB/s"},
    {"host.steal_frac", "ratio"},
};

// What abort_run can still report when the watchdog fires.
std::atomic<std::uint64_t> g_attempted{0};
std::atomic<std::uint64_t> g_failed{0};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<std::pair<std::string,
                                              std::pair<double, std::string>>>&
                      metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    char value[64];
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            vu.second + "\"}";
  }
  line += "}}\n";
  std::fputs(line.c_str(), stdout);
  std::fflush(stdout);
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kRound: return "bench.round";
    case Layer::kGen: return "bench.gen";
    case Layer::kVerify: return "bench.verify";
    case Layer::kWait: return "bench.wait";
    case Layer::kServeSubmit: return "serve.submit";
    case Layer::kServeRequest: return "serve.request";
    case Layer::kCacheWriteBox: return "cache.write_box";
    case Layer::kCacheReadBox: return "cache.read_box";
    case Layer::kCacheFlush: return "cache.flush";
    case Layer::kFileExtend: return "file.extend";
    case Layer::kStorage: return "pfs.storage";
    case Layer::kExtendAll: return "drxmp.extend_all";
    case Layer::kWriteBoxAll: return "drxmp.write_box_all";
    case Layer::kReadMyZone: return "drxmp.read_my_zone";
    case Layer::kSkewWait: return "simpi.skew_wait";
    case Layer::kCount: break;
  }
  return "?";
}

// ---- spans ------------------------------------------------------------------

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

ThreadTrace& Tracer::local() {
  thread_local ThreadTrace* mine = nullptr;
  if (mine == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(std::make_unique<ThreadTrace>());
    mine = threads_.back().get();
    mine->thread = static_cast<std::uint32_t>(threads_.size() - 1);
  }
  return *mine;
}

void Tracer::set_rank(int rank) {
  local().rank.store(rank, std::memory_order_relaxed);
}

std::vector<ThreadTrace*> Tracer::threads() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ThreadTrace*> out;
  for (auto& t : threads_) out.push_back(t.get());
  return out;
}

void Tracer::record(ThreadTrace& t, Layer layer, std::uint64_t start,
                    std::uint64_t end, std::uint64_t parent,
                    std::uint64_t request, std::uint64_t id,
                    std::uint64_t self_ns) {
  const bool nested = parent != 0 || layer == Layer::kRound;
  LayerTotals& totals =
      (nested ? t.nested : t.orphan)[static_cast<std::size_t>(layer)];
  totals.self_ns.fetch_add(self_ns, std::memory_order_relaxed);
  totals.total_ns.fetch_add(end - start, std::memory_order_relaxed);
  if (retained_.fetch_add(1, std::memory_order_relaxed) < kRetainedSpans) {
    t.spans.push_back(SpanRecord{id, parent, request, start, end, t.thread,
                                 layer});
  }
}

void Tracer::dump(const std::string& path) {
  std::ofstream out(path);
  if (!out) return;
  for (ThreadTrace* t : threads()) {
    for (const SpanRecord& s : t->spans) {
      out << "{\"name\":\"" << layer_name(s.layer) << "\",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << ",\"thread\":" << s.thread << ",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << "}\n";
    }
  }
}

Span::Span(Layer layer, std::uint64_t request)
    : layer_(layer), request_(request) {
  Tracer& tracer = Tracer::get();
  if (!tracer.enabled()) return;
  t_ = &tracer.local();
  id_ = tracer.next_id();
  parent_ = t_->stack.empty() ? 0 : t_->stack.back().id;
  t_->stack.push_back(ThreadTrace::Frame{id_, 0});
  start_ = now_ns();
}

Span::~Span() {
  if (t_ == nullptr) return;
  const std::uint64_t end = now_ns();
  const std::uint64_t dur = end - start_;
  const std::uint64_t child = t_->stack.back().child_ns;
  t_->stack.pop_back();
  if (!t_->stack.empty()) t_->stack.back().child_ns += dur;
  Tracer::get().record(*t_, layer_, start_, end, parent_, request_, id_,
                       dur - child);
}

void record_async_span(Layer layer, std::uint64_t start, std::uint64_t end,
                       std::uint64_t request) {
  Tracer& tracer = Tracer::get();
  if (!tracer.enabled()) return;
  tracer.record(tracer.local(), layer, start, end, 0, request,
                tracer.next_id(), end - start);
}

LayerLedger collect_ledger() {
  LayerLedger out;
  for (ThreadTrace* t : Tracer::get().threads()) {
    const int rank = t->rank.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < kLayers; ++i) {
      const std::uint64_t self =
          t->nested[i].self_ns.load(std::memory_order_relaxed);
      out.self_ns[i] += self;
      out.nested_total_ns[i] +=
          t->nested[i].total_ns.load(std::memory_order_relaxed);
      out.orphan_ns[i] += t->orphan[i].total_ns.load(std::memory_order_relaxed);
      if (rank >= 0 && rank < LayerLedger::kMaxRanks) {
        out.rank_self_ns[static_cast<std::size_t>(rank)][i] += self;
      }
    }
  }
  return out;
}

LayerLedger LayerLedger::minus(const LayerLedger& before) const {
  LayerLedger d = *this;
  for (std::size_t i = 0; i < kLayers; ++i) {
    d.self_ns[i] -= before.self_ns[i];
    d.orphan_ns[i] -= before.orphan_ns[i];
    d.nested_total_ns[i] -= before.nested_total_ns[i];
    for (std::size_t r = 0; r < kMaxRanks; ++r) {
      d.rank_self_ns[r][i] -= before.rank_self_ns[r][i];
    }
  }
  return d;
}

// ---- watchdog ---------------------------------------------------------------

Watchdog::Watchdog(std::size_t slots, double deadline_s, double abort_s)
    : start_(std::make_unique<std::atomic<std::uint64_t>[]>(slots)),
      slots_(slots),
      deadline_ns_(static_cast<std::uint64_t>(deadline_s * 1e9)),
      abort_ns_(static_cast<std::uint64_t>(abort_s * 1e9)),
      thread_([this] { loop(); }) {}

Watchdog::~Watchdog() {
  stop_.store(true);
  thread_.join();
}

void Watchdog::begin(std::size_t slot) {
  start_[slot].store(now_ns(), std::memory_order_relaxed);
}

bool Watchdog::end(std::size_t slot) {
  const std::uint64_t start =
      start_[slot].exchange(0, std::memory_order_relaxed);
  return start != 0 && now_ns() - start > deadline_ns_;
}

void Watchdog::loop() {
  while (!stop_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const std::uint64_t now = now_ns();
    std::uint64_t stalled = 0;
    for (std::size_t i = 0; i < slots_; ++i) {
      const std::uint64_t s = start_[i].load(std::memory_order_relaxed);
      if (s != 0 && now > s && now - s > abort_ns_) ++stalled;
    }
    if (stalled != 0) {
      g_failed.fetch_add(stalled);
      g_attempted.fetch_add(stalled);
      abort_run("an operation overran the watchdog limit (stall)");
    }
  }
}

// ---- storage ----------------------------------------------------------------

drx::Status CountingStorage::read_at(std::uint64_t offset,
                                     std::span<std::byte> out) {
  Span span(Layer::kStorage);
  std::lock_guard<std::mutex> lock(mu_);
  const double busy = inner_->stats().busy_us;
  const std::uint64_t t0 = now_ns();
  drx::Status st = inner_->read_at(offset, out);
  if (st.is_ok()) account(out.size(), busy, t0);
  return st;
}

drx::Status CountingStorage::write_at(std::uint64_t offset,
                                      std::span<const std::byte> data) {
  Span span(Layer::kStorage);
  std::lock_guard<std::mutex> lock(mu_);
  const double busy = inner_->stats().busy_us;
  const std::uint64_t t0 = now_ns();
  drx::Status st = inner_->write_at(offset, data);
  if (st.is_ok()) account(data.size(), busy, t0);
  return st;
}

void CountingStorage::account(std::uint64_t bytes, double busy_before,
                              std::uint64_t t0) {
  counts_.call_us += static_cast<double>(now_ns() - t0) / 1e3;
  ++counts_.requests;
  counts_.bytes += bytes;
  counts_.busy_us += inner_->stats().busy_us - busy_before;
}

CountingStorage::Counts CountingStorage::counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

StoragePair StoragePair::make(bool counting) {
  StoragePair p;
  auto meta = std::make_unique<drx::pfs::MemStorage>();
  auto data = std::make_unique<drx::pfs::MemStorage>();
  p.meta_mem = meta.get();
  p.data_mem = data.get();
  if (counting) {
    auto cm = std::make_unique<CountingStorage>(std::move(meta));
    auto cd = std::make_unique<CountingStorage>(std::move(data));
    p.meta_counting = cm.get();
    p.data_counting = cd.get();
    p.meta = std::move(cm);
    p.data = std::move(cd);
  } else {
    p.meta = std::move(meta);
    p.data = std::move(data);
  }
  return p;
}

drx::pfs::IoStats StoragePair::stats() const {
  drx::pfs::IoStats s = meta_mem->stats();
  s += data_mem->stats();
  return s;
}

// ---- registry ---------------------------------------------------------------

drx::obs::MetricsSnapshot registry_now() { return drx::obs::live_snapshot(); }

std::uint64_t counter_delta(const drx::obs::MetricsSnapshot& a,
                            const drx::obs::MetricsSnapshot& b,
                            std::string_view name) {
  const std::uint64_t before = a.counter(name);
  const std::uint64_t after = b.counter(name);
  return after > before ? after - before : 0;
}

drx::obs::HistogramSample histogram_delta(const drx::obs::MetricsSnapshot& a,
                                          const drx::obs::MetricsSnapshot& b,
                                          std::string_view name) {
  drx::obs::HistogramSample out;
  out.name = std::string(name);
  const auto find = [&](const drx::obs::MetricsSnapshot& s)
      -> const drx::obs::HistogramSample* {
    for (const auto& h : s.histograms) {
      if (h.name == name) return &h;
    }
    return nullptr;
  };
  const auto* after = find(b);
  if (after == nullptr) return out;
  out = *after;
  if (const auto* before = find(a)) {
    out.count -= std::min(out.count, before->count);
    out.sum -= std::min(out.sum, before->sum);
    for (std::size_t i = 0; i < out.buckets.size(); ++i) {
      out.buckets[i] -= std::min(out.buckets[i], before->buckets[i]);
    }
  }
  return out;
}

// ---- results ----------------------------------------------------------------

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

unsigned nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1U;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double host_steal_frac(const std::array<std::uint64_t, 2>& before,
                       const std::array<std::uint64_t, 2>& after) {
  const std::uint64_t total = after[1] - before[1];
  return total == 0 ? 0.0
                    : static_cast<double>(after[0] - before[0]) /
                          static_cast<double>(total);
}

std::array<std::uint64_t, 2> host_cpu_ticks() {
  std::array<std::uint64_t, 2> out{};
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t field = 0;
  if (!(stat >> cpu) || cpu != "cpu") return out;
  for (int i = 0; i < 10 && stat >> field; ++i) {
    out[1] += field;
    if (i == 7) out[0] = field;  // the eighth field is steal
  }
  return out;
}

double percentile(std::vector<float>& v, double q) {
  if (v.empty()) return 0;
  const auto k = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(v.size() - 1),
                       std::floor(q * static_cast<double>(v.size()))));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

void check_thread_budget(const char* workload, unsigned threads,
                         const char* breakdown) {
  const unsigned cores = nproc();
  std::printf("threads: %u (%s) of nproc %u, plus an idle watchdog\n",
              threads, breakdown, cores);
  if (threads > cores) {
    std::fprintf(stderr,
                 "%s needs %u load threads but nproc is %u; refusing to "
                 "run oversubscribed\n",
                 workload, threads, cores);
    std::exit(2);
  }
}

void note_progress(std::uint64_t attempted, std::uint64_t failed) {
  g_attempted.fetch_add(attempted);
  g_failed.fetch_add(failed);
}

void abort_run(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  print_result(false, std::max<std::uint64_t>(1, g_attempted.load()),
               g_failed.load(), {});
  std::_Exit(3);
}

int report(const Args& args, const std::vector<RoundResult>& rounds) {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t ledger_mismatches = 0;
  std::vector<const RoundResult*> plain;
  std::vector<const RoundResult*> traced;
  for (const RoundResult& r : rounds) {
    attempted += r.attempted;
    failed += r.failed;
    mismatches += r.mismatches;
    ledger_mismatches += r.ledger_mismatches;
    (r.traced ? traced : plain).push_back(&r);
  }
  // Quantile q over the untraced rounds of f(round).
  const auto over_rounds = [&](double q, auto&& f) {
    std::vector<double> v;
    for (const RoundResult* r : plain) v.push_back(f(*r));
    return quantile(std::move(v), q);
  };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const auto user_bytes = [](const RoundResult& r) {
    return static_cast<double>(r.user_write_bytes + r.user_read_bytes);
  };

  // Wall-clock figures: medians over untraced rounds. They are printed,
  // and reported ungated in the traced run, but not gated: host steal on
  // this class of VM moves them by up to 3x between minutes.
  const double median_lat50 =
      over_rounds(0.5, [](const RoundResult& r) { return r.p50_us; });
  const double median_lat99 =
      over_rounds(0.5, [](const RoundResult& r) { return r.p99_us; });
  std::map<std::string, double> wall = {
      {"wall.ops_per_s", over_rounds(0.5, [&](const RoundResult& r) {
         return ratio(static_cast<double>(r.ops), r.wall_s);
       })},
      {"wall.latency_p50_us", median_lat50},
      {"wall.latency_p99_us", median_lat99},
      {"wall.write_mb_s", over_rounds(0.5, [&](const RoundResult& r) {
         return ratio(static_cast<double>(r.user_write_bytes) / 1e6,
                      r.write_wall_s);
       })},
      {"wall.read_mb_s", over_rounds(0.5, [&](const RoundResult& r) {
         return ratio(static_cast<double>(r.user_read_bytes) / 1e6,
                      r.read_wall_s);
       })},
      {"host.steal_frac",
       over_rounds(0.5, [](const RoundResult& r) { return r.host_steal_frac; })},
  };

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  const auto put = [&](const char* name, double value, const char* unit) {
    metrics.push_back({name, {value, unit}});
  };
  if (!args.trace) {
    const auto med = [&](auto&& f) { return over_rounds(0.5, f); };
    put("setup_s", med([](const RoundResult& r) { return r.setup_s; }), "s");
    put("cpu_ms_per_user_mb", med([&](const RoundResult& r) {
          return ratio(r.cpu_s * 1e3, user_bytes(r) / 1e6);
        }), "ms/MB");
    put("sim_write_ms",
        med([](const RoundResult& r) { return r.sim_write_us / 1e3; }), "ms");
    put("sim_read_ms",
        med([](const RoundResult& r) { return r.sim_read_us / 1e3; }), "ms");
    put("device_bytes_per_user_byte", med([&](const RoundResult& r) {
          return ratio(static_cast<double>(r.device_bytes), user_bytes(r));
        }), "ratio");
    put("stored_bytes_per_user_byte", med([&](const RoundResult& r) {
          return ratio(static_cast<double>(r.stored_bytes),
                       static_cast<double>(r.logical_bytes));
        }), "ratio");
    put("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    std::map<std::string, double> values = wall;
    for (const RoundResult* r : traced) {
      for (const auto& [name, value] : r->layer) {
        values[name] += value / static_cast<double>(traced.size());
      }
      values["ledger.mismatches"] += static_cast<double>(r->ledger_mismatches) /
                                     static_cast<double>(traced.size());
    }
    std::vector<double> traced_wall;
    for (const RoundResult* r : traced) traced_wall.push_back(r->wall_s);
    values["obs.tracing_overhead"] =
        ratio(quantile(traced_wall, 0.5),
              over_rounds(0.5, [](const RoundResult& r) { return r.wall_s; }));
    for (const LayerMetric& m : kLayerMetrics) {
      const auto it = values.find(m.name);
      put(m.name, it == values.end() ? 0.0 : it->second, m.unit);
    }
  }

  const bool correct = mismatches == 0 && ledger_mismatches == 0;
  std::vector<double> steal;
  for (const RoundResult& r : rounds) steal.push_back(r.host_steal_frac);
  std::printf("workload: %s  seed: %llu  trace: %d  rounds: %zu (%zu traced)  "
              "host steal: median %.1f%%, max %.1f%% of CPU time per round\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              rounds.size(), traced.size(), 100 * quantile(steal, 0.5),
              100 * quantile(steal, 1.0));
  std::printf("attempted: %llu  failed: %llu  failed_frac: %.6g (failed / "
              "attempted)  verification mismatches: %llu  ledger "
              "mismatches: %llu\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)),
              static_cast<unsigned long long>(mismatches),
              static_cast<unsigned long long>(ledger_mismatches));
  for (const auto& [name, vu] : metrics) {
    std::printf("  %-32s %14.6g %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  }
  if (!args.trace) {
    std::printf("wall clock (not gated; see host steal above):\n");
    for (const auto& [name, value] : wall) {
      std::printf("  %-32s %14.6g\n", name.c_str(), value);
    }
  }
  if (args.trace) {
    Tracer::get().dump(".bench_out/spans-" + args.workload + "-seed" +
                       std::to_string(args.seed) + ".jsonl");
  }
  print_result(correct, std::max<std::uint64_t>(1, attempted), failed,
               metrics);
  return correct ? 0 : 1;
}

}  // namespace perfbench
