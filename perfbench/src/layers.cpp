#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

double us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

void mismatch(RoundResult& r, const char* what, double a, double b) {
  ++r.ledger_mismatches;
  std::fprintf(stderr, "ledger mismatch: %s (%.17g vs %.17g)\n", what, a, b);
}

}  // namespace

void add_registry_layers(const drx::obs::MetricsSnapshot& a,
                         const drx::obs::MetricsSnapshot& b, double user_bytes,
                         RoundResult& r) {
  const auto c = [&](std::string_view name) {
    return static_cast<double>(counter_delta(a, b, name));
  };
  const auto hsum = [&](std::string_view name) {
    return static_cast<double>(histogram_delta(a, b, name).sum);
  };
  auto& L = r.layer;

  // serve: queue wait is submit-to-completion latency minus the request's
  // own op time (the op opens when a worker dequeues it).
  L["serve.queue_wait_us"] = std::max(
      0.0, hsum("serve.request.latency_us") - hsum("obs.op.total_us"));
  L["serve.failed"] = c("serve.requests.failed");
  L["cache.lock_wait_us"] = hsum("obs.op.stage.lock_wait_us");
  L["cache.prefetch_wait_us"] = hsum("core.cache.prefetch_wait_us");

  L["file.chunk_reads"] = c("core.chunk_reads");
  L["file.chunk_read_batches"] = c("core.chunk_read_batches");

  L["copy.elements_per_run"] =
      ratio(c("core.copy.elements"), c("core.copy.runs"));
  L["copy.plan_hit_ratio"] =
      ratio(c("core.copy.plan_hits"),
            c("core.copy.plan_hits") + c("core.copy.plan_misses"));

  L["codec.encode_us"] = hsum("core.codec.encode_us");
  L["codec.decode_us"] = hsum("core.codec.decode_us");
  L["codec.stored_ratio"] =
      ratio(c("core.codec.bytes_stored"), c("core.codec.bytes_raw"));
  L["codec.slot_relocations"] = c("core.codec.slot_relocations");
  L["codec.frag_bytes"] = c("core.codec.frag_bytes");

  L["io.job_us"] = hsum("io.pool.job_us");
  L["io.queue_depth_p95"] = static_cast<double>(
      drx::obs::summarize_histogram(histogram_delta(a, b, "io.pool.queue_depth"))
          .p95);
  L["io.failed"] = c("io.pool.failed");
  L["io.inline_runs"] = c("io.pool.inline_runs");

  L["mpio.agg_pieces_per_run"] =
      ratio(c("mpio.agg_pieces"), c("mpio.agg_runs"));
  L["mpio.collective_ops"] = c("mpio.collective_ops");

  L["simpi.coll_bytes_per_user_byte"] =
      ratio(c("simpi.coll.bytes"), user_bytes);
  L["simpi.p2p_bytes_per_user_byte"] = ratio(c("simpi.p2p.bytes"), user_bytes);
  L["simpi.messages"] = c("simpi.coll.messages") + c("simpi.p2p.messages");
}

void add_ledger_layers(const LayerLedger& d, int ranks, RoundResult& r) {
  auto& L = r.layer;
  const auto self = [&](Layer layer) {
    return d.self_ns[static_cast<std::size_t>(layer)];
  };
  const auto orphan = [&](Layer layer) {
    return d.orphan_ns[static_cast<std::size_t>(layer)];
  };
  L["serve.submit_block_us"] = us(self(Layer::kServeSubmit));
  L["serve.request_us"] = us(orphan(Layer::kServeRequest));
  L["cache.write_box_us"] = us(self(Layer::kCacheWriteBox));
  L["cache.read_box_us"] = us(self(Layer::kCacheReadBox));
  L["cache.flush_us"] = us(self(Layer::kCacheFlush));
  L["file.extend_us"] = us(self(Layer::kFileExtend));
  L["pfs.storage_call_us"] =
      us(self(Layer::kStorage) + orphan(Layer::kStorage));
  L["bench.gen_us"] = us(self(Layer::kGen));
  L["bench.verify_us"] = us(self(Layer::kVerify));
  L["bench.wait_us"] = us(self(Layer::kWait));

  std::uint64_t layers_ns = 0;
  std::uint64_t pool_ns = 0;
  for (std::size_t i = 0; i < kLayers; ++i) {
    if (i != static_cast<std::size_t>(Layer::kRound)) layers_ns += d.self_ns[i];
    pool_ns += d.orphan_ns[i];
  }
  L["ledger.wall_us"] = us(d.wall_ns());
  L["ledger.residual_us"] = us(d.residual_ns());
  L["ledger.residual_frac"] = ratio(us(d.residual_ns()), us(d.wall_ns()));
  L["ledger.pool_us"] = us(pool_ns);
  if (layers_ns + d.residual_ns() != d.wall_ns()) {
    mismatch(r, "layer self times + residual != wall",
             static_cast<double>(layers_ns + d.residual_ns()),
             static_cast<double>(d.wall_ns()));
  }

  if (ranks <= 0) return;
  const auto spread = [&](Layer layer, const char* mean_name,
                          const char* max_name) {
    double sum = 0;
    double max = 0;
    for (int k = 0; k < ranks; ++k) {
      const double v =
          us(d.rank_self_ns[static_cast<std::size_t>(k)]
                           [static_cast<std::size_t>(layer)]);
      sum += v;
      max = std::max(max, v);
    }
    L[mean_name] = sum / ranks;
    if (max_name != nullptr) L[max_name] = max;
  };
  spread(Layer::kExtendAll, "drxmp.extend_all_us_mean",
         "drxmp.extend_all_us_max");
  spread(Layer::kWriteBoxAll, "drxmp.write_box_all_us_mean",
         "drxmp.write_box_all_us_max");
  spread(Layer::kReadMyZone, "drxmp.read_my_zone_us_mean",
         "drxmp.read_my_zone_us_max");
  spread(Layer::kSkewWait, "simpi.skew_wait_us", nullptr);
}

void add_cache_layers(const drx::core::ChunkCache& cache, RoundResult& r) {
  const drx::core::ChunkCache::Stats s = cache.stats();
  auto& L = r.layer;
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  L["cache.hit_ratio"] = ratio(d(s.hits), d(s.hits + s.misses));
  L["cache.fast_hit_ratio"] = ratio(d(s.fast_hits), d(s.hits));
  L["cache.capacity_borrows"] = d(s.capacity_borrows);
  L["cache.prefetch_useful_ratio"] =
      ratio(d(s.prefetch_useful), d(s.prefetch_issued));
  L["cache.prefetch_wasted"] = d(s.prefetch_wasted);
  L["cache.prefetch_waits"] = d(s.prefetch_waits);
  L["cache.evictions"] = d(s.evictions);
  L["cache.writebacks"] = d(s.writebacks);
  L["cache.deferred_writebacks"] = d(s.deferred_writebacks);
  L["cache.write_queue_hits"] = d(s.write_queue_hits);
  const std::vector<std::uint64_t> shards = cache.shard_accesses();
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  for (const std::uint64_t a : shards) {
    sum += a;
    max = std::max(max, a);
  }
  L["cache.shard_imbalance"] =
      ratio(d(max), d(sum) / static_cast<double>(shards.size()));
}

void add_device_layers(const std::vector<drx::pfs::IoStats>& per_server,
                       RoundResult& r) {
  const drx::pfs::IoStats t = total(per_server);
  auto& L = r.layer;
  const double requests =
      static_cast<double>(t.read_requests + t.write_requests);
  const double bytes = static_cast<double>(t.bytes_read + t.bytes_written);
  L["pfs.requests"] = requests;
  L["pfs.seeks"] = static_cast<double>(t.seeks);
  L["pfs.bytes"] = bytes;
  L["pfs.mean_request_kb"] = ratio(bytes / 1024.0, requests);
  double max = 0;
  for (const auto& s : per_server) max = std::max(max, s.busy_us);
  L["pfs.server_busy_imbalance"] =
      ratio(max, t.busy_us / static_cast<double>(per_server.size()));
}

void reconcile_registry(const drx::pfs::IoStats& device,
                        const drx::obs::MetricsSnapshot& a,
                        const drx::obs::MetricsSnapshot& b, RoundResult& r) {
  const auto c = [&](std::string_view name) {
    return static_cast<double>(counter_delta(a, b, name));
  };
  const auto check = [&](const char* what, double reg, double dev) {
    if (reg != dev) mismatch(r, what, reg, dev);
  };
  check("registry pfs.read_requests vs device",
        c("pfs.read_requests"), static_cast<double>(device.read_requests));
  check("registry pfs.write_requests vs device",
        c("pfs.write_requests"), static_cast<double>(device.write_requests));
  check("registry pfs.bytes_read vs device", c("pfs.bytes_read"),
        static_cast<double>(device.bytes_read));
  check("registry pfs.bytes_written vs device", c("pfs.bytes_written"),
        static_cast<double>(device.bytes_written));
  check("registry pfs.seeks vs device", c("pfs.seeks"),
        static_cast<double>(device.seeks));
  const double requests =
      static_cast<double>(device.read_requests + device.write_requests);
  const double busy = c("pfs.busy_us");
  if (busy > device.busy_us + 1e-6 || busy < device.busy_us - requests - 1e-6) {
    mismatch(r, "registry pfs.busy_us vs device busy", busy, device.busy_us);
  }
}

void reconcile_storage(const StoragePair& storage, RoundResult& r) {
  const auto m = storage.meta_counting->counts();
  const auto dc = storage.data_counting->counts();
  const CountingStorage::Counts seen{m.requests + dc.requests,
                                     m.bytes + dc.bytes,
                                     m.busy_us + dc.busy_us,
                                     m.call_us + dc.call_us};
  const drx::pfs::IoStats device = storage.stats();
  const double requests =
      static_cast<double>(device.read_requests + device.write_requests);
  const double bytes =
      static_cast<double>(device.bytes_read + device.bytes_written);
  if (static_cast<double>(seen.requests) != requests) {
    mismatch(r, "wrapper requests vs MemStorage",
             static_cast<double>(seen.requests), requests);
  }
  if (static_cast<double>(seen.bytes) != bytes) {
    mismatch(r, "wrapper bytes vs MemStorage", static_cast<double>(seen.bytes),
             bytes);
  }
  // Per-call deltas of a running double sum re-add to the total only up
  // to rounding.
  if (std::fabs(seen.busy_us - device.busy_us) >
      1e-9 * std::max(1.0, device.busy_us)) {
    mismatch(r, "wrapper busy_us vs MemStorage", seen.busy_us, device.busy_us);
  }
}

drx::pfs::IoStats total(const std::vector<drx::pfs::IoStats>& v) {
  drx::pfs::IoStats t;
  for (const auto& s : v) t += s;
  return t;
}

std::vector<drx::pfs::IoStats> delta(
    const std::vector<drx::pfs::IoStats>& before,
    const std::vector<drx::pfs::IoStats>& after) {
  std::vector<drx::pfs::IoStats> d(after.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    d[i] = i < before.size() ? after[i] - before[i] : after[i];
  }
  return d;
}

}  // namespace perfbench
