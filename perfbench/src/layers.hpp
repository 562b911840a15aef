// Per-layer metrics of a traced round, measured from outside the library:
// benchmark spans, public stats and the obs registry counters. Each helper
// adds its values to RoundResult::layer; the reconcile_* helpers count a
// ledger mismatch when two independent views of the same work disagree.
#pragma once

#include <vector>

#include "core/chunk_cache.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "pfs/cost_model.hpp"

namespace perfbench {

/// Codec, copy, file, io, mpio, simpi and serve-stage counters from the
/// registry delta [a, b]; `user_bytes` normalises the simpi traffic.
void add_registry_layers(const drx::obs::MetricsSnapshot& a,
                         const drx::obs::MetricsSnapshot& b, double user_bytes,
                         RoundResult& r);

/// Span self times of one round and the ledger identity: layer self
/// times plus the residual must equal the driving threads' wall time.
/// `ranks` > 0 adds the drxmp mean/max over ranks and simpi skew wait.
void add_ledger_layers(const LayerLedger& d, int ranks, RoundResult& r);

/// ChunkCache::Stats and shard balance of a cache built for this round.
void add_cache_layers(const drx::core::ChunkCache& cache, RoundResult& r);

/// Device counters of the measured part, one IoStats per server.
void add_device_layers(const std::vector<drx::pfs::IoStats>& per_server,
                       RoundResult& r);

/// The registry's pfs.* counters must match the device delta: requests,
/// bytes and seeks exactly, busy time to the registry's 1 us truncation
/// per request.
void reconcile_registry(const drx::pfs::IoStats& device,
                        const drx::obs::MetricsSnapshot& a,
                        const drx::obs::MetricsSnapshot& b, RoundResult& r);

/// The counting wrappers of a traced round must have seen exactly the
/// requests and bytes of both MemStorages' whole history (set-up
/// included) and summed the same busy time. Call once nothing else will
/// touch the storage (cache and server gone).
void reconcile_storage(const StoragePair& storage, RoundResult& r);

/// Field-wise sum / difference helpers for per-server stats.
[[nodiscard]] drx::pfs::IoStats total(const std::vector<drx::pfs::IoStats>& v);
[[nodiscard]] std::vector<drx::pfs::IoStats> delta(
    const std::vector<drx::pfs::IoStats>& before,
    const std::vector<drx::pfs::IoStats>& after);

}  // namespace perfbench
