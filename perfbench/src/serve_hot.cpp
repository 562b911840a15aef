// serve_hot: a closed loop through drx::serve over a hot set that fits in
// the cache. Loads the serve queue, shard locks, the lock-free fast path
// and CopyPlan; the device only sees the cold faults of each round and
// its checkpoint flushes, and codec, mpio and simpi stay idle.
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <vector>

#include "core/drx_file.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "serve/serve.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using drx::core::Box;
using drx::core::DrxFile;
using drx::core::Index;
using drx::core::MemoryOrder;
using drx::core::Shape;

constexpr std::uint64_t kN = 1024;      // array is kN x kN doubles
constexpr std::uint64_t kChunk = 32;    // in 32 x 32 chunks
constexpr std::uint64_t kHot = 12;      // hot set: 12 x 12 chunks
constexpr std::size_t kSessions = 32;   // one outstanding request each
constexpr int kWorkers = 3;             // + 1 generator = 4 threads
constexpr std::size_t kCacheChunks = 256;
constexpr int kShards = 8;
constexpr std::size_t kQueueDepth = 128;
// Short rounds: a host stall lands in a few rounds' tails, and the
// quantile over many rounds shows the system rather than the stall.
constexpr std::uint64_t kRequestsPerRound = 10000;
constexpr std::uint64_t kCheckpointEvery = 2000;  // requests between flushes
constexpr double kDeadlineS = 1.0;

// An element holds coord * 2^32 + version: its own coordinates plus the
// write that stored it (version 0 = set-up). Exact in a double below 2^53.
constexpr double kVersionScale = 4294967296.0;

double encode(std::uint64_t row, std::uint64_t col, std::uint64_t version) {
  return static_cast<double>(row * kN + col) * kVersionScale +
         static_cast<double>(version);
}

struct Slot {
  drx::serve::Session* session = nullptr;
  Box box{Index{}, Index{}};
  bool write = false;
  std::uint64_t request_id = 0;
  std::uint64_t submit_ns = 0;
  std::uint64_t done_ns = 0;
  drx::Status status;
  std::vector<double> out;  ///< read destination / write payload scratch
};

/// Every element of a read holds its own coordinates and a version no
/// newer than the last write issued.
bool verify_read(const Slot& s, std::uint64_t version) {
  const std::uint64_t w = s.box.hi[1] - s.box.lo[1];
  const std::uint64_t h = s.box.hi[0] - s.box.lo[0];
  const double newest = static_cast<double>(version);
  for (std::uint64_t i = 0; i < h; ++i) {
    const double* row = s.out.data() + i * w;
    bool ok = true;
    for (std::uint64_t j = 0; j < w; ++j) {
      const double base = encode(s.box.lo[0] + i, s.box.lo[1] + j, 0);
      ok &= row[j] >= base && row[j] - base <= newest;
    }
    if (!ok) return false;
  }
  return true;
}

class Completions {
 public:
  void push(std::size_t slot) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ready_.push_back(slot);
    }
    cv_.notify_one();
  }
  /// Swaps every ready slot index into `out` (blocking until one exists).
  void take(std::vector<std::size_t>& out) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !ready_.empty(); });
    out.swap(ready_);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::size_t> ready_;
};

RoundResult round(const Args& args, int index, bool traced, Watchdog& dog) {
  RoundResult r;
  Rng rng(args.seed * 1000003 + static_cast<std::uint64_t>(index));
  // Hot set origin: seed-chosen, chunk aligned.
  const std::uint64_t hot_r = rng.below(kN / kChunk - kHot + 1) * kChunk;
  const std::uint64_t hot_c = rng.below(kN / kChunk - kHot + 1) * kChunk;

  // ---- set-up: array with every element at version 0, cold server --------
  const double setup_cpu = process_cpu_s();
  StoragePair storage = StoragePair::make(traced);
  DrxFile::Options options;
  options.dtype = drx::core::ElementType::kDouble;
  options.codec = drx::codec::CodecId::kNone;
  auto created = DrxFile::create(std::move(storage.meta),
                                 std::move(storage.data), Shape{kN, kN},
                                 Shape{kChunk, kChunk}, options);
  if (!created.is_ok()) {
    std::fprintf(stderr, "create failed: %s\n",
                 created.status().message().c_str());
    std::exit(1);
  }
  DrxFile file = std::move(created).value();
  {
    std::vector<double> band(kChunk * kN);
    for (std::uint64_t r0 = 0; r0 < kN; r0 += kChunk) {
      for (std::uint64_t i = 0; i < kChunk; ++i) {
        for (std::uint64_t j = 0; j < kN; ++j) {
          band[i * kN + j] = encode(r0 + i, j, 0);
        }
      }
      const Box box{Index{r0, 0}, Index{r0 + kChunk, kN}};
      if (!file.write_box(box, MemoryOrder::kRowMajor,
                          std::as_bytes(std::span<const double>(band)))
               .is_ok()) {
        std::fprintf(stderr, "set-up write failed\n");
        std::exit(1);
      }
    }
  }
  drx::serve::Server::Options so;
  so.workers = kWorkers;
  so.queue_depth = kQueueDepth;
  so.cache_chunks = kCacheChunks;
  so.name = "perfbench";
  so.cache.io_threads = 0;
  so.cache.prefetch_depth = 0;
  so.cache.shards = kShards;
  auto server = std::make_unique<drx::serve::Server>(file, so);
  std::vector<Slot> slots(kSessions);
  for (Slot& s : slots) {
    s.session = &server->open_session();
    s.out.resize(4 * kChunk * kChunk);
  }
  r.setup_s = process_cpu_s() - setup_cpu;

  // ---- measured part: kRequestsPerRound requests with checkpoints --------
  const drx::pfs::IoStats dev0 = storage.stats();
  const drx::obs::MetricsSnapshot reg0 = registry_now();
  const LayerLedger led0 = collect_ledger();
  Tracer::get().set_enabled(traced);
  const double cpu0 = process_cpu_s();

  Completions done;
  std::uint64_t version = 0;  // last write version issued
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  r.latency_us.reserve(kRequestsPerRound);

  const std::uint64_t start = now_ns();
  {
    Span root(Layer::kRound);
    const auto submit = [&](std::size_t slot) {
      Slot& s = slots[slot];
      drx::serve::Request req;
      {
        Span gen(Layer::kGen);
        const std::uint64_t size = 1 + rng.below(2);  // 1x1 or 2x2 chunks
        const std::uint64_t br = hot_r + rng.below(kHot - size + 1) * kChunk;
        const std::uint64_t bc = hot_c + rng.below(kHot - size + 1) * kChunk;
        s.box = Box{Index{br, bc},
                    Index{br + size * kChunk, bc + size * kChunk}};
        s.write = rng.below(10) == 0;
        s.request_id = ++issued;
        req.box = s.box;
        req.order = MemoryOrder::kRowMajor;
        const std::uint64_t n = size * size * kChunk * kChunk;
        if (s.write) {
          req.type = drx::serve::RequestType::kWrite;
          ++version;
          const std::uint64_t w = size * kChunk;
          for (std::uint64_t i = 0; i < w; ++i) {
            for (std::uint64_t j = 0; j < w; ++j) {
              s.out[i * w + j] = encode(br + i, bc + j, version);
            }
          }
          req.data.resize(n * sizeof(double));
          std::memcpy(req.data.data(), s.out.data(), req.data.size());
        } else {
          req.type = drx::serve::RequestType::kRead;
          req.out = std::as_writable_bytes(
              std::span<double>(s.out.data(), n));
        }
      }
      Span sub(Layer::kServeSubmit, s.request_id);
      dog.begin(slot);
      s.submit_ns = now_ns();
      s.session->submit(std::move(req),
                        [&done, &s, slot](const drx::Status& st) {
                          s.status = st;
                          s.done_ns = now_ns();
                          done.push(slot);
                        });
    };

    // Checkpoint: with every request complete, flush the server. The
    // flushes are the round's only device writes (the hot set never
    // leaves the cache), and which chunks they find dirty follows the
    // seed.
    const auto checkpoint = [&] {
      const double busy = storage.stats().busy_us;
      Span flush(Layer::kCacheFlush);
      ++r.attempted;
      if (!server->flush().is_ok()) ++r.failed;
      r.sim_write_us += storage.stats().busy_us - busy;
    };

    for (std::size_t i = 0; i < kSessions; ++i) submit(i);
    std::vector<std::size_t> ready;
    std::vector<std::size_t> parked;  // sessions idle until the checkpoint
    while (completed < kRequestsPerRound) {
      {
        Span wait(Layer::kWait);
        done.take(ready);
      }
      for (const std::size_t i : ready) {
        Slot& s = slots[i];
        ++completed;
        ++r.attempted;
        record_async_span(Layer::kServeRequest, s.submit_ns, s.done_ns,
                          s.request_id);
        const bool late = dog.end(i);
        r.latency_us.push_back(
            static_cast<float>(static_cast<double>(s.done_ns - s.submit_ns) /
                               1e3));
        const std::uint64_t bytes = s.box.volume() * sizeof(double);
        bool ok = s.status.is_ok() && !late;
        if (s.write) {
          r.user_write_bytes += bytes;
        } else {
          r.user_read_bytes += bytes;
          Span verify(Layer::kVerify, s.request_id);
          if (s.status.is_ok() && !verify_read(s, version)) {
            ++r.mismatches;
            ok = false;
          }
        }
        if (!ok) ++r.failed;
        ++r.ops;
        if (issued % kCheckpointEvery != 0) {
          submit(i);
        } else {
          parked.push_back(i);
        }
      }
      ready.clear();
      if (completed == issued && issued % kCheckpointEvery == 0) {
        checkpoint();
        if (issued < kRequestsPerRound) {
          for (const std::size_t i : parked) submit(i);
        }
        parked.clear();
      }
    }
  }
  r.cpu_s = process_cpu_s() - cpu0;
  r.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  Tracer::get().set_enabled(false);

  r.write_wall_s = r.wall_s;
  r.read_wall_s = r.wall_s;
  const drx::pfs::IoStats dev = storage.stats() - dev0;
  r.sim_read_us = dev.busy_us - r.sim_write_us;
  r.device_bytes = dev.bytes_read + dev.bytes_written;
  r.stored_bytes = storage.stored_bytes();
  r.logical_bytes = kN * kN * sizeof(double);

  if (traced) {
    const drx::obs::MetricsSnapshot reg1 = registry_now();
    add_registry_layers(reg0, reg1,
                        static_cast<double>(r.user_read_bytes +
                                            r.user_write_bytes),
                        r);
    add_ledger_layers(collect_ledger().minus(led0), 0, r);
    add_cache_layers(server->array().cache(), r);
    add_device_layers({dev}, r);
    reconcile_registry(dev, reg0, reg1, r);
  }
  server.reset();
  if (traced) reconcile_storage(storage, r);
  return r;
}

}  // namespace

std::vector<RoundResult> run_serve_hot(const Args& args) {
  check_thread_budget("serve_hot", 1 + kWorkers,
                      "1 generator + 3 serve workers, sync cache");
  Watchdog dog(kSessions, kDeadlineS, 30.0);
  return run_rounds(args, 3, [&](int index, bool traced) {
    return round(args, index, traced, dog);
  });
}

}  // namespace perfbench
