// Sharded-cache tests (docs/SERVING.md): shard routing and per-shard
// access counters, the lock-free resident-read fast path (publish /
// unpublish / write coherence), capacity borrowing between shards, and
// an amplified multi-shard stress mix that races fast-path readers
// against writers, flushes, and invalidation, and a flush that never
// writes a frame under a writer's pin. The ChunkCacheSharded.* filter
// runs under TSan's amplified pass in CI.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "core/chunk_cache.hpp"
#include "io/config.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace drx::core {

/// White-box access to the private ShardPairLock (friend of ChunkCache):
/// the pairing primitive's edge cases (self-pair, extreme indices) are
/// not reachable through the public API, which only pairs distinct
/// shards via capacity borrowing.
struct ChunkCacheTestPeer {
  using PairLock = ChunkCache::ShardPairLock;
  static util::Mutex& shard_mu(ChunkCache& cache, std::size_t index) {
    return cache.shards_[index].mu;
  }
};

namespace {

DrxFile make_file(Shape bounds, Shape chunk) {
  DrxFile::Options options;
  options.dtype = ElementType::kDouble;
  auto f = DrxFile::create(std::make_unique<pfs::MemStorage>(),
                           std::make_unique<pfs::MemStorage>(),
                           std::move(bounds), std::move(chunk), options);
  EXPECT_TRUE(f.is_ok());
  return std::move(f).value();
}

ChunkCache::AsyncOptions sharded(int shards) {
  ChunkCache::AsyncOptions async;
  async.shards = shards;
  return async;
}

void write_value(ChunkCache& cache, std::uint64_t q, double v) {
  auto p = cache.pin(q, /*writable=*/true);
  ASSERT_TRUE(p.is_ok());
  std::memcpy(p.value().data(), &v, sizeof(v));
  cache.unpin(q, /*dirty=*/true, /*writable=*/true);
}

double read_value(ChunkCache& cache, std::uint64_t q) {
  auto p = cache.pin(q, /*writable=*/false);
  EXPECT_TRUE(p.is_ok());
  double v = 0;
  std::memcpy(&v, p.value().data(), sizeof(v));
  cache.unpin(q, /*dirty=*/false, /*writable=*/false);
  return v;
}

TEST(ChunkCacheSharded, ShardCountRoundsAndCaps) {
  DrxFile file = make_file(Shape{16, 16}, Shape{2, 2});  // 64 chunks
  ChunkCache c8(file, 32, sharded(8));
  EXPECT_EQ(c8.shard_count(), 8u);
  ChunkCache c6(file, 32, sharded(6));  // rounds down to a power of two
  EXPECT_EQ(c6.shard_count(), 4u);
  // Tiny capacity halves the shard count until every shard owns a frame.
  ChunkCache c_tiny(file, 2, sharded(8));
  EXPECT_LE(c_tiny.shard_count(), 2u);
  EXPECT_GE(c_tiny.shard_count(), 1u);
}

TEST(ChunkCacheSharded, AccessesSpreadAcrossShardsAndAreCounted) {
  DrxFile file = make_file(Shape{16, 16}, Shape{2, 2});  // 64 chunks
  ChunkCache cache(file, 64, sharded(8));
  for (std::uint64_t q = 0; q < 64; ++q) {
    (void)read_value(cache, q);
  }
  const std::vector<std::uint64_t> accesses = cache.shard_accesses();
  ASSERT_EQ(accesses.size(), 8u);
  std::uint64_t total = 0;
  std::size_t populated = 0;
  for (const std::uint64_t a : accesses) {
    total += a;
    if (a != 0) ++populated;
  }
  EXPECT_EQ(total, 64u);
  // The splitmix64 mix must not collapse 64 sequential chunk ids onto a
  // couple of shards.
  EXPECT_GE(populated, 4u);
  for (std::uint64_t q = 0; q < 64; ++q) {
    EXPECT_LT(cache.shard_index(q), 8u);
  }
}

TEST(ChunkCacheSharded, FastPathServesResidentReads) {
  DrxFile file = make_file(Shape{8, 8}, Shape{2, 2});
  ChunkCache cache(file, 8, sharded(4));
  write_value(cache, 3, 42.0);
  // A cold chunk is not published: the fast path must decline.
  EXPECT_FALSE(cache.try_pin_fast(7).has_value());
  // A read pin publishes the frame on unpin.
  EXPECT_EQ(read_value(cache, 3), 42.0);
  auto fast = cache.try_pin_fast(3);
  ASSERT_TRUE(fast.has_value());
  double v = 0;
  std::memcpy(&v, fast->bytes().data(), sizeof(v));
  EXPECT_EQ(v, 42.0);
  fast.reset();  // drop the pin before anyone needs to unpublish

  double out = 0;
  EXPECT_TRUE(cache.try_read_fast(
      3, 0, std::span<std::byte>(reinterpret_cast<std::byte*>(&out),
                                 sizeof(out))));
  EXPECT_EQ(out, 42.0);
  EXPECT_GE(cache.stats().fast_hits, 2u);
}

TEST(ChunkCacheSharded, WritePinUnpublishesAndRepublishes) {
  DrxFile file = make_file(Shape{8, 8}, Shape{2, 2});
  ChunkCache cache(file, 8, sharded(4));
  EXPECT_EQ(read_value(cache, 5), 0.0);  // published now
  ASSERT_TRUE(cache.try_pin_fast(5).has_value());

  auto p = cache.pin(5, /*writable=*/true);
  ASSERT_TRUE(p.is_ok());
  // Write-pinned: the fast path must not see the frame mid-mutation.
  EXPECT_FALSE(cache.try_pin_fast(5).has_value());
  const double v = 7.0;
  std::memcpy(p.value().data(), &v, sizeof(v));
  cache.unpin(5, /*dirty=*/true, /*writable=*/true);

  // Republished after the write completes — and coherent.
  auto fast = cache.try_pin_fast(5);
  ASSERT_TRUE(fast.has_value());
  double seen = 0;
  std::memcpy(&seen, fast->bytes().data(), sizeof(seen));
  EXPECT_EQ(seen, 7.0);
}

TEST(ChunkCacheSharded, FastReadsDisabledByOption) {
  io::set_cache_fast_reads(0);
  DrxFile file = make_file(Shape{8, 8}, Shape{2, 2});
  ChunkCache cache(file, 8, sharded(4));
  EXPECT_EQ(read_value(cache, 1), 0.0);
  EXPECT_FALSE(cache.try_pin_fast(1).has_value());
  EXPECT_EQ(cache.stats().fast_hits, 0u);
  io::set_cache_fast_reads(-1);  // back to DRX_CACHE_FAST_READS
}

TEST(ChunkCacheSharded, CapacityBorrowingRescuesAFullShard) {
  DrxFile file = make_file(Shape{16, 16}, Shape{2, 2});  // 64 chunks
  ChunkCache cache(file, 4, sharded(2));  // 2 frames per shard
  ASSERT_EQ(cache.shard_count(), 2u);
  // Three chunks routed to the same shard: pinning all three overflows
  // that shard's capacity while every frame is pinned, which the cache
  // must survive by borrowing a frame's worth of capacity from its peer.
  const std::size_t target = cache.shard_index(0);
  std::vector<std::uint64_t> same;
  for (std::uint64_t q = 0; q < 64 && same.size() < 3; ++q) {
    if (cache.shard_index(q) == target) same.push_back(q);
  }
  ASSERT_EQ(same.size(), 3u);
  for (const std::uint64_t q : same) {
    auto p = cache.pin(q, /*writable=*/true);
    ASSERT_TRUE(p.is_ok()) << p.status().message();
  }
  EXPECT_GE(cache.stats().capacity_borrows, 1u);
  for (const std::uint64_t q : same) {
    cache.unpin(q, /*dirty=*/false, /*writable=*/true);
  }
  ASSERT_TRUE(cache.flush().is_ok());
}

TEST(ChunkCacheSharded, ShardPairLockSelfPairLocksOnce) {
  DrxFile file = make_file(Shape{8, 8}, Shape{2, 2});
  ChunkCache cache(file, 8, sharded(4));
  const std::size_t i = 2 % cache.shard_count();
  util::Mutex& mu = ChunkCacheTestPeer::shard_mu(cache, i);
  std::atomic<bool> acquired{false};
  std::thread contender;
  {
    // a == b must collapse to one acquisition: the historical
    // DRX_CHECK(a != b) is gone, and locking the same mutex twice would
    // self-deadlock right here.
    ChunkCacheTestPeer::PairLock pair(cache, i, i);
    contender = std::thread([&mu, &acquired] {
      util::MutexLock lock(mu);
      acquired.store(true);
    });
    // The pair genuinely holds the shard: the contender cannot get in.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(acquired.load());
  }
  // Destroyed: released exactly once (a double unlock of a std::mutex
  // would be UB and trips TSan), and the contender proceeds.
  contender.join();
  EXPECT_TRUE(acquired.load());
  util::MutexLock relock(mu);  // still a healthy mutex
}

TEST(ChunkCacheSharded, ShardPairLockMaxIndexPairBothOrders) {
  DrxFile file = make_file(Shape{16, 16}, Shape{2, 2});
  ChunkCache cache(file, 64, sharded(8));
  const std::size_t lo = 0;
  const std::size_t hi = cache.shard_count() - 1;
  ASSERT_GT(hi, lo);
  // The constructor sorts, so (lo, hi) and (hi, lo) must both acquire
  // lowest-first and release cleanly.
  { ChunkCacheTestPeer::PairLock pair(cache, lo, hi); }
  { ChunkCacheTestPeer::PairLock pair(cache, hi, lo); }
  // Self-pair at the top index: max(a, b) == shard_count() - 1 stays in
  // bounds and collapses to one lock.
  { ChunkCacheTestPeer::PairLock pair(cache, hi, hi); }
  util::MutexLock relo(ChunkCacheTestPeer::shard_mu(cache, lo));
  util::MutexLock rehi(ChunkCacheTestPeer::shard_mu(cache, hi));
}

// TSan-amplified stress (ChunkCacheSharded.* filter): pair-locked
// capacity borrowing ping-pongs frames between two shards while
// fast-path readers hit published frames and a churn thread resets the
// metrics Registry — the reset walks the same lock-free counter slots
// note_access() and the fast path bump concurrently.
TEST(ChunkCacheSharded, ConcurrentBorrowingVsFastReadsVsRegistryReset) {
  DrxFile file = make_file(Shape{16, 16}, Shape{2, 2});  // 64 chunks
  ChunkCache cache(file, 4, sharded(2));  // 2 frames/shard: borrowing forced
  ASSERT_EQ(cache.shard_count(), 2u);
  // Three same-shard chunks per shard: pinning a trio overflows its
  // shard's base capacity and drives borrow_capacity's ShardPairLock.
  std::vector<std::vector<std::uint64_t>> trio(2);
  for (std::uint64_t q = 0; q < 64; ++q) {
    auto& list = trio[cache.shard_index(q)];
    if (list.size() < 3) list.push_back(q);
  }
  ASSERT_EQ(trio[0].size(), 3u);
  ASSERT_EQ(trio[1].size(), 3u);
  // Publish a few frames for the fast path before the race starts.
  for (const auto& list : trio) {
    for (const std::uint64_t q : list) EXPECT_EQ(read_value(cache, q), 0.0);
  }
  std::atomic<bool> failed{false};
  constexpr int kRounds = 150;

  std::thread borrower([&cache, &trio, &failed] {
    for (int round = 0; round < kRounds; ++round) {
      const auto& list = trio[round & 1];  // ping-pong the donor direction
      for (const std::uint64_t q : list) {
        auto p = cache.pin(q, /*writable=*/true);
        if (!p.is_ok()) {
          failed.store(true);
          return;
        }
        const double v = 1.0;
        std::memcpy(p.value().data(), &v, sizeof(v));
      }
      for (const std::uint64_t q : list) {
        cache.unpin(q, /*dirty=*/true, /*writable=*/true);
      }
    }
  });
  std::thread reader([&cache, &trio, &failed] {
    SplitMix64 rng(7);
    for (int i = 0; i < kRounds * 6; ++i) {
      const auto& list = trio[i & 1];
      const std::uint64_t q = list[rng.next_below(3)];
      double v = 0.0;
      if (auto fast = cache.try_pin_fast(q)) {
        std::memcpy(&v, fast->bytes().data(), sizeof(v));
      } else if (!cache.try_read_fast(
                     q, 0, std::span<std::byte>(
                               reinterpret_cast<std::byte*>(&v), sizeof(v)))) {
        continue;  // not resident right now — the race is the point
      }
      if (v != 0.0 && v != 1.0) {  // torn read through the fast path
        failed.store(true);
        return;
      }
    }
  });
  std::thread resetter([&cache] {
    for (int i = 0; i < kRounds; ++i) {
      obs::registry().reset();
      (void)cache.shard_accesses();
      std::this_thread::yield();
    }
  });
  borrower.join();
  reader.join();
  resetter.join();
  EXPECT_FALSE(failed.load());
  ASSERT_TRUE(cache.flush().is_ok());
  EXPECT_GE(cache.stats().capacity_borrows, 1u);
}

// Amplified stress: fast-path readers race writers, flushes, and
// invalidation across shards. Run under TSan in CI (amplified filter);
// correctness here is "no crash, no torn value": every observed double
// is a value some writer wrote (or the initial zero). A pin does not
// exclude other pins of its chunk, so a writer's stores and a slow-path
// reader's copy of one chunk take that chunk's test mutex; fast-path
// reads take none, since unpublish keeps them off a writer's frame.
TEST(ChunkCacheSharded, ConcurrentFastReadersVsWritersAndFlush) {
  DrxFile file = make_file(Shape{16, 16}, Shape{2, 2});  // 64 chunks
  ChunkCache cache(file, 32, sharded(8));
  constexpr int kWriters = 2;
  constexpr int kReaders = 3;
  constexpr int kOpsPerThread = 400;
  std::atomic<bool> failed{false};
  std::array<std::mutex, 64> chunk_mu;

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&cache, &failed, &chunk_mu, w] {
      SplitMix64 rng(1000 + static_cast<std::uint64_t>(w));
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Writer w owns the chunks with q % kWriters == w: two writable
        // pins never store into one chunk at once.
        const std::uint64_t q =
            rng.next_below(64 / kWriters) * kWriters +
            static_cast<std::uint64_t>(w);
        {
          std::lock_guard<std::mutex> guard(chunk_mu[q]);
          auto p = cache.pin(q, /*writable=*/true);
          if (!p.is_ok()) {
            failed.store(true);
            return;
          }
          const double v = static_cast<double>(1 + rng.next_below(1000));
          std::memcpy(p.value().data(), &v, sizeof(v));
          cache.unpin(q, /*dirty=*/true, /*writable=*/true);
        }
        if (i % 128 == 0) {
          DRX_IGNORE_STATUS(cache.flush(),
                            "stress loop: final flush below checks errors");
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&cache, &failed, &chunk_mu, r] {
      SplitMix64 rng(2000 + static_cast<std::uint64_t>(r));
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t q = rng.next_below(64);
        double v = -1.0;
        if (auto fast = cache.try_pin_fast(q)) {
          std::memcpy(&v, fast->bytes().data(), sizeof(v));
        } else {
          std::lock_guard<std::mutex> guard(chunk_mu[q]);
          auto p = cache.pin(q, /*writable=*/false);
          if (!p.is_ok()) {
            failed.store(true);
            return;
          }
          std::memcpy(&v, p.value().data(), sizeof(v));
          cache.unpin(q, /*dirty=*/false, /*writable=*/false);
        }
        // Values are whole numbers in [0, 1000]; anything else is a torn
        // read through the fast path.
        if (!(v >= 0.0 && v <= 1000.0 && v == static_cast<double>(
                                                  static_cast<int>(v)))) {
          failed.store(true);
          return;
        }
      }
    });
  }
  threads.emplace_back([&cache] {
    for (int i = 0; i < 20; ++i) {
      DRX_IGNORE_STATUS(cache.flush(),
                        "racing flushes: the joined flush below is checked");
      std::this_thread::yield();
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());
  ASSERT_TRUE(cache.flush().is_ok());
  const ChunkCache::Stats stats = cache.stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

/// MemStorage that checks every write of whole chunks: each chunk-sized,
/// chunk-aligned piece must hold one value in every element. A write
/// that copies a frame while a writer is halfway through storing a new
/// version into it shows up as a chunk with two values.
class WholeChunkStorage final : public pfs::Storage {
 public:
  WholeChunkStorage(std::size_t chunk_bytes, std::atomic<int>& torn)
      : chunk_bytes_(chunk_bytes), torn_(&torn) {}

  Status read_at(std::uint64_t offset, std::span<std::byte> out) override {
    return inner_.read_at(offset, out);
  }
  Status write_at(std::uint64_t offset,
                  std::span<const std::byte> data) override {
    if (offset % chunk_bytes_ == 0 && data.size() % chunk_bytes_ == 0) {
      for (std::size_t c = 0; c < data.size(); c += chunk_bytes_) {
        if (!whole(data.subspan(c, chunk_bytes_))) ++*torn_;
      }
    }
    return inner_.write_at(offset, data);
  }
  [[nodiscard]] std::uint64_t size() const override { return inner_.size(); }
  Status truncate(std::uint64_t new_size) override {
    return inner_.truncate(new_size);
  }
  Status flush() override { return Status::ok(); }

  /// True when every double in `chunk` equals the first one.
  static bool whole(std::span<const std::byte> chunk) {
    double first = 0;
    std::memcpy(&first, chunk.data(), sizeof(first));
    for (std::size_t i = sizeof(double); i < chunk.size(); i += sizeof(double)) {
      double v = 0;
      std::memcpy(&v, chunk.data() + i, sizeof(v));
      if (v != first) return false;
    }
    return true;
  }

 private:
  std::size_t chunk_bytes_;
  std::atomic<int>* torn_;
  pfs::MemStorage inner_;
};

// flush() must never copy a frame a writer holds pinned: on a sync
// sharded cache (serve's default) it waits for the pin to drop instead.
// Writers store whole-chunk versions element by element while another
// thread flushes; every chunk any flush writes holds one version.
TEST(ChunkCacheSharded, FlushWhileWritersStoreNeverWritesAPinnedFrame) {
  constexpr std::size_t kChunkBytes = 16 * 16 * sizeof(double);
  std::atomic<int> torn{0};
  DrxFile::Options options;
  options.dtype = ElementType::kDouble;
  auto created = DrxFile::create(
      std::make_unique<pfs::MemStorage>(),
      std::make_unique<WholeChunkStorage>(kChunkBytes, torn), Shape{64, 64},
      Shape{16, 16}, options);
  ASSERT_TRUE(created.is_ok()) << created.status();
  DrxFile file = std::move(created).value();
  ASSERT_EQ(file.chunk_bytes(), kChunkBytes);
  constexpr std::uint64_t kChunks = 16;
  constexpr int kWriters = 4;
  constexpr int kVersions = 150;
  {
    // Room for every chunk in every shard: no eviction writes, only
    // flushes touch storage.
    ChunkCache cache(file, 8 * kChunks, sharded(8));
    ASSERT_EQ(cache.shard_count(), 8u);
    std::atomic<int> writers_left{kWriters};
    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        // Writer w owns chunks w, w + kWriters, ...: one writer per chunk.
        // Back-to-back versions of one chunk re-pin it while it is still
        // dirty from the last unpin, which is when a flush could copy it.
        for (auto q = static_cast<std::uint64_t>(w); q < kChunks;
             q += kWriters) {
          for (int version = 1; version <= kVersions; ++version) {
            auto p = cache.pin(q, /*writable=*/true);
            if (!p.is_ok()) {
              failed.store(true);
              return;
            }
            const auto v = static_cast<double>(version);
            const std::size_t n = p.value().size() / sizeof(double);
            for (std::size_t i = 0; i < n; ++i) {
              std::memcpy(p.value().data() + i * sizeof(double), &v,
                          sizeof(v));
              if (i == n / 2) std::this_thread::yield();
            }
            cache.unpin(q, /*dirty=*/true, /*writable=*/true);
          }
        }
        --writers_left;
      });
    }
    threads.emplace_back([&] {
      while (writers_left.load() > 0 && !failed.load()) {
        if (!cache.flush().is_ok()) failed.store(true);
      }
    });
    for (auto& t : threads) t.join();
    EXPECT_FALSE(failed.load());
    ASSERT_TRUE(cache.flush().is_ok());
  }
  EXPECT_EQ(torn.load(), 0) << "flush wrote a frame a writer was storing into";
  std::vector<std::byte> chunk(kChunkBytes);
  for (std::uint64_t q = 0; q < kChunks; ++q) {
    ASSERT_TRUE(file.read_chunk(q, chunk).is_ok());
    EXPECT_TRUE(WholeChunkStorage::whole(chunk)) << "chunk " << q;
    double v = 0;
    std::memcpy(&v, chunk.data(), sizeof(v));
    EXPECT_EQ(v, static_cast<double>(kVersions)) << "chunk " << q;
  }
}

// An evicted dirty chunk stays visible, claimed, until its write lands,
// so a pin that races the eviction waits for the write instead of
// faulting the older stored bytes. On a sync 2-frame cache, a writer
// commits increasing values to chunk 0 and evicts it by pinning chunks 1
// and 2; a reader that has seen value v committed must never read chunk
// 0 older than v. The test mutex only keeps the writer's stores and the
// reader's copy of chunk 0 apart; it is free while the eviction runs.
void expect_no_stale_read_after_eviction(codec::CodecId codec) {
  constexpr std::int32_t kIterations = 2000;
  DrxFile::Options options;
  options.dtype = ElementType::kInt32;
  options.codec = codec;
  auto created = DrxFile::create(std::make_unique<pfs::MemStorage>(),
                                 std::make_unique<pfs::MemStorage>(),
                                 Shape{64, 192}, Shape{64, 64}, options);
  ASSERT_TRUE(created.is_ok()) << created.status();
  DrxFile file = std::move(created).value();
  ASSERT_EQ(file.metadata().mapping.total_chunks(), 3u);
  ChunkCache cache(file, 2, ChunkCache::AsyncOptions{0, 0, 1});
  std::mutex chunk0;
  std::atomic<std::int32_t> committed{0};
  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::thread writer([&] {
    for (std::int32_t v = 1; v <= kIterations && !failed.load(); ++v) {
      {
        std::lock_guard<std::mutex> guard(chunk0);
        auto p = cache.pin(0, /*writable=*/true);
        if (!p.is_ok()) {
          failed.store(true);
          break;
        }
        for (std::size_t i = 0; i < p.value().size(); i += sizeof(v)) {
          std::memcpy(p.value().data() + i, &v, sizeof(v));
        }
        cache.unpin(0, /*dirty=*/true, /*writable=*/true);
      }
      committed.store(v);
      for (const std::uint64_t q : {1u, 2u}) {  // the pin of 2 evicts 0
        if (!cache.pin(q, /*writable=*/false).is_ok()) {
          failed.store(true);
          break;
        }
        cache.unpin(q, /*dirty=*/false, /*writable=*/false);
      }
    }
    done.store(true);
  });
  int stale = 0;
  std::int32_t last_seen = 0;
  while (!done.load() && !failed.load()) {
    const std::int32_t floor = committed.load();
    std::lock_guard<std::mutex> guard(chunk0);
    auto p = cache.pin(0, /*writable=*/false);
    if (!p.is_ok()) {
      failed.store(true);
      break;
    }
    std::memcpy(&last_seen, p.value().data(), sizeof(last_seen));
    cache.unpin(0, /*dirty=*/false, /*writable=*/false);
    if (last_seen < floor) ++stale;
  }
  writer.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(stale, 0) << "reads of chunk 0 older than its last commit; "
                      << "last read " << last_seen;
  ASSERT_TRUE(cache.flush().is_ok());
  std::vector<std::byte> stored(checked_size(file.chunk_bytes()));
  ASSERT_TRUE(file.read_chunk(0, stored).is_ok());
  std::int32_t final_value = 0;
  std::memcpy(&final_value, stored.data(), sizeof(final_value));
  EXPECT_EQ(final_value, kIterations);
}

TEST(ChunkCacheSharded, EvictedDirtyChunkIsNeverReadStaleBitPacked) {
  expect_no_stale_read_after_eviction(codec::CodecId::kBitPack);
}

TEST(ChunkCacheSharded, EvictedDirtyChunkIsNeverReadStaleV1) {
  expect_no_stale_read_after_eviction(codec::CodecId::kNone);
}

}  // namespace
}  // namespace drx::core
