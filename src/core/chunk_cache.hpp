// Chunk buffer pool for serial DRX (paper Sec. I: serial DRX maintains
// "I/O caching using the BerkeleyDB Mpool sub-system").
//
// A write-back LRU pool of fixed-size chunk buffers keyed by linear chunk
// address, with Mpool-style pin/unpin discipline: a pinned buffer cannot
// be evicted; unpinning with `dirty` schedules write-back. CachedDrxFile
// layers element/box access on top, so repeated touches to a hot chunk
// cost one I/O instead of one per element.
//
// Sharding (docs/SERVING.md): the pool is split into N lock shards keyed
// by a hash of the chunk address (DRX_CACHE_SHARDS; default 1 = the
// legacy single-lock cache). Each shard owns its own mutex, LRU list,
// ghost admission table, write-behind queue, and free-buffer pool, so
// concurrent clients touching different chunks contend on different
// locks. A shard whose frames are all pinned borrows capacity from a
// sibling through the ordered two-shard lock (ShardPairLock) instead of
// failing the pin — the ONLY sanctioned way to hold two shard mutexes at
// once (scripts/lint_drx.py: cache-shard-pair).
//
// Fast path: resident, clean-of-writers chunks are *published* to a
// per-shard table of atomic slots; a published chunk read
// (try_pin_fast / try_read_fast) takes NO mutex — it CAS-pins the slot,
// re-checks the address, copies, and release-unpins. Writers unpublish
// under the shard mutex and spin until fast pins drain, so the buffer is
// quiescent before any mutation. DRX_CACHE_FAST_READS=0 disables the
// path (ablation knob for benches). Memory-ordering proof sketch in
// docs/SERVING.md.
//
// Async engine (docs/ASYNC_IO.md): when constructed with io_threads > 0
// the cache runs on a drx::io::AsyncIoPool and becomes fully thread-safe:
//  - read-ahead: a detectably sequential miss run (consecutive miss
//    addresses) speculatively faults the next DRX_PREFETCH_DEPTH chunk
//    addresses into frames with ONE coalesced storage read, before they
//    are pinned;
//  - write-behind: dirty evictions enqueue their write-back instead of
//    blocking the evicting pin(); flush() is a barrier that drains the
//    queue and surfaces the first deferred error (sticky: last_error()
//    keeps reporting it, and the destructor logs it rather than dropping
//    a failed final flush on the floor).
// io_threads == 0 (the default) reproduces the synchronous legacy
// semantics exactly.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <list>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/drx_file.hpp"
#include "core/scatter.hpp"
#include "io/async_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/opctx.hpp"
#include "io/config.hpp"
#include "io/prefetch.hpp"
#include "util/sync.hpp"

namespace drx::core {

class ChunkCache final : public io::PrefetchSink {
 private:
  /// One published-frame slot: `word` packs a valid bit (kFastValid) with
  /// a fast-pin count; `address`/`data` are written before the publishing
  /// release-store on `word`, so a reader that acquires the valid bit
  /// sees them (and the buffer fill that happened-before the publish).
  struct FastSlot {
    std::atomic<std::uint64_t> word{0};
    std::atomic<std::uint64_t> address{~std::uint64_t{0}};
    std::atomic<std::byte*> data{nullptr};
  };

 public:
  struct Stats {
    std::uint64_t hits = 0;         ///< includes fast_hits
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;
    // Async-engine counters (all zero in synchronous mode).
    std::uint64_t deferred_writebacks = 0;  ///< write-backs queued, not blocked on
    std::uint64_t write_queue_hits = 0;     ///< misses served from a queued write
    std::uint64_t prefetch_issued = 0;      ///< chunks speculatively requested
    std::uint64_t prefetch_useful = 0;      ///< prefetched chunks later pinned
    std::uint64_t prefetch_wasted = 0;      ///< prefetched chunks evicted unpinned
    std::uint64_t prefetch_waits = 0;       ///< pins that waited on an in-flight load
    // Admission-control counters (docs/PERFORMANCE.md).
    std::uint64_t admit_bypasses = 0;    ///< element misses served by direct I/O
    std::uint64_t admit_promotions = 0;  ///< ghost hits promoted to residency
    // Sharded-cache counters (docs/SERVING.md).
    std::uint64_t fast_hits = 0;         ///< lock-free resident-read hits
    std::uint64_t capacity_borrows = 0;  ///< frames moved between shards
  };

  /// Async-engine configuration; the default is fully synchronous.
  struct AsyncOptions {
    int io_threads = 0;               ///< 0 = legacy synchronous cache
    std::uint64_t prefetch_depth = 0; ///< read-ahead chunks (needs threads > 0)
    int shards = 0;  ///< lock shards; 0 = DRX_CACHE_SHARDS (unset -> 1)

    /// DRX_IO_THREADS / DRX_PREFETCH_DEPTH (or their test overrides).
    static AsyncOptions from_config() {
      return AsyncOptions{io::io_threads(), io::prefetch_depth(),
                          io::cache_shards()};
    }
  };

  /// `capacity` chunks stay resident. The cache serves exactly one
  /// DrxFile; the file must outlive the cache. This overload picks up the
  /// process async configuration (env knobs).
  ChunkCache(DrxFile& file, std::size_t capacity)
      : ChunkCache(file, capacity, AsyncOptions::from_config()) {}

  ChunkCache(DrxFile& file, std::size_t capacity, const AsyncOptions& async);

  /// Flushes (logging, not dropping, any write-back failure), then joins
  /// the I/O workers.
  ~ChunkCache() override;
  ChunkCache(const ChunkCache&) = delete;
  ChunkCache& operator=(const ChunkCache&) = delete;

  /// Pins the chunk at linear address `address` into the pool, faulting it
  /// from the file on a miss, and returns its buffer. The buffer stays
  /// valid (and the frame unevictable) until the matching unpin().
  /// Thread-safe.
  ///
  /// `writable` declares intent to store through the returned span. A
  /// writable pin unpublishes the frame from the lock-free read table and
  /// drains concurrent fast readers first, so the stores never race a
  /// fast-path memcpy. Read-only pins (`writable == false`) leave the
  /// frame published. The default is writable (conservative: correct for
  /// every legacy caller); unpin() must be called with the same flag.
  [[nodiscard]] Result<std::span<std::byte>> pin(std::uint64_t address,
                                   bool writable = true);

  /// Releases a pin; `dirty` marks the buffer modified (written back on
  /// eviction or flush — write-back, not write-through). `writable` must
  /// match the pin() that is being released. Thread-safe.
  void unpin(std::uint64_t address, bool dirty, bool writable = true);

  /// RAII lock-free read pin on a published chunk. Holding one freezes
  /// the slot (unpublish spins until every FastPin drops), so bytes()
  /// stays valid and quiescent for the pin's lifetime.
  class FastPin {
   public:
    FastPin(FastPin&& other) noexcept
        : slot_(other.slot_), bytes_(other.bytes_) {
      other.slot_ = nullptr;
    }
    FastPin(const FastPin&) = delete;
    FastPin& operator=(const FastPin&) = delete;
    FastPin& operator=(FastPin&&) = delete;
    ~FastPin() {
      if (slot_ != nullptr) {
        slot_->word.fetch_sub(1, std::memory_order_release);
      }
    }
    [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
      return bytes_;
    }

   private:
    friend class ChunkCache;
    FastPin(FastSlot* slot, std::span<const std::byte> bytes) noexcept
        : slot_(slot), bytes_(bytes) {}
    FastSlot* slot_;
    std::span<const std::byte> bytes_;
  };

  /// Lock-free read pin: succeeds iff the chunk is resident, published,
  /// and DRX_CACHE_FAST_READS is on. Never blocks, never faults.
  [[nodiscard]] std::optional<FastPin> try_pin_fast(std::uint64_t address);

  /// Lock-free element read: copies out.size() bytes from `offset` within
  /// the chunk when the fast path applies; false = take the slow path.
  bool try_read_fast(std::uint64_t address, std::uint64_t offset,
                     std::span<std::byte> out);

  // ---- scan-resistant admission (DRX_CACHE_ADMIT, docs/PERFORMANCE.md) --
  // Element-granular access faults a whole chunk per miss, which LOSES to
  // raw 8-byte element I/O when the pattern has no reuse (uniform random
  // over an array that dwarfs the pool). These entry points consult the
  // admission policy first: a non-resident chunk with no demonstrated
  // reuse (no ghost-filter hit, not part of a sequential run) is NOT
  // admitted — the element moves with one direct storage request, exactly
  // what raw access would have cost — and its address is recorded in the
  // ghost filter so a re-touch promotes it to a resident frame.

  /// Admission-controlled element read at `offset` bytes into the chunk
  /// at `address`. Returns true when served by bypass I/O; false when the
  /// caller should pin() (chunk resident, pending, or admitted).
  [[nodiscard]] Result<bool> read_element_bypassed(std::uint64_t address,
                                     std::uint64_t offset,
                                     std::span<std::byte> out);

  /// Admission-controlled element write. Same contract; under an async
  /// cache writes always admit (a bypass write could race an in-flight
  /// speculative load and lose the update on eviction).
  [[nodiscard]] Result<bool> write_element_bypassed(std::uint64_t address,
                                      std::uint64_t offset,
                                      std::span<const std::byte> value);

  /// Barrier + write-back: drains in-flight read-ahead and write-behind,
  /// surfaces the first deferred write error, then writes back every
  /// dirty frame without evicting — each shard's dirty frames as one
  /// address-ordered DrxFile::write_chunks batch (an async batch claims
  /// at most half the shard; more dirty frames take more batches). A
  /// dirty frame that is still pinned is written after its last pin
  /// drops (flush waits for it — do not call flush() while holding a pin
  /// on this cache). Ends with DrxFile::flush(), so a compressed array's
  /// slot table is as durable as the chunk bytes it describes.
  [[nodiscard]] Status flush();

  /// Flush + drop all unpinned frames (cold-cache tool for benches).
  [[nodiscard]] Status invalidate();

  /// Speculatively faults chunks [first, first + count) into frames using
  /// one coalesced read on the I/O pool. Advisory: resident chunks, full
  /// capacity, or a synchronous cache reduce or drop the request. Never
  /// blocks on the I/O it starts.
  void prefetch(std::uint64_t first, std::uint64_t count);

  /// io::PrefetchSink — DrxFile::prefetch_box() lands here.
  void prefetch_range(std::uint64_t first, std::uint64_t count) override {
    prefetch(first, count);
  }

  /// First write-back failure observed (deferred or not). Sticky: remains
  /// observable after flush() has returned it.
  [[nodiscard]] Status last_error() const;

  /// True when the cache runs on worker threads (io_threads > 0).
  [[nodiscard]] bool async() const noexcept { return pool_ != nullptr; }

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t resident() const;

  // ---- shard introspection (benches, drx_doctor imbalance feed) ---------

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shard_count_;
  }
  /// Shard that owns `address` (stable for the cache's lifetime).
  [[nodiscard]] std::size_t shard_index(std::uint64_t address) const noexcept {
    return static_cast<std::size_t>(mix_address(address)) & shard_mask_;
  }
  /// Per-shard access totals (pins + fast reads + bypassed elements) —
  /// the load vector behind the cache-shard-imbalance doctor finding.
  [[nodiscard]] std::vector<std::uint64_t> shard_accesses() const;

 private:
  /// White-box shim for tests/core/test_chunk_cache_sharded.cpp: exposes
  /// ShardPairLock (self-pair and extreme-index coverage) without making
  /// the pairing primitive public API.
  friend struct ChunkCacheTestPeer;

  struct Frame {
    std::unique_ptr<std::byte[]> data;
    int pins = 0;
    int write_pins = 0;       ///< pins taken with writable intent
    bool dirty = false;
    bool loading = false;     ///< speculative/foreground fault in flight
    bool flushing = false;    ///< flush owns the buffer for a write-back
    bool prefetched = false;  ///< faulted ahead of demand, not yet pinned
    bool published = false;   ///< visible to the lock-free fast path
    std::list<std::uint64_t>::iterator lru_it;  ///< valid when in_lru
    bool in_lru = false;
  };

  /// A dirty buffer evicted under write-behind, keyed by address until its
  /// worker write completes. `seq` orders replacements: re-evicting the
  /// same address swaps the buffer and bumps seq, and the (single) job for
  /// the address re-writes until it observes a stable seq — so the newest
  /// data always lands last.
  struct PendingWrite {
    std::shared_ptr<std::byte[]> data;
    std::uint64_t seq = 0;
  };

  /// One lock shard: an independent cache slice over the addresses that
  /// hash to it. Lock order: a shard's `mu` may be held while taking the
  /// leaf locks seq_mu_ / error_mu_ / io_mu_; never another shard's `mu`
  /// except through ShardPairLock (lint: cache-shard-pair).
  struct Shard {
    mutable util::Mutex mu;
    util::CondVar cv;  ///< load completion / queue-drain signal
    std::unordered_map<std::uint64_t, Frame> frames DRX_GUARDED_BY(mu);
    /// Unpinned ready frames, front = MRU.
    std::list<std::uint64_t> lru DRX_GUARDED_BY(mu);
    std::unordered_map<std::uint64_t, PendingWrite> pending_writes
        DRX_GUARDED_BY(mu);
    /// Recycled chunk-sized frame buffers (bounded by the shard capacity).
    std::vector<std::unique_ptr<std::byte[]>> free_buffers DRX_GUARDED_BY(mu);
    std::uint64_t loads_inflight DRX_GUARDED_BY(mu) = 0;  ///< prefetch jobs
    /// Flushes parked until a dirty frame's last pin drops (unpin notifies
    /// cv only while this is nonzero, keeping the unpin fast path quiet).
    std::size_t flush_waiters DRX_GUARDED_BY(mu) = 0;
    /// Frames this shard may hold; adaptive via capacity borrowing, total
    /// across shards conserved.
    std::size_t capacity DRX_GUARDED_BY(mu) = 0;
    Stats stats DRX_GUARDED_BY(mu);
    /// Ghost/probation filter for scan-resistant admission: a small
    /// direct-mapped table of recently bypassed chunk addresses (no
    /// buffers). A miss that finds its address here has demonstrated
    /// reuse and is admitted; everything else is served by bypass I/O.
    std::vector<std::uint64_t> ghost DRX_GUARDED_BY(mu);
    /// Published-frame table for the lock-free read path. The slots are
    /// written under `mu` (publish/unpublish) and read without it.
    std::unique_ptr<FastSlot[]> fast;
    std::size_t fast_mask = 0;
    /// Total accesses routed to this shard (imbalance detector feed).
    std::atomic<std::uint64_t> accesses{0};
    std::atomic<std::uint64_t> fast_hits{0};
  };

  /// Ordered two-shard acquisition: always locks the lower-indexed
  /// shard's mutex first, so concurrent pair holders cannot deadlock.
  /// A self-pair (a == b) collapses to a single acquisition, so callers
  /// routing two addresses need not special-case them hashing to the
  /// same shard (docs/LOCK_ORDER.md, cache.shard). The ONLY sanctioned
  /// way to hold two shard mutexes at once (drx_verify: lock-order).
  /// Callers re-assert the capabilities with shard.mu.assert_held().
  class ShardPairLock {
   public:
    ShardPairLock(ChunkCache& cache, std::size_t a, std::size_t b);
    ~ShardPairLock();
    ShardPairLock(const ShardPairLock&) = delete;
    ShardPairLock& operator=(const ShardPairLock&) = delete;

   private:
    util::Mutex& first_;
    util::Mutex& second_;
    const bool same_;  ///< a == b: second_ aliases first_, lock it once
  };

  /// splitmix64-style finalizer: decorrelates the shard choice from
  /// sequential chunk addresses so scans spread over all shards.
  [[nodiscard]] static std::uint64_t mix_address(std::uint64_t x) noexcept {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
  }

  [[nodiscard]] Shard& shard_of(std::uint64_t address) const noexcept {
    return shards_[shard_index(address)];
  }
  [[nodiscard]] std::size_t fast_slot_index(const Shard& s,
                                            std::uint64_t address)
      const noexcept {
    // Upper hash bits: independent of the (low-bit) shard selection.
    return static_cast<std::size_t>(mix_address(address) >> 32) & s.fast_mask;
  }
  void note_access(Shard& s, std::size_t index) const;

  [[nodiscard]] std::size_t chunk_size() const;

  /// Admission decision for an element-granular miss; updates the ghost
  /// filter and sequential-run tracker. True = serve by bypass I/O.
  [[nodiscard]] bool should_bypass_locked(Shard& s, std::uint64_t address,
                                          bool write) DRX_REQUIRES(s.mu);

  // All *_locked helpers require the owning shard's mu held.
  [[nodiscard]] Status evict_one_locked(Shard& s, util::MutexLock& lock,
                          std::vector<std::uint64_t>& write_submits)
      DRX_REQUIRES(s.mu);
  void queue_write_locked(Shard& s, std::uint64_t address,
                          std::unique_ptr<std::byte[]> data,
                          std::vector<std::uint64_t>& write_submits)
      DRX_REQUIRES(s.mu);
  void submit_writes(const std::vector<std::uint64_t>& addresses);

  /// One chunk to write back: its address and its raw frame bytes.
  using WriteBack = std::pair<std::uint64_t, const std::byte*>;
  /// Encodes `chunks` on the calling thread, then stores them with one
  /// DrxFile::write_chunks call under io_mu_ (encoding never holds it).
  [[nodiscard]] Status write_back(std::span<const WriteBack> chunks);

  /// Publishes `frame` to the fast-read table when eligible (resident,
  /// no writer pins, not loading/flushing/prefetched, slot free).
  void maybe_publish_locked(Shard& s, std::uint64_t address, Frame& frame)
      DRX_REQUIRES(s.mu);
  /// Withdraws `frame` from the fast-read table and spins until every
  /// fast pin drains — the buffer is quiescent when this returns.
  void unpublish_locked(Shard& s, std::uint64_t address, Frame& frame)
      DRX_REQUIRES(s.mu);

  /// Moves one frame of capacity from a sibling shard with slack to the
  /// shard at `home_index` (whose frames are all pinned). Called with NO
  /// shard lock held; takes the ordered pair lock internally.
  bool borrow_capacity(std::size_t home_index);

  /// Records a write-back failure in the sticky error state (leaf lock
  /// error_mu_). Returns true when `status` became the sticky error AND
  /// is not yet surfaced to a caller — the flight-dump trigger.
  bool record_error(const Status& status, bool surfaced);
  /// The sticky error if a caller has not seen it yet (marks surfaced).
  [[nodiscard]] Status take_unsurfaced_error();

  /// Reserves loading frames for a contiguous eligible run starting at
  /// `first`, locking one shard at a time; returns the run length
  /// (0 = nothing to do). Called with no shard lock held.
  std::uint64_t reserve_readahead(std::uint64_t first, std::uint64_t want);

  /// Chunk-sized frame buffer from the shard free list (evictions recycle
  /// their buffers there), allocating only when the list is empty — so
  /// the steady-state miss path never mallocs under the shard lock.
  [[nodiscard]] std::unique_ptr<std::byte[]> take_buffer_locked(Shard& s)
      DRX_REQUIRES(s.mu);
  void recycle_buffer_locked(Shard& s, std::unique_ptr<std::byte[]> buffer)
      DRX_REQUIRES(s.mu);

  // Pool jobs (run on workers; inline mode never reaches them).
  [[nodiscard]] Status run_write_job(std::uint64_t address);
  [[nodiscard]] Status run_prefetch_job(std::uint64_t first, std::uint64_t count);

  [[nodiscard]] Status flush_shard_sync_locked(Shard& s, util::MutexLock& lock)
      DRX_REQUIRES(s.mu);
  [[nodiscard]] Status flush_shard_async_locked(Shard& s, util::MutexLock& lock)
      DRX_REQUIRES(s.mu);

  DrxFile* file_;
  const std::size_t capacity_;
  std::uint64_t prefetch_depth_ = 0;
  bool fast_enabled_ = false;
  std::unique_ptr<io::AsyncIoPool> pool_;  ///< null = synchronous legacy mode

  std::size_t shard_count_ = 1;
  std::size_t shard_mask_ = 0;
  std::unique_ptr<Shard[]> shards_;
  /// Interned per-shard access counters: core.cache.shard.<i>.accesses.
  std::vector<obs::MetricId> shard_access_ids_;

  // drx-lint: allow(unannotated-mutex-member) serializes access to the
  // caller-owned DrxFile; there is no member field to annotate.
  util::Mutex io_mu_;  ///< serializes DrxFile storage access (leaf)

  // Sequential-scan detector: a miss at last_miss_ + 1 extends the run;
  // anything else restarts it. Read-ahead fires once the run reaches
  // kSequentialThreshold, and sets last_miss_ to the end of the issued
  // window so prefetch hits keep the run alive. Global across shards
  // (consecutive addresses hash to different shards) under the leaf lock
  // seq_mu_.
  static constexpr int kSequentialThreshold = 2;
  static constexpr std::uint64_t kNoAddress = ~std::uint64_t{0};
  mutable util::Mutex seq_mu_;
  std::uint64_t last_miss_ DRX_GUARDED_BY(seq_mu_) = kNoAddress;
  int seq_run_ DRX_GUARDED_BY(seq_mu_) = 0;
  /// Last element-granular miss address (admitted or bypassed): a miss at
  /// +1 extends a sequential element scan and admits immediately, so a
  /// streaming sweep pays the probation fault only for its first chunk.
  std::uint64_t admit_last_miss_ DRX_GUARDED_BY(seq_mu_) = kNoAddress;

  /// First write-back failure (sticky), under the leaf lock error_mu_.
  mutable util::Mutex error_mu_;
  Status last_error_ DRX_GUARDED_BY(error_mu_);
  /// True until flush() returns the error once.
  bool error_unsurfaced_ DRX_GUARDED_BY(error_mu_) = false;
};

/// Element/box access through the pool. Same semantics as DrxFile element
/// and box I/O, but chunk-granular faults instead of per-call I/O.
class CachedDrxFile {
 public:
  CachedDrxFile(DrxFile& file, std::size_t capacity_chunks)
      : CachedDrxFile(file, capacity_chunks,
                      ChunkCache::AsyncOptions::from_config()) {}

  CachedDrxFile(DrxFile& file, std::size_t capacity_chunks,
                const ChunkCache::AsyncOptions& async)
      : file_(&file),
        cache_(file, capacity_chunks, async),
        space_(file.metadata().chunk_space()) {}

  template <typename T>
  [[nodiscard]] Result<T> get(std::span<const std::uint64_t> index) {
    obs::OpScope op("op.cached_get");
    DRX_CHECK(ElementTypeOf<T>::value == file_->dtype());
    DRX_RETURN_IF_ERROR(check_index(index));
    std::uint64_t q = 0;
    std::uint64_t off = 0;
    locate(index, q, off);
    off *= sizeof(T);
    T v{};
    // Lock-free path first: a published resident chunk costs two atomic
    // RMWs and a memcpy — no mutex, no admission check.
    if (cache_.try_read_fast(q, off,
                             std::as_writable_bytes(std::span<T>(&v, 1)))) {
      return v;
    }
    DRX_ASSIGN_OR_RETURN(
        const bool bypassed,
        cache_.read_element_bypassed(
            q, off, std::as_writable_bytes(std::span<T>(&v, 1))));
    if (bypassed) return v;
    DRX_ASSIGN_OR_RETURN(std::span<std::byte> chunk,
                         cache_.pin(q, /*writable=*/false));
    std::memcpy(&v, chunk.data() + off, sizeof(T));
    cache_.unpin(q, /*dirty=*/false, /*writable=*/false);
    return v;
  }

  template <typename T>
  [[nodiscard]] Status set(std::span<const std::uint64_t> index, const T& v) {
    obs::OpScope op("op.cached_set");
    DRX_CHECK(ElementTypeOf<T>::value == file_->dtype());
    DRX_RETURN_IF_ERROR(check_index(index));
    std::uint64_t q = 0;
    std::uint64_t off = 0;
    locate(index, q, off);
    off *= sizeof(T);
    DRX_ASSIGN_OR_RETURN(
        const bool bypassed,
        cache_.write_element_bypassed(
            q, off, std::as_bytes(std::span<const T>(&v, 1))));
    if (bypassed) return Status::ok();
    DRX_ASSIGN_OR_RETURN(std::span<std::byte> chunk,
                         cache_.pin(q, /*writable=*/true));
    std::memcpy(chunk.data() + off, &v, sizeof(T));
    cache_.unpin(q, /*dirty=*/true, /*writable=*/true);
    return Status::ok();
  }

  /// Reads element box [box.lo, box.hi) into `out` (linearized in
  /// `order`) through the pool. Chunks published to the lock-free table
  /// scatter without touching any mutex; the rest are announced as one
  /// prefetch hint (coalesced background faults) and pinned read-only.
  [[nodiscard]] Status read_box(const Box& box, MemoryOrder order, std::span<std::byte> out);

  /// Writes `in` (linearized in `order`) over element box
  /// [box.lo, box.hi) through the pool with writable pins and dirty
  /// unpins — write-back, not write-through.
  [[nodiscard]] Status write_box(const Box& box, MemoryOrder order,
                   std::span<const std::byte> in);

  /// Announces an upcoming read of `box` (see DrxFile::prefetch_box).
  void prefetch_box(const Box& box) { file_->prefetch_box(box); }

  /// Writes back every dirty chunk and persists the file's metadata.
  [[nodiscard]] Status flush() { return cache_.flush(); }
  [[nodiscard]] ChunkCache::Stats stats() const { return cache_.stats(); }
  [[nodiscard]] ChunkCache& cache() noexcept { return cache_; }

 private:
  [[nodiscard]] Status check_index(std::span<const std::uint64_t> index) const {
    if (index.size() != file_->rank()) {
      return Status(ErrorCode::kInvalidArgument, "index rank mismatch");
    }
    for (std::size_t d = 0; d < index.size(); ++d) {
      if (index[d] >= file_->bounds()[d]) {
        return Status(ErrorCode::kOutOfRange, "element index out of bounds");
      }
    }
    return Status::ok();
  }

  // Allocation-free chunk/byte-offset resolution for the element paths.
  // The generic chunk_of/offset_in_chunk pair builds heap-backed Index
  // temporaries; three malloc/free rounds per 8-byte access would dwarf
  // the lock-free read they feed (docs/SERVING.md).
  static constexpr std::size_t kStackRank = 8;
  void locate(std::span<const std::uint64_t> index, std::uint64_t& chunk,
              std::uint64_t& offset) const {
    const std::size_t r = index.size();
    const Shape& cs = space_.chunk_shape();
    if (r <= kStackRank) {
      std::uint64_t chunk_c[kStackRank];
      std::uint64_t within[kStackRank];
      for (std::size_t d = 0; d < r; ++d) {
        chunk_c[d] = index[d] / cs[d];
        within[d] = index[d] % cs[d];
      }
      chunk = file_->chunk_address(
          std::span<const std::uint64_t>(chunk_c, r));
      offset = linearize(std::span<const std::uint64_t>(within, r), cs,
                         space_.in_chunk_order());
      return;
    }
    chunk = file_->chunk_address(space_.chunk_of(index));
    offset = space_.offset_in_chunk(index);
  }

  DrxFile* file_;
  ChunkCache cache_;
  ChunkSpace space_;
};

}  // namespace drx::core
