#include "core/chunk_cache.hpp"

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/opctx.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace drx::core {

namespace {
// Cache counters mirror ChunkCache::Stats into the obs registry so cache
// behaviour lands in cross-rank aggregates and bench JSON automatically.
const obs::MetricId kHits = obs::counter_id("core.cache.hits");
const obs::MetricId kMisses = obs::counter_id("core.cache.misses");
const obs::MetricId kEvictions = obs::counter_id("core.cache.evictions");
const obs::MetricId kWritebacks = obs::counter_id("core.cache.writebacks");
const obs::MetricId kDeferredWb =
    obs::counter_id("core.cache.deferred_writebacks");
const obs::MetricId kWriteQueueHits =
    obs::counter_id("core.cache.write_queue_hits");
const obs::MetricId kPrefIssued = obs::counter_id("core.cache.prefetch_issued");
const obs::MetricId kPrefUseful = obs::counter_id("core.cache.prefetch_useful");
const obs::MetricId kPrefWasted = obs::counter_id("core.cache.prefetch_wasted");
const obs::MetricId kPrefWaits = obs::counter_id("core.cache.prefetch_waits");
const obs::MetricId kPrefWaitUs =
    obs::histogram_id("core.cache.prefetch_wait_us");
const obs::MetricId kAdmitBypasses =
    obs::counter_id("core.cache.admit_bypasses");
const obs::MetricId kAdmitPromotions =
    obs::counter_id("core.cache.admit_promotions");
const obs::MetricId kFastHits = obs::counter_id("core.cache.fast_hits");
const obs::MetricId kCapacityBorrows =
    obs::counter_id("core.cache.capacity_borrows");

// FastSlot::word layout: the top bit marks a published slot; the low bits
// count outstanding FastPins. word == 0 means the slot is free.
constexpr std::uint64_t kFastValid = std::uint64_t{1} << 63;
}  // namespace

ChunkCache::ChunkCache(DrxFile& file, std::size_t capacity,
                       const AsyncOptions& async)
    : file_(&file), capacity_(capacity) {
  DRX_CHECK(capacity >= 1);
  int want = async.shards != 0 ? async.shards : io::cache_shards();
  if (want <= 0) want = 1;
  std::size_t n = 1;
  while (n * 2 <= static_cast<std::size_t>(want) && n * 2 <= 64) n *= 2;
  // Every shard needs at least one frame of capacity.
  while (n > 1 && capacity / n == 0) n /= 2;
  shard_count_ = n;
  shard_mask_ = n - 1;
  shards_ = std::make_unique<Shard[]>(n);
  fast_enabled_ = io::cache_fast_reads();
  shard_access_ids_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shard_access_ids_.push_back(obs::counter_id(
        "core.cache.shard." + std::to_string(i) + ".accesses"));
  }
  const std::size_t base = capacity / n;
  const std::size_t extra = capacity % n;
  for (std::size_t i = 0; i < n; ++i) {
    Shard& s = shards_[i];
    const std::size_t shard_capacity = base + (i < extra ? 1 : 0);
    // Ghost filter: power-of-two table of recently bypassed addresses,
    // sized a few multiples of the shard capacity so probation outlives
    // residency (bounded at 4096 slots of 8 bytes — no chunk buffers).
    std::size_t ghost_slots = 64;
    while (ghost_slots < 4 * shard_capacity && ghost_slots < 4096) {
      ghost_slots <<= 1;
    }
    std::vector<std::uint64_t> ghost(ghost_slots, kNoAddress);
    // Fast-read table: 4x the shard capacity so address collisions (two
    // resident chunks hashing to one slot — the loser stays unpublished
    // and every read of it takes the mutex path) stay rare even with the
    // whole shard resident. Slots are pointer-sized metadata, not chunk
    // buffers, so the 4x headroom is cheap.
    std::size_t fast_slots = 8;
    while (fast_slots < 4 * shard_capacity && fast_slots < 4096) {
      fast_slots <<= 1;
    }
    s.fast = std::make_unique<FastSlot[]>(fast_slots);
    s.fast_mask = fast_slots - 1;
    // Allocation above happens before the lock on purpose: the shard
    // mutexes only exist so TSA sees guarded fields written under their
    // capability (no concurrency yet — the cache is being constructed).
    util::MutexLock lock(s.mu);
    s.capacity = shard_capacity;
    s.ghost = std::move(ghost);
  }
  if (async.io_threads > 0) {
    io::AsyncIoPool::Options pool_options;
    pool_options.threads = async.io_threads;
    pool_options.queue_capacity = std::max<std::size_t>(16, 2 * capacity);
    pool_ = std::make_unique<io::AsyncIoPool>(pool_options);
    prefetch_depth_ = async.prefetch_depth;
    // Become the file's prefetch sink so higher-layer hints
    // (DrxFile::prefetch_box) turn into background faults.
    if (file_->prefetch_sink() == nullptr) file_->set_prefetch_sink(this);
  }
}

ChunkCache::~ChunkCache() {
  const Status st = flush();
  if (!st.is_ok()) {
    // The destructor cannot return the failure; a silent drop here would
    // lose a deferred write error for good, so it goes to the error log.
    DRX_LOG(kError) << "ChunkCache destroyed with unflushed write-back error: "
                    << st.to_string();
  }
  if (file_->prefetch_sink() == this) file_->set_prefetch_sink(nullptr);
  pool_.reset();  // queue is empty after flush(); joins the workers
}

// Lock-order suppression (docs/STATIC_ANALYSIS.md): the pair lock
// acquires two shard mutexes through references, which the analysis
// cannot name as capabilities. Deadlock freedom comes from the total
// order (lower shard index first, established in the initializer list);
// callers re-assert the capabilities with Shard::mu.assert_held().
ChunkCache::ShardPairLock::ShardPairLock(ChunkCache& cache, std::size_t a,
                                         std::size_t b)
    DRX_NO_THREAD_SAFETY_ANALYSIS
    : first_(cache.shards_[std::min(a, b)].mu),
      second_(cache.shards_[std::max(a, b)].mu),
      same_(a == b) {
  first_.lock();
  if (!same_) second_.lock();
}

// Release order is the reverse of acquisition (see ctor suppression note).
ChunkCache::ShardPairLock::~ShardPairLock() DRX_NO_THREAD_SAFETY_ANALYSIS {
  if (!same_) second_.unlock();
  first_.unlock();
}

std::size_t ChunkCache::chunk_size() const {
  return checked_size(file_->chunk_bytes());
}

void ChunkCache::note_access(Shard& s, std::size_t index) const {
  s.accesses.fetch_add(1, std::memory_order_relaxed);
  obs::registry().counter(shard_access_ids_[index]).add();
}

bool ChunkCache::record_error(const Status& status, bool surfaced) {
  util::MutexLock lock(error_mu_);
  if (last_error_.is_ok()) {
    last_error_ = status;
    error_unsurfaced_ = !surfaced;
    return !surfaced;
  }
  return false;
}

Status ChunkCache::take_unsurfaced_error() {
  util::MutexLock lock(error_mu_);
  if (!last_error_.is_ok() && error_unsurfaced_) {
    error_unsurfaced_ = false;
    return last_error_;
  }
  return Status::ok();
}

std::unique_ptr<std::byte[]> ChunkCache::take_buffer_locked(Shard& s) {
  if (!s.free_buffers.empty()) {
    std::unique_ptr<std::byte[]> buffer = std::move(s.free_buffers.back());
    s.free_buffers.pop_back();
    return buffer;
  }
  // Cold start only: steady state recycles eviction buffers, so the miss
  // path never allocates while holding the shard lock.
  // drx-lint: allow(cache-lock-alloc) cold-start fill; bounded by capacity_
  return std::make_unique<std::byte[]>(chunk_size());
}

void ChunkCache::recycle_buffer_locked(Shard& s,
                                       std::unique_ptr<std::byte[]> buffer) {
  if (s.free_buffers.size() < s.capacity) {
    s.free_buffers.push_back(std::move(buffer));
  }
}

void ChunkCache::maybe_publish_locked(Shard& s, std::uint64_t address,
                                      Frame& frame) {
  if (!fast_enabled_ || frame.published) return;
  // Never publish: frames with writer intent (their stores would race the
  // fast memcpy), frames mid-load/flush, and prefetched frames (the first
  // demand pin must go through the mutex so prefetch_useful accounting
  // and LRU state stay exact).
  if (frame.write_pins > 0 || frame.loading || frame.flushing ||
      frame.prefetched) {
    return;
  }
  // Two-way probe: a chunk may publish into its home slot or the next
  // one. Without the second candidate a hash collision between two
  // resident chunks permanently demotes the loser to the mutex path —
  // on a fully resident hot set that is ~1/slots_per_chunk of all reads.
  const std::size_t h = fast_slot_index(s, address);
  for (std::size_t k = 0; k < 2; ++k) {
    FastSlot& slot = s.fast[(h + k) & s.fast_mask];
    // Occupied by a colliding resident chunk: leave that one published.
    if (slot.word.load(std::memory_order_relaxed) != 0) continue;
    slot.address.store(address, std::memory_order_relaxed);
    slot.data.store(frame.data.get(), std::memory_order_relaxed);
    // The release pairs with the reader's acquire on `word`: a reader
    // that observes kFastValid also observes address/data above and the
    // buffer fill that happened-before this publish (docs/SERVING.md).
    slot.word.store(kFastValid, std::memory_order_release);
    frame.published = true;
    return;
  }
}

void ChunkCache::unpublish_locked(Shard& s, std::uint64_t address,
                                  Frame& frame) {
  if (!frame.published) return;
  // Find which of the two probe slots holds this chunk. Slot addresses
  // only change under s.mu (held here), so the scan is stable.
  const std::size_t h = fast_slot_index(s, address);
  std::size_t found = h;
  for (std::size_t k = 0; k < 2; ++k) {
    const std::size_t idx = (h + k) & s.fast_mask;
    if (s.fast[idx].address.load(std::memory_order_relaxed) == address) {
      found = idx;
      break;
    }
  }
  FastSlot& slot = s.fast[found];
  DRX_CHECK_MSG(slot.address.load(std::memory_order_relaxed) == address,
                "published frame missing from its fast-slot probe window");
  // Clear the valid bit (new fast pins now fail), then drain: the acquire
  // load pairs with FastPin's release decrement, so every fast reader's
  // copy happens-before any store into the buffer after this returns.
  std::uint64_t w = slot.word.load(std::memory_order_relaxed);
  while (!slot.word.compare_exchange_weak(w, w & ~kFastValid,
                                          std::memory_order_relaxed)) {
  }
  while (slot.word.load(std::memory_order_acquire) != 0) {
    // Readers drop their pins without taking s.mu, so spinning under the
    // shard lock cannot deadlock; a fast pin spans one memcpy, so the
    // spin is bounded by that copy.
    std::this_thread::yield();
  }
  slot.address.store(kNoAddress, std::memory_order_relaxed);
  slot.data.store(nullptr, std::memory_order_relaxed);
  frame.published = false;
}

std::optional<ChunkCache::FastPin> ChunkCache::try_pin_fast(
    std::uint64_t address) {
  if (!fast_enabled_) return std::nullopt;
  const std::size_t si = shard_index(address);
  Shard& s = shards_[si];
  const std::size_t h = fast_slot_index(s, address);
  for (std::size_t k = 0; k < 2; ++k) {
    FastSlot& slot = s.fast[(h + k) & s.fast_mask];
    for (int attempt = 0; attempt < 4; ++attempt) {
      std::uint64_t w = slot.word.load(std::memory_order_acquire);
      if ((w & kFastValid) == 0) break;  // next probe slot
      if (slot.address.load(std::memory_order_relaxed) != address) {
        break;  // slot owned by a colliding chunk; try the next probe
      }
      if (!slot.word.compare_exchange_weak(w, w + 1, std::memory_order_acquire,
                                           std::memory_order_relaxed)) {
        continue;  // raced a publish/unpublish or another pin; retry
      }
      // Pinned. Re-check the address: between the loads above and the CAS
      // the slot may have been unpublished and republished for a different
      // chunk (ABA). The pin we now hold blocks any FURTHER unpublish from
      // completing, so a matching address is stable until we release.
      if (slot.address.load(std::memory_order_relaxed) != address) {
        slot.word.fetch_sub(1, std::memory_order_release);
        break;
      }
      std::byte* data = slot.data.load(std::memory_order_relaxed);
      s.fast_hits.fetch_add(1, std::memory_order_relaxed);
      obs::registry().counter(kFastHits).add();
      obs::registry().counter(kHits).add();
      note_access(s, si);
      return FastPin(&slot,
                     std::span<const std::byte>(data, chunk_size()));
    }
  }
  return std::nullopt;
}

bool ChunkCache::try_read_fast(std::uint64_t address, std::uint64_t offset,
                               std::span<std::byte> out) {
  std::optional<FastPin> pin = try_pin_fast(address);
  if (!pin.has_value()) return false;
  std::memcpy(out.data(), pin->bytes().data() + offset, out.size());
  return true;
}

void ChunkCache::queue_write_locked(Shard& s, std::uint64_t address,
                                    std::unique_ptr<std::byte[]> data,
                                    std::vector<std::uint64_t>& write_submits) {
  auto [it, fresh] = s.pending_writes.try_emplace(address);
  it->second.data = std::shared_ptr<std::byte[]>(data.release());
  ++it->second.seq;
  ++s.stats.deferred_writebacks;
  obs::registry().counter(kDeferredWb).add();
  // One job per pending address: a replacement just swaps the buffer and
  // the existing job re-writes until seq is stable.
  if (fresh) write_submits.push_back(address);
}

// Body suppression (docs/STATIC_ANALYSIS.md): the synchronous write-back
// branch releases the caller's shard lock through the MutexLock&
// parameter, which the analysis cannot track across a function boundary.
// The DRX_REQUIRES(s.mu) contract on the declaration still checks every
// call site; s.mu is held on entry and on exit.
Status ChunkCache::evict_one_locked(Shard& s, util::MutexLock& lock,
                                    std::vector<std::uint64_t>& write_submits)
    DRX_NO_THREAD_SAFETY_ANALYSIS {
  if (s.lru.empty()) {
    return Status(ErrorCode::kFailedPrecondition,
                  "all cache frames are pinned");
  }
  const std::uint64_t victim = s.lru.back();
  s.lru.pop_back();
  auto it = s.frames.find(victim);
  DRX_CHECK(it != s.frames.end());
  // Withdraw from the fast-read table first: after the erase below the
  // buffer is recycled or handed to write-behind, and a lock-free reader
  // must not still be copying out of it.
  unpublish_locked(s, victim, it->second);
  Frame frame = std::move(it->second);
  s.frames.erase(it);
  ++s.stats.evictions;
  obs::registry().counter(kEvictions).add();
  if (frame.prefetched) {
    ++s.stats.prefetch_wasted;
    obs::registry().counter(kPrefWasted).add();
  }
  if (!frame.dirty) {
    recycle_buffer_locked(s, std::move(frame.data));
    return Status::ok();
  }

  if (async()) {
    // Write-behind: hand the buffer to the pool instead of blocking.
    queue_write_locked(s, victim, std::move(frame.data), write_submits);
    return Status::ok();
  }
  // Synchronous legacy path: write back before the eviction completes.
  // The frame was erased from s.frames above, so this thread owns its
  // buffer exclusively across the unlocked write.
  lock.unlock();
  const WriteBack one{victim, frame.data.get()};
  const Status st = write_back(std::span<const WriteBack>(&one, 1));
  lock.lock();
  recycle_buffer_locked(s, std::move(frame.data));
  ++s.stats.writebacks;
  obs::registry().counter(kWritebacks).add();
  if (!st.is_ok()) record_error(st, /*surfaced=*/true);
  return st;
}

bool ChunkCache::borrow_capacity(std::size_t home_index) {
  for (std::size_t step = 1; step < shard_count_; ++step) {
    const std::size_t donor_index = (home_index + step) & shard_mask_;
    ShardPairLock pair(*this, home_index, donor_index);
    Shard& home = shards_[home_index];
    Shard& donor = shards_[donor_index];
    home.mu.assert_held();
    donor.mu.assert_held();
    if (donor.capacity <= 1) continue;  // never strand a shard frameless
    // A donor with headroom (or at least an evictable frame) can afford
    // to shrink; one at capacity with everything pinned cannot.
    if (donor.frames.size() < donor.capacity || !donor.lru.empty()) {
      --donor.capacity;
      ++home.capacity;
      ++home.stats.capacity_borrows;
      obs::registry().counter(kCapacityBorrows).add();
      // Move a recycled buffer along with the capacity when one is spare,
      // so the grown shard's next fault does not allocate under its lock.
      if (!donor.free_buffers.empty() &&
          home.free_buffers.size() < home.capacity) {
        home.free_buffers.push_back(std::move(donor.free_buffers.back()));
        donor.free_buffers.pop_back();
      }
      return true;
    }
  }
  return false;
}

bool ChunkCache::should_bypass_locked(Shard& s, std::uint64_t address,
                                      bool write) {
  // Resident (or in-flight) frames and queued write-behind buffers hold
  // the newest bytes — the pin path must serve them.
  if (s.frames.count(address) != 0 || s.pending_writes.count(address) != 0) {
    return false;
  }
  const io::CacheAdmit mode = io::cache_admit();
  if (mode == io::CacheAdmit::kAlways) return false;
  if (mode == io::CacheAdmit::kNever) return true;
  // auto: an async cache must admit writes — a bypass write racing an
  // in-flight speculative load of the same chunk would be clobbered when
  // that (stale) frame is later written back.
  if (async() && write) return false;
  // The element-scan detector is global (consecutive addresses hash to
  // different shards); seq_mu_ is a leaf under the shard lock.
  std::uint64_t prev = kNoAddress;
  {
    util::MutexLock seq(seq_mu_);
    prev = admit_last_miss_;
    admit_last_miss_ = address;
  }
  if (prev != kNoAddress && (address == prev || address == prev + 1)) {
    // Back-to-back misses on the same chunk (a hot element loop) or on
    // consecutive addresses (a sequential scan): admit the streaming run.
    return false;
  }
  std::uint64_t& slot = s.ghost[address & (s.ghost.size() - 1)];
  if (slot == address) {
    // Ghost re-touch promotes READ misses only: a read fault is one PFS
    // request either way and later hits on the resident chunk are free.
    // Promoting a write miss instead costs a fault read plus an eventual
    // dirty writeback — two requests where the bypass pays exactly the
    // one raw access would. The write still refreshes the probation slot
    // so a following read of the same chunk promotes.
    if (!write) {
      ++s.stats.admit_promotions;
      obs::registry().counter(kAdmitPromotions).add();
      return false;  // re-touched while on probation: demonstrated reuse
    }
    return true;
  }
  slot = address;
  return true;
}

Result<bool> ChunkCache::read_element_bypassed(std::uint64_t address,
                                               std::uint64_t offset,
                                               std::span<std::byte> out) {
  // Sub-chunk byte offsets have no storage address once chunks are
  // encoded: compressed arrays always go through whole-chunk frames.
  if (file_->compressed()) return false;
  const std::size_t si = shard_index(address);
  Shard& s = shards_[si];
  {
    util::MutexLock lock(s.mu);
    if (!should_bypass_locked(s, address, /*write=*/false)) return false;
    ++s.stats.admit_bypasses;
    obs::registry().counter(kAdmitBypasses).add();
  }
  note_access(s, si);
  const std::uint64_t base = checked_mul(address, file_->chunk_bytes());
  obs::StageTimer io_timer(obs::Stage::kIoService);
  util::MutexLock io(io_mu_);
  DRX_RETURN_IF_ERROR(
      file_->data_storage().read_at(checked_add(base, offset), out));
  return true;
}

Result<bool> ChunkCache::write_element_bypassed(
    std::uint64_t address, std::uint64_t offset,
    std::span<const std::byte> value) {
  if (file_->compressed()) return false;  // see read_element_bypassed
  const std::size_t si = shard_index(address);
  Shard& s = shards_[si];
  {
    util::MutexLock lock(s.mu);
    if (!should_bypass_locked(s, address, /*write=*/true)) return false;
    ++s.stats.admit_bypasses;
    obs::registry().counter(kAdmitBypasses).add();
  }
  note_access(s, si);
  const std::uint64_t base = checked_mul(address, file_->chunk_bytes());
  obs::StageTimer io_timer(obs::Stage::kIoService);
  util::MutexLock io(io_mu_);
  DRX_RETURN_IF_ERROR(
      file_->data_storage().write_at(checked_add(base, offset), value));
  return true;
}

void ChunkCache::submit_writes(const std::vector<std::uint64_t>& addresses) {
  for (const std::uint64_t address : addresses) {
    pool_->submit(obs::current_op(),
                  [this, address] { return run_write_job(address); });
  }
}

Status ChunkCache::write_back(std::span<const WriteBack> chunks) {
  const std::size_t cb = chunk_size();
  std::vector<std::vector<std::byte>> scratch(chunks.size());
  std::vector<DrxFile::ChunkWrite> batch;
  batch.reserve(chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    batch.push_back(DrxFile::ChunkWrite{
        chunks[i].first,
        file_->encode_chunk(std::span<const std::byte>(chunks[i].second, cb),
                            scratch[i])});
  }
  util::MutexLock io(io_mu_);
  return file_->write_chunks(batch);
}

Result<std::span<std::byte>> ChunkCache::pin(std::uint64_t address,
                                             bool writable) {
  const std::size_t cb = chunk_size();
  const std::size_t si = shard_index(address);
  Shard& s = shards_[si];
  note_access(s, si);
  obs::StageTimer lock_wait(obs::Stage::kLockWait);
  util::MutexLock lock(s.mu);
  lock_wait.stop();
  int borrows = 0;
restart:
  auto it = s.frames.find(address);
  if (it != s.frames.end() && (it->second.loading || it->second.flushing)) {
    // A speculative fault for this chunk is in flight (or flush owns the
    // buffer for a write-back): wait rather than touching the buffer.
    ++s.stats.prefetch_waits;
    obs::registry().counter(kPrefWaits).add();
    obs::ScopedTimer wait_timer(kPrefWaitUs);
    // Waiting for someone else's fill of this chunk is cache-fault time
    // from the op's perspective.
    obs::StageTimer fault_wait(obs::Stage::kCacheFault);
    do {
      s.cv.wait(lock);
      it = s.frames.find(address);
    } while (it != s.frames.end() &&
             (it->second.loading || it->second.flushing));
  }
  if (it != s.frames.end()) {
    Frame& frame = it->second;
    ++s.stats.hits;
    obs::registry().counter(kHits).add();
    if (frame.prefetched) {
      frame.prefetched = false;
      ++s.stats.prefetch_useful;
      obs::registry().counter(kPrefUseful).add();
    }
    if (frame.in_lru) {
      s.lru.erase(frame.lru_it);
      frame.in_lru = false;
    }
    ++frame.pins;
    if (writable) {
      ++frame.write_pins;
      // The caller will store through the span with no lock held; drain
      // lock-free readers first so those stores never race a fast memcpy.
      unpublish_locked(s, address, frame);
    } else {
      maybe_publish_locked(s, address, frame);
    }
    return std::span<std::byte>(frame.data.get(), cb);
  }

  ++s.stats.misses;
  obs::registry().counter(kMisses).add();
  obs::profile_chunk(obs::ChunkOp::kCacheMiss, address, 0);

  // Sequential-scan detector (async mode only): consecutive miss
  // addresses accumulate a run; once it is long enough, read ahead.
  std::uint64_t readahead_want = 0;
  if (async() && prefetch_depth_ > 0) {
    util::MutexLock seq(seq_mu_);
    seq_run_ = (last_miss_ != kNoAddress && address == last_miss_ + 1)
                   ? seq_run_ + 1
                   : 1;
    last_miss_ = address;
    if (seq_run_ >= kSequentialThreshold) readahead_want = prefetch_depth_;
  }

  obs::ScopedSpan fault_span("core.cache_fault", "core", file_->chunk_bytes());
  // Fault handling (eviction, frame reservation, readahead setup) is
  // cache-fault time; stopped before the storage read below so the I/O
  // itself attributes to Stage::kIoService, not here.
  obs::StageTimer fault_timer(obs::Stage::kCacheFault);
  std::vector<std::uint64_t> write_submits;
  while (s.frames.size() >= s.capacity) {
    const Status ev = evict_one_locked(s, lock, write_submits);
    if (!ev.is_ok()) {
      // Every frame in this shard is pinned. Borrow a frame of capacity
      // from a sibling with slack instead of failing the pin (bounded
      // retries: concurrent pinners may consume what we borrow).
      if (shard_count_ > 1 && borrows < 8) {
        ++borrows;
        lock.unlock();
        if (!write_submits.empty()) submit_writes(write_submits);
        const bool borrowed = borrow_capacity(si);
        lock.lock();
        if (borrowed) goto restart;
      }
      return ev;
    }
    // The synchronous eviction path drops the lock to write; another
    // thread may have faulted our chunk meanwhile.
    if (!async() && s.frames.count(address) != 0) goto restart;
  }

  // Miss served from the write-behind queue: the newest bytes for this
  // chunk sit in a queued (not yet completed) write; copying them is both
  // correct and cheaper than re-reading the file.
  if (auto pw = s.pending_writes.find(address); pw != s.pending_writes.end()) {
    Frame frame;
    frame.data = take_buffer_locked(s);
    std::memcpy(frame.data.get(), pw->second.data.get(), cb);
    frame.pins = 1;
    frame.write_pins = writable ? 1 : 0;
    frame.dirty = true;  // storage still holds stale bytes for this chunk
    const auto [pos, inserted] = s.frames.emplace(address, std::move(frame));
    DRX_CHECK(inserted);
    ++s.stats.write_queue_hits;
    obs::registry().counter(kWriteQueueHits).add();
    std::byte* buffer = pos->second.data.get();
    if (!write_submits.empty()) {
      lock.unlock();
      submit_writes(write_submits);
    }
    return std::span<std::byte>(buffer, cb);
  }

  // Reserve the frame (loading, pinned) so concurrent pins wait instead
  // of double-faulting, then do the read outside the lock.
  std::byte* buffer = nullptr;
  {
    Frame frame;
    frame.data = take_buffer_locked(s);
    frame.pins = 1;
    frame.write_pins = writable ? 1 : 0;
    frame.loading = true;
    buffer = frame.data.get();
    const auto [pos, inserted] = s.frames.emplace(address, std::move(frame));
    DRX_CHECK(inserted);
  }
  lock.unlock();

  if (!write_submits.empty()) submit_writes(write_submits);
  if (readahead_want > 0) {
    // Reserving read-ahead frames locks other shards, so it happens only
    // after this shard's lock is dropped (one shard lock at a time).
    const std::uint64_t first = address + 1;
    const std::uint64_t run = reserve_readahead(first, readahead_want);
    if (run > 0) {
      pool_->submit(
          obs::current_op(),
          [this, first, run] { return run_prefetch_job(first, run); },
          nullptr, io::AsyncIoPool::JobClass::kBackground);
    }
  }

  fault_timer.stop();
  Status st;
  if (file_->compressed()) {
    // Split fault: fetch the stored bytes under the io mutex, decode
    // outside it — codec work must never serialize concurrent I/O. The
    // reserved frame (loading=true) gives this thread exclusive
    // ownership of `buffer`, so decoding into it lock-free is safe.
    std::vector<std::byte> stored;
    DrxFile::EncodedChunk enc;
    {
      util::MutexLock io(io_mu_);
      auto r = file_->read_chunk_stored(address, stored);
      if (r.is_ok()) {
        enc = r.value();
      } else {
        st = r.status();
      }
    }
    if (st.is_ok()) {
      st = file_->decode_chunk(enc.codec, enc.bytes,
                               std::span<std::byte>(buffer, cb));
    }
  } else {
    util::MutexLock io(io_mu_);
    st = file_->read_chunk(address, std::span<std::byte>(buffer, cb));
  }

  lock.lock();
  auto pos = s.frames.find(address);
  DRX_CHECK(pos != s.frames.end() && pos->second.loading);
  if (!st.is_ok()) {
    recycle_buffer_locked(s, std::move(pos->second.data));
    s.frames.erase(pos);
    lock.unlock();
    s.cv.notify_all();
    return st;
  }
  pos->second.loading = false;
  if (!writable) maybe_publish_locked(s, address, pos->second);
  lock.unlock();
  s.cv.notify_all();
  return std::span<std::byte>(buffer, cb);
}

void ChunkCache::unpin(std::uint64_t address, bool dirty, bool writable) {
  Shard& s = shard_of(address);
  obs::StageTimer lock_wait(obs::Stage::kLockWait);
  util::MutexLock lock(s.mu);
  lock_wait.stop();
  auto it = s.frames.find(address);
  DRX_CHECK_MSG(it != s.frames.end(), "unpin of non-resident chunk");
  Frame& frame = it->second;
  DRX_CHECK_MSG(frame.pins > 0, "unpin without matching pin");
  frame.dirty = frame.dirty || dirty;
  if (writable) {
    DRX_CHECK_MSG(frame.write_pins > 0, "writable unpin without writable pin");
    --frame.write_pins;
  }
  if (--frame.pins == 0) {
    s.lru.push_front(address);
    frame.lru_it = s.lru.begin();
    frame.in_lru = true;
    // flush_shard_async_locked parks until a dirty frame's last pin drops
    // so it can claim the buffer for an exclusive write-back.
    if (s.flush_waiters > 0) s.cv.notify_all();
  }
  // The last writer gone (and the frame settled) re-opens the fast path.
  maybe_publish_locked(s, address, frame);
}

std::uint64_t ChunkCache::reserve_readahead(std::uint64_t first,
                                            std::uint64_t want) {
  const std::uint64_t total = file_->metadata().mapping.total_chunks();
  // Never let speculation displace more than half the pool.
  const std::uint64_t cap =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(capacity_) / 2);
  want = std::min(want, cap);
  std::vector<std::uint64_t> write_submits;
  std::uint64_t participating = 0;  // shard bitmask; shard_count_ <= 64
  std::uint64_t run = 0;
  while (run < want) {
    const std::uint64_t address = first + run;
    if (address >= total) break;
    const std::size_t si = shard_index(address);
    Shard& s = shards_[si];
    util::MutexLock lock(s.mu);
    // Stop at resident frames (cached or in flight) and at queued writes:
    // the newest bytes for a queued-write chunk are not on storage yet.
    if (s.frames.count(address) != 0 ||
        s.pending_writes.count(address) != 0) {
      break;
    }
    // Make room by evicting unpinned frames; their dirty write-backs are
    // deferred to the pool, so speculation never blocks on I/O here.
    while (s.frames.size() >= s.capacity && !s.lru.empty()) {
      DRX_IGNORE_STATUS(evict_one_locked(s, lock, write_submits),
                        "speculative fill: write-back errors are recorded "
                        "by record_error and surface on flush()");
    }
    if (s.frames.size() >= s.capacity) break;
    Frame frame;
    frame.data = take_buffer_locked(s);
    frame.loading = true;
    frame.prefetched = true;
    const auto [pos, inserted] = s.frames.emplace(address, std::move(frame));
    DRX_CHECK(inserted);
    // One in-flight load per shard per job: run_prefetch_job recomputes
    // the same bitmask from (first, run) to pair the decrement.
    if ((participating & (std::uint64_t{1} << si)) == 0) {
      participating |= std::uint64_t{1} << si;
      ++s.loads_inflight;
    }
    ++s.stats.prefetch_issued;
    obs::registry().counter(kPrefIssued).add();
    ++run;
  }
  if (!write_submits.empty()) submit_writes(write_submits);
  if (run > 0) {
    // Keep the detector's run alive across the hits the prefetch creates.
    util::MutexLock seq(seq_mu_);
    last_miss_ = first + run - 1;
  }
  return run;
}

void ChunkCache::prefetch(std::uint64_t first, std::uint64_t count) {
  if (!async() || count == 0) return;
  const std::uint64_t run = reserve_readahead(first, count);
  if (run > 0) {
    pool_->submit(
        obs::current_op(),
        [this, first, run] { return run_prefetch_job(first, run); }, nullptr,
        io::AsyncIoPool::JobClass::kBackground);
  }
}

Status ChunkCache::run_write_job(std::uint64_t address) {
  Shard& s = shard_of(address);
  for (;;) {
    std::shared_ptr<std::byte[]> data;
    std::uint64_t seq = 0;
    {
      util::MutexLock lock(s.mu);
      auto it = s.pending_writes.find(address);
      DRX_CHECK(it != s.pending_writes.end());  // only this job erases it
      data = it->second.data;
      seq = it->second.seq;
    }
    // Encode with NO lock held: the pending-write entry's shared_ptr
    // keeps the buffer alive, a replacement bumps seq (observed below)
    // rather than mutating bytes in place, and concurrent writers on
    // other chunks keep streaming through io_mu_ while this worker
    // compresses — codec cost overlaps I/O instead of serializing it.
    const WriteBack one{address, data.get()};
    const Status st = write_back(std::span<const WriteBack>(&one, 1));
    if (!st.is_ok()) {
      DRX_LOG(kError) << "deferred chunk write-back failed (address " << address
                      << "): " << st.to_string();
    }
    bool dump_flight = false;
    bool replaced = false;
    {
      util::MutexLock lock(s.mu);
      ++s.stats.writebacks;
      obs::registry().counter(kWritebacks).add();
      if (!st.is_ok()) {
        dump_flight = record_error(st, /*surfaced=*/false);
      }
      auto it = s.pending_writes.find(address);
      DRX_CHECK(it != s.pending_writes.end());
      if (it->second.seq != seq) {
        replaced = true;  // replaced mid-write: go again
      } else {
        s.pending_writes.erase(it);
      }
    }
    s.cv.notify_all();
    if (dump_flight && obs::flight_enabled()) {
      // First sticky deferred error: nobody may ever call flush() to see
      // it, so capture the causal context now, outside the cache lock.
      const Status ds = obs::dump_flight("deferred-io-error");
      if (!ds.is_ok()) {
        DRX_LOG(kError) << "flight dump failed: " << ds.to_string();
      }
    }
    if (replaced) continue;
    return st;
  }
}

Status ChunkCache::run_prefetch_job(std::uint64_t first, std::uint64_t count) {
  const std::size_t cb = chunk_size();
  const std::size_t total = checked_size(count) * cb;
  auto staging = std::make_unique<std::byte[]>(total);
  Status st;
  if (file_->compressed()) {
    // Fetch stored bytes under the io mutex, decompress into staging
    // outside it: frames are published already-decoded, so readers
    // never pay codec latency, and decode overlaps concurrent I/O.
    std::vector<std::byte> stored;
    std::vector<DrxFile::StoredRef> refs;
    {
      util::MutexLock io(io_mu_);
      st = file_->read_chunks_stored(first, count, stored, refs);
    }
    for (std::size_t i = 0; st.is_ok() && i < refs.size(); ++i) {
      st = file_->decode_chunk(
          refs[i].codec,
          std::span<const std::byte>(stored.data() + refs[i].offset,
                                     refs[i].size),
          std::span<std::byte>(staging.get() + i * cb, cb));
    }
  } else {
    util::MutexLock io(io_mu_);
    st = file_->read_chunks(first, count,
                            std::span<std::byte>(staging.get(), total));
  }
  std::uint64_t participating = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t address = first + i;
    const std::size_t si = shard_index(address);
    participating |= std::uint64_t{1} << si;
    Shard& s = shards_[si];
    util::MutexLock lock(s.mu);
    auto it = s.frames.find(address);
    if (it == s.frames.end() || !it->second.loading) continue;
    if (st.is_ok()) {
      std::memcpy(it->second.data.get(), staging.get() + i * cb, cb);
      it->second.loading = false;
    } else {
      // Drop the reservation; a waiting pin re-faults synchronously and
      // observes the error itself.
      recycle_buffer_locked(s, std::move(it->second.data));
      s.frames.erase(it);
    }
  }
  // Mirror of reserve_readahead's once-per-shard increment.
  for (std::size_t si = 0; si < shard_count_; ++si) {
    if ((participating & (std::uint64_t{1} << si)) == 0) continue;
    Shard& s = shards_[si];
    {
      util::MutexLock lock(s.mu);
      DRX_CHECK(s.loads_inflight > 0);
      --s.loads_inflight;
    }
    s.cv.notify_all();
  }
  return st;
}

Status ChunkCache::flush_shard_sync_locked(Shard& s, util::MutexLock& lock) {
  // Single-threaded legacy shape: write the dirty frames in place as one
  // batch. io_mu_ is taken under the shard lock here, which is safe
  // because no pool workers exist.
  // drx-lint: allow(cache-lock-io) sync mode has no concurrency to stall
  (void)lock;
  std::vector<WriteBack> batch;
  for (auto& [address, frame] : s.frames) {
    if (frame.dirty) batch.emplace_back(address, frame.data.get());
  }
  if (batch.empty()) return Status::ok();
  s.stats.writebacks += batch.size();
  obs::registry().counter(kWritebacks).add(batch.size());
  const Status st = write_back(batch);
  if (!st.is_ok()) {
    record_error(st, /*surfaced=*/true);
    return st;
  }
  for (const auto& [address, data] : batch) s.frames.at(address).dirty = false;
  return Status::ok();
}

// Body suppression (docs/STATIC_ANALYSIS.md): the write-back window
// releases the caller's shard lock through the MutexLock& parameter,
// which the analysis cannot track across a function boundary. The
// DRX_REQUIRES(s.mu) contract on the declaration still checks every call
// site; s.mu is held on entry and on exit.
Status ChunkCache::flush_shard_async_locked(Shard& s, util::MutexLock& lock)
    DRX_NO_THREAD_SAFETY_ANALYSIS {
  std::vector<WriteBack> batch;
  for (;;) {
    // Claim up to half the shard per batch — read-ahead's cap — so a
    // concurrent demand pin() still finds frames it can evict.
    const std::size_t cap = std::max<std::size_t>(1, s.capacity / 2);
    batch.clear();
    std::optional<std::uint64_t> pinned_dirty;
    for (auto& [address, frame] : s.frames) {
      if (!frame.dirty || frame.loading) continue;
      if (frame.pins > 0) {
        // A pinned writer may be storing into frame.data right now with
        // no lock held (pin() hands out the raw span); reading the buffer
        // for the storage write would race with those stores.
        pinned_dirty = address;
        continue;
      }
      if (batch.size() == cap) break;
      frame.dirty = false;    // claimed; a later set re-marks it
      frame.flushing = true;  // new pins wait instead of touching the buffer
      ++frame.pins;           // holds the frame across the unlocked write
      if (frame.in_lru) {
        s.lru.erase(frame.lru_it);
        frame.in_lru = false;
      }
      batch.emplace_back(address, frame.data.get());
    }
    if (batch.empty()) {
      if (!pinned_dirty.has_value()) break;
      // Only pinned dirty frames are left: park until this one's last pin
      // drops, then rescan — the unpin that releases it marks dirty
      // first, so the frame is still eligible.
      const std::uint64_t address = *pinned_dirty;
      ++s.flush_waiters;
      s.cv.wait(lock, [&s, address] {
        s.mu.assert_held();
        const auto f = s.frames.find(address);
        return f == s.frames.end() || f->second.pins == 0;
      });
      --s.flush_waiters;
      continue;
    }
    // With zero foreign pins and `flushing` blocking new ones, this
    // thread owns the claimed buffers for WRITING across the unlocked
    // window; the storage write only READS them, so the frames can stay
    // published — concurrent fast pins read bytes the write-back is
    // persisting, which is exactly the newest data. Shard lock dropped,
    // io mutex not yet taken: encode overlaps other workers' storage
    // traffic (and never blocks readers of this shard).
    lock.unlock();
    const Status st = write_back(batch);
    lock.lock();
    for (const auto& [address, data] : batch) {
      Frame& frame = s.frames.at(address);  // pinned above, so not erased
      ++s.stats.writebacks;
      obs::registry().counter(kWritebacks).add();
      frame.flushing = false;
      if (!st.is_ok()) frame.dirty = true;
      if (--frame.pins == 0) {
        s.lru.push_front(address);
        frame.lru_it = s.lru.begin();
        frame.in_lru = true;
      }
      maybe_publish_locked(s, address, frame);
    }
    s.cv.notify_all();  // wake pins parked on the flushing frames
    if (!st.is_ok()) {
      record_error(st, /*surfaced=*/true);
      return st;
    }
  }
  return Status::ok();
}

Status ChunkCache::flush() {
  Status direct;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    Shard& s = shards_[i];
    util::MutexLock lock(s.mu);
    if (async()) {
      // Barrier: drain this shard's write-behind queue and in-flight
      // speculative loads before claiming dirty frames.
      s.cv.wait(lock, [&s] {
        s.mu.assert_held();
        return s.pending_writes.empty() && s.loads_inflight == 0;
      });
    }
    // drx-verify: allow(blocking-under-lock) sync mode is single-threaded
    // by construction — no pool workers exist to stall on the held shard
    // lock (see flush_shard_sync_locked).
    const Status st = async() ? flush_shard_async_locked(s, lock)
                              : flush_shard_sync_locked(s, lock);
    if (direct.is_ok() && !st.is_ok()) direct = st;
  }
  // A deferred write-back error that no caller has seen yet outranks a
  // direct failure from this flush: it happened first.
  const Status surfaced = take_unsurfaced_error();
  if (!surfaced.is_ok()) return surfaced;
  DRX_RETURN_IF_ERROR(direct);
  // Persist the slot table the write-backs above may have changed; under
  // io_mu_ so it never races a concurrent write-behind slot update.
  util::MutexLock io(io_mu_);
  return file_->flush();
}

Status ChunkCache::invalidate() {
  DRX_RETURN_IF_ERROR(flush());
  for (std::size_t i = 0; i < shard_count_; ++i) {
    Shard& s = shards_[i];
    util::MutexLock lock(s.mu);
    for (auto it = s.frames.begin(); it != s.frames.end();) {
      if (it->second.pins == 0 && !it->second.loading) {
        unpublish_locked(s, it->first, it->second);
        if (it->second.in_lru) s.lru.erase(it->second.lru_it);
        it = s.frames.erase(it);
      } else {
        ++it;
      }
    }
    // Invalidation is the cold-cache tool: release the recycled buffers
    // too so a subsequent run starts from genuinely empty memory.
    s.free_buffers.clear();
  }
  return Status::ok();
}

Status ChunkCache::last_error() const {
  util::MutexLock lock(error_mu_);
  return last_error_;
}

ChunkCache::Stats ChunkCache::stats() const {
  Stats total;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    Shard& s = shards_[i];
    const std::uint64_t fast = s.fast_hits.load(std::memory_order_relaxed);
    util::MutexLock lock(s.mu);
    // Fast-path hits fold into `hits` (they ARE hits) and are also
    // reported separately so benches can see the mutex-bypass rate.
    total.hits += s.stats.hits + fast;
    total.fast_hits += fast;
    total.misses += s.stats.misses;
    total.evictions += s.stats.evictions;
    total.writebacks += s.stats.writebacks;
    total.deferred_writebacks += s.stats.deferred_writebacks;
    total.write_queue_hits += s.stats.write_queue_hits;
    total.prefetch_issued += s.stats.prefetch_issued;
    total.prefetch_useful += s.stats.prefetch_useful;
    total.prefetch_wasted += s.stats.prefetch_wasted;
    total.prefetch_waits += s.stats.prefetch_waits;
    total.admit_bypasses += s.stats.admit_bypasses;
    total.admit_promotions += s.stats.admit_promotions;
    total.capacity_borrows += s.stats.capacity_borrows;
  }
  return total;
}

std::size_t ChunkCache::resident() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    Shard& s = shards_[i];
    util::MutexLock lock(s.mu);
    n += s.frames.size();
  }
  return n;
}

std::vector<std::uint64_t> ChunkCache::shard_accesses() const {
  std::vector<std::uint64_t> out;
  out.reserve(shard_count_);
  for (std::size_t i = 0; i < shard_count_; ++i) {
    out.push_back(shards_[i].accesses.load(std::memory_order_relaxed));
  }
  return out;
}

Status CachedDrxFile::read_box(const Box& box, MemoryOrder order,
                               std::span<std::byte> out) {
  obs::OpScope op("op.cached_read_box");
  DRX_CHECK(out.size() == checked_mul(box.volume(), file_->element_bytes()));
  const Box full{Index(file_->rank(), 0),
                 Index(file_->bounds().begin(), file_->bounds().end())};
  const Box clipped = box.intersect(full);
  if (clipped.empty()) return Status::ok();
  // Pass 1: scatter every chunk the lock-free table serves — a box over
  // fully resident, published chunks completes without touching any
  // mutex. The rest are collected for the slow pass.
  std::vector<Index> missed;
  for_each_index(space_.covering_chunks(clipped), [&](const Index& c) {
    const Box clip = space_.chunk_box(c).intersect(clipped);
    if (clip.empty()) return;
    const std::uint64_t q = file_->chunk_address(c);
    if (std::optional<ChunkCache::FastPin> fast = cache_.try_pin_fast(q)) {
      file_->scatter_chunk(fast->bytes(), clip, box, order, out);
      return;
    }
    missed.push_back(c);
  });
  if (missed.empty()) return Status::ok();
  // Announce the remainder before the first pin: an async cache turns
  // this into coalesced background faults the pins below then hit.
  file_->prefetch_box(clipped);
  for (const Index& c : missed) {
    const Box clip = space_.chunk_box(c).intersect(clipped);
    const std::uint64_t q = file_->chunk_address(c);
    DRX_ASSIGN_OR_RETURN(std::span<std::byte> chunk,
                         cache_.pin(q, /*writable=*/false));
    file_->scatter_chunk(chunk, clip, box, order, out);
    cache_.unpin(q, /*dirty=*/false, /*writable=*/false);
  }
  return Status::ok();
}

Status CachedDrxFile::write_box(const Box& box, MemoryOrder order,
                                std::span<const std::byte> in) {
  obs::OpScope op("op.cached_write_box");
  DRX_CHECK(in.size() == checked_mul(box.volume(), file_->element_bytes()));
  const Box full{Index(file_->rank(), 0),
                 Index(file_->bounds().begin(), file_->bounds().end())};
  const Box clipped = box.intersect(full);
  if (clipped.empty()) return Status::ok();
  // Partially covered chunks are read-modify-write: the pin faults the
  // chunk in, gather overwrites the clipped region, and the dirty unpin
  // schedules write-back.
  file_->prefetch_box(clipped);
  Status result;
  for_each_index(space_.covering_chunks(clipped), [&](const Index& c) {
    if (!result.is_ok()) return;
    const Box clip = space_.chunk_box(c).intersect(clipped);
    if (clip.empty()) return;
    const std::uint64_t q = file_->chunk_address(c);
    auto pinned = cache_.pin(q, /*writable=*/true);
    if (!pinned.is_ok()) {
      result = pinned.status();
      return;
    }
    file_->gather_chunk(pinned.value(), clip, box, order, in);
    cache_.unpin(q, /*dirty=*/true, /*writable=*/true);
  });
  return result;
}

}  // namespace drx::core
