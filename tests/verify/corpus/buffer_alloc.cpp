// drx_verify seeded defect: a chunk-buffer allocation under a cache
// shard lock.
//
// `std::make_unique<std::byte[]>` is a row of the "Blocking operations"
// table in docs/LOCK_ORDER.md, and `shards_[i].mu` maps to cache.shard
// (`May block = no`). Under a shard lock, buffers come from the shard's
// recycled free list. The one justified allocation (the cold-start fill
// in `take_buffer_locked`, reached through its DRX_REQUIRES contract)
// is suppressed at its site, so its caller `fill` is not a blocking
// path; `fill_after_unlock` allocates with the lock released.
//
// Expected findings (pinned by tests/verify/check_corpus.py):
//   blocking-under-lock x1            (+1 suppressed)
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "util/sync.hpp"

namespace drx::verify_corpus {

class MiniShards {
 public:
  void grow(std::size_t i) {
    util::MutexLock lock(shards_[i].mu);
    // seeded: a fresh O(chunk) heap block under cache.shard
    shards_[i].spare.push_back(std::make_unique<std::byte[]>(kChunk));
  }

  void fill(std::size_t i) {
    util::MutexLock lock(shards_[i].mu);
    shards_[i].spare.push_back(take_buffer_locked(i));
  }

  void fill_after_unlock(std::size_t i) {
    util::MutexLock lock(shards_[i].mu);
    lock.unlock();
    auto buffer = std::make_unique<std::byte[]>(kChunk);
    lock.lock();
    shards_[i].spare.push_back(std::move(buffer));
  }

 private:
  static constexpr std::size_t kChunk = 4096;
  struct Shard {
    util::Mutex mu;
    std::vector<std::unique_ptr<std::byte[]>> spare DRX_GUARDED_BY(mu);
  };

  std::unique_ptr<std::byte[]> take_buffer_locked(std::size_t i)
      DRX_REQUIRES(shards_[i].mu);

  Shard shards_[2];
};

std::unique_ptr<std::byte[]> MiniShards::take_buffer_locked(std::size_t i) {
  if (!shards_[i].spare.empty()) {
    std::unique_ptr<std::byte[]> buffer = std::move(shards_[i].spare.back());
    shards_[i].spare.pop_back();
    return buffer;
  }
  // drx-verify: allow(blocking-under-lock) cold-start fill; bounded by
  // the shard capacity.
  return std::make_unique<std::byte[]>(kChunk);
}

}  // namespace drx::verify_corpus
