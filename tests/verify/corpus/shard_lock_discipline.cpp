// drx_verify seeded defects: chunk I/O and a second shard lock under a
// cache shard lock.
//
// `shards_[i].mu` maps to cache.shard (level 70, `May block = no`,
// `Self = pair`) in docs/LOCK_ORDER.md. A cache fault must fetch its
// chunk with every shard lock released (ChunkCache reads stored bytes
// under io_mu_ only), and two shard locks may be held together only
// through the ordered ShardPairLock, which takes the lower index first.
// Both defects below deadlock or stall the serving hot path.
//
// Expected findings (pinned by tests/verify/check_corpus.py):
//   blocking-under-lock x1
//   lock-order x1
#include <cstdint>
#include <vector>

#include "util/sync.hpp"

namespace drx::verify_corpus {

class MiniFile {
 public:
  int read_chunks_stored(std::uint64_t first, std::uint64_t count,
                         std::vector<std::byte>& scratch) {
    scratch.resize(static_cast<std::size_t>(count));
    return static_cast<int>(first);
  }
};

class MiniCache {
 public:
  int fault_under_shard_lock(std::uint64_t address) {
    util::MutexLock lock(shards_[0].mu);
    std::vector<std::byte> stored;
    // seeded: storage read while cache.shard is held
    return file_->read_chunks_stored(address, 1, stored);
  }

  void borrow_capacity() {
    util::MutexLock from(shards_[0].mu);
    util::MutexLock to(shards_[1].mu);  // seeded: not via ShardPairLock
    ++borrowed_;
  }

 private:
  struct Shard {
    util::Mutex mu;
    long faults DRX_GUARDED_BY(mu) = 0;
  };
  Shard shards_[2];
  MiniFile* file_ = nullptr;
  long borrowed_ = 0;
};

}  // namespace drx::verify_corpus
