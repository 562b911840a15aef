// drx_verify seeded defects: synchronization outside the annotated
// wrappers.
//
// All locking goes through util/sync.hpp so clang -Wthread-safety sees
// every acquisition (raw-sync-primitive), and every wrapper mutex names
// what it guards in a DRX_GUARDED_BY / DRX_REQUIRES annotation
// (unannotated-mutex-member). Both rules are whole-file textual scans:
// members and statics live outside function bodies. One instance of
// each carries a justified suppression; `seq_mu_` is clean.
//
// Expected findings (pinned by tests/verify/check_corpus.py):
//   raw-sync-primitive x1             (+1 suppressed)
//   unannotated-mutex-member x1       (+1 suppressed)
#include <condition_variable>
#include <mutex>

#include "util/sync.hpp"

namespace drx::verify_corpus {

class RawCounter {
 public:
  void bump() {
    raw_mu_.lock();
    ++count_;
    raw_mu_.unlock();
  }

 private:
  std::mutex raw_mu_;  // seeded: invisible to -Wthread-safety
  long count_ = 0;
};

// drx-verify: allow(raw-sync-primitive) interop shim: a third-party
// callback API hands us this condition variable by reference.
using ForeignWakeup = std::condition_variable;

// Public members: the unused mutexes below would otherwise trip
// -Wunused-private-field under clang.
struct Members {
  void touch() {
    util::MutexLock lock(seq_mu_);
    ++last_miss_;
  }

  util::Mutex loose_mu_;  // seeded: guards nothing it names
  // drx-verify: allow(unannotated-mutex-member) serializes a log stream
  // owned by another object; there is no member to annotate.
  util::Mutex stream_mu_;
  util::Mutex seq_mu_;
  long last_miss_ DRX_GUARDED_BY(seq_mu_) = 0;
};

}  // namespace drx::verify_corpus
