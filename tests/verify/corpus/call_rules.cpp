// drx_verify seeded defects: per-call-site DRX invariants.
//
//  - hot-path-obs-guard: the obs slow paths (detail::profile_*_slow,
//    record_span) are for src/obs/ only; hot paths call the inline
//    wrappers, which check the relaxed-atomic enabled flag first.
//  - axial-mutation: Metadata::mapping grows only through
//    Metadata::extend_elements, which keeps the element bounds and the
//    chunk grid consistent.
//  - pool-submit-opctx: an AsyncIoPool submit outside src/io/ passes
//    obs::current_op() as its first argument so stage attribution and
//    flow arrows follow the op; an empty obs::OpContext{} is allowed
//    only with a suppression saying why no op can be in flight.
//
// Each rule has one justified suppression; the multi-line submit with
// current_op() on its second line is clean.
//
// Expected findings (pinned by tests/verify/check_corpus.py):
//   hot-path-obs-guard x1             (+1 suppressed)
//   axial-mutation x1                 (+1 suppressed)
//   pool-submit-opctx x2              (+1 suppressed)
#include <cstdint>

#include "core/metadata.hpp"
#include "io/async_pool.hpp"
#include "obs/opctx.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace drx::verify_corpus {

void profile_unguarded(std::uint64_t address) {
  obs::detail::profile_chunk_slow(0, address, 64);  // seeded
}

void trace_at_exit(std::uint64_t ts_ns) {
  // drx-verify: allow(hot-path-obs-guard) exit-path dump: runs once,
  // after tracing was checked enabled by the caller.
  obs::record_span("exit", "corpus", ts_ns, 0, 0);
}

void grow_behind_metadata(core::Metadata& meta) {
  meta.mapping.extend(0, 1);  // seeded: element bounds left behind
}

void rebuild_grid(core::Metadata& meta) {
  // drx-verify: allow(axial-mutation) rebuild from a snapshot whose
  // element bounds are restored by the next statement's caller.
  meta.mapping.extend(1, 1);
}

class Submitter {
 public:
  void untraced() {
    pool_->submit(ctx_, [] { return Status::ok(); });  // seeded
  }

  void severed() {
    pool_->submit(obs::OpContext{}, [] { return Status::ok(); });  // seeded
  }

  void at_startup() {
    // drx-verify: allow(pool-submit-opctx) startup warm-up, before any
    // op can be in flight.
    pool_->submit(obs::OpContext{}, [] { return Status::ok(); });
  }

  void traced() {
    pool_->submit(
        obs::current_op(), [] { return Status::ok(); });
  }

 private:
  io::AsyncIoPool* pool_ = nullptr;
  obs::OpContext ctx_;
};

}  // namespace drx::verify_corpus
