#include "serve/serve.hpp"

#include <algorithm>
#include <utility>

#include "io/config.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/opctx.hpp"
#include "obs/trace.hpp"

namespace drx::serve {

namespace {
const obs::MetricId kSessions = obs::counter_id("serve.sessions");
const obs::MetricId kSubmitted = obs::counter_id("serve.requests.submitted");
const obs::MetricId kCompleted = obs::counter_id("serve.requests.completed");
const obs::MetricId kFailed = obs::counter_id("serve.requests.failed");
const obs::MetricId kExtends = obs::counter_id("serve.extends");
const obs::MetricId kCompletedMin =
    obs::counter_id("serve.session.completed_min");
const obs::MetricId kCompletedMax =
    obs::counter_id("serve.session.completed_max");
const obs::MetricId kLatencyUs =
    obs::histogram_id("serve.request.latency_us");

core::ChunkCache::AsyncOptions resolve_cache(const Server::Options& options) {
  core::ChunkCache::AsyncOptions cache = options.cache;
  // A server's raison d'être is concurrent clients: when neither the
  // caller nor DRX_CACHE_SHARDS chose, default to 8 shards instead of
  // the plain-cache legacy single lock (docs/SERVING.md).
  if (cache.shards == 0 && io::cache_shards() == 0) cache.shards = 8;
  return cache;
}

// The cache layer deliberately clips boxes against the current bounds
// (partial reads are a feature for in-process callers); a remote client
// asking for data that does not exist deserves an error, not silent
// zeros. Checked under the structure lock so a concurrent extend can't
// move the goalposts mid-request.
Status check_in_bounds(const core::DrxFile& file, const core::Box& box) {
  if (box.rank() != file.rank()) {
    return Status(ErrorCode::kInvalidArgument,
                  "request box rank does not match the array");
  }
  const core::Shape& bounds = file.bounds();
  for (std::size_t d = 0; d < box.rank(); ++d) {
    if (box.hi[d] > bounds[d]) {
      return Status(ErrorCode::kOutOfRange,
                    "request box exceeds the array bounds");
    }
  }
  return Status::ok();
}

io::AsyncIoPool::Options resolve_pool(const Server::Options& options) {
  io::AsyncIoPool::Options pool;
  pool.threads = std::max(1, options.workers);
  pool.queue_capacity =
      options.queue_depth != 0 ? options.queue_depth : io::serve_queue_depth();
  return pool;
}
}  // namespace

std::future<Status> Session::submit(Request req) {
  return server_->enqueue(*this, std::move(req));
}

void Session::submit(Request req, Completion done) {
  server_->enqueue(*this, std::move(req), std::move(done));
}

Server::Server(core::DrxFile& file, const Options& options)
    : file_(&file),
      name_(options.name),
      cached_(file, options.cache_chunks, resolve_cache(options)),
      pool_(resolve_pool(options)) {
  scrape_handle_ = obs::register_scrape_provider(
      [this](std::vector<obs::ScrapeGauge>& out) { scrape(out); });
}

Server::~Server() {
  // Unregister first: it blocks until no scrape is inside our callback,
  // after which the exporter can no longer observe a dying server.
  obs::unregister_scrape_provider(scrape_handle_);
  drain();
  publish_session_stats();
}

void Server::scrape(std::vector<obs::ScrapeGauge>& out) const {
  const auto gauge = [&](std::string_view metric, double value,
                         std::string session_label = {}) {
    obs::ScrapeGauge g;
    g.name = std::string(metric);
    g.labels.emplace_back("array", name_);
    if (!session_label.empty()) {
      g.labels.emplace_back("session", std::move(session_label));
    }
    g.value = value;
    out.push_back(std::move(g));
  };
  gauge("serve.queue.depth", static_cast<double>(pool_.queue_depth()));
  const core::ChunkCache::Stats cache = cached_.stats();
  const std::uint64_t accesses = cache.hits + cache.misses;
  gauge("serve.cache.fast_hit_ratio",
        accesses != 0 ? static_cast<double>(cache.fast_hits) /
                            static_cast<double>(accesses)
                      : 0.0);
  // Per-session series are the canonical cardinality hazard: a busy
  // server opens sessions per client. Emit the first kMaxSessionLabels
  // individually and fold the rest into one "overflow" aggregate so the
  // scrape stays bounded no matter how many clients connect.
  util::MutexLock lock(mu_);
  std::uint64_t over_submitted = 0;
  std::uint64_t over_completed = 0;
  std::uint64_t over_failed = 0;
  std::size_t overflowed = 0;
  for (const auto& session : sessions_) {
    if (session->id() < obs::kMaxSessionLabels) {
      const std::string label = std::to_string(session->id());
      gauge("serve.session.submitted",
            static_cast<double>(session->submitted()), label);
      gauge("serve.session.completed",
            static_cast<double>(session->completed()), label);
      gauge("serve.session.failed",
            static_cast<double>(session->failed()), label);
    } else {
      over_submitted += session->submitted();
      over_completed += session->completed();
      over_failed += session->failed();
      ++overflowed;
    }
  }
  if (overflowed != 0) {
    gauge("serve.session.submitted", static_cast<double>(over_submitted),
          "overflow");
    gauge("serve.session.completed", static_cast<double>(over_completed),
          "overflow");
    gauge("serve.session.failed", static_cast<double>(over_failed),
          "overflow");
  }
}

Session& Server::open_session() {
  util::MutexLock lock(mu_);
  const std::uint64_t id = sessions_.size();
  sessions_.push_back(
      std::unique_ptr<Session>(new Session(this, id)));
  obs::registry().counter(kSessions).add();
  return *sessions_.back();
}

void Server::drain() { pool_.drain(); }

Status Server::flush() { return cached_.flush(); }

std::size_t Server::sessions() const {
  util::MutexLock lock(mu_);
  return sessions_.size();
}

void Server::publish_session_stats() {
  util::MutexLock lock(mu_);
  if (stats_published_ || sessions_.empty()) return;
  stats_published_ = true;
  std::uint64_t min = ~std::uint64_t{0};
  std::uint64_t max = 0;
  for (const auto& session : sessions_) {
    const std::uint64_t done = session->completed();
    min = std::min(min, done);
    max = std::max(max, done);
  }
  obs::registry().counter(kCompletedMin).add(min);
  obs::registry().counter(kCompletedMax).add(max);
}

std::future<Status> Server::enqueue(Session& session, Request req) {
  const std::uint64_t submit_ns = obs::trace_now_ns();
  session.submitted_.fetch_add(1, std::memory_order_relaxed);
  obs::registry().counter(kSubmitted).add();
  const io::AsyncIoPool::JobClass cls =
      req.type == RequestType::kPrefetch
          ? io::AsyncIoPool::JobClass::kBackground
          : io::AsyncIoPool::JobClass::kUrgent;
  // Jobs are std::function (copyable); the request moves into shared
  // ownership rather than forcing a deep copy of a write payload.
  auto shared = std::make_shared<Request>(std::move(req));
  return pool_.submit_with_future(
      obs::current_op(),
      [this, &session, shared, submit_ns] {
        return execute(session, *shared, submit_ns);
      },
      cls);
}

void Server::enqueue(Session& session, Request req, Session::Completion done) {
  const std::uint64_t submit_ns = obs::trace_now_ns();
  session.submitted_.fetch_add(1, std::memory_order_relaxed);
  obs::registry().counter(kSubmitted).add();
  const io::AsyncIoPool::JobClass cls =
      req.type == RequestType::kPrefetch
          ? io::AsyncIoPool::JobClass::kBackground
          : io::AsyncIoPool::JobClass::kUrgent;
  auto shared = std::make_shared<Request>(std::move(req));
  pool_.submit(
      obs::current_op(),
      [this, &session, shared, submit_ns] {
        return execute(session, *shared, submit_ns);
      },
      std::move(done), cls);
}

Status Server::execute(Session& session, const Request& req,
                       std::uint64_t submit_ns) {
  // Fresh op per request: stage attribution (lock_wait, cache_fault,
  // io_service...) inside the cache accrues to THIS request.
  obs::OpScope op("serve.request");
  if (obs::flight_enabled()) {
    // Tag the op with its session so post-hoc flight analysis can group
    // tail-latency requests by client.
    obs::flight_record(obs::FlightKind::kOp, "serve.session",
                       obs::trace_now_ns(), 0, session.id(),
                       obs::current_op().op, 0);
  }
  Status st;
  switch (req.type) {
    case RequestType::kRead: {
      util::ReaderMutexLock lock(structure_mu_);
      st = check_in_bounds(*file_, req.box);
      if (st.is_ok()) st = cached_.read_box(req.box, req.order, req.out);
      break;
    }
    case RequestType::kWrite: {
      // Exclusive: pins of one chunk do not exclude each other
      // (docs/SERVING.md "Pin contract").
      util::WriterMutexLock lock(structure_mu_);
      st = check_in_bounds(*file_, req.box);
      if (st.is_ok()) {
        st = cached_.write_box(req.box, req.order,
                               std::span<const std::byte>(req.data));
      }
      break;
    }
    case RequestType::kPrefetch: {
      util::ReaderMutexLock lock(structure_mu_);
      cached_.prefetch_box(req.box);
      break;
    }
    case RequestType::kExtend: {
      util::WriterMutexLock lock(structure_mu_);
      // Exclusive + flushed: the flush barrier drains the cache engine's
      // background jobs, so nothing races the metadata mutation below.
      st = cached_.flush();
      if (st.is_ok()) st = file_->extend(req.dim, req.delta);
      obs::registry().counter(kExtends).add();
      break;
    }
  }
  const std::uint64_t now = obs::trace_now_ns();
  obs::registry().histogram(kLatencyUs).observe((now - submit_ns) / 1000);
  session.completed_.fetch_add(1, std::memory_order_relaxed);
  obs::registry().counter(kCompleted).add();
  if (!st.is_ok()) {
    session.failed_.fetch_add(1, std::memory_order_relaxed);
    obs::registry().counter(kFailed).add();
  }
  return st;
}

}  // namespace drx::serve
