// Sliding-window metric views (obs/window.hpp): snapshot-delta math,
// epoch ring behavior, the ticker thread and its drx-window dump, the
// Registry::reset() ring-clear contract, SLO evaluation, and the
// drx-window document + analyze_window detectors.
#include "obs/window.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "obs/analysis.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"

namespace drx::obs {
namespace {

/// Every test leaves the global window engine the way it found it.
class WindowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    stop_window_ticker();
    set_window_enabled(true);
    window_clear();
  }
  void TearDown() override {
    stop_window_ticker();
    set_window_config(WindowConfig{0, 0});  // back to env/default
    set_slo_targets({});
    set_window_enabled(true);
    window_clear();
  }
};

// The window ring and its dump replaced the standalone sampler ring and
// its drx-series dump; these suites keep the sampler's checks, now run
// against the window engine.
class SampleRing : public WindowTest {};
class Sampler : public WindowTest {};

TEST_F(WindowTest, SnapshotDeltaSubtractsAndSaturates) {
  MetricsSnapshot base;
  base.counters.push_back(CounterSample{"a", 10});
  base.counters.push_back(CounterSample{"gone", 99});
  HistogramSample hb;
  hb.name = "h";
  hb.count = 4;
  hb.sum = 100;
  hb.buckets[3] = 4;
  base.histograms.push_back(hb);

  MetricsSnapshot cur;
  cur.counters.push_back(CounterSample{"a", 17});
  cur.counters.push_back(CounterSample{"new", 5});
  // A reset between captures can make cur < base: must clamp to 0, not
  // wrap.
  cur.counters.push_back(CounterSample{"gone", 0});
  HistogramSample hc = hb;
  hc.count = 9;
  hc.sum = 180;
  hc.buckets[3] = 7;
  hc.buckets[5] = 2;
  cur.histograms.push_back(hc);

  const MetricsSnapshot d = snapshot_delta(cur, base);
  EXPECT_EQ(d.counter("a"), 7u);
  EXPECT_EQ(d.counter("new"), 5u);
  EXPECT_EQ(d.counter("gone"), 0u);  // saturated, and dropped as zero
  ASSERT_EQ(d.histograms.size(), 1u);
  EXPECT_EQ(d.histograms[0].count, 5u);
  EXPECT_EQ(d.histograms[0].sum, 80u);
  EXPECT_EQ(d.histograms[0].buckets[3], 3u);
  EXPECT_EQ(d.histograms[0].buckets[5], 2u);
}

TEST_F(WindowTest, DefaultConfigIsTenSecondsBySixEpochs) {
  set_window_config(WindowConfig{0, 0});
  const WindowConfig cfg = window_config();
  // DRX_STATS_WINDOW may override in exotic test environments, but the
  // shape must hold: a positive epoch and a multi-epoch horizon.
  EXPECT_GT(cfg.epoch_ms, 0u);
  EXPECT_GT(cfg.epochs, 0u);
  EXPECT_EQ(cfg.horizon_ms(), cfg.epoch_ms * cfg.epochs);
}

TEST_F(WindowTest, ViewIsDeltaSinceOldestEpoch) {
  const MetricId c = counter_id("test.win.view.counter");
  const MetricId h = histogram_id("test.win.view.lat_us");
  process_registry().counter(c).add(5);
  window_record_epoch();  // ring: [snapshot with 5]
  process_registry().counter(c).add(7);
  process_registry().histogram(h).observe(100);
  const WindowView view = window_view();
  EXPECT_EQ(view.epochs, 1u);
  EXPECT_EQ(view.delta.counter("test.win.view.counter"), 7u);
  bool found = false;
  for (const HistogramSample& s : view.delta.histograms) {
    if (s.name == "test.win.view.lat_us") {
      found = true;
      EXPECT_EQ(s.count, 1u);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(WindowTest, EmptyRingFallsBackToCumulative) {
  const MetricId c = counter_id("test.win.fallback.counter");
  process_registry().counter(c).add(3);
  window_clear();
  set_window_enabled(false);
  const WindowView view = window_view();
  EXPECT_EQ(view.epochs, 0u);
  EXPECT_GE(view.delta.counter("test.win.fallback.counter"), 3u);
}

TEST_F(WindowTest, EpochDeltasAreConsecutivePairs) {
  const MetricId c = counter_id("test.win.epochs.counter");
  window_record_epoch();
  process_registry().counter(c).add(2);
  window_record_epoch();
  process_registry().counter(c).add(9);
  window_record_epoch();
  const std::vector<EpochDelta> epochs = window_epochs();
  ASSERT_GE(epochs.size(), 2u);
  const std::size_t n = epochs.size();
  EXPECT_EQ(epochs[n - 2].delta.counter("test.win.epochs.counter"), 2u);
  EXPECT_EQ(epochs[n - 1].delta.counter("test.win.epochs.counter"), 9u);
}

TEST_F(WindowTest, RingIsTrimmedToConfiguredEpochs) {
  // Ten captures into a 2-epoch ring: only the newest two epochs
  // survive, oldest first. The long epoch keeps view ticks out.
  set_window_config(WindowConfig{60000, 2});
  const MetricId c = counter_id("test.win.trim.counter");
  for (std::uint64_t i = 1; i <= 10; ++i) {
    process_registry().counter(c).add(i);
    window_record_epoch();
  }
  const std::vector<EpochDelta> epochs = window_epochs();
  ASSERT_EQ(epochs.size(), 2u);
  EXPECT_EQ(epochs[0].delta.counter("test.win.trim.counter"), 9u);
  EXPECT_EQ(epochs[1].delta.counter("test.win.trim.counter"), 10u);
  EXPECT_LE(epochs[0].t_us, epochs[1].t_us);
  EXPECT_EQ(window_view().epochs, 3u);  // epochs + 1 ring entries
}

TEST_F(SampleRing, FillsThenWrapsOldestFirst) {
  // A 4-epoch ring: it fills one completed epoch per capture after the
  // first, then keeps only the newest 4, oldest first. Counter value i
  // is added before capture i, so epoch k's delta names its capture.
  set_window_config(WindowConfig{60000, 4});
  EXPECT_TRUE(window_epochs().empty());
  const MetricId c = counter_id("test.win.ring.counter");
  for (std::uint64_t i = 1; i <= 3; ++i) {
    process_registry().counter(c).add(i);
    window_record_epoch();
  }
  const std::vector<EpochDelta> partial = window_epochs();
  ASSERT_EQ(partial.size(), 2u);
  EXPECT_EQ(partial[0].delta.counter("test.win.ring.counter"), 2u);
  EXPECT_EQ(partial[1].delta.counter("test.win.ring.counter"), 3u);

  for (std::uint64_t i = 4; i <= 10; ++i) {
    process_registry().counter(c).add(i);
    window_record_epoch();
  }
  // Ten captures into 4 epochs: the survivors are the last 4.
  const std::vector<EpochDelta> wrapped = window_epochs();
  ASSERT_EQ(wrapped.size(), 4u);
  for (std::size_t k = 0; k < wrapped.size(); ++k) {
    EXPECT_EQ(wrapped[k].delta.counter("test.win.ring.counter"), 7u + k);
    if (k > 0) {
      EXPECT_LE(wrapped[k - 1].t_us, wrapped[k].t_us);
    }
  }
}

TEST_F(WindowTest, ManualCaptureSeesLiveCounters) {
  // A capture reads the live view: a rank registry's increments count
  // before the RankScope folds them into the process registry.
  set_window_config(WindowConfig{60000, 8});
  const MetricId c = counter_id("test.win.manual.counter");
  registry().counter(c).add(7);
  window_record_epoch();
  {
    RankScope rank(0);
    registry().counter(c).add(3);
    window_record_epoch();
  }
  const std::vector<EpochDelta> epochs = window_epochs();
  ASSERT_EQ(epochs.size(), 1u);
  EXPECT_EQ(epochs[0].delta.counter("test.win.manual.counter"), 3u);
}

/// Polls the ring (window_epochs() does not tick, so only the ticker
/// adds epochs) until it holds `n` completed epochs or 10 s pass.
std::size_t wait_for_epochs(std::size_t n) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (window_epochs().size() < n &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return window_epochs().size();
}

/// End of the newest completed epoch (0 with none).
std::uint64_t newest_epoch_us() {
  const std::vector<EpochDelta> epochs = window_epochs();
  return epochs.empty() ? 0 : epochs.back().t_us;
}

TEST_F(WindowTest, TickerStartsCapturesAndStops) {
  set_window_config(WindowConfig{1, 64});
  start_window_ticker();
  EXPECT_GE(wait_for_epochs(2), 2u);

  stop_window_ticker();
  stop_window_ticker();  // idempotent

  // The ring survives the stop, oldest first, and nothing more lands.
  const std::vector<EpochDelta> epochs = window_epochs();
  EXPECT_GE(epochs.size(), 2u);
  for (std::size_t i = 1; i < epochs.size(); ++i) {
    EXPECT_LE(epochs[i - 1].t_us, epochs[i].t_us);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(newest_epoch_us(), epochs.back().t_us);
}

TEST_F(WindowTest, TickerRestartFollowsTheNewConfig) {
  set_window_config(WindowConfig{1, 2});
  start_window_ticker();
  set_window_config(WindowConfig{1, 8});  // clears the ring
  start_window_ticker();                  // restart joins the old thread
  // More epochs than the old ring could hold.
  EXPECT_GE(wait_for_epochs(4), 4u);
  stop_window_ticker();
  EXPECT_LE(window_epochs().size(), 8u);
  // One stop ends the restarted ticker: no older thread lingers.
  const std::uint64_t newest = newest_epoch_us();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(newest_epoch_us(), newest);
}

TEST_F(WindowTest, RegistryResetClearsTheRing) {
  // Regression: reset() used to zero the fast-id slots in place but
  // leave pre-reset cumulative epochs in the ring, so the next window
  // view subtracted a stale large baseline from a small post-reset live
  // snapshot and reported garbage (saturated zeros).
  const MetricId c = counter_id("test.win.reset.counter");
  process_registry().counter(c).add(100);
  window_record_epoch();
  ASSERT_EQ(window_view().epochs, 1u);
  process_registry().reset();
  // The stale epoch must be gone: no completed epoch survives the reset
  // (the tick inside window_epochs reseeds at most one fresh capture).
  EXPECT_TRUE(window_epochs().empty());
  // And new traffic is visible immediately — with the stale baseline
  // still in the ring this delta would saturate to 0 (4 - 100).
  process_registry().counter(c).add(4);
  EXPECT_EQ(window_view().delta.counter("test.win.reset.counter"), 4u);
}

/// Dumps the ring with write_window (the DRX_STATS_SERIES exit path)
/// and parses the file back.
JsonValue dump_and_parse() {
  const std::string path = ::testing::TempDir() + "drx_window_dump.json";
  EXPECT_TRUE(write_window(path).is_ok());
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  EXPECT_TRUE(json_validate(text.str()));
  auto doc = json_parse(text.str());
  EXPECT_TRUE(doc.is_ok());
  return doc.is_ok() ? std::move(doc.value()) : JsonValue{};
}

TEST_F(WindowTest, ResetBetweenTickerCapturesNeverStepsBack) {
  // Regression: the ticker captures before and after a Registry::reset().
  // A pre-reset capture left in the ring would be the baseline of the
  // dumped window, stepping every counter back (saturated to 0) and
  // feeding the detectors an epoch that spans the reset.
  set_window_config(WindowConfig{50, 64});
  const MetricId bytes = counter_id("test.win.series.bytes");
  const MetricId lat = histogram_id("test.win.series.lat_us");
  std::uint64_t post_reset_bytes = 0;
  const auto busy_epochs = [] {
    std::size_t busy = 0;
    for (const EpochDelta& e : window_epochs()) {
      if (e.delta.counter("test.win.series.bytes") != 0) ++busy;
    }
    return busy;
  };
  // Steady traffic (same bytes and latency every step) until `epochs`
  // completed epochs of the ticker carry some of it.
  const auto run_until = [&](std::size_t epochs, std::uint64_t n) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (busy_epochs() < epochs &&
           std::chrono::steady_clock::now() < deadline) {
      process_registry().counter(bytes).add(n);
      process_registry().histogram(lat).observe(500);
      post_reset_bytes += n;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return busy_epochs();
  };

  start_window_ticker();
  ASSERT_GE(run_until(2, 1000000), 2u);
  const std::uint64_t reset_us = trace_now_ns() / 1000;
  process_registry().reset();
  post_reset_bytes = 0;
  ASSERT_GE(run_until(3, 10), 3u);
  stop_window_ticker();

  const JsonValue doc = dump_and_parse();
  const JsonValue* deltas = doc.find("epoch_deltas");
  ASSERT_NE(deltas, nullptr);
  ASSERT_GE(deltas->array.size(), 3u);
  std::uint64_t prev_t_us = 0;
  for (const JsonValue& e : deltas->array) {
    // Every epoch starts after the reset: none spans it.
    EXPECT_GE(e.uint_at("t_us") - e.uint_at("span_us"), reset_us);
    EXPECT_GT(e.uint_at("t_us"), prev_t_us);
    prev_t_us = e.uint_at("t_us");
    const JsonValue* counters = e.find("metrics")->find("counters");
    EXPECT_LE(counters->uint_at("test.win.series.bytes"), post_reset_bytes);
  }
  const JsonValue* window = doc.find("window");
  ASSERT_NE(window, nullptr);
  EXPECT_GE(doc.uint_at("now_us") - window->uint_at("span_us"), reset_us);
  const std::uint64_t window_bytes =
      window->find("metrics")->find("counters")->uint_at(
          "test.win.series.bytes");
  EXPECT_GT(window_bytes, 0u);
  EXPECT_LE(window_bytes, post_reset_bytes);

  std::vector<analysis::Finding> findings;
  analysis::analyze_window(doc, findings);
  for (const analysis::Finding& f : findings) {
    EXPECT_NE(f.id, "io-stall") << f.message;
    EXPECT_NE(f.id, "window-regression") << f.message;
  }
}

TEST_F(WindowTest, EmptyRingStillValidJson) {
  set_window_enabled(false);  // no tick may seed the ring
  JsonWriter w;
  window_to_json(w);
  ASSERT_TRUE(json_validate(w.str())) << w.str();
  auto doc = json_parse(w.str());
  ASSERT_TRUE(doc.is_ok());
  EXPECT_TRUE(doc.value().find("epoch_deltas")->array.empty());
  EXPECT_EQ(doc.value().find("window")->uint_at("epochs"), 0u);
}

TEST_F(WindowTest, WindowJsonIsValidAndTagged) {
  set_window_config(WindowConfig{60000, 6});
  const MetricId h = histogram_id("test.win.json.lat_us");
  const MetricId bytes = counter_id("test.win.json.bytes");
  process_registry().counter(bytes).add(100);
  window_record_epoch();
  process_registry().histogram(h).observe(512);
  process_registry().counter(bytes).add(50);
  window_record_epoch();
  JsonWriter w;
  window_to_json(w);
  ASSERT_TRUE(json_validate(w.str()));
  auto doc = json_parse(w.str());
  ASSERT_TRUE(doc.is_ok());
  const JsonValue* fmt = doc.value().find("format");
  ASSERT_NE(fmt, nullptr);
  EXPECT_EQ(fmt->as_string(), "drx-window");
  EXPECT_NE(doc.value().find("config"), nullptr);
  EXPECT_NE(doc.value().find("slo"), nullptr);
  EXPECT_NE(doc.value().find("window"), nullptr);
  const JsonValue* deltas = doc.value().find("epoch_deltas");
  ASSERT_NE(deltas, nullptr);
  ASSERT_EQ(deltas->array.size(), 1u);
  // Counter values round-trip through the per-epoch metrics.
  const MetricsSnapshot epoch =
      analysis::metrics_from_json(*deltas->array[0].find("metrics"));
  EXPECT_EQ(epoch.counter("test.win.json.bytes"), 50u);
}

TEST_F(Sampler, SeriesJsonValidatesAndRoundsTrips) {
  // The series file (write_window, the DRX_STATS_SERIES exit dump)
  // validates, and counters round-trip through it: per epoch and in
  // the merged window.
  set_window_config(WindowConfig{60000, 6});
  const MetricId bytes = counter_id("test.win.series.bytes");
  window_record_epoch();
  process_registry().counter(bytes).add(100);
  window_record_epoch();
  process_registry().counter(bytes).add(50);
  window_record_epoch();

  const JsonValue doc = dump_and_parse();
  const JsonValue* format = doc.find("format");
  ASSERT_NE(format, nullptr);
  EXPECT_EQ(format->as_string(), "drx-window");
  const JsonValue* deltas = doc.find("epoch_deltas");
  ASSERT_NE(deltas, nullptr);
  ASSERT_TRUE(deltas->is_array());
  ASSERT_EQ(deltas->array.size(), 2u);
  EXPECT_EQ(analysis::metrics_from_json(*deltas->array[0].find("metrics"))
                .counter("test.win.series.bytes"),
            100u);
  EXPECT_EQ(analysis::metrics_from_json(*deltas->array[1].find("metrics"))
                .counter("test.win.series.bytes"),
            50u);
  const JsonValue* window = doc.find("window");
  ASSERT_NE(window, nullptr);
  EXPECT_EQ(analysis::metrics_from_json(*window->find("metrics"))
                .counter("test.win.series.bytes"),
            150u);
}

// ---- SLO math -------------------------------------------------------------

HistogramSample latency_histogram(std::uint64_t fast, std::uint64_t slow) {
  // `fast` observations land at ~512us (bucket 10, upper bound 1023),
  // `slow` at ~65ms (bucket 17).
  HistogramSample h;
  h.name = "serve.request.latency_us";
  h.count = fast + slow;
  h.sum = fast * 512 + slow * 65000;
  h.buckets[10] = fast;
  h.buckets[17] = slow;
  return h;
}

TEST(Slo, EvaluateCountsBucketsAboveTarget) {
  SloTarget t{"serve.request.latency_us", 1023, 0.01};
  const SloEval e = evaluate_slo(t, latency_histogram(98, 2));
  EXPECT_EQ(e.total, 100u);
  EXPECT_EQ(e.bad, 2u);
  EXPECT_DOUBLE_EQ(e.bad_fraction, 0.02);
  EXPECT_DOUBLE_EQ(e.burn_rate, 2.0);
}

TEST(Slo, EvaluateIsConservativeInsideABucket) {
  // Target mid-bucket: the whole bucket counts as bad (over-counting is
  // the safe direction for an SLO check).
  SloTarget t{"serve.request.latency_us", 600, 0.01};
  const SloEval e = evaluate_slo(t, latency_histogram(10, 0));
  EXPECT_EQ(e.bad, 10u);
}

TEST(Slo, TargetsOverrideAndRestore) {
  set_slo_targets({SloTarget{"x_us", 100, 0.5}});
  auto targets = slo_targets();
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(targets[0].histogram, "x_us");
  set_slo_targets({});
  EXPECT_FALSE(slo_targets().empty());  // back to DRX_SLO/default set
}

// ---- analyze_window -------------------------------------------------------

std::string window_doc(const HistogramSample& slow_h,
                       const HistogramSample& fast_h,
                       const HistogramSample& trail_h,
                       std::uint64_t target_us, double budget) {
  const auto metrics = [](JsonWriter& w, const HistogramSample& h) {
    MetricsSnapshot snap;
    snap.histograms.push_back(h);
    metrics_to_json(snap, w);
  };
  JsonWriter w;
  w.begin_object();
  w.key("format").value("drx-window");
  w.key("version").value(std::uint64_t{1});
  w.key("slo").begin_array().begin_object();
  w.key("histogram").value(slow_h.name);
  w.key("target_us").value(target_us);
  w.key("budget").value(budget);
  w.end_object().end_array();
  w.key("window").begin_object();
  w.key("span_us").value(std::uint64_t{60000000});
  w.key("metrics");
  metrics(w, slow_h);
  w.end_object();
  w.key("epoch_deltas").begin_array();
  w.begin_object();
  w.key("t_us").value(std::uint64_t{10000000});
  w.key("span_us").value(std::uint64_t{10000000});
  w.key("metrics");
  metrics(w, trail_h);
  w.end_object();
  w.begin_object();
  w.key("t_us").value(std::uint64_t{20000000});
  w.key("span_us").value(std::uint64_t{10000000});
  w.key("metrics");
  metrics(w, fast_h);
  w.end_object();
  w.end_array();
  w.end_object();
  return w.str();
}

TEST(AnalyzeWindow, SloBreachFiresBurnRateError) {
  // 30% of requests over a 1% budget in BOTH windows: burn 30x >= 14.4.
  const HistogramSample breach = latency_histogram(70, 30);
  auto doc = json_parse(
      window_doc(breach, breach, latency_histogram(70, 30), 1023, 0.01));
  ASSERT_TRUE(doc.is_ok());
  std::vector<analysis::Finding> findings;
  analysis::analyze_window(doc.value(), findings);
  bool fired = false;
  for (const auto& f : findings) {
    if (f.id == "slo-burn-rate") {
      fired = true;
      EXPECT_EQ(f.severity, analysis::Severity::kError);
      EXPECT_GE(f.score, analysis::kBurnError);
    }
  }
  EXPECT_TRUE(fired);
}

TEST(AnalyzeWindow, FastWindowBlipAloneDoesNotPage) {
  // Slow window healthy, fast window breaching: multi-window alerting
  // stays quiet (info finding only).
  auto doc = json_parse(window_doc(latency_histogram(998, 2),
                                   latency_histogram(10, 30),
                                   latency_histogram(500, 1), 1023, 0.01));
  ASSERT_TRUE(doc.is_ok());
  std::vector<analysis::Finding> findings;
  analysis::analyze_window(doc.value(), findings);
  for (const auto& f : findings) {
    if (f.id == "slo-burn-rate") {
      EXPECT_EQ(f.severity, analysis::Severity::kInfo);
    }
  }
}

TEST(AnalyzeWindow, RegressionAgainstTrailingBaseline) {
  // Trailing epochs p95 ~1ms, latest epoch p95 ~65ms: an in-window
  // latency regression (ratio ~64x >= 8x error bar).
  auto doc = json_parse(window_doc(latency_histogram(100, 100),
                                   latency_histogram(0, 100),
                                   latency_histogram(100, 0), 1023, 1.0));
  ASSERT_TRUE(doc.is_ok());
  std::vector<analysis::Finding> findings;
  analysis::analyze_window(doc.value(), findings);
  bool fired = false;
  for (const auto& f : findings) {
    if (f.id == "window-regression") {
      fired = true;
      EXPECT_EQ(f.severity, analysis::Severity::kError);
    }
  }
  EXPECT_TRUE(fired);
}

TEST(AnalyzeWindow, BadFormatIsAnError) {
  auto doc = json_parse(R"({"format":"drx-flight"})");
  ASSERT_TRUE(doc.is_ok());
  std::vector<analysis::Finding> findings;
  analysis::analyze_window(doc.value(), findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].id, "window-bad-format");
  EXPECT_EQ(findings[0].severity, analysis::Severity::kError);
}

}  // namespace
}  // namespace drx::obs
