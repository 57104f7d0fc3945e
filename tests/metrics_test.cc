// Unit and concurrency tests for the observability subsystem: the
// lock-sharded MetricsRegistry (counters / gauges / power-of-two
// histograms), snapshot-during-update safety under the 4-thread morsel
// path (the TSan job runs this file), thread-pool queue statistics, and
// the Database-level query counters fed by ExecuteSelect.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/database.h"
#include "tests/test_util.h"

namespace fgac {
namespace {

using common::Counter;
using common::Gauge;
using common::Histogram;
using common::MetricsRegistry;
using common::MetricsSnapshot;
using core::Database;
using core::EnforcementMode;
using core::SessionContext;
using fgac::testing::CreateUniversityViews;
using fgac::testing::SetupUniversity;

// ---------------------------------------------------------------------------
// Primitive metrics
// ---------------------------------------------------------------------------

TEST(CounterTest, IncrementAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, SetAddSetMax) {
  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.value(), 7);
  g.SetMax(5);  // below current: no-op
  EXPECT_EQ(g.value(), 7);
  g.SetMax(100);
  EXPECT_EQ(g.value(), 100);
}

TEST(HistogramTest, PowerOfTwoBuckets) {
  Histogram h;
  h.Record(0);  // bucket 0
  h.Record(1);  // [1,2) -> bucket 1
  h.Record(3);  // [2,4) -> bucket 2
  h.Record(4);  // [4,8) -> bucket 3
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 8u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 1u);
}

TEST(HistogramTest, ApproxPercentileInterpolatesWithinBucket) {
  Histogram h;
  for (int i = 0; i < 99; ++i) h.Record(10);  // bucket [8,16)
  h.Record(1000);                             // bucket [512,1024)
  // p50 is rank 50 of the 99-sample [8,16) bucket: linearly interpolated
  // to 8 + round(7 * 51/99) = 12, not snapped to the bucket bound 15.
  EXPECT_EQ(h.ApproxPercentile(50), 12u);
  // The top rank still maps to its bucket's upper bound.
  EXPECT_EQ(h.ApproxPercentile(100), 1023u);
  Histogram empty;
  EXPECT_EQ(empty.ApproxPercentile(50), 0u);
}

TEST(HistogramTest, ApproxPercentileTracksUniformRamp) {
  Histogram h;
  for (int v = 1; v <= 1000; ++v) h.Record(v);
  // Under the uniform-within-bucket assumption the estimate stays close to
  // the true percentile instead of jumping between power-of-two edges.
  EXPECT_EQ(h.ApproxPercentile(50), 501u);
  uint64_t p25 = h.ApproxPercentile(25);
  EXPECT_GE(p25, 245u);
  EXPECT_LE(p25, 255u);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, HandlesAreStableAndDistinct) {
  MetricsRegistry reg;
  Counter& a = reg.counter("a");
  Counter& b = reg.counter("b");
  EXPECT_NE(&a, &b);
  a.Increment();
  // Same name resolves to the same metric, across many lookups.
  for (int i = 0; i < 100; ++i) EXPECT_EQ(&reg.counter("a"), &a);
  EXPECT_EQ(reg.counter("a").value(), 1u);
  // The three kinds are independent namespaces.
  reg.gauge("a").Set(7);
  reg.histogram("a").Record(3);
  EXPECT_EQ(reg.counter("a").value(), 1u);
}

TEST(MetricsRegistryTest, SnapshotAndJson) {
  MetricsRegistry reg;
  reg.counter("queries").Increment(3);
  reg.gauge("depth").Set(-2);
  reg.histogram("lat_us").Record(100);
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("queries"), 3u);
  EXPECT_EQ(snap.gauges.at("depth"), -2);
  EXPECT_EQ(snap.histograms.at("lat_us").count, 1u);
  std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"queries\":3"), std::string::npos);
  EXPECT_NE(json.find("\"depth\":-2"), std::string::npos);
  EXPECT_NE(json.find("\"lat_us\""), std::string::npos);
}

// The regression this guards: counters shared by the 4-thread morsel path
// must neither tear nor lose increments while another thread snapshots
// mid-update. Run under TSan in CI.
TEST(MetricsRegistryTest, SnapshotDuringConcurrentUpdatesIsExact) {
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 50000;
  MetricsRegistry reg;
  // Pre-register so workers race only on the atomics, and one extra name
  // per worker so first-use registration races are exercised too.
  reg.counter("shared");
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, t] {
      Counter& shared = reg.counter("shared");
      Counter& own = reg.counter("worker." + std::to_string(t));
      Histogram& h = reg.histogram("rows");
      for (uint64_t i = 0; i < kPerThread; ++i) {
        shared.Increment();
        own.Increment();
        h.Record(i & 1023);
      }
    });
  }
  // Snapshot continuously while the workers hammer; every observed value
  // must be a whole count no larger than the final total (a torn read
  // would show up as a wild value).
  std::thread reader([&reg, &stop] {
    uint64_t last = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      MetricsSnapshot snap = reg.Snapshot();
      auto it = snap.counters.find("shared");
      if (it != snap.counters.end()) {
        EXPECT_LE(it->second, kThreads * kPerThread);
        EXPECT_GE(it->second, last);  // monotone across snapshots
        last = it->second;
      }
    }
  });
  for (std::thread& w : workers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  MetricsSnapshot final_snap = reg.Snapshot();
  EXPECT_EQ(final_snap.counters.at("shared"), kThreads * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(final_snap.counters.at("worker." + std::to_string(t)),
              kPerThread);
  }
  EXPECT_EQ(final_snap.histograms.at("rows").count, kThreads * kPerThread);
}

// ---------------------------------------------------------------------------
// Thread-pool statistics
// ---------------------------------------------------------------------------

TEST(ThreadPoolStatsTest, CountsTasksAndQueueHighWater) {
  std::atomic<int> finished{0};
  std::promise<void> all_finished;
  common::ThreadPool pool(2);  // declared last: joined first
  EXPECT_EQ(pool.tasks_run(), 0u);
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&finished, &all_finished] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      if (finished.fetch_add(1) + 1 == 8) all_finished.set_value();
    });
  }
  all_finished.get_future().wait();
  // A task counts as run when a worker pops it, before its body starts.
  EXPECT_EQ(pool.tasks_run(), 8u);
  // 8 sleeping tasks over 2 workers must have queued at some point.
  EXPECT_GE(pool.queue_depth_high_water(), 1u);
}

// ---------------------------------------------------------------------------
// Database-level query metrics
// ---------------------------------------------------------------------------

class DatabaseMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetupUniversity(&db_);
    CreateUniversityViews(&db_);
    ASSERT_TRUE(db_.ExecuteAsAdmin("grant select on mygrades to 11").ok());
  }

  uint64_t Count(const std::string& name) {
    return db_.metrics().counter(name).value();
  }

  Database db_;
};

TEST_F(DatabaseMetricsTest, SelectCacheAndRejectionCounters) {
  SessionContext ctx("11");
  const std::string q = "select grade from grades where student-id = '11'";
  ASSERT_TRUE(db_.Execute(q, ctx).ok());
  EXPECT_EQ(Count("queries.select"), 1u);
  EXPECT_EQ(Count("validity.cache_misses"), 1u);
  EXPECT_EQ(Count("validity.cache_hits"), 0u);

  ASSERT_TRUE(db_.Execute(q, ctx).ok());
  EXPECT_EQ(Count("queries.select"), 2u);
  EXPECT_EQ(Count("validity.cache_hits"), 1u);

  auto rejected = db_.Execute("select * from grades", ctx);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kNotAuthorized);
  EXPECT_EQ(Count("queries.rejected"), 1u);
  EXPECT_EQ(Count("queries.select"), 3u);
}

TEST_F(DatabaseMetricsTest, GuardTripAndDegradationCounters) {
  SessionContext ctx("11");
  // Blow the validity budget with no degradation policy: a guard trip.
  db_.options().validity.check_timeout = std::chrono::microseconds(1);
  auto r = db_.Execute("select grade from grades where student-id = '11'",
                       ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(Count("guard.trips"), 1u);
  EXPECT_EQ(Count("queries.degraded_to_truman"), 0u);

  // Same budget with DegradePolicy::kTruman: counted as a degradation.
  common::QueryLimits limits;
  limits.degrade_policy = common::DegradePolicy::kTruman;
  ctx.set_query_limits(limits);
  auto degraded =
      db_.Execute("select grade from grades where student-id = '11'", ctx);
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(degraded.value().degraded_to_truman);
  EXPECT_EQ(Count("queries.degraded_to_truman"), 1u);
}

TEST_F(DatabaseMetricsTest, ExportRefreshesSubsystemGauges) {
  SessionContext ctx("11");
  ASSERT_TRUE(
      db_.Execute("select grade from grades where student-id = '11'", ctx)
          .ok());
  std::string json = db_.ExportMetricsJson();
  EXPECT_NE(json.find("\"statement_cache.entries\":1"), std::string::npos);
  EXPECT_NE(json.find("\"statement_cache.misses\":1"), std::string::npos);
  EXPECT_NE(json.find("\"thread_pool.tasks_run\""), std::string::npos);
  EXPECT_NE(json.find("\"queries.select\":1"), std::string::npos);
  EXPECT_NE(json.find("\"exec.run_us\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Windowed metrics: ring of 5-second epochs behind every counter/histogram
// ---------------------------------------------------------------------------

using common::MetricWindow;

TEST(CounterWindowTest, WindowsSumRecentEpochs) {
  Counter c;
  c.IncrementAtEpoch(5, 100);   // 5m only at epoch 160
  c.IncrementAtEpoch(7, 101);   // 5m window
  c.IncrementAtEpoch(11, 150);  // 1m + 5m windows
  c.IncrementAtEpoch(13, 159);  // all three windows
  auto w = c.WindowedAtEpoch(160);
  // 10s = epochs {159,160}; 1m = {149..160}; 5m = {101..160}.
  EXPECT_EQ(w[0], 13u);
  EXPECT_EQ(w[1], 24u);
  EXPECT_EQ(w[2], 31u);
  EXPECT_EQ(c.value(), 36u);
}

TEST(CounterWindowTest, WindowsAreMonotoneSubsetsOfCumulative) {
  Counter c;
  for (uint64_t e = 90; e <= 160; ++e) c.IncrementAtEpoch(e, e);
  auto w = c.WindowedAtEpoch(160);
  EXPECT_LE(w[0], w[1]);
  EXPECT_LE(w[1], w[2]);
  EXPECT_LE(w[2], c.value());
}

TEST(CounterWindowTest, RingWrapDropsStaleEpochsButKeepsCumulative) {
  Counter c;
  c.IncrementAtEpoch(42, 100);
  // Far enough ahead that epoch 100's slot is older than every window.
  auto w = c.WindowedAtEpoch(100 + MetricWindow::kRing + 1);
  EXPECT_EQ(w[0], 0u);
  EXPECT_EQ(w[1], 0u);
  EXPECT_EQ(w[2], 0u);
  EXPECT_EQ(c.value(), 42u);
}

TEST(CounterWindowTest, SlotTakeoverZeroesTheStaleValue) {
  Counter c;
  c.IncrementAtEpoch(100, 10);
  // Epoch 10 + kRing maps to the same ring slot; the takeover must zero
  // the old epoch's count rather than fold it into the new window.
  c.IncrementAtEpoch(1, 10 + MetricWindow::kRing);
  auto w = c.WindowedAtEpoch(10 + MetricWindow::kRing);
  EXPECT_EQ(w[0], 1u);
  EXPECT_EQ(w[2], 1u);
  EXPECT_EQ(c.value(), 101u);
}

TEST(HistogramWindowTest, WindowedPercentilesTrackRecentSamples) {
  Histogram h;
  // Old epoch: large values that must NOT contaminate the 10s window.
  for (int i = 0; i < 100; ++i) h.RecordAtEpoch(100000, 100);
  // Current epoch: a uniform ramp.
  for (uint64_t v = 1; v <= 1000; ++v) h.RecordAtEpoch(v, 158);
  auto w = h.WindowedAtEpoch(159);
  // 10s window sees only the ramp.
  EXPECT_EQ(w[0].count, 1000u);
  EXPECT_EQ(w[0].sum, 500500u);
  EXPECT_EQ(w[0].p50, 501u);  // the ramp's own median, old epoch excluded
  EXPECT_LT(w[0].p99, 100000u);
  // 5m window merges both epochs, so its p99 lands in the old bucket.
  EXPECT_EQ(w[2].count, 1100u);
  EXPECT_GE(w[2].p99, 65536u);
  // Windowed counts never exceed the cumulative count.
  EXPECT_LE(w[0].count, w[1].count);
  EXPECT_LE(w[1].count, w[2].count);
  EXPECT_LE(w[2].count, h.count());
}

TEST(HistogramWindowTest, FreshSamplesMakeWindowedMatchCumulative) {
  // All samples in the current epoch: every window holds exactly the
  // cumulative distribution, so windowed p99 == cumulative p99.
  Histogram h;
  for (uint64_t v = 1; v <= 500; ++v) h.RecordAtEpoch(v, 42);
  auto w = h.WindowedAtEpoch(42);
  for (size_t i = 0; i < MetricWindow::kCount; ++i) {
    EXPECT_EQ(w[i].count, h.count());
    EXPECT_EQ(w[i].p50, h.ApproxPercentile(50));
    EXPECT_EQ(w[i].p95, h.ApproxPercentile(95));
    EXPECT_EQ(w[i].p99, h.ApproxPercentile(99));
  }
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

/// Minimal exposition-format check: every non-comment line must be
/// `name{labels} value` with a parseable float value and a sane name.
void AssertPrometheusParses(const std::string& text) {
  size_t start = 0;
  int lines = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    ASSERT_NE(end, std::string::npos) << "unterminated line";
    std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    ++lines;
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    std::string name = line.substr(0, space);
    std::string value = line.substr(space + 1);
    EXPECT_EQ(name.rfind("fgac_", 0), 0u) << line;
    size_t brace = name.find('{');
    if (brace != std::string::npos) {
      EXPECT_EQ(name.back(), '}') << line;
      EXPECT_NE(name.find('=', brace), std::string::npos) << line;
    }
    char* parse_end = nullptr;
    std::strtod(value.c_str(), &parse_end);
    EXPECT_EQ(*parse_end, '\0') << "bad value in: " << line;
  }
  EXPECT_GT(lines, 0) << "no samples in exposition";
}

TEST(PrometheusTest, FormatsCountersGaugesAndHistogramSummaries) {
  MetricsRegistry reg;
  reg.counter("queries.select").Increment(3);
  reg.gauge("admission.queue-depth").Set(-2);
  for (uint64_t v = 1; v <= 100; ++v) reg.histogram("exec.run_us").Record(v);
  std::string text = reg.ToPrometheus();
  AssertPrometheusParses(text);
  // Dotted (and otherwise hostile) names map into one flat namespace.
  EXPECT_NE(text.find("# TYPE fgac_queries_select_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("fgac_queries_select_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("fgac_admission_queue_depth -2\n"), std::string::npos);
  // Counters expose per-window rates...
  EXPECT_NE(text.find("fgac_queries_select_rate{window=\"10s\"} 0.3\n"),
            std::string::npos);
  EXPECT_NE(text.find("fgac_queries_select_rate{window=\"1m\"} 0.05\n"),
            std::string::npos);
  // ...histograms a summary plus windowed quantiles.
  EXPECT_NE(text.find("# TYPE fgac_exec_run_us summary"), std::string::npos);
  EXPECT_NE(text.find("fgac_exec_run_us{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("fgac_exec_run_us_count 100\n"), std::string::npos);
  EXPECT_NE(
      text.find("fgac_exec_run_us_windowed{window=\"1m\",quantile=\"0.99\"}"),
      std::string::npos);
  EXPECT_NE(text.find("fgac_exec_run_us_windowed_count{window=\"5m\"} 100\n"),
            std::string::npos);
}

TEST(PrometheusTest, WindowedQuantilesMatchCumulativeForFreshSamples) {
  // End-to-end tolerance check for the acceptance criterion: a burst that
  // happened entirely inside the last minute exports a 1m-window p99 equal
  // to the cumulative summary's p99.
  MetricsRegistry reg;
  Histogram& h = reg.histogram("exec.run_us");
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  MetricsSnapshot snap = reg.Snapshot();
  const auto& hv = snap.histograms.at("exec.run_us");
  EXPECT_EQ(hv.windows[1].count, hv.count);
  EXPECT_EQ(hv.windows[1].p99, hv.p99);
  std::string text = snap.ToPrometheus();
  std::string cumulative =
      "fgac_exec_run_us{quantile=\"0.99\"} " + std::to_string(hv.p99) + "\n";
  std::string windowed =
      "fgac_exec_run_us_windowed{window=\"1m\",quantile=\"0.99\"} " +
      std::to_string(hv.windows[1].p99) + "\n";
  EXPECT_NE(text.find(cumulative), std::string::npos) << text;
  EXPECT_NE(text.find(windowed), std::string::npos) << text;
}

TEST_F(DatabaseMetricsTest, PrometheusExportParsesAndCoversQueryMetrics) {
  SessionContext ctx("11");
  ASSERT_TRUE(
      db_.Execute("select grade from grades where student-id = '11'", ctx)
          .ok());
  std::string text = db_.ExportMetricsPrometheus();
  AssertPrometheusParses(text);
  EXPECT_NE(text.find("fgac_queries_select_total 1\n"), std::string::npos);
  EXPECT_NE(text.find("fgac_statement_cache_entries"), std::string::npos);
  EXPECT_NE(text.find("fgac_watchdog_statements_in_flight"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// The export gauge key set, pinned
// ---------------------------------------------------------------------------

// One export must mirror EVERY subsystem introduced through PR 9 into
// gauges. This is an exact pin (minus the dynamic fault.<site> gauges): a
// new subsystem gauge must be added here, and a renamed or dropped gauge
// fails loudly instead of silently vanishing from dashboards.
TEST_F(DatabaseMetricsTest, ExportGaugeKeySetIsPinned) {
  SessionContext ctx("11");
  ASSERT_TRUE(
      db_.Execute("select grade from grades where student-id = '11'", ctx)
          .ok());
  (void)db_.ExportMetricsJson();
  std::vector<std::string> got;
  for (const auto& [name, unused] : db_.metrics().Snapshot().gauges) {
    if (name.rfind("fault.", 0) == 0) continue;  // per-site, build-dependent
    got.push_back(name);
  }
  const std::vector<std::string> want = {
      "admission.admitted", "admission.cancelled", "admission.queue_depth",
      "admission.queue_depth_high_water", "admission.queue_wait_us",
      "admission.rejected_deadline", "admission.running",
      "admission.shed_memory", "admission.shed_queue_full",
      "audit.events_dropped", "audit.events_emitted",
      "audit.events_persisted", "memory.charges_denied", "memory.hard_limit",
      "memory.high_water", "memory.soft_limit", "memory.used",
      "scheduler.dags_executed", "scheduler.fair_sessions_active",
      "scheduler.pipelines_cancelled", "scheduler.pipelines_completed",
      "scheduler.task_queue_wait_us", "scheduler.task_run_us",
      "scheduler.tasks_dispatched",
      "sessions.open", "sessions.statements_active",
      "sessions.statements_begun",
      "statement_cache.collisions", "statement_cache.entries",
      "statement_cache.evictions", "statement_cache.hits",
      "statement_cache.invalidations", "statement_cache.misses",
      "thread_pool.queue_depth", "thread_pool.queue_depth_high_water",
      "thread_pool.tasks_run", "trace.spans_dropped", "trace.spans_recorded",
      "watchdog.admission_queue_depth", "watchdog.admission_running",
      "watchdog.max_statement_elapsed_us", "watchdog.scheduler_queue_depth",
      "watchdog.stalled_statements", "watchdog.statements_in_flight"};
  EXPECT_EQ(got, want);
}

TEST_F(DatabaseMetricsTest, ExportCoversSchedulerAndPoolGauges) {
  // A parallel query guarantees at least one DAG went through the
  // scheduler before export.
  SessionContext admin("admin");
  admin.set_mode(core::EnforcementMode::kNone);
  admin.set_exec_parallelism(2);
  ASSERT_TRUE(db_.Execute("select * from grades", admin).ok());

  std::string json = db_.ExportMetricsJson();
  for (const char* gauge :
       {"\"thread_pool.tasks_run\"", "\"thread_pool.queue_depth\"",
        "\"scheduler.dags_executed\"", "\"scheduler.tasks_dispatched\"",
        "\"scheduler.pipelines_completed\"",
        "\"scheduler.pipelines_cancelled\""}) {
    EXPECT_NE(json.find(gauge), std::string::npos) << gauge;
  }
  // The scheduler is process-wide, so the gauges are lower-bounded by this
  // query's own DAG: one scan pipeline of two tasks.
  EXPECT_EQ(json.find("\"scheduler.dags_executed\":0"), std::string::npos);
  EXPECT_EQ(json.find("\"scheduler.tasks_dispatched\":0"), std::string::npos);
  EXPECT_EQ(json.find("\"scheduler.pipelines_completed\":0"),
            std::string::npos);
}

}  // namespace
}  // namespace fgac
