// dadu_obs unit tests: sharded counter exactness (serial and under
// concurrent writers), log-bucket histogram boundaries and percentile
// extraction, sink/span recording, and golden output for the
// Prometheus/JSON exporters.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "dadu/obs/export.hpp"
#include "dadu/obs/histogram.hpp"
#include "dadu/obs/sharded_counters.hpp"
#include "dadu/obs/sink.hpp"

namespace dadu::obs {
namespace {

// ------------------------------------------------- sharded counters

TEST(ShardedCounters, SingleThreadAddAndValue) {
  ShardedCounters counters(3, 4);
  counters.add(0);
  counters.add(0, 4);
  counters.add(2, 7);
  EXPECT_EQ(counters.value(0), 5u);
  EXPECT_EQ(counters.value(1), 0u);
  EXPECT_EQ(counters.value(2), 7u);
  const auto snap = counters.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0], 5u);
  EXPECT_EQ(snap[1], 0u);
  EXPECT_EQ(snap[2], 7u);
}

TEST(ShardedCounters, ShardCountRoundsUpToPowerOfTwo) {
  ShardedCounters counters(1, 5);
  EXPECT_EQ(counters.shards(), 8u);
  ShardedCounters one(1, 1);
  EXPECT_EQ(one.shards(), 1u);
}

TEST(ShardedCounters, ZeroCountersThrows) {
  EXPECT_THROW(ShardedCounters(0, 4), std::invalid_argument);
}

TEST(ShardedCounters, ThreadSlotIsStablePerThread) {
  const std::size_t mine = threadSlot();
  EXPECT_EQ(threadSlot(), mine);
  std::size_t other = mine;
  std::thread t([&] { other = threadSlot(); });
  t.join();
  EXPECT_NE(other, mine);
}

// No update is lost across concurrent writers, regardless of how
// threads map onto shards.  (Also the TSan target for the write path.)
TEST(ShardedCounters, ConcurrentWritersLoseNothing) {
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 20'000;
  ShardedCounters counters(2, 4);  // fewer shards than threads on purpose
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    writers.emplace_back([&] {
      while (!go.load()) {
      }
      for (int i = 0; i < kAddsPerThread; ++i) {
        counters.add(0);
        counters.add(1, 2);
      }
    });
  go.store(true);
  // Reads race writes by design: snapshots must be monotone, not torn.
  std::uint64_t last = 0;
  for (int probe = 0; probe < 50; ++probe) {
    const std::uint64_t seen = counters.value(0);
    EXPECT_GE(seen, last);
    last = seen;
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(counters.value(0),
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
  EXPECT_EQ(counters.value(1),
            2u * static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
}

// --------------------------------------------------------- histogram

LatencyHistogram::Config smallConfig() {
  LatencyHistogram::Config config;
  config.min_value = 1.0;
  config.max_value = 100.0;
  config.buckets_per_decade = 1;  // bounds: 1, 10, 100
  return config;
}

TEST(Histogram, LadderCoversMinToMax) {
  const LatencyHistogram hist(smallConfig());
  const auto& bounds = hist.upperBounds();
  ASSERT_EQ(bounds.size(), 3u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[1], 10.0);
  EXPECT_DOUBLE_EQ(bounds[2], 100.0);
}

TEST(Histogram, BadConfigThrows) {
  LatencyHistogram::Config config;
  config.min_value = 0.0;
  EXPECT_THROW(LatencyHistogram{config}, std::invalid_argument);
  config.min_value = 10.0;
  config.max_value = 1.0;
  EXPECT_THROW(LatencyHistogram{config}, std::invalid_argument);
  config.max_value = 100.0;
  config.buckets_per_decade = 0;
  EXPECT_THROW(LatencyHistogram{config}, std::invalid_argument);
}

TEST(Histogram, SamplesLandInCorrectBuckets) {
  LatencyHistogram hist(smallConfig());
  hist.record(0.5);    // underflow bucket 0 (value <= min)
  hist.record(1.0);    // exactly the first bound: bucket 0 (inclusive)
  hist.record(5.0);    // (1, 10]   -> bucket 1
  hist.record(10.0);   // inclusive -> bucket 1
  hist.record(50.0);   // (10, 100] -> bucket 2
  hist.record(500.0);  // overflow  -> bucket 3
  const auto snap = hist.snapshot();
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 6u);
  EXPECT_DOUBLE_EQ(snap.max, 500.0);
}

TEST(Histogram, HostileSamplesGoToUnderflow) {
  LatencyHistogram hist(smallConfig());
  hist.record(-3.0);
  hist.record(0.0);
  hist.record(std::numeric_limits<double>::quiet_NaN());
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.counts[0], 3u);
  EXPECT_EQ(snap.count, 3u);
}

TEST(Histogram, EmptySnapshotIsZero) {
  const LatencyHistogram hist{LatencyHistogram::Config{}};
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.mean(), 0.0);
  EXPECT_DOUBLE_EQ(snap.p50(), 0.0);
  EXPECT_DOUBLE_EQ(snap.p99(), 0.0);
}

TEST(Histogram, PercentilesOfKnownDistribution) {
  // 8 buckets/decade over [1e-3, 1e4] (the serving default): record a
  // uniform 1..100 ms grid and expect percentiles within one bucket
  // width (10^(1/8) ~ 1.33x) of the exact sample percentiles.
  LatencyHistogram hist{LatencyHistogram::Config{}};
  for (int v = 1; v <= 100; ++v) hist.record(static_cast<double>(v));
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_NEAR(snap.mean(), 50.5, 1e-9);  // sum is exact, not bucketed
  EXPECT_GT(snap.p50(), 50.0 / 1.34);
  EXPECT_LT(snap.p50(), 50.0 * 1.34);
  EXPECT_GT(snap.p90(), 90.0 / 1.34);
  EXPECT_LT(snap.p90(), 90.0 * 1.34);
  EXPECT_LE(snap.p99(), snap.max);
  EXPECT_GE(snap.p99(), snap.p90());
  EXPECT_GE(snap.p90(), snap.p50());
}

TEST(Histogram, PercentileNeverExceedsObservedMax) {
  LatencyHistogram hist(smallConfig());
  for (int i = 0; i < 10; ++i) hist.record(42.0);
  const auto snap = hist.snapshot();
  EXPECT_DOUBLE_EQ(snap.max, 42.0);
  EXPECT_LE(snap.p50(), 42.0);
  EXPECT_LE(snap.p99(), 42.0);
  EXPECT_GT(snap.p99(), 10.0);  // inside the (10, 100] bucket
}

TEST(Histogram, OverflowPercentileReportsMax) {
  LatencyHistogram hist(smallConfig());
  hist.record(1e6);
  hist.record(2e6);
  const auto snap = hist.snapshot();
  EXPECT_DOUBLE_EQ(snap.percentile(99.0), 2e6);
}

TEST(Histogram, ConcurrentRecordsAllCounted) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;
  LatencyHistogram hist{LatencyHistogram::Config{}};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t)
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i)
        hist.record(static_cast<double>(t + 1));
    });
  for (auto& w : writers) w.join();
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  // CAS-loop sum: exact for integer-valued samples at this scale.
  EXPECT_DOUBLE_EQ(snap.sum, (1.0 + 2.0 + 3.0 + 4.0) * kPerThread);
  EXPECT_DOUBLE_EQ(snap.max, 4.0);
}

// -------------------------------------------------------------- sink

TEST(Sink, RecordingSinkRetainsEvents) {
  RecordingSink sink;
  sink.onSpan("solve", 1.5);
  sink.onSpan("solve", 2.5);
  sink.onSpan("queue", 0.25);
  sink.onCount("iterations", 7);
  sink.onCount("iterations", 3);
  EXPECT_EQ(sink.spans().size(), 3u);
  EXPECT_EQ(sink.spanCount("solve"), 2u);
  EXPECT_EQ(sink.spanCount("queue"), 1u);
  EXPECT_EQ(sink.countTotal("iterations"), 10u);
  EXPECT_EQ(sink.countTotal("absent"), 0u);
  sink.clear();
  EXPECT_TRUE(sink.spans().empty());
  EXPECT_TRUE(sink.counts().empty());
}

// --------------------------------------------------------- exporters

MetricsSnapshot goldenSnapshot() {
  MetricsSnapshot snap;
  snap.counters.push_back({"demo_requests", 12});
  snap.gauges.push_back({"demo_rate", 0.5, "ratio"});
  HistogramSample h;
  h.name = "demo_latency_ms";
  h.unit = "ms";
  h.hist.upper_bounds = {1.0, 10.0};
  h.hist.counts = {1, 2, 0};
  h.hist.count = 3;
  h.hist.sum = 8.0;
  h.hist.max = 6.0;
  snap.histograms.push_back(h);
  return snap;
}

TEST(Exporters, PrometheusGolden) {
  const std::string expected =
      "# TYPE demo_requests_total counter\n"
      "demo_requests_total 12\n"
      "# TYPE demo_rate gauge\n"
      "demo_rate 0.5\n"
      "# TYPE demo_latency_ms histogram\n"
      "demo_latency_ms_bucket{le=\"1\"} 1\n"
      "demo_latency_ms_bucket{le=\"10\"} 3\n"
      "demo_latency_ms_bucket{le=\"+Inf\"} 3\n"
      "demo_latency_ms_sum 8\n"
      "demo_latency_ms_count 3\n";
  EXPECT_EQ(renderPrometheus(goldenSnapshot()), expected);
}

TEST(Exporters, PrometheusSanitizesNames) {
  MetricsSnapshot snap;
  snap.counters.push_back({"bad name-1", 1});
  const std::string prom = renderPrometheus(snap);
  EXPECT_NE(prom.find("bad_name_1_total 1"), std::string::npos);
  EXPECT_EQ(prom.find("bad name"), std::string::npos);
}

TEST(Exporters, JsonGolden) {
  const std::string expected =
      "[\n"
      "  {\"metric\": \"demo_requests\", \"value\": 12.000000, \"unit\": "
      "\"count\"},\n"
      "  {\"metric\": \"demo_rate\", \"value\": 0.500000, \"unit\": "
      "\"ratio\"},\n"
      "  {\"metric\": \"demo_latency_ms_count\", \"value\": 3.000000, "
      "\"unit\": \"count\"},\n"
      "  {\"metric\": \"demo_latency_ms_mean\", \"value\": 2.666667, "
      "\"unit\": \"ms\"},\n"
      "  {\"metric\": \"demo_latency_ms_p50\", \"value\": 5.500000, \"unit\": "
      "\"ms\"},\n"
      "  {\"metric\": \"demo_latency_ms_p90\", \"value\": 6.000000, \"unit\": "
      "\"ms\"},\n"
      "  {\"metric\": \"demo_latency_ms_p99\", \"value\": 6.000000, \"unit\": "
      "\"ms\"},\n"
      "  {\"metric\": \"demo_latency_ms_max\", \"value\": 6.000000, \"unit\": "
      "\"ms\"}\n"
      "]\n";
  EXPECT_EQ(renderJson(goldenSnapshot()), expected);
}

TEST(Exporters, TextRenderingMentionsEverySection) {
  const std::string text = renderText(goldenSnapshot());
  EXPECT_NE(text.find("demo_requests"), std::string::npos);
  EXPECT_NE(text.find("demo_rate"), std::string::npos);
  EXPECT_NE(text.find("demo_latency_ms"), std::string::npos);
  EXPECT_NE(text.find("count 3"), std::string::npos);
  EXPECT_NE(text.find('#'), std::string::npos);  // at least one bar
}

}  // namespace
}  // namespace dadu::obs
