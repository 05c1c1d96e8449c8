/**
 * @file
 * Tests for the obs/ telemetry subsystem (src/obs/): counter /
 * gauge / histogram semantics of obs::MetricsRegistry, the runtime
 * enable gate, resetForTest's keep-registrations contract, the
 * byte-stable canonical snapshot, and the TraceRecorder's
 * Chrome-trace output shape.
 *
 * The registry and the recorder are process-wide singletons, so
 * every test starts from resetForTest() and uses names under a
 * test-local prefix — the same discipline the fixture documents for
 * the rest of the suite.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace regate {
namespace obs {
namespace {

class MetricsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        MetricsRegistry::setEnabled(true);
        MetricsRegistry::instance().resetForTest();
    }

    void
    TearDown() override
    {
        // Leave no bleed for whoever runs next in this process.
        MetricsRegistry::instance().resetForTest();
        MetricsRegistry::setEnabled(true);
    }
};

TEST_F(MetricsTest, CounterAccumulatesAndRelookupAliases)
{
    auto &reg = MetricsRegistry::instance();
    auto &c = reg.counter("test.counter.a");
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);

    // Find-or-create: the same name is the same instrument.
    EXPECT_EQ(&reg.counter("test.counter.a"), &c);
    reg.counter("test.counter.a").add(8);
    EXPECT_EQ(c.value(), 50u);
}

TEST_F(MetricsTest, GaugeLastWriterWins)
{
    auto &g = MetricsRegistry::instance().gauge("test.gauge.depth");
    EXPECT_EQ(g.value(), 0);
    g.set(7);
    g.set(-3);
    EXPECT_EQ(g.value(), -3);
}

TEST_F(MetricsTest, HistogramBucketsAndExactMoments)
{
    auto &h = MetricsRegistry::instance().histogram(
        "test.hist.explicit", {10, 100});
    // Bounds are inclusive upper bounds; past the last is overflow.
    h.record(5);     // <= 10
    h.record(10);    // == bound -> same bucket
    h.record(50);    // <= 100
    h.record(1000);  // overflow
    EXPECT_EQ(h.bucketCounts(),
              (std::vector<std::uint64_t>{2, 1, 1}));
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 1065u);
    EXPECT_DOUBLE_EQ(h.mean(), 1065.0 / 4.0);

    // Batch recording: n samples of one value, exact moments.
    h.record(7, 5);
    EXPECT_EQ(h.count(), 9u);
    EXPECT_EQ(h.sum(), 1100u);
}

TEST_F(MetricsTest, HistogramBoundsApplyOnCreationOnly)
{
    auto &reg = MetricsRegistry::instance();
    auto &h = reg.histogram("test.hist.bounds", {1, 2});
    auto &again = reg.histogram("test.hist.bounds", {500});
    EXPECT_EQ(&again, &h);
    EXPECT_EQ(h.bounds(), (std::vector<std::uint64_t>{1, 2}));

    // Empty bounds mean the canonical duration buckets.
    auto &d = reg.histogram("test.hist.durations");
    EXPECT_EQ(d.bounds(), durationUsBounds());
}

TEST_F(MetricsTest, SetEnabledGatesEveryRecordingPath)
{
    auto &reg = MetricsRegistry::instance();
    auto &c = reg.counter("test.gate.counter");
    auto &g = reg.gauge("test.gate.gauge");
    auto &h = reg.histogram("test.gate.hist");

    MetricsRegistry::setEnabled(false);
    EXPECT_FALSE(MetricsRegistry::enabled());
    c.add(5);
    g.set(5);
    h.record(5);
    reg.counter("test.gate.counter").add(5);
    // Reads still work while disabled; nothing was recorded.
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0);
    EXPECT_EQ(h.count(), 0u);

    MetricsRegistry::setEnabled(true);
    c.add(5);
    EXPECT_EQ(c.value(), 5u);
}

TEST_F(MetricsTest, ResetZeroesButKeepsReferencesValid)
{
    auto &reg = MetricsRegistry::instance();
    auto &c = reg.counter("test.reset.counter");
    auto &h = reg.histogram("test.reset.hist", {10});
    c.add(3);
    h.record(4);

    reg.resetForTest();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.bucketCounts(),
              (std::vector<std::uint64_t>{0, 0}));

    // The cached references survive the reset and keep recording —
    // the hot paths never re-look-up their instruments.
    c.add(1);
    h.record(1);
    EXPECT_EQ(c.value(), 1u);
    EXPECT_EQ(h.count(), 1u);
}

TEST_F(MetricsTest, HistogramPercentilesFromBucketBounds)
{
    auto &h = MetricsRegistry::instance().histogram(
        "test.pct.hist", {10, 100, 1000});
    // 10 samples: 6 in <=10, 3 in <=100, 1 in <=1000. Percentiles
    // report the inclusive upper bound of the covering bucket.
    h.record(5, 6);
    h.record(50, 3);
    h.record(500, 1);
    EXPECT_EQ(h.percentile(0.50), 10u);
    EXPECT_EQ(h.percentile(0.60), 10u);
    EXPECT_EQ(h.percentile(0.61), 100u);
    EXPECT_EQ(h.percentile(0.90), 100u);
    EXPECT_EQ(h.percentile(0.95), 1000u);
    EXPECT_EQ(h.percentile(0.99), 1000u);
    EXPECT_EQ(h.percentile(1.0), 1000u);
    // q clamps; rank floors at the first sample.
    EXPECT_EQ(h.percentile(0.0), 10u);
    EXPECT_EQ(h.percentile(-1.0), 10u);
    EXPECT_EQ(h.percentile(2.0), 1000u);
}

TEST_F(MetricsTest, HistogramPercentileEdgeCases)
{
    // Empty: 0, not a crash.
    auto &empty =
        MetricsRegistry::instance().histogram("test.pct.empty");
    EXPECT_EQ(empty.percentile(0.99), 0u);

    // Overflow-bucket samples report the largest finite bound — a
    // documented lower bound, still canonical and integer.
    std::vector<std::uint64_t> bounds = {10, 100};
    std::vector<std::uint64_t> buckets = {0, 0, 4};
    EXPECT_EQ(histogramPercentile(bounds, buckets, 4, 0.5), 100u);
    EXPECT_EQ(histogramPercentile(bounds, buckets, 4, 0.99), 100u);
    EXPECT_EQ(histogramPercentile(bounds, buckets, 0, 0.5), 0u);
}

TEST_F(MetricsTest, SnapshotCarriesDerivedQuantiles)
{
    auto &reg = MetricsRegistry::instance();
    auto &h = reg.histogram("test.quant.dur", {10, 100, 1000});
    h.record(5, 98);
    h.record(500, 2);
    auto snapshot = reg.snapshotJson();
    EXPECT_NE(snapshot.find("\"test.quant.dur\": {\"count\": 100, "
                            "\"sum\": 1490, \"mean\": 14.9, "
                            "\"p50\": 10, \"p95\": 10, "
                            "\"p99\": 1000"),
              std::string::npos)
        << snapshot;
}

TEST_F(MetricsTest, WriteSnapshotIsAtomicAndCanonical)
{
    auto &reg = MetricsRegistry::instance();
    reg.counter("test.write.hits").add(3);
    std::string path =
        ::testing::TempDir() + "obs_write_snapshot.json";
    auto returned = reg.writeSnapshot(path);
    EXPECT_EQ(returned, reg.snapshotJson());

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_EQ(buffer.str(), returned);
    // The .part staging file was renamed away, not left behind.
    EXPECT_FALSE(std::ifstream(path + ".part").good());
    std::remove(path.c_str());
}

TEST_F(MetricsTest, SnapshotIsByteStableAndStateSensitive)
{
    auto &reg = MetricsRegistry::instance();
    auto buildState = [&] {
        reg.counter("test.snap.hits").add(12);
        reg.gauge("test.snap.depth").set(-4);
        reg.histogram("test.snap.dur").record(150, 3);
    };
    buildState();
    auto first = reg.snapshotJson();

    // Same state (after a reset rebuild) -> same bytes.
    reg.resetForTest();
    buildState();
    EXPECT_EQ(reg.snapshotJson(), first);

    // Any movement changes the bytes (and the digest footer).
    reg.counter("test.snap.hits").add(1);
    auto moved = reg.snapshotJson();
    EXPECT_NE(moved, first);

    // Canonical shape: fixed header, a digest footer, our rows.
    EXPECT_EQ(first.rfind("{\n\"obs\": \"regate-metrics\",\n"
                          "\"version\": 1,\n", 0), 0u);
    EXPECT_NE(first.find("\"test.snap.hits\": 12"),
              std::string::npos);
    EXPECT_NE(first.find("\"test.snap.depth\": -4"),
              std::string::npos);
    EXPECT_NE(first.find("\"test.snap.dur\": {\"count\": 3, "
                         "\"sum\": 450, \"mean\": 150"),
              std::string::npos);
    EXPECT_NE(first.find("\"digest\": \""), std::string::npos);
}

TEST_F(MetricsTest, ConcurrentRecordingLosesNothing)
{
    auto &reg = MetricsRegistry::instance();
    auto &c = reg.counter("test.mt.counter");
    auto &h = reg.histogram("test.mt.hist", {100});
    constexpr int kThreads = 4;
    constexpr int kPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kPerThread; ++i) {
                c.add(1);
                h.record(1);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(c.value(),
              std::uint64_t(kThreads) * kPerThread);
    EXPECT_EQ(h.count(),
              std::uint64_t(kThreads) * kPerThread);
}

// ------------------------- TraceRecorder --------------------------

TEST(TraceRecorderTest, RecordsSpansAndFlushesSortedJson)
{
    auto &trace = TraceRecorder::instance();
    std::string path = ::testing::TempDir() + "obs_trace_test.json";
    trace.start(path);
    ASSERT_TRUE(trace.enabled());

    auto t0 = trace.nowUs();
    {
        TraceRecorder::Span span("outer", "test");
        trace.instant("tick", "test", {{"k", "v"}});
        auto inner_start = trace.nowUs();
        EXPECT_GE(inner_start, t0);
        trace.complete("inner", "test", inner_start);
    }
    trace.completeLane("lane-span", "test", 9, t0, trace.nowUs());
    trace.flush();

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    auto text = buffer.str();

    // Shape: a JSON array with one event object per line, carrying
    // the trace_event keys (full validation is tools/trace_check.py;
    // this pins what the writer emits).
    EXPECT_EQ(text.front(), '[');
    for (const char *needle :
         {"\"name\": \"outer\"", "\"name\": \"inner\"",
          "\"name\": \"tick\"", "\"name\": \"lane-span\"",
          "\"ph\": \"X\"", "\"ph\": \"i\"", "\"s\": \"t\"",
          "\"tid\": 9", "\"args\": {\"k\": \"v\"}", "\"dur\": "})
        EXPECT_NE(text.find(needle), std::string::npos)
            << "missing " << needle << " in:\n" << text;

    // flush() writes timestamp-sorted events: the ts values appear
    // in non-decreasing file order.
    std::int64_t last_ts = -1;
    std::size_t at = 0;
    int events = 0;
    while ((at = text.find("\"ts\": ", at)) != std::string::npos) {
        at += 6;
        auto ts = std::stoll(text.substr(at));
        EXPECT_GE(ts, last_ts);
        last_ts = ts;
        ++events;
    }
    EXPECT_EQ(events, 4);

    // Repeated flush retains everything recorded so far.
    trace.flush();
    std::ifstream again(path);
    std::stringstream buffer2;
    buffer2 << again.rdbuf();
    EXPECT_EQ(buffer2.str(), text);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace obs
}  // namespace regate
