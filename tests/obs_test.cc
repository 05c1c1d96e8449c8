/**
 * @file
 * Tests for the obs/ telemetry subsystem (src/obs/): counter
 * semantics of obs::MetricsRegistry, resetForTest's
 * keep-registrations contract, the byte-stable canonical snapshot,
 * and the TraceRecorder's Chrome-trace output shape.
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
        MetricsRegistry::instance().resetForTest();
    }

    void
    TearDown() override
    {
        // Leave no bleed for whoever runs next in this process.
        MetricsRegistry::instance().resetForTest();
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

TEST_F(MetricsTest, ResetZeroesButKeepsReferencesValid)
{
    auto &reg = MetricsRegistry::instance();
    auto &c = reg.counter("test.reset.counter");
    c.add(3);

    reg.resetForTest();
    EXPECT_EQ(c.value(), 0u);

    // The cached reference survives the reset and keeps recording —
    // the hot paths never re-look-up their counters.
    c.add(1);
    EXPECT_EQ(c.value(), 1u);
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
        reg.counter("test.snap.aaa").add(4);
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

    // Canonical shape: fixed header, our rows sorted by name, a
    // digest footer.
    EXPECT_EQ(first.rfind("{\n\"obs\": \"regate-metrics\",\n"
                          "\"version\": 2,\n\"counters\": {", 0), 0u);
    auto aaa = first.find("\"test.snap.aaa\": 4");
    auto hits = first.find("\"test.snap.hits\": 12");
    ASSERT_NE(aaa, std::string::npos);
    ASSERT_NE(hits, std::string::npos);
    EXPECT_LT(aaa, hits);
    EXPECT_NE(first.find("\"digest\": \""), std::string::npos);
}

TEST_F(MetricsTest, ConcurrentRecordingLosesNothing)
{
    auto &reg = MetricsRegistry::instance();
    auto &c = reg.counter("test.mt.counter");
    constexpr int kThreads = 4;
    constexpr int kPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kPerThread; ++i)
                c.add(1);
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(c.value(), std::uint64_t(kThreads) * kPerThread);
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
