/**
 * @file
 * Tests for the parallel sweep subsystem and operator memoization:
 * the thread pool, deterministic ordered fan-out, cached vs uncached
 * engine equivalence (bitwise), and parallel vs serial sweep
 * equivalence (bitwise).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "common/thread_pool.h"
#include "compiler/compiler.h"
#include "sim/sweep.h"

namespace regate {
namespace sim {
namespace {

TEST(ThreadPool, RunsAllTasksAndReturnsResults)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    std::atomic<int> ran{0};
    std::vector<std::future<int>> futs;
    for (int i = 0; i < 64; ++i) {
        futs.push_back(pool.submit([i, &ran] {
            ++ran;
            return i * i;
        }));
    }
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(futs[static_cast<std::size_t>(i)].get(), i * i);
    EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, PropagatesExceptions)
{
    ThreadPool pool(2);
    auto fut = pool.submit(
        []() -> int { throw ConfigError("boom"); });
    EXPECT_THROW(fut.get(), ConfigError);
}

TEST(ParallelMapOrdered, RethrowsTheFirstFailureAfterEveryTaskFinished)
{
    // Items 0 and 5 fail; the rest take a moment. The caller must see
    // item 0's exception, and only once no task is left running.
    ThreadPool pool(2);
    std::vector<int> items;
    for (int i = 0; i < 16; ++i)
        items.push_back(i);
    std::atomic<int> finished{0};
    try {
        parallelMapOrdered(pool, items, [&finished](int v) {
            if (v == 0 || v == 5) {
                ++finished;
                throw ConfigError("item " + std::to_string(v));
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            ++finished;
            return v;
        });
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("item 0"),
                  std::string::npos)
            << e.what();
        EXPECT_EQ(finished.load(), 16);
    }
}

TEST(ParallelMapOrdered, PreservesInputOrder)
{
    ThreadPool pool(8);
    std::vector<int> items;
    for (int i = 0; i < 200; ++i)
        items.push_back(i);
    auto out = parallelMapOrdered(pool, items,
                                  [](int v) { return 3 * v + 1; });
    ASSERT_EQ(out.size(), items.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], 3 * static_cast<int>(i) + 1);
}

/** Exact comparison of everything a figure reads out of a run. */
void
expectRunsIdentical(const WorkloadRun &a, const WorkloadRun &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.sramUsedIntegral, b.sramUsedIntegral);
    for (auto c : arch::kAllComponents)
        EXPECT_TRUE(a.timeline[c] == b.timeline[c])
            << "timeline mismatch for " << arch::componentName(c);
    for (auto p : allPolicies()) {
        const auto &ra = a.result(p);
        const auto &rb = b.result(p);
        EXPECT_EQ(ra.overheadCycles, rb.overheadCycles);
        EXPECT_EQ(ra.seconds, rb.seconds);
        EXPECT_EQ(ra.perfOverhead, rb.perfOverhead);
        EXPECT_EQ(ra.avgPowerW, rb.avgPowerW);
        EXPECT_EQ(ra.peakPowerW, rb.peakPowerW);
        EXPECT_EQ(ra.vuGateEvents, rb.vuGateEvents);
        EXPECT_EQ(ra.sramSetpmPairs, rb.sramSetpmPairs);
        EXPECT_EQ(0, std::memcmp(&ra.energy, &rb.energy,
                                 sizeof(ra.energy)))
            << "energy breakdown mismatch for " << policyName(p);
    }
}

TEST(OpMemoization, CachedRunBitwiseIdenticalToUncached)
{
    for (auto w : {models::Workload::Decode13B,
                   models::Workload::DlrmM,
                   models::Workload::DiTXL}) {
        const auto &cfg = arch::npuConfig(arch::NpuGeneration::D);
        auto setup = models::defaultSetup(w, arch::NpuGeneration::D);
        auto compiled = compiler::compileGraph(
            models::buildGraph(w, setup), cfg);

        Engine cached(cfg);
        Engine uncached(cfg);
        uncached.setMemoization(false);

        auto a = cached.run(compiled.graph, setup.chips);
        auto b = uncached.run(compiled.graph, setup.chips);
        expectRunsIdentical(a, b);
        EXPECT_EQ(b.opCacheHits, 0u);
        EXPECT_EQ(b.opCacheMisses, 0u);
        EXPECT_EQ(a.opCacheHits + a.opCacheMisses,
                  static_cast<std::uint64_t>([&] {
                      std::size_t n = 0;
                      for (const auto &blk : compiled.graph.blocks)
                          n += blk.ops.size();
                      return n;
                  }()));

        // A warm re-run hits for every op and stays identical.
        auto c = cached.run(compiled.graph, setup.chips);
        EXPECT_EQ(c.opCacheMisses, 0u);
        EXPECT_GT(c.opCacheHits, 0u);
        expectRunsIdentical(a, c);
    }
}

TEST(OpMemoization, CacheKeyedByPodSize)
{
    // The same collective op on different pod sizes must not share a
    // cache entry: collective latency depends on the torus.
    const auto w = models::Workload::Train70B;
    const auto &cfg = arch::npuConfig(arch::NpuGeneration::D);
    auto setup = models::defaultSetup(w, arch::NpuGeneration::D);
    auto compiled =
        compiler::compileGraph(models::buildGraph(w, setup), cfg);

    Engine engine(cfg);
    auto small = engine.run(compiled.graph, setup.chips);
    auto large = engine.run(compiled.graph, setup.chips * 4);
    // Same engine (same cache): the collective-heavy run must differ.
    EXPECT_NE(small.cycles, large.cycles);

    Engine fresh(cfg);
    fresh.setMemoization(false);
    auto ref = fresh.run(compiled.graph, setup.chips * 4);
    expectRunsIdentical(large, ref);
}

TEST(SweepRunner, ParallelBitwiseIdenticalToSerial)
{
    auto grid = makeGrid({models::Workload::Prefill8B,
                          models::Workload::Decode8B,
                          models::Workload::DlrmS,
                          models::Workload::DiTXL},
                         {arch::NpuGeneration::B,
                          arch::NpuGeneration::D});
    ASSERT_EQ(grid.size(), 8u);

    auto serial = SweepRunner::runSerial(grid);
    // Clear every shared cache (operator, compiled-graph, whole-run)
    // so the parallel pass recomputes every simulation instead of
    // replaying the serial pass's cached results — a genuinely
    // independent comparison.
    clearSharedCaches();
    SweepRunner runner(4);
    auto parallel = runner.run(grid);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].workload, parallel[i].workload);
        EXPECT_EQ(serial[i].gen, parallel[i].gen);
        EXPECT_EQ(serial[i].units, parallel[i].units);
        expectRunsIdentical(serial[i].run(), parallel[i].run());
    }

    // Re-running the sweep (warm shared cache) stays identical too.
    auto again = runner.run(grid);
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectRunsIdentical(serial[i].run(), again[i].run());
}

TEST(SweepRunner, SearchMatchesSerialSearch)
{
    auto grid = makeGrid({models::Workload::DlrmS},
                         {arch::NpuGeneration::C,
                          arch::NpuGeneration::D});
    SweepRunner runner(2);
    auto results = runner.search(grid);
    ASSERT_EQ(results.size(), 2u);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        auto ref = findBestSetup(grid[i].workload, grid[i].gen,
                                 grid[i].params);
        EXPECT_EQ(results[i].setup.chips, ref.setup.chips);
        EXPECT_EQ(results[i].setup.batch, ref.setup.batch);
        EXPECT_EQ(results[i].secondsPerUnit, ref.secondsPerUnit);
        EXPECT_EQ(results[i].energyPerUnit, ref.energyPerUnit);
        EXPECT_EQ(results[i].sloRatio, ref.sloRatio);
    }
}

TEST(OperatorHash, SameWorkIgnoresNameButNotShape)
{
    graph::Operator a;
    a.kind = graph::OpKind::MatMul;
    a.name = "mm1";
    a.batch = 2;
    a.m = 128;
    a.k = 256;
    a.n = 512;
    graph::Operator b = a;
    b.name = "mm2";
    EXPECT_TRUE(a.sameWork(b));
    EXPECT_EQ(a.workHash(), b.workHash());

    b.n = 513;
    EXPECT_FALSE(a.sameWork(b));
    b = a;
    b.mapToVu = true;
    EXPECT_FALSE(a.sameWork(b));
    b = a;
    b.sramDemandBytes = 4096;
    EXPECT_FALSE(a.sameWork(b));
}

}  // namespace
}  // namespace sim
}  // namespace regate
