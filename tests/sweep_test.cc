/**
 * @file
 * Tests for the parallel sweep subsystem: the thread pool,
 * deterministic ordered fan-out, parallel vs serial sweep equivalence
 * (bitwise), and the grouping that prices adjacent cases off one
 * execution (bitwise equal to running each case alone).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <initializer_list>
#include <memory>
#include <string>
#include <thread>

#include "common/thread_pool.h"
#include "compiler/compiler.h"
#include "models/spec.h"
#include "obs/metrics.h"
#include "run_compare.h"
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

TEST(Engine, PodSizeChangesCollectiveRun)
{
    // Collective latency depends on the torus, so the same graph on a
    // larger pod must run differently, and execute() + price() must
    // equal run() on either pod.
    const auto w = models::Workload::Train70B;
    const auto &cfg = arch::npuConfig(arch::NpuGeneration::D);
    auto setup = models::defaultSetup(w, arch::NpuGeneration::D);
    auto compiled =
        compiler::compileGraph(models::buildGraph(w, setup), cfg);

    Engine engine(cfg);
    auto small = engine.run(compiled.graph, setup.chips);
    auto large = engine.run(compiled.graph, setup.chips * 4);
    EXPECT_NE(small.cycles, large.cycles);
    expectRunsIdentical(
        large, engine.price(engine.execute(compiled.graph, setup.chips * 4),
                            engine.params()));
}

/** scenarioGrid over paper workloads' built-in scenarios. */
std::vector<SweepCase>
builtinGrid(std::initializer_list<models::Workload> workloads,
            const std::vector<arch::NpuGeneration> &gens)
{
    std::vector<std::shared_ptr<const models::ScenarioSpec>> specs;
    for (auto w : workloads)
        specs.push_back(models::builtinScenario(w));
    return scenarioGrid(specs, gens);
}

TEST(SweepRunner, ParallelBitwiseIdenticalToSerial)
{
    auto grid = builtinGrid({models::Workload::Prefill8B,
                          models::Workload::Decode8B,
                          models::Workload::DlrmS,
                          models::Workload::DiTXL},
                         {arch::NpuGeneration::B,
                          arch::NpuGeneration::D});
    ASSERT_EQ(grid.size(), 8u);

    auto serial = SweepRunner::runSerial(grid);
    SweepRunner runner(4);
    auto parallel = runner.run(grid);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].scenario, parallel[i].scenario);
        EXPECT_EQ(serial[i].gen, parallel[i].gen);
        EXPECT_EQ(serial[i].units, parallel[i].units);
        expectRunsIdentical(serial[i].run(), parallel[i].run());
    }

    // Re-running the sweep stays identical too.
    auto again = runner.run(grid);
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectRunsIdentical(serial[i].run(), again[i].run());
}

TEST(SweepRunner, SearchMatchesSerialSearch)
{
    auto grid = builtinGrid({models::Workload::DlrmS},
                         {arch::NpuGeneration::C,
                          arch::NpuGeneration::D});
    SweepRunner runner(2);
    auto results = runner.search(grid);
    ASSERT_EQ(results.size(), 2u);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        auto ref = findBestSetup(grid[i].spec(), grid[i].gen,
                                 grid[i].params);
        EXPECT_EQ(results[i].setup.chips, ref.setup.chips);
        EXPECT_EQ(results[i].setup.batch, ref.setup.batch);
        EXPECT_EQ(results[i].secondsPerUnit, ref.secondsPerUnit);
        EXPECT_EQ(results[i].energyPerUnit, ref.energyPerUnit);
        EXPECT_EQ(results[i].sloRatio, ref.sloRatio);
    }
}

/** Fig. 21's five leakage settings, then Fig. 22's five delay scales. */
std::vector<arch::GatingParams>
sensitivityPoints()
{
    const double leakage[][3] = {{0.03, 0.25, 0.002},
                                 {0.1, 0.3, 0.01},
                                 {0.2, 0.4, 0.1},
                                 {0.4, 0.5, 0.25},
                                 {0.6, 0.8, 0.4}};
    std::vector<arch::GatingParams> points;
    for (const auto &l : leakage) {
        arch::LeakageRatios r;
        r.logicOff = l[0];
        r.sramSleep = l[1];
        r.sramOff = l[2];
        points.emplace_back(r);
    }
    for (double scale : {1.0, 1.5, 2.0, 3.0, 4.0}) {
        arch::GatingParams p;
        p.setDelayScale(scale);
        points.push_back(p);
    }
    return points;
}

/** Process-wide engine counter (tests run one at a time). */
std::uint64_t
engineCount(const char *name)
{
    return obs::MetricsRegistry::instance().counter(name).value();
}

TEST(SweepGrouping, GroupedRunEqualsOneCaseGrids)
{
    // Every paper workload at all ten sensitivity points: each
    // workload's ten adjacent cases share one execution, and each
    // priced report must equal the case run on its own.
    std::vector<SweepCase> grid;
    for (auto w : models::allWorkloads()) {
        for (const auto &p : sensitivityPoints()) {
            SweepCase c;
            c.workload = w;
            c.gen = arch::NpuGeneration::D;
            c.params = p;
            grid.push_back(c);
        }
    }

    std::vector<WorkloadReport> alone;
    for (const auto &c : grid) {
        auto one = SweepRunner::runSerial({c});
        ASSERT_EQ(one.size(), 1u);
        alone.push_back(one[0]);
    }

    for (unsigned threads : {1u, 4u}) {
        SweepRunner runner(threads);
        auto executions = engineCount("sim.engine.executions");
        auto pricings = engineCount("sim.engine.pricings");
        auto grouped = runner.run(grid);
        EXPECT_EQ(engineCount("sim.engine.executions") - executions,
                  models::allWorkloads().size());
        EXPECT_EQ(engineCount("sim.engine.pricings") - pricings,
                  grid.size());
        ASSERT_EQ(grouped.size(), grid.size());
        for (std::size_t i = 0; i < grid.size(); ++i) {
            SCOPED_TRACE(grid[i].spec()->name +
                         " point " + std::to_string(i % 10) +
                         " threads " + std::to_string(threads));
            EXPECT_EQ(grouped[i].scenario, alone[i].scenario);
            EXPECT_TRUE(grouped[i].setup == alone[i].setup);
            EXPECT_EQ(grouped[i].units, alone[i].units);
            EXPECT_TRUE(grouped[i].gatingParams() == grid[i].params);
            expectRunsIdentical(grouped[i].run(), alone[i].run());
        }
    }
}

TEST(SweepGrouping, ProgressTicksOncePerCaseInOrder)
{
    auto grid = builtinGrid({models::Workload::DlrmS,
                          models::Workload::Decode8B},
                         {arch::NpuGeneration::D});
    std::vector<SweepCase> cases;
    for (const auto &c : grid) {
        for (const auto &p : sensitivityPoints()) {
            cases.push_back(c);
            cases.back().params = p;
        }
    }
    std::vector<std::size_t> seen;
    SweepRunner runner(4);
    runner.run(cases, [&](std::size_t done, std::size_t total) {
        EXPECT_EQ(total, cases.size());
        seen.push_back(done);
    });
    ASSERT_EQ(seen.size(), cases.size());
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], i + 1);
}

TEST(SweepGrouping, CasesDifferingInSetupAreNotMerged)
{
    const auto w = models::Workload::DlrmM;
    const auto gen = arch::NpuGeneration::D;
    auto candidates = candidateSetups(w, gen);
    ASSERT_GE(candidates.size(), 2u);

    // Default setup, then two explicit setups, all with equal params.
    std::vector<SweepCase> grid(3);
    for (auto &c : grid) {
        c.workload = w;
        c.gen = gen;
    }
    grid[1].hasSetup = true;
    grid[1].setup = candidates[0];
    grid[2].hasSetup = true;
    grid[2].setup = candidates[1];
    ASSERT_FALSE(grid[1].setup == grid[2].setup);

    auto executions = engineCount("sim.engine.executions");
    auto reports = SweepRunner(2).run(grid);
    EXPECT_EQ(engineCount("sim.engine.executions") - executions, 3u);
    ASSERT_EQ(reports.size(), 3u);
    EXPECT_TRUE(reports[1].setup == candidates[0]);
    EXPECT_TRUE(reports[2].setup == candidates[1]);
    for (std::size_t i = 0; i < grid.size(); ++i)
        expectRunsIdentical(reports[i].run(),
                            SweepRunner::runSerial({grid[i]})[0].run());

    // The same workload on another generation is another execution.
    std::vector<SweepCase> gens = builtinGrid(
        {w}, {arch::NpuGeneration::C, arch::NpuGeneration::D});
    executions = engineCount("sim.engine.executions");
    SweepRunner::runSerial(gens);
    EXPECT_EQ(engineCount("sim.engine.executions") - executions, 2u);
}

TEST(SweepGrouping, ConfigErrorInsideAGroupNamesItsCase)
{
    // A feasible group, then three gating points of a scenario no
    // setup can run: the error must name the infeasible scenario,
    // not the grid's first case.
    auto file = models::parseSpecText(
        "@regate-spec v1\n"
        "[scenario moe-infeasible]\n"
        "family = moe\n"
        "model = 8b\n"
        "experts = 16\n"
        "chips = 1\n"
        "batch = 1\n");
    auto grid = builtinGrid({models::Workload::DlrmS},
                         {arch::NpuGeneration::A});
    for (const auto &p : sensitivityPoints()) {
        grid.push_back(
            scenarioCase(file.scenarios[0], arch::NpuGeneration::A, p));
        if (grid.size() == 4)
            break;
    }
    for (unsigned threads : {1u, 4u}) {
        try {
            SweepRunner(threads).run(grid);
            FAIL() << "expected ConfigError";
        } catch (const ConfigError &e) {
            std::string what = e.what();
            EXPECT_NE(what.find("scenario 'moe-infeasible' on "
                                "generation A: "),
                      std::string::npos)
                << what;
        }
        try {
            SweepRunner::runSerial(grid);
            FAIL() << "expected ConfigError";
        } catch (const ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find("'moe-infeasible'"),
                      std::string::npos)
                << e.what();
        }
    }
}

}  // namespace
}  // namespace sim
}  // namespace regate
