/**
 * @file
 * Tests for the SLO-compliant configuration search (§3, Table 4),
 * serial and parallel, and its exactness against an exhaustive
 * oracle that fully simulates every candidate.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "models/spec.h"
#include "obs/metrics.h"
#include "run_compare.h"
#include "sim/slo.h"
#include "sim/sweep.h"

namespace regate {
namespace sim {
namespace {

using arch::NpuGeneration;
using models::Workload;

/** The built-in scenario of paper workload @p w. */
const std::shared_ptr<const models::ScenarioSpec> &
builtin(Workload w)
{
    return models::builtinScenario(w);
}

TEST(Slo, TargetIsFiveTimesDefaultLatency)
{
    auto rep = simulateWorkload(Workload::DlrmS, NpuGeneration::D);
    double default_spu =
        rep.run().result(Policy::NoPG).seconds / rep.units;
    EXPECT_NEAR(sloTargetSecondsPerUnit(builtin(Workload::DlrmS)),
                5.0 * default_spu, default_spu * 0.01);
}

TEST(Slo, CandidatesNonEmptyAndConsistent)
{
    for (auto w : {Workload::DlrmS, Workload::Prefill8B}) {
        auto cands = candidateSetups(w, NpuGeneration::D);
        EXPECT_FALSE(cands.empty());
        for (const auto &s : cands) {
            EXPECT_GE(s.chips, 1);
            EXPECT_GE(s.batch, 1);
            EXPECT_LE(s.par.dp, s.batch);
        }
    }
}

TEST(Slo, NpuDMeetsItsOwnSlo)
{
    // The SLO is defined from NPU-D's default config at 5x latency:
    // NPU-D itself must comply with ratio 1.
    auto res = findBestSetup(builtin(Workload::DlrmS), NpuGeneration::D);
    EXPECT_DOUBLE_EQ(res.sloRatio, 1.0);
    EXPECT_LE(res.secondsPerUnit,
              sloTargetSecondsPerUnit(builtin(Workload::DlrmS)) *
                  1.0001);
}

TEST(Slo, PicksMostEfficientCompliant)
{
    auto res = findBestSetup(builtin(Workload::DlrmS), NpuGeneration::D);
    double target = sloTargetSecondsPerUnit(builtin(Workload::DlrmS));
    for (const auto &s : candidateSetups(Workload::DlrmS,
                                         NpuGeneration::D)) {
        auto rep = simulateWorkload(Workload::DlrmS, NpuGeneration::D,
                                    {}, &s);
        double spu = rep.run().result(Policy::NoPG).seconds / rep.units;
        if (spu <= target) {
            EXPECT_LE(res.energyPerUnit,
                      rep.energyPerUnit(Policy::NoPG) * 1.0001);
        }
    }
}

TEST(Slo, OlderGenerationMayRelax)
{
    // NPU-A on a big model: either compliant or reports a >= 2x
    // relaxed ratio like Fig. 2's bar labels.
    auto res =
        findBestSetup(builtin(Workload::Prefill13B), NpuGeneration::A);
    EXPECT_GE(res.sloRatio, 1.0);
    EXPECT_GT(res.energyPerUnit, 0.0);
}

TEST(ParallelFindBestSetup, MatchesSerialAtEveryThreadCount)
{
    // REGATE_THREADS only sizes the default pool, so passing explicit
    // pools of 1/2/8 workers exercises exactly the configurations
    // REGATE_THREADS=1,2,8 would produce.
    for (auto w : {Workload::DlrmS, Workload::Prefill13B,
                   Workload::Decode8B}) {
        for (auto gen : {NpuGeneration::A, NpuGeneration::D}) {
            auto serial = findBestSetupSerial(w, gen);
            for (unsigned threads : {1u, 2u, 8u}) {
                ThreadPool pool(threads);
                auto par = findBestSetup(builtin(w), gen, {}, &pool);
                EXPECT_TRUE(par.setup == serial.setup)
                    << models::workloadName(w) << " threads="
                    << threads;
                EXPECT_EQ(par.secondsPerUnit, serial.secondsPerUnit);
                EXPECT_EQ(par.energyPerUnit, serial.energyPerUnit);
                EXPECT_EQ(par.sloRatio, serial.sloRatio);
                expectRunsIdentical(par.report.run(),
                                    serial.report.run());
            }
        }
    }
}

TEST(ParallelFindBestSetup, DefaultPoolMatchesSerial)
{
    auto serial =
        findBestSetupSerial(Workload::DlrmM, NpuGeneration::C);
    auto par =
        findBestSetup(builtin(Workload::DlrmM), NpuGeneration::C);
    EXPECT_TRUE(par.setup == serial.setup);
    EXPECT_EQ(par.energyPerUnit, serial.energyPerUnit);
    EXPECT_EQ(par.sloRatio, serial.sloRatio);
}

/**
 * The exhaustive oracle: simulateScenario (all five policies) on the
 * gen-D target and on every candidate, then the selection loop the
 * search ran before it priced candidates for NoPG only.
 */
SloResult
exhaustiveSearch(const std::shared_ptr<const models::ScenarioSpec> &spec,
                 NpuGeneration gen, const arch::GatingParams &params)
{
    auto target_rep = simulateScenario(spec, NpuGeneration::D);
    double target = 5.0 *
                    target_rep.run().result(Policy::NoPG).seconds /
                    target_rep.units;

    bool have_compliant = false;
    SloResult best;
    SloResult fastest;
    double best_energy = 0;
    double fastest_latency = 0;
    for (const auto &setup : candidateSetups(*spec, gen)) {
        auto rep = simulateScenario(spec, gen, params, &setup);
        double spu = rep.run().result(Policy::NoPG).seconds / rep.units;
        double epu = rep.energyPerUnit(Policy::NoPG);
        if (spu <= target && (!have_compliant || epu < best_energy)) {
            best.setup = setup;
            best.secondsPerUnit = spu;
            best.energyPerUnit = epu;
            best.sloRatio = 1.0;
            best.report = rep;
            best_energy = epu;
            have_compliant = true;
        }
        if (fastest_latency == 0 || spu < fastest_latency) {
            fastest.setup = setup;
            fastest.secondsPerUnit = spu;
            fastest.energyPerUnit = epu;
            fastest.report = rep;
            fastest_latency = spu;
        }
    }
    if (have_compliant)
        return best;
    fastest.sloRatio = std::ceil(fastest.secondsPerUnit / target);
    return fastest;
}

/** Field-for-field, bitwise: setup, costs, ratio and winner report. */
void
expectSameResult(const SloResult &got, const SloResult &want)
{
    EXPECT_TRUE(got.setup == want.setup);
    EXPECT_EQ(got.secondsPerUnit, want.secondsPerUnit);
    EXPECT_EQ(got.energyPerUnit, want.energyPerUnit);
    EXPECT_EQ(got.sloRatio, want.sloRatio);
    EXPECT_EQ(got.report.scenario, want.report.scenario);
    EXPECT_EQ(got.report.gen, want.report.gen);
    EXPECT_TRUE(got.report.setup == want.report.setup);
    EXPECT_EQ(got.report.units, want.report.units);
    EXPECT_TRUE(got.report.gatingParams() == want.report.gatingParams());
    expectRunsIdentical(got.report.run(), want.report.run());
}

/**
 * Every paper workload's built-in scenario, then the scenarios of
 * examples/specs/moe_mixtral.spec, each on generations A-D. Built
 * once, so every test sees the same scenario pointers.
 */
const std::vector<SweepCase> &
oracleGrid()
{
    static const std::vector<SweepCase> grid = [] {
        std::vector<std::shared_ptr<const models::ScenarioSpec>> specs;
        for (auto w : models::allWorkloads())
            specs.push_back(builtin(w));
        auto moe = models::parseSpecFile(std::string(REGATE_SPEC_DIR) +
                                         "/moe_mixtral.spec");
        EXPECT_FALSE(moe.scenarios.empty());
        for (const auto &spec : moe.scenarios)
            specs.push_back(spec);
        return scenarioGrid(specs, arch::allGenerations());
    }();
    return grid;
}

/** The oracle's answer for each case of oracleGrid(), computed once. */
const std::vector<SloResult> &
oracleResults()
{
    static const std::vector<SloResult> results = [] {
        std::vector<SloResult> out;
        for (const auto &c : oracleGrid())
            out.push_back(exhaustiveSearch(c.spec(), c.gen, c.params));
        return out;
    }();
    return results;
}

std::string
caseName(const SweepCase &c)
{
    return c.spec()->name + " on " + arch::generationName(c.gen);
}

TEST(SloExactness, SearchesMatchTheExhaustiveOracle)
{
    const auto &grid = oracleGrid();
    const auto &want = oracleResults();
    ASSERT_EQ(want.size(), grid.size());
    ThreadPool one(1);
    ThreadPool four(4);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const auto &c = grid[i];
        SCOPED_TRACE(caseName(c));
        expectSameResult(findBestSetupSerial(c.spec(), c.gen, c.params),
                         want[i]);
        for (ThreadPool *pool : {&one, &four}) {
            SCOPED_TRACE("pool of " + std::to_string(pool->threadCount()));
            expectSameResult(
                findBestSetup(c.spec(), c.gen, c.params, pool), want[i]);
        }
    }
}

TEST(SloExactness, NonDefaultGatingParamsPriceTheWinner)
{
    // The target always uses default params; the candidates and the
    // winner's report use the case's.
    arch::LeakageRatios ratios;
    ratios.logicOff = 0.2;
    ratios.sramSleep = 0.4;
    ratios.sramOff = 0.1;
    arch::GatingParams params(ratios);
    params.setDelayScale(2.0);
    for (auto w : {Workload::DlrmS, Workload::Prefill13B}) {
        SCOPED_TRACE(models::workloadName(w));
        auto want = exhaustiveSearch(builtin(w), NpuGeneration::C, params);
        expectSameResult(
            findBestSetupSerial(builtin(w), NpuGeneration::C, params),
            want);
        ThreadPool pool(4);
        expectSameResult(
            findBestSetup(builtin(w), NpuGeneration::C, params, &pool),
            want);
    }
}

std::uint64_t
engineCount(const char *name)
{
    return obs::MetricsRegistry::instance().counter(name).value();
}

TEST(SloExactness, SweepSearchSharesTargetsAndMatchesTheOracle)
{
    // The grid's generations share each scenario's target: one target
    // execution per scenario, one per candidate, and a full pricing
    // for each case's winner only.
    const auto &grid = oracleGrid();
    const auto &want = oracleResults();
    std::set<const models::ScenarioSpec *> scenarios;
    std::uint64_t candidates = 0;
    for (const auto &c : grid) {
        scenarios.insert(c.spec().get());
        candidates += candidateSetups(*c.spec(), c.gen).size();
    }
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        SweepRunner runner(threads);
        auto executions = engineCount("sim.engine.executions");
        auto pricings = engineCount("sim.engine.pricings");
        auto results = runner.search(grid);
        EXPECT_EQ(engineCount("sim.engine.executions") - executions,
                  scenarios.size() + candidates);
        EXPECT_EQ(engineCount("sim.engine.pricings") - pricings,
                  grid.size());
        ASSERT_EQ(results.size(), grid.size());
        for (std::size_t i = 0; i < grid.size(); ++i) {
            SCOPED_TRACE(caseName(grid[i]));
            expectSameResult(results[i], want[i]);
        }
    }
}

TEST(SloExactness, TargetIsOneNoPgExecution)
{
    auto executions = engineCount("sim.engine.executions");
    auto pricings = engineCount("sim.engine.pricings");
    sloTargetSecondsPerUnit(builtin(Workload::Decode8B));
    EXPECT_EQ(engineCount("sim.engine.executions") - executions, 1u);
    EXPECT_EQ(engineCount("sim.engine.pricings") - pricings, 0u);
}

}  // namespace
}  // namespace sim
}  // namespace regate
