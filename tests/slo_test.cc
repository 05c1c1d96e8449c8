/**
 * @file
 * Tests for the SLO-compliant configuration search (§3, Table 4),
 * serial and parallel.
 */

#include <gtest/gtest.h>

#include <memory>

#include "run_compare.h"
#include "sim/slo.h"

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

}  // namespace
}  // namespace sim
}  // namespace regate
