/**
 * @file
 * Tests for the workload engine: policy evaluation on hand-built
 * graphs with known structure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "sim/engine.h"

namespace regate {
namespace sim {
namespace {

using arch::Component;
using arch::NpuGeneration;
using graph::Block;
using graph::Operator;
using graph::OperatorGraph;
using graph::OpKind;

OperatorGraph
gemmNormGraph(std::uint64_t repeat)
{
    OperatorGraph g;
    g.name = "gemm-norm";
    Block b;
    b.name = "layer";
    b.repeat = repeat;

    Operator mm;
    mm.kind = OpKind::MatMul;
    mm.name = "mm";
    mm.m = 16384;
    mm.k = 1024;
    mm.n = 1024;
    mm.hbmReadBytes = 2e6;
    mm.sramDemandBytes = 8e6;
    b.ops.push_back(mm);

    Operator norm;
    norm.kind = OpKind::Normalization;
    norm.name = "norm";
    norm.vuOps = 1e7;
    norm.hbmReadBytes = 6e7;
    norm.hbmWriteBytes = 6e7;
    norm.sramDemandBytes = 2e6;
    b.ops.push_back(norm);

    g.blocks.push_back(b);
    return g;
}

TEST(Engine, PolicyNamesAndOrder)
{
    EXPECT_EQ(policyName(Policy::NoPG), "NoPG");
    EXPECT_EQ(policyName(Policy::Base), "ReGate-Base");
    EXPECT_EQ(policyName(Policy::Full), "ReGate-Full");
    EXPECT_EQ(allPolicies().size(), kNumPolicies);
}

TEST(Engine, SavingsOrderingOnMixedGraph)
{
    Engine engine(arch::npuConfig(NpuGeneration::D));
    auto run = engine.run(gemmNormGraph(20), 1);

    double base = run.savingVsNoPg(Policy::Base);
    double hw = run.savingVsNoPg(Policy::HW);
    double full = run.savingVsNoPg(Policy::Full);
    double ideal = run.savingVsNoPg(Policy::Ideal);

    EXPECT_GT(base, 0.0);
    EXPECT_GE(hw, base - 1e-9);
    EXPECT_GE(full, hw - 1e-9);
    EXPECT_GE(ideal, full - 1e-9);
    EXPECT_LT(ideal, 1.0);
    EXPECT_DOUBLE_EQ(run.savingVsNoPg(Policy::NoPG), 0.0);
}

TEST(Engine, RepeatScalesLinearly)
{
    Engine engine(arch::npuConfig(NpuGeneration::D));
    auto r1 = engine.run(gemmNormGraph(5), 1);
    auto r4 = engine.run(gemmNormGraph(20), 1);
    EXPECT_EQ(r4.cycles, 4 * r1.cycles);
    EXPECT_NEAR(
        r4.result(Policy::NoPG).energy.busyTotal(),
        4 * r1.result(Policy::NoPG).energy.busyTotal(),
        r1.result(Policy::NoPG).energy.busyTotal() * 0.01);
}

TEST(Engine, TimelineAccountingConsistent)
{
    Engine engine(arch::npuConfig(NpuGeneration::D));
    auto run = engine.run(gemmNormGraph(10), 1);
    for (auto c : {Component::Sa, Component::Vu, Component::Hbm,
                   Component::Ici}) {
        EXPECT_EQ(run.timeline[c].span(), run.cycles)
            << arch::componentName(c);
        run.timeline[c].checkInvariants();
    }
    // ICI never used on a single chip.
    EXPECT_DOUBLE_EQ(run.temporalUtil(Component::Ici), 0.0);
    EXPECT_GT(run.temporalUtil(Component::Sa), 0.0);
}

TEST(Engine, IdleComponentFullySavedUnderIdeal)
{
    Engine engine(arch::npuConfig(NpuGeneration::D));
    auto run = engine.run(gemmNormGraph(10), 1);
    // ICI is idle the whole run: Ideal zeroes its static energy.
    const auto &ideal = run.result(Policy::Ideal);
    EXPECT_DOUBLE_EQ(ideal.energy.staticJ[Component::Ici], 0.0);
    // Full leaves the 3% gated leakage.
    const auto &full = run.result(Policy::Full);
    EXPECT_GT(full.energy.staticJ[Component::Ici], 0.0);
    const auto &nopg = run.result(Policy::NoPG);
    EXPECT_LT(full.energy.staticJ[Component::Ici],
              0.1 * nopg.energy.staticJ[Component::Ici]);
}

TEST(Engine, OtherComponentNeverGated)
{
    Engine engine(arch::npuConfig(NpuGeneration::D));
    auto run = engine.run(gemmNormGraph(10), 1);
    const auto &nopg = run.result(Policy::NoPG);
    const auto &ideal = run.result(Policy::Ideal);
    EXPECT_DOUBLE_EQ(ideal.energy.staticJ[Component::Other],
                     nopg.energy.staticJ[Component::Other]);
}

TEST(Engine, DynamicEnergyIdenticalAcrossPolicies)
{
    Engine engine(arch::npuConfig(NpuGeneration::D));
    auto run = engine.run(gemmNormGraph(10), 1);
    double d0 = run.result(Policy::NoPG).energy.dynamicJ.sum();
    for (auto p : allPolicies())
        EXPECT_DOUBLE_EQ(run.result(p).energy.dynamicJ.sum(), d0);
}

TEST(Engine, PerfOverheadOrdering)
{
    Engine engine(arch::npuConfig(NpuGeneration::D));
    auto run = engine.run(gemmNormGraph(50), 1);
    EXPECT_DOUBLE_EQ(run.result(Policy::NoPG).perfOverhead, 0.0);
    EXPECT_DOUBLE_EQ(run.result(Policy::Ideal).perfOverhead, 0.0);
    EXPECT_GE(run.result(Policy::Base).perfOverhead,
              run.result(Policy::HW).perfOverhead);
    EXPECT_GE(run.result(Policy::HW).perfOverhead,
              run.result(Policy::Full).perfOverhead - 1e-12);
    // Paper bound: Base < ~5%, Full < 0.5%.
    EXPECT_LT(run.result(Policy::Base).perfOverhead, 0.05);
    EXPECT_LT(run.result(Policy::Full).perfOverhead, 0.005);
}

TEST(Engine, PeakPowerAtLeastAvgPower)
{
    Engine engine(arch::npuConfig(NpuGeneration::D));
    auto run = engine.run(gemmNormGraph(10), 1);
    for (auto p : allPolicies()) {
        EXPECT_GE(run.result(p).peakPowerW,
                  run.result(p).avgPowerW * 0.99)
            << policyName(p);
    }
}

/**
 * Fig. 18's peak power of @p policy the way it was computed before
 * the policies shared their record loops: one loop per policy over
 * every op record.
 */
double
perPolicyPeakPower(const WorkloadRun &run, Policy policy,
                   const energy::PowerModel &power,
                   const arch::GatingParams &params, double tau)
{
    const auto &ratios = params.ratios();
    double peak = 0;
    for (const auto &rec : run.opRecords) {
        double dur_s = static_cast<double>(rec.duration()) * tau;
        double p_static = 0;
        for (auto c : {Component::Sa, Component::Vu, Component::Hbm,
                       Component::Ici}) {
            double leak_c = policy == Policy::NoPG    ? 1.0
                            : policy == Policy::Ideal ? 0.0
                                                      : ratios.logicOff;
            p_static += power.staticPower(c) *
                        (rec.activeFrac(c) +
                         (1.0 - rec.activeFrac(c)) * leak_c);
        }
        double sram_leak = policy == Policy::NoPG    ? 1.0
                           : policy == Policy::Ideal ? 0.0
                           : policy == Policy::Full  ? ratios.sramOff
                                                     : ratios.sramSleep;
        p_static += power.staticPower(Component::Sram) *
                    (rec.sramUsedFrac() +
                     (1.0 - rec.sramUsedFrac()) * sram_leak);
        p_static += power.staticPower(Component::Other);
        peak = std::max(peak, p_static + rec.dynamicJ() / dur_s);
    }
    return peak;
}

TEST(Engine, PeakPowerBitwiseEqualsPerPolicyLoop)
{
    // Each peak must equal the per-policy loop bit for bit, under the
    // default ratios and under ratios where Base/HW and Full differ
    // in every term; pricing one execution twice must not matter.
    const auto &cfg = arch::npuConfig(NpuGeneration::D);
    Engine engine(cfg);
    arch::LeakageRatios ratios;
    ratios.logicOff = 0.4;
    ratios.sramSleep = 0.5;
    ratios.sramOff = 0.25;
    auto ex = engine.execute(gemmNormGraph(10), 1);
    for (const auto &params :
         {arch::GatingParams(), arch::GatingParams(ratios)}) {
        auto run = engine.price(ex, params);
        for (auto p : allPolicies()) {
            EXPECT_EQ(run.result(p).peakPowerW,
                      perPolicyPeakPower(run, p, engine.powerModel(),
                                         params, cfg.cycleTime()))
                << policyName(p);
        }
        EXPECT_EQ(engine.priceNoPg(ex, params).peakPowerW,
                  run.result(Policy::NoPG).peakPowerW);
    }
}

TEST(Engine, PriceNoPgEqualsNoPgRowOfPrice)
{
    Engine engine(arch::npuConfig(NpuGeneration::D));
    auto ex = engine.execute(gemmNormGraph(10), 1);
    auto run = engine.price(ex, engine.params());
    auto nopg = engine.priceNoPg(ex, engine.params());
    const auto &want = run.result(Policy::NoPG);
    EXPECT_EQ(nopg.policy, Policy::NoPG);
    EXPECT_EQ(nopg.overheadCycles, 0u);
    EXPECT_EQ(nopg.seconds, want.seconds);
    EXPECT_EQ(nopg.perfOverhead, want.perfOverhead);
    EXPECT_EQ(nopg.avgPowerW, want.avgPowerW);
    EXPECT_EQ(0, std::memcmp(&nopg.energy, &want.energy,
                             sizeof(nopg.energy)));
}

TEST(Engine, SramOffBeatsSleep)
{
    Engine engine(arch::npuConfig(NpuGeneration::D));
    auto run = engine.run(gemmNormGraph(10), 1);
    // Full powers unused SRAM off (0.2%); Base/HW only sleep (25%).
    EXPECT_LT(run.result(Policy::Full).energy.staticJ[Component::Sram],
              run.result(Policy::HW).energy.staticJ[Component::Sram]);
}

TEST(Engine, VuSetpmCountedUnderFull)
{
    Engine engine(arch::npuConfig(NpuGeneration::D));
    auto run = engine.run(gemmNormGraph(10), 1);
    // The norm op creates VU idle gaps long enough to gate.
    EXPECT_GT(run.result(Policy::Full).vuGateEvents, 0u);
}

TEST(Engine, OpRecordsCoverGraph)
{
    Engine engine(arch::npuConfig(NpuGeneration::D));
    auto run = engine.run(gemmNormGraph(7), 1);
    ASSERT_EQ(run.opRecords.size(), 2u);
    EXPECT_EQ(run.opRecords[0].count(), 7u);
    EXPECT_GT(run.opRecords[0].duration(), 0u);
    EXPECT_GT(run.opRecords[0].dynamicJ(), 0.0);
}

}  // namespace
}  // namespace sim
}  // namespace regate
