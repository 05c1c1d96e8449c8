/**
 * @file
 * Tests for the declarative scenario engine (models/registry.h +
 * models/scenario.h): a paper workload IS its built-in scenario —
 * any spec spelling it simulates bitwise-identically, normalizes onto
 * the same models::builtinScenario pointer, and a sweep case naming
 * only the workload runs, groups and names like that pointer — and
 * registry-only scenarios (MoE) run end to end without any enum
 * value existing for them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>

#include "common/error.h"
#include "models/registry.h"
#include "models/spec.h"
#include "models/workload.h"
#include "obs/metrics.h"
#include "sim/report.h"
#include "sim/sweep.h"

namespace regate {
namespace sim {
namespace {

using arch::NpuGeneration;
using models::ScenarioSpec;
using models::Workload;

/** Exact comparison of every field of two reports but the scenario
 *  pointer. */
void
expectSameReport(const WorkloadReport &a, const WorkloadReport &b,
                 const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_TRUE(a.setup == b.setup);
    EXPECT_EQ(a.units, b.units);
    EXPECT_TRUE(a.gatingParams() == b.gatingParams());
    const auto &ra = a.run();
    const auto &rb = b.run();
    EXPECT_EQ(ra.name, rb.name);
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.seconds, rb.seconds);
    for (auto c : arch::kAllComponents)
        EXPECT_TRUE(ra.timeline[c] == rb.timeline[c])
            << arch::componentName(c);
    EXPECT_EQ(0, std::memcmp(&ra.work, &rb.work, sizeof(ra.work)));
    EXPECT_EQ(0, std::memcmp(&ra.saStats, &rb.saStats,
                             sizeof(ra.saStats)));
    EXPECT_EQ(ra.sramUsedIntegral, rb.sramUsedIntegral);
    ASSERT_EQ(ra.opRecords.size(), rb.opRecords.size());
    for (std::size_t i = 0; i < ra.opRecords.size(); ++i) {
        auto x = ra.opRecords[i];
        auto y = rb.opRecords[i];
        EXPECT_EQ(x.name(), y.name());
        EXPECT_EQ(x.kind(), y.kind());
        EXPECT_EQ(x.count(), y.count());
        EXPECT_EQ(x.duration(), y.duration());
        EXPECT_EQ(x.sramDemandBytes(), y.sramDemandBytes());
        EXPECT_EQ(x.dynamicJ(), y.dynamicJ());
        EXPECT_EQ(x.sramUsedFrac(), y.sramUsedFrac());
        for (auto c : arch::kAllComponents)
            EXPECT_EQ(x.activeFrac(c), y.activeFrac(c));
    }
    for (auto p : allPolicies()) {
        const auto &pa = ra.result(p);
        const auto &pb = rb.result(p);
        EXPECT_EQ(pa.overheadCycles, pb.overheadCycles);
        EXPECT_EQ(pa.seconds, pb.seconds);
        EXPECT_EQ(pa.perfOverhead, pb.perfOverhead);
        EXPECT_EQ(pa.avgPowerW, pb.avgPowerW);
        EXPECT_EQ(pa.peakPowerW, pb.peakPowerW);
        EXPECT_EQ(pa.vuGateEvents, pb.vuGateEvents);
        EXPECT_EQ(pa.sramSetpmPairs, pb.sramSetpmPairs);
        EXPECT_EQ(0, std::memcmp(&pa.energy, &pb.energy,
                                 sizeof(pa.energy)))
            << policyName(p);
    }
}

TEST(Scenario, SpecCopyBitwiseEqualsBuiltinForAllWorkloads)
{
    // For every one of the 17 paper workloads, a copy of its built-in
    // spec (another pointer, no normalization) produces a report that
    // is bitwise-identical to the built-in scenario's in every field
    // but the pointer — same setup, same energy, same op records.
    for (auto w : models::allWorkloads()) {
        auto spec = std::make_shared<const ScenarioSpec>(
            models::builtinSpec(w));
        auto rep = simulateScenario(spec, NpuGeneration::D);
        EXPECT_EQ(rep.scenario, spec) << models::workloadName(w);

        auto ref = simulateWorkload(w, NpuGeneration::D);
        EXPECT_EQ(ref.scenario, models::builtinScenario(w));
        expectSameReport(rep, ref, models::workloadName(w));
    }
}

TEST(Scenario, BuiltinSpecsRoundTripToTheirWorkload)
{
    for (auto w : models::allWorkloads()) {
        Workload back{};
        EXPECT_TRUE(
            models::builtinWorkloadOf(models::builtinSpec(w), &back))
            << models::workloadName(w);
        EXPECT_EQ(back, w);
    }
}

TEST(Scenario, ScenarioCaseNormalizesBuiltinDuplicates)
{
    // A spec identical to a paper workload becomes that workload's
    // built-in scenario pointer...
    auto builtin = std::make_shared<const ScenarioSpec>(
        models::builtinSpec(Workload::DlrmM));
    auto c = scenarioCase(builtin, NpuGeneration::C);
    EXPECT_EQ(c.scenario, models::builtinScenario(Workload::DlrmM));
    EXPECT_EQ(c.spec(), c.scenario);

    // ...while a genuinely custom scenario keeps its spec identity.
    auto custom = *builtin;
    custom.batch = 64;
    models::validateScenario(custom);
    auto custom_ptr = std::make_shared<const ScenarioSpec>(custom);
    auto cc = scenarioCase(custom_ptr, NpuGeneration::C);
    EXPECT_EQ(cc.scenario, custom_ptr);
}

TEST(Scenario, WorkloadOnlyCaseRunsAsItsBuiltinScenario)
{
    // A case with only `workload` set resolves to the built-in
    // scenario: same report, and it groups with scenarioCase cases of
    // that workload, so five gating points cost one execution.
    const auto w = Workload::DlrmS;
    const auto &builtin = models::builtinScenario(w);
    SweepCase bare;
    bare.workload = w;
    bare.gen = NpuGeneration::D;
    ASSERT_EQ(bare.spec(), builtin);

    auto ref = SweepRunner::runSerial(
        {scenarioCase(builtin, NpuGeneration::D)});
    auto got = SweepRunner::runSerial({bare});
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].scenario, builtin);
    expectSameReport(got[0], ref[0], "workload-only case");

    std::vector<SweepCase> grid;
    for (double scale : {1.0, 1.5, 2.0, 3.0, 4.0}) {
        arch::GatingParams p;
        p.setDelayScale(scale);
        // Alternate the two spellings of one scenario.
        grid.push_back(grid.size() % 2
                           ? scenarioCase(builtin, NpuGeneration::D, p)
                           : bare);
        grid.back().params = p;
    }
    auto &executions = obs::MetricsRegistry::instance().counter(
        "sim.engine.executions");
    auto before = executions.value();
    auto reports = SweepRunner(2).run(grid);
    EXPECT_EQ(executions.value() - before, 1u);
    ASSERT_EQ(reports.size(), grid.size());
    for (const auto &rep : reports)
        EXPECT_EQ(rep.scenario, builtin);

    // A setup no pod can run fails naming the workload.
    SweepCase infeasible;
    infeasible.workload = Workload::Prefill8B;
    infeasible.gen = NpuGeneration::A;
    infeasible.hasSetup = true;
    infeasible.setup.chips = 2;
    infeasible.setup.batch = 1;
    infeasible.setup.par.dp = 2;
    try {
        SweepRunner::runSerial({infeasible});
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "scenario '" +
                      models::workloadName(Workload::Prefill8B) +
                      "' on generation A: "),
                  std::string::npos)
            << e.what();
    }
}

TEST(Scenario, GatingOverridesOverlayTheBaseParams)
{
    ScenarioSpec spec = models::builtinSpec(Workload::DiTXL);
    spec.gating.emplace_back("delay_scale", 2.0);
    spec.gating.emplace_back("sram_sleep", 0.5);
    std::sort(spec.gating.begin(), spec.gating.end());
    models::validateScenario(spec);

    auto c = scenarioCase(
        std::make_shared<const ScenarioSpec>(spec),
        NpuGeneration::D);
    // Overrides force the case off the builtin fast path and ride in
    // the case's params; keys the spec does not set keep the base.
    ASSERT_TRUE(c.scenario);
    arch::GatingParams base;
    EXPECT_DOUBLE_EQ(c.params.ratios().sramSleep, 0.5);
    EXPECT_DOUBLE_EQ(c.params.ratios().logicOff,
                     base.ratios().logicOff);
    EXPECT_DOUBLE_EQ(c.params.delayScale(), 2.0);
}

TEST(Scenario, MoeScenarioRunsWithoutAnEnumValue)
{
    auto file = models::parseSpecText(
        "@regate-spec v1\n"
        "[scenario mixtral]\n"
        "family = moe\n"
        "model = 8b\n"
        "experts = 8\n"
        "batch = 16\n"
        "chips = 8\n");
    ASSERT_EQ(file.scenarios.size(), 1u);
    auto spec = file.scenarios[0];
    EXPECT_EQ(spec->extraOr("top_k", 0), 2);  // Default filled.

    Workload back{};
    EXPECT_FALSE(models::builtinWorkloadOf(*spec, &back));

    auto rep = simulateScenario(spec, NpuGeneration::D);
    ASSERT_TRUE(rep.scenario);
    EXPECT_GT(rep.units, 0.0);
    EXPECT_GT(rep.energyPerUnit(Policy::NoPG), 0.0);
    // ReGate must still save energy on a registry-only scenario.
    EXPECT_LT(rep.energyPerUnit(Policy::Full),
              rep.energyPerUnit(Policy::NoPG));
}

TEST(Scenario, RegistryListsTheBuiltinFamilies)
{
    auto families = models::GeneratorRegistry::instance().families();
    for (const char *family :
         {"llama-train", "llama-prefill", "llama-decode", "dlrm",
          "diffusion", "moe"}) {
        EXPECT_NE(std::find(families.begin(), families.end(),
                            family),
                  families.end())
            << family << " is not registered";
    }
    // Unknown families fail by name, listing what exists.
    try {
        models::GeneratorRegistry::instance().require("quantum");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("quantum"), std::string::npos);
        EXPECT_NE(what.find("llama-train"), std::string::npos);
    }
}

TEST(Scenario, InfeasibleScenarioErrorNamesTheCase)
{
    // The spec parser accepts this scenario, but no pod setup can run
    // it: the sweep must fail with a ConfigError that names the
    // scenario and the generation, for both the run and the search.
    auto file = models::parseSpecText(
        "@regate-spec v1\n"
        "[scenario moe-infeasible]\n"
        "family = moe\n"
        "model = 8b\n"
        "experts = 16\n"
        "chips = 1\n"
        "batch = 1\n");
    auto grid = scenarioGrid(file.scenarios, {NpuGeneration::A});
    SweepRunner runner(2);
    for (bool search : {false, true}) {
        try {
            if (search)
                runner.search(grid);
            else
                runner.run(grid);
            FAIL() << "expected ConfigError (search=" << search << ")";
        } catch (const ConfigError &e) {
            std::string what = e.what();
            EXPECT_NE(what.find("scenario 'moe-infeasible' on "
                                "generation A: "),
                      std::string::npos)
                << what;
            // One prefix, not one per layer the error crossed.
            EXPECT_EQ(what.rfind("config error: ", 0), 0u) << what;
            EXPECT_EQ(what.find("config error: ", 1),
                      std::string::npos)
                << what;
        }
    }
}

}  // namespace
}  // namespace sim
}  // namespace regate
