#include "sim/report.h"

#include "common/error.h"
#include "compiler/compiler.h"
#include "models/registry.h"
#include "obs/trace.h"
#include "sim/graph_cache.h"

namespace regate {
namespace sim {

using arch::Component;

double
idleStaticPower(const energy::PowerModel &power,
                const arch::GatingParams &params, Policy policy)
{
    const auto &ratios = params.ratios();
    // "Other" (management, control) stays powered even on an idle
    // chip (§3); everything else gates according to the policy.
    double p = power.staticPower(Component::Other);
    double logic = power.staticPower(Component::Sa) +
                   power.staticPower(Component::Vu) +
                   power.staticPower(Component::Hbm) +
                   power.staticPower(Component::Ici);
    double sram = power.staticPower(Component::Sram);
    switch (policy) {
      case Policy::NoPG:
        p += logic + sram;
        break;
      case Policy::Base:
      case Policy::HW:
        p += logic * ratios.logicOff + sram * ratios.sramSleep;
        break;
      case Policy::Full:
        p += logic * ratios.logicOff + sram * ratios.sramOff;
        break;
      case Policy::Ideal:
        break;
    }
    return p;
}

const WorkloadRun &
WorkloadReport::run() const
{
    // A default-constructed report (no simulation attached yet) reads
    // as an empty run rather than dereferencing null.
    static const WorkloadRun kEmptyRun;
    return run_ ? *run_ : kEmptyRun;
}

double
WorkloadReport::podBusyEnergy(Policy p) const
{
    return run().result(p).energy.busyTotal() * setup.chips;
}

double
WorkloadReport::idleSeconds(Policy p, const FleetParams &fleet) const
{
    REGATE_CHECK(fleet.dutyCycle > 0 && fleet.dutyCycle <= 1,
                 "duty cycle out of (0, 1]: ", fleet.dutyCycle);
    return run().result(p).seconds * (1.0 - fleet.dutyCycle) /
           fleet.dutyCycle;
}

double
WorkloadReport::idlePowerW(Policy p) const
{
    energy::PowerModel power(config());
    return idleStaticPower(power, params_, p);
}

double
WorkloadReport::podTotalEnergy(Policy p, const FleetParams &fleet) const
{
    double idle = idlePowerW(p) * idleSeconds(p, fleet) * setup.chips;
    return (podBusyEnergy(p) + idle) * fleet.pue;
}

double
WorkloadReport::energyPerUnit(Policy p, const FleetParams &fleet) const
{
    REGATE_CHECK(units > 0, "report has no work units");
    return podTotalEnergy(p, fleet) / units;
}

double
WorkloadReport::idleShare(Policy p, const FleetParams &fleet) const
{
    double idle =
        idlePowerW(p) * idleSeconds(p, fleet) * setup.chips * fleet.pue;
    return idle / podTotalEnergy(p, fleet);
}

const arch::NpuConfig &
WorkloadReport::config() const
{
    return arch::npuConfig(gen);
}

void
clearSharedCaches()
{
    sharedRunCache().clear();
    sharedGraphCache().clear();
    for (auto gen : arch::allGenerations())
        sharedOpCache(gen).clear();
}

OpExecutionCache &
sharedOpCache(arch::NpuGeneration gen)
{
    // One process-wide cache per chip generation: an operator's
    // execution depends only on (generation, pod size, op shape), and
    // pod size is part of the cache key, so every simulateWorkload
    // call — SLO searches, figure sweeps, parallel sweep workers —
    // reuses the same memoized results. The cache is thread-safe.
    static std::array<OpExecutionCache, arch::kNumGenerations> caches;
    return caches[static_cast<std::size_t>(gen)];
}

namespace {

/**
 * Trace hook for the whole-run memo: a warm hit renders as an
 * instant, a miss as nothing here (the build/compile/engine spans
 * below show where the time went instead).
 */
void
traceRunCacheHit()
{
    auto &trace = obs::TraceRecorder::instance();
    if (trace.enabled())
        trace.instant("run_cache.hit", "sim");
}

/**
 * Fill @p rep's identity, setup and units for @p workload on @p gen,
 * and return the simulated run for the caller to attach.
 */
std::shared_ptr<const WorkloadRun>
simulateImpl(WorkloadReport &rep, models::Workload workload,
             arch::NpuGeneration gen, const arch::GatingParams &params,
             const models::RunSetup *setup_override, bool memoize)
{
    rep.workload = workload;
    rep.gen = gen;
    rep.setup = setup_override ? *setup_override
                               : models::defaultSetup(workload, gen);

    const auto &cfg = arch::npuConfig(gen);

    // Warmest path: this exact (workload, setup, generation, params)
    // point has been simulated before — alias the memoized run (a
    // shared_ptr bump, zero WorkloadRun copies) without building,
    // compiling, or running the engine.
    if (memoize) {
        auto cached = sharedRunCache().lookup(workload, rep.setup,
                                              gen, params);
        if (cached) {
            traceRunCacheHit();
            rep.units = models::unitsPerRun(workload, rep.setup);
            return cached;
        }
    }

    // Warm path: reuse the memoized build + compile for this
    // (workload, setup, generation). Cold path (or memoization off):
    // build and compile from scratch. compileGraph's TilingOptions are
    // defaulted here, so the three key fields cover every input.
    auto buildCompile = [&] {
        obs::TraceRecorder::Span span("graph.build_compile", "sim");
        return compiler::compileGraph(
            models::buildGraph(workload, rep.setup), cfg);
    };
    std::shared_ptr<const compiler::CompileResult> compiled;
    if (memoize) {
        compiled = sharedGraphCache().lookup(workload, rep.setup, gen);
        if (!compiled) {
            compiled = sharedGraphCache().store(
                workload, rep.setup, gen, buildCompile());
        }
    } else {
        compiled = std::make_shared<const compiler::CompileResult>(
            buildCompile());
    }

    Engine engine(cfg, params);
    auto runEngine = [&] {
        obs::TraceRecorder::Span span("engine.run", "sim");
        return engine.run(compiled->graph, rep.setup.chips);
    };
    std::shared_ptr<const WorkloadRun> run;
    if (memoize) {
        engine.setOpCache(&sharedOpCache(gen));
        // Move the fresh run into the memo and alias its canonical
        // entry: the report shares the cached run instead of owning
        // a private deep copy.
        run = sharedRunCache().store(workload, rep.setup, gen, params,
                                     runEngine());
    } else {
        // The uncached path must leave every shared cache untouched
        // (fig16 validates the memo against it), so the run is owned
        // privately, never routed through sharedRunCache().
        engine.setMemoization(false);
        run = std::make_shared<const WorkloadRun>(runEngine());
    }
    rep.units = models::unitsPerRun(workload, rep.setup);
    return run;
}

/**
 * simulateImpl for a registry-driven scenario. Same cache discipline
 * — the keys carry the scenario's identity text instead of the enum,
 * so enum points and scenario points live side by side in the shared
 * memos without collisions.
 */
std::shared_ptr<const WorkloadRun>
scenarioImpl(WorkloadReport &rep,
             std::shared_ptr<const models::ScenarioSpec> spec,
             arch::NpuGeneration gen,
             const arch::GatingParams &params,
             const models::RunSetup *setup_override, bool memoize)
{
    REGATE_CHECK(spec, "null scenario spec");
    rep.scenario = std::move(spec);
    rep.gen = gen;
    rep.setup = setup_override
                    ? *setup_override
                    : models::defaultScenarioSetup(*rep.scenario, gen);

    const auto &cfg = arch::npuConfig(gen);
    GraphKey graph_key{models::Workload{}, gen, rep.setup,
                       rep.scenario->identityText()};

    if (memoize) {
        auto cached =
            sharedRunCache().lookup(RunKey{graph_key, params});
        if (cached) {
            traceRunCacheHit();
            rep.units = models::scenarioUnitsPerRun(*rep.scenario,
                                                    rep.setup);
            return cached;
        }
    }

    auto buildCompile = [&] {
        obs::TraceRecorder::Span span("graph.build_compile", "sim");
        return compiler::compileGraph(
            models::buildScenarioGraph(*rep.scenario, rep.setup),
            cfg);
    };
    std::shared_ptr<const compiler::CompileResult> compiled;
    if (memoize) {
        compiled = sharedGraphCache().lookup(graph_key);
        if (!compiled) {
            compiled =
                sharedGraphCache().store(graph_key, buildCompile());
        }
    } else {
        compiled = std::make_shared<const compiler::CompileResult>(
            buildCompile());
    }

    Engine engine(cfg, params);
    auto runEngine = [&] {
        obs::TraceRecorder::Span span("engine.run", "sim");
        return engine.run(compiled->graph, rep.setup.chips);
    };
    std::shared_ptr<const WorkloadRun> run;
    if (memoize) {
        engine.setOpCache(&sharedOpCache(gen));
        run = sharedRunCache().store(RunKey{graph_key, params},
                                     runEngine());
    } else {
        engine.setMemoization(false);
        run = std::make_shared<const WorkloadRun>(runEngine());
    }
    rep.units =
        models::scenarioUnitsPerRun(*rep.scenario, rep.setup);
    return run;
}

}  // namespace

WorkloadReport
simulateWorkload(models::Workload workload, arch::NpuGeneration gen,
                 const arch::GatingParams &params,
                 const models::RunSetup *setup_override)
{
    WorkloadReport rep;
    rep.run_ =
        simulateImpl(rep, workload, gen, params, setup_override, true);
    rep.params_ = params;
    return rep;
}

WorkloadReport
simulateWorkloadUncached(models::Workload workload,
                         arch::NpuGeneration gen,
                         const arch::GatingParams &params,
                         const models::RunSetup *setup_override)
{
    WorkloadReport rep;
    rep.run_ =
        simulateImpl(rep, workload, gen, params, setup_override, false);
    rep.params_ = params;
    return rep;
}

WorkloadReport
simulateScenario(std::shared_ptr<const models::ScenarioSpec> spec,
                 arch::NpuGeneration gen,
                 const arch::GatingParams &params,
                 const models::RunSetup *setup_override)
{
    WorkloadReport rep;
    rep.run_ = scenarioImpl(rep, std::move(spec), gen, params,
                            setup_override, true);
    rep.params_ = params;
    return rep;
}

WorkloadReport
simulateScenarioUncached(
    std::shared_ptr<const models::ScenarioSpec> spec,
    arch::NpuGeneration gen, const arch::GatingParams &params,
    const models::RunSetup *setup_override)
{
    WorkloadReport rep;
    rep.run_ = scenarioImpl(rep, std::move(spec), gen, params,
                            setup_override, false);
    rep.params_ = params;
    return rep;
}

}  // namespace sim
}  // namespace regate
