#include "sim/report.h"

#include <utility>

#include "common/error.h"
#include "compiler/compiler.h"
#include "models/registry.h"
#include "obs/trace.h"

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

WorkloadReport
WorkloadReport::withRun(const WorkloadReport &identity, WorkloadRun run,
                        const arch::GatingParams &params)
{
    WorkloadReport rep = identity;
    rep.run_ = std::make_shared<const WorkloadRun>(std::move(run));
    rep.params_ = params;
    return rep;
}

namespace {

/** Engine::price for @p ex's generation, traced. */
template <typename Exec>
WorkloadRun
priceExecution(const WorkloadReport &identity, Exec &&ex,
               const arch::GatingParams &params)
{
    obs::TraceRecorder::Span span("engine.price", "sim");
    return Engine(arch::npuConfig(identity.gen))
        .price(std::forward<Exec>(ex), params);
}

}  // namespace

ExecutedCase
executeScenario(std::shared_ptr<const models::ScenarioSpec> spec,
                arch::NpuGeneration gen,
                const models::RunSetup *setup_override)
{
    REGATE_CHECK(spec, "null scenario spec");
    const auto &scenario = *spec;
    WorkloadReport identity;
    identity.scenario = std::move(spec);
    identity.gen = gen;
    identity.setup = setup_override
                         ? *setup_override
                         : models::defaultScenarioSetup(scenario, gen);
    identity.units = models::scenarioUnitsPerRun(scenario, identity.setup);
    const auto &cfg = arch::npuConfig(gen);
    compiler::CompileResult compiled;
    {
        obs::TraceRecorder::Span span("graph.build_compile", "sim");
        compiled = compiler::compileGraph(
            models::buildScenarioGraph(scenario, identity.setup), cfg);
    }
    obs::TraceRecorder::Span span("engine.execute", "sim");
    Execution ex = Engine(cfg).execute(compiled.graph,
                                       identity.setup.chips);
    return {std::move(identity), std::move(ex)};
}

WorkloadReport
priceReport(const ExecutedCase &ex, const arch::GatingParams &params)
{
    return WorkloadReport::withRun(
        ex.identity, priceExecution(ex.identity, ex.execution, params),
        params);
}

WorkloadReport
priceReport(ExecutedCase &&ex, const arch::GatingParams &params)
{
    return WorkloadReport::withRun(
        ex.identity,
        priceExecution(ex.identity, std::move(ex.execution), params),
        params);
}

WorkloadReport
simulateScenario(std::shared_ptr<const models::ScenarioSpec> spec,
                 arch::NpuGeneration gen,
                 const arch::GatingParams &params,
                 const models::RunSetup *setup_override)
{
    return priceReport(
        executeScenario(std::move(spec), gen, setup_override), params);
}

}  // namespace sim
}  // namespace regate
