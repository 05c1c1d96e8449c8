/**
 * @file
 * High-level facade: simulate one of the paper's workloads on one NPU
 * generation and expose the quantities the figures need, including
 * the duty-cycle/PUE accounting of §3 (60% duty cycle [84], PUE 1.1
 * [32]) and the per-policy idle power of a powered-on but jobless
 * chip.
 */

#ifndef REGATE_SIM_REPORT_H
#define REGATE_SIM_REPORT_H

#include <memory>
#include <utility>

#include "arch/gating_params.h"
#include "models/workload.h"
#include "sim/engine.h"

namespace regate {
namespace sim {

/** Datacenter accounting constants (§3). */
struct FleetParams
{
    double dutyCycle = 0.6;  ///< Fraction of wall time running jobs.
    double pue = 1.1;        ///< Power usage efficiency.
};

struct ExecutedCase;

/** One simulated scenario on one generation. */
struct WorkloadReport
{
    /**
     * The scenario simulated: a paper workload's
     * models::builtinScenario or a custom spec. Always set on a
     * simulated report. Shared, immutable — a report copy is still a
     * pointer bump.
     */
    std::shared_ptr<const models::ScenarioSpec> scenario;
    arch::NpuGeneration gen{};
    models::RunSetup setup;
    double units = 0;  ///< Work units per run (tokens, images, ...).

    /**
     * The simulated run, held by shared_ptr so copying a report (SLO
     * searches keep their winner) never deep-copies op records or
     * timelines. A default-constructed report reads as an empty run.
     */
    const WorkloadRun &run() const;

    /** Busy energy per run across the whole pod, joules. */
    double podBusyEnergy(Policy p) const;

    /**
     * Total energy per run including the idle portion implied by the
     * duty cycle and the PUE multiplier (the Fig. 2 metric).
     */
    double podTotalEnergy(Policy p, const FleetParams &fleet = {}) const;

    /** Energy per work unit (J/iter, J/token, ...), Fig. 2. */
    double energyPerUnit(Policy p, const FleetParams &fleet = {}) const;

    /** Wall-clock idle seconds implied by the duty cycle. */
    double idleSeconds(Policy p, const FleetParams &fleet = {}) const;

    /** Per-chip idle power of a powered-on, jobless chip, watts. */
    double idlePowerW(Policy p) const;

    /** Idle energy share of total (the Fig. 3 "Idle" bar). */
    double idleShare(Policy p, const FleetParams &fleet = {}) const;

    const arch::NpuConfig &config() const;

    /** The gating params this report was simulated under. */
    const arch::GatingParams &gatingParams() const { return params_; }

  private:
    friend WorkloadReport priceReport(const ExecutedCase &,
                                      const arch::GatingParams &);
    friend WorkloadReport priceReport(ExecutedCase &&,
                                      const arch::GatingParams &);
    /** @p identity carrying @p run and the @p params it was priced
     *  under. */
    static WorkloadReport withRun(const WorkloadReport &identity,
                                  WorkloadRun run,
                                  const arch::GatingParams &params);
    std::shared_ptr<const WorkloadRun> run_;
    arch::GatingParams params_;
};

/**
 * One case built, compiled and executed once: the report's identity
 * (scenario, generation, setup, units; its run() reads empty) plus
 * the engine's Execution. priceReport turns it into a full report
 * under any gating params, so a sweep over gating points pays for one
 * execution.
 */
struct ExecutedCase
{
    WorkloadReport identity;
    Execution execution;
};

/**
 * Build, compile and execute @p spec on @p gen, with
 * defaultScenarioSetup unless @p setup_override is given. @p spec
 * must be a validated spec (parseSpecText/validateScenario have run).
 */
ExecutedCase executeScenario(
    std::shared_ptr<const models::ScenarioSpec> spec,
    arch::NpuGeneration gen,
    const models::RunSetup *setup_override = nullptr);

/**
 * The report of @p ex under @p params (Engine::price). The rvalue
 * form moves the execution's run instead of copying it.
 */
WorkloadReport priceReport(const ExecutedCase &ex,
                           const arch::GatingParams &params);
WorkloadReport priceReport(ExecutedCase &&ex,
                           const arch::GatingParams &params);

/**
 * Build, compile, and simulate @p spec on @p gen:
 * priceReport(executeScenario(...), params).
 */
WorkloadReport simulateScenario(
    std::shared_ptr<const models::ScenarioSpec> spec,
    arch::NpuGeneration gen, const arch::GatingParams &params = {},
    const models::RunSetup *setup_override = nullptr);

/** simulateScenario of a paper workload; perfbench/layer_trace.cc
 *  and the tests call it. */
inline WorkloadReport
simulateWorkload(models::Workload workload, arch::NpuGeneration gen,
                 const arch::GatingParams &params = {},
                 const models::RunSetup *setup_override = nullptr)
{
    return simulateScenario(models::builtinScenario(workload), gen,
                            params, setup_override);
}

/** Idle power of a jobless chip under a policy (used by Fig. 24). */
double idleStaticPower(const energy::PowerModel &power,
                       const arch::GatingParams &params, Policy policy);

}  // namespace sim
}  // namespace regate

#endif  // REGATE_SIM_REPORT_H
