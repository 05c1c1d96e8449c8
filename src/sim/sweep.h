/**
 * @file
 * Parallel sweep runner: fans (workload x NPU generation x gating
 * params x pod setup) grids out across a worker pool and returns
 * results in the exact order of the input grid, so a parallel sweep is
 * a drop-in replacement for the serial loop the figure binaries used
 * to run. Each grid point is simulated by its own Engine instance, so
 * points never share mutable state and the results are bitwise
 * identical to the serial path.
 */

#ifndef REGATE_SIM_SWEEP_H
#define REGATE_SIM_SWEEP_H

#include <functional>
#include <future>
#include <vector>

#include "common/thread_pool.h"
#include "sim/report.h"
#include "sim/slo.h"

namespace regate {
namespace sim {

// parallelMapOrdered lives in common/thread_pool.h now; re-exported
// here because the sweep users (figure binaries, tests) spell it
// sim::parallelMapOrdered.
using ::regate::parallelMapOrdered;

/** One grid point of a sweep. */
struct SweepCase
{
    models::Workload workload{};
    arch::NpuGeneration gen{};
    arch::GatingParams params;

    /** Pod/batch override; defaultSetup(workload, gen) when unset. */
    bool hasSetup = false;
    models::RunSetup setup;

    /**
     * Registry-driven custom scenario; null = enum workload path.
     * When set, `workload` is ignored and the case is simulated (or
     * SLO-searched) through simulateScenario/findBestSetup over the
     * spec. scenarioCase() normalizes specs that are identical to a
     * paper workload back onto the enum, so spec-driven grids of
     * built-in scenarios render byte-identical to enum grids.
     */
    std::shared_ptr<const models::ScenarioSpec> scenario;
};

/** Dense (workloads x generations) grid in row-major workload order. */
std::vector<SweepCase> makeGrid(
    const std::vector<models::Workload> &workloads,
    const std::vector<arch::NpuGeneration> &gens,
    const arch::GatingParams &params = {});

/**
 * Overlay a scenario's gating overrides (logic_off, sram_sleep,
 * sram_off, delay_scale) onto @p params; keys the spec does not set
 * keep their values from @p params.
 */
void applyScenarioGating(arch::GatingParams *params,
                         const models::ScenarioSpec &spec);

/**
 * One grid point for @p spec on @p gen: @p params plus the spec's
 * gating overrides. A spec whose identity matches a paper workload
 * (models::builtinWorkloadOf) comes back as a plain enum case, so
 * running a built-in spec is bitwise the enum run.
 */
SweepCase scenarioCase(std::shared_ptr<const models::ScenarioSpec> spec,
                       arch::NpuGeneration gen,
                       const arch::GatingParams &params = {});

/** Dense (scenarios x generations) grid, scenario-major. */
std::vector<SweepCase> scenarioGrid(
    const std::vector<std::shared_ptr<const models::ScenarioSpec>>
        &scenarios,
    const std::vector<arch::NpuGeneration> &gens,
    const arch::GatingParams &params = {});

/**
 * Completion callback for run()/search(): invoked once per finished
 * case with (cases completed so far, total cases), on whichever
 * worker thread finished the case. Invocations are serialized by
 * the runner and the done count advances under the same lock, so
 * the callback always observes 1, 2, ..., total in order and needs
 * no locking of its own (it must still not touch thread-unsafe
 * state shared outside the sweep). The grid binaries use it to
 * record one trace span per completed case.
 */
using SweepProgress =
    std::function<void(std::size_t done, std::size_t total)>;

/** The runner. One instance owns one worker pool and can be reused. */
class SweepRunner
{
  public:
    /** @param threads 0 = REGATE_THREADS env or hardware concurrency. */
    explicit SweepRunner(unsigned threads = 0) : pool_(threads) {}

    /** Simulate every case; results are index-aligned with @p cases. */
    std::vector<WorkloadReport> run(
        const std::vector<SweepCase> &cases,
        const SweepProgress &progress = {});

    /**
     * SLO-search every case (the Fig. 2 path); results index-aligned
     * with @p cases. The per-case setup override is ignored — the
     * search explores its own candidates.
     */
    std::vector<SloResult> search(
        const std::vector<SweepCase> &cases,
        const SweepProgress &progress = {});

    /** Serial reference implementation of run() for equivalence tests. */
    static std::vector<WorkloadReport> runSerial(
        const std::vector<SweepCase> &cases);

    unsigned threadCount() const { return pool_.threadCount(); }

    ThreadPool &pool() { return pool_; }

  private:
    ThreadPool pool_;
};

}  // namespace sim
}  // namespace regate

#endif  // REGATE_SIM_SWEEP_H
