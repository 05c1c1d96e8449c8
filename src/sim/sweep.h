/**
 * @file
 * Parallel sweep runner: fans (scenario x NPU generation x gating
 * params x pod setup) grids out across a worker pool and returns
 * results in the exact order of the input grid, so a parallel sweep is
 * a drop-in replacement for the serial loop the figure binaries used
 * to run. Adjacent cases that differ only in gating params share one
 * execution (Engine::execute) and are priced once each
 * (Engine::price); groups never share mutable state, so the results
 * are bitwise identical to the serial path at any worker count.
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
    /**
     * A paper workload, read only while `scenario` is null; kept for
     * perfbench/layer_trace.cc, which builds cases by setting it.
     */
    models::Workload workload{};
    arch::NpuGeneration gen{};
    arch::GatingParams params;

    /** Pod/batch override; defaultScenarioSetup when unset. */
    bool hasSetup = false;
    models::RunSetup setup;

    /**
     * The scenario to simulate (or SLO-search): a paper workload's
     * models::builtinScenario or a custom spec. Read it through
     * spec().
     */
    std::shared_ptr<const models::ScenarioSpec> scenario;

    /** `scenario`, or builtinScenario(workload) when it is null. */
    const std::shared_ptr<const models::ScenarioSpec> &
    spec() const
    {
        return scenario ? scenario : models::builtinScenario(workload);
    }
};

/**
 * Overlay a scenario's gating overrides (logic_off, sram_sleep,
 * sram_off, delay_scale) onto @p params; keys the spec does not set
 * keep their values from @p params.
 */
void applyScenarioGating(arch::GatingParams *params,
                         const models::ScenarioSpec &spec);

/**
 * One grid point for @p spec on @p gen: @p params plus the spec's
 * gating overrides. A spec identical to a paper workload runs as that
 * workload's builtinScenario (models::canonicalScenario), so it
 * shares the built-in's name and groups with it.
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

    /**
     * Simulate every case; results are index-aligned with @p cases.
     * Each maximal run of adjacent cases with the same scenario,
     * generation and setup is one pool task: it builds,
     * compiles and executes once, then prices once per case.
     */
    std::vector<WorkloadReport> run(
        const std::vector<SweepCase> &cases,
        const SweepProgress &progress = {});

    /**
     * SLO-search every case (the Fig. 2 path); results index-aligned
     * with @p cases. The per-case setup override is ignored — the
     * search explores its own candidates. One SLO target is resolved
     * per distinct scenario, shared by its generations, before the
     * searches fan out; each search prices its candidates for NoPG
     * only and fully prices its winner (findBestSetup).
     */
    std::vector<SloResult> search(
        const std::vector<SweepCase> &cases,
        const SweepProgress &progress = {});

    /** run() without the pool (same grouping), for equivalence tests. */
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
