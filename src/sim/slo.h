/**
 * @file
 * SLO-compliant configuration search (§3, Table 4): for each scenario
 * and NPU generation, find the most energy-efficient pod
 * configuration whose per-unit latency (or training throughput) meets
 * the SLO. The 1x SLO is defined as 5x the latency (1/5 the
 * throughput) of the default batch on the minimum NPU-D pod [78].
 */

#ifndef REGATE_SIM_SLO_H
#define REGATE_SIM_SLO_H

#include <vector>

#include "common/thread_pool.h"
#include "sim/report.h"

namespace regate {
namespace sim {

/** Outcome of the search for one (scenario, generation). */
struct SloResult
{
    models::RunSetup setup;
    double secondsPerUnit = 0;   ///< Achieved latency per work unit.
    double energyPerUnit = 0;    ///< NoPG J/unit (Fig. 2 metric).
    double sloRatio = 1;         ///< Attained SLO multiple (1 = meets
                                 ///< 1x; 2 = needed 2x relaxation).
    WorkloadReport report;       ///< The winning simulation.
};

/** Seconds-per-unit at the 1x SLO of @p spec. */
double sloTargetSecondsPerUnit(
    const std::shared_ptr<const models::ScenarioSpec> &spec);

/**
 * Search candidate setups (chip counts around the spec's anchor,
 * halved/quartered batches) on @p gen; returns the most
 * energy-efficient compliant configuration, or the fastest one with
 * its attained (relaxed) SLO ratio if none complies — mirroring the
 * "2x" labels in Fig. 2.
 *
 * The candidate evaluations fan out on @p pool (nullptr picks a
 * process-wide pool sized by REGATE_THREADS / hardware concurrency,
 * separate from the sweep runner's so a SweepRunner::search worker
 * can nest this call without deadlocking). Winner selection replays
 * the serial loop over the input-ordered results, so ties break
 * identically to findBestSetupSerial at any thread count.
 */
SloResult findBestSetup(
    std::shared_ptr<const models::ScenarioSpec> spec,
    arch::NpuGeneration gen, const arch::GatingParams &params = {},
    ThreadPool *pool = nullptr);

/** Serial reference implementation (equivalence tests). */
SloResult findBestSetupSerial(
    std::shared_ptr<const models::ScenarioSpec> spec,
    arch::NpuGeneration gen, const arch::GatingParams &params = {});

/** findBestSetupSerial of a paper workload; perfbench/layer_trace.cc
 *  and the tests call it. */
inline SloResult
findBestSetupSerial(models::Workload workload, arch::NpuGeneration gen,
                    const arch::GatingParams &params = {})
{
    return findBestSetupSerial(models::builtinScenario(workload), gen,
                               params);
}

/**
 * Candidate setups the search explores (exposed for tests): chip
 * counts around defaultScenarioSetup (1x/2x/4x), batches
 * halved/quartered, parallelism re-split by growing dp with the extra
 * chips, dp > batch candidates skipped.
 */
std::vector<models::RunSetup> candidateSetups(
    const models::ScenarioSpec &spec, arch::NpuGeneration gen);

/** candidateSetups of a paper workload; perfbench/layer_trace.cc and
 *  the tests call it. */
inline std::vector<models::RunSetup>
candidateSetups(models::Workload workload, arch::NpuGeneration gen)
{
    return candidateSetups(*models::builtinScenario(workload), gen);
}

}  // namespace sim
}  // namespace regate

#endif  // REGATE_SIM_SLO_H
