#include "sim/slo.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "models/registry.h"

namespace regate {
namespace sim {

namespace {

double
secondsPerUnit(const WorkloadReport &rep)
{
    return rep.run().result(Policy::NoPG).seconds / rep.units;
}

}  // namespace

double
sloTargetSecondsPerUnit(
    const std::shared_ptr<const models::ScenarioSpec> &spec)
{
    // 1x SLO: 5x the latency of the default configuration on the
    // minimum number of NPU-D chips (§3).
    auto rep = simulateScenario(spec, arch::NpuGeneration::D);
    return 5.0 * secondsPerUnit(rep);
}

std::vector<models::RunSetup>
candidateSetups(const models::ScenarioSpec &spec,
                arch::NpuGeneration gen)
{
    const auto base = models::defaultScenarioSetup(spec, gen);
    std::vector<models::RunSetup> out;
    for (int chip_mul : {1, 2, 4}) {
        for (int batch_div : {4, 2, 1}) {
            models::RunSetup s = base;
            s.chips = base.chips * chip_mul;
            s.batch = std::max<std::int64_t>(1, base.batch / batch_div);
            // Re-split parallelism for the new chip count.
            if (s.chips != base.chips || s.batch != base.batch) {
                s.par = base.par;
                if (s.chips != base.chips) {
                    // Grow dp with the extra chips.
                    s.par.dp = std::max(
                        1, s.chips / (s.par.tp * s.par.pp));
                    s.chips = s.par.chips();
                }
            }
            if (s.par.dp > s.batch)
                continue;  // Idle replicas: skip.
            out.push_back(s);
        }
    }
    return out;
}

namespace {

/**
 * The pool findBestSetup's candidate evaluations fan out on. Distinct
 * from any SweepRunner pool on purpose: SweepRunner::search workers
 * call findBestSetup, and a nested submit to the caller's own pool
 * would block a worker on futures only that same pool can run.
 */
ThreadPool &
candidatePool()
{
    static ThreadPool pool;
    return pool;
}

/**
 * The serial winner-selection loop over input-ordered candidate
 * reports. Both the serial and the parallel search run exactly this
 * code, so tie-breaking (first strictly-better candidate wins) is
 * identical regardless of thread count or scheduling.
 */
SloResult
selectBest(const std::vector<models::RunSetup> &candidates,
           const std::vector<WorkloadReport> &reports, double target)
{
    bool have_compliant = false;
    SloResult best;
    SloResult fastest;
    double best_energy = 0;
    double fastest_latency = 0;

    for (std::size_t i = 0; i < candidates.size(); ++i) {
        const auto &setup = candidates[i];
        const auto &rep = reports[i];
        double spu = secondsPerUnit(rep);
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

    // No compliant configuration: report the fastest with its
    // attained SLO multiple (Fig. 2's "2x" annotations).
    fastest.sloRatio = std::ceil(fastest.secondsPerUnit / target);
    return fastest;
}

}  // namespace

SloResult
findBestSetup(std::shared_ptr<const models::ScenarioSpec> spec,
              arch::NpuGeneration gen,
              const arch::GatingParams &params, ThreadPool *pool)
{
    double target = sloTargetSecondsPerUnit(spec);
    auto candidates = candidateSetups(*spec, gen);
    REGATE_CHECK(!candidates.empty(), "no candidate setups");

    // Capture by value: queued tasks may outlive this frame if an
    // earlier future rethrows (see parallelMapOrdered).
    auto reports = parallelMapOrdered(
        pool ? *pool : candidatePool(), candidates,
        [spec, gen, params](const models::RunSetup &setup) {
            return simulateScenario(spec, gen, params, &setup);
        });
    return selectBest(candidates, reports, target);
}

SloResult
findBestSetupSerial(std::shared_ptr<const models::ScenarioSpec> spec,
                    arch::NpuGeneration gen,
                    const arch::GatingParams &params)
{
    double target = sloTargetSecondsPerUnit(spec);
    auto candidates = candidateSetups(*spec, gen);
    REGATE_CHECK(!candidates.empty(), "no candidate setups");

    std::vector<WorkloadReport> reports;
    reports.reserve(candidates.size());
    for (const auto &setup : candidates)
        reports.push_back(simulateScenario(spec, gen, params, &setup));
    return selectBest(candidates, reports, target);
}

}  // namespace sim
}  // namespace regate
