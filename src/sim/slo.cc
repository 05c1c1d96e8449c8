#include "sim/slo.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "models/registry.h"

namespace regate {
namespace sim {

double
sloTargetSecondsPerUnit(
    const std::shared_ptr<const models::ScenarioSpec> &spec)
{
    // 1x SLO: 5x the latency of the default configuration on the
    // minimum number of NPU-D chips (§3).
    auto ex = executeScenario(spec, arch::NpuGeneration::D);
    return 5.0 * noPgCost(ex, {}).secondsPerUnit;
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

/** One candidate setup, executed and costed for NoPG. */
struct Candidate
{
    ExecutedCase ex;
    NoPgCost cost;
};

Candidate
runCandidate(const std::shared_ptr<const models::ScenarioSpec> &spec,
             arch::NpuGeneration gen, const arch::GatingParams &params,
             const models::RunSetup &setup)
{
    Candidate c{executeScenario(spec, gen, &setup), {}};
    c.cost = noPgCost(c.ex, params);
    return c;
}

/**
 * The serial winner-selection loop over input-ordered candidates.
 * Both the serial and the parallel search run exactly this code, so
 * tie-breaking (first strictly-better candidate wins) is identical
 * regardless of thread count or scheduling. Selection reads NoPG
 * seconds and J/unit only; the winner's retained execution is then
 * the one fully priced.
 */
SloResult
selectBest(const std::vector<models::RunSetup> &setups,
           std::vector<Candidate> candidates, double target,
           const arch::GatingParams &params)
{
    bool have_compliant = false;
    std::size_t best = 0;
    std::size_t fastest = 0;
    double best_energy = 0;
    double fastest_latency = 0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        double spu = candidates[i].cost.secondsPerUnit;
        double epu = candidates[i].cost.energyPerUnit;
        if (spu <= target && (!have_compliant || epu < best_energy)) {
            best = i;
            best_energy = epu;
            have_compliant = true;
        }
        if (fastest_latency == 0 || spu < fastest_latency) {
            fastest = i;
            fastest_latency = spu;
        }
    }

    std::size_t win = have_compliant ? best : fastest;
    SloResult res;
    res.setup = setups[win];
    res.secondsPerUnit = candidates[win].cost.secondsPerUnit;
    res.energyPerUnit = candidates[win].cost.energyPerUnit;
    // No compliant configuration: report the fastest with its
    // attained SLO multiple (Fig. 2's "2x" annotations).
    res.sloRatio =
        have_compliant ? 1.0 : std::ceil(res.secondsPerUnit / target);
    res.report = priceReport(std::move(candidates[win].ex), params);
    return res;
}

}  // namespace

SloResult
findBestSetup(std::shared_ptr<const models::ScenarioSpec> spec,
              arch::NpuGeneration gen,
              const arch::GatingParams &params, ThreadPool *pool)
{
    double target = sloTargetSecondsPerUnit(spec);
    return findBestSetup(std::move(spec), gen, target, params, pool);
}

SloResult
findBestSetup(std::shared_ptr<const models::ScenarioSpec> spec,
              arch::NpuGeneration gen, double target,
              const arch::GatingParams &params, ThreadPool *pool)
{
    auto setups = candidateSetups(*spec, gen);
    REGATE_CHECK(!setups.empty(), "no candidate setups");

    // Capture by value: queued tasks may outlive this frame if an
    // earlier future rethrows (see parallelMapOrdered).
    auto candidates = parallelMapOrdered(
        pool ? *pool : candidatePool(), setups,
        [spec, gen, params](const models::RunSetup &setup) {
            return runCandidate(spec, gen, params, setup);
        });
    return selectBest(setups, std::move(candidates), target, params);
}

SloResult
findBestSetupSerial(std::shared_ptr<const models::ScenarioSpec> spec,
                    arch::NpuGeneration gen,
                    const arch::GatingParams &params)
{
    double target = sloTargetSecondsPerUnit(spec);
    auto setups = candidateSetups(*spec, gen);
    REGATE_CHECK(!setups.empty(), "no candidate setups");

    std::vector<Candidate> candidates;
    candidates.reserve(setups.size());
    for (const auto &setup : setups)
        candidates.push_back(runCandidate(spec, gen, params, setup));
    return selectBest(setups, std::move(candidates), target, params);
}

}  // namespace sim
}  // namespace regate
