#include "sim/sweep.h"

#include <memory>
#include <mutex>
#include <string>

#include "arch/npu_config.h"
#include "common/error.h"

namespace regate {
namespace sim {

namespace {

WorkloadReport
simulateCase(const SweepCase &c)
{
    if (c.scenario)
        return simulateScenario(c.scenario, c.gen, c.params,
                                c.hasSetup ? &c.setup : nullptr);
    return simulateWorkload(c.workload, c.gen, c.params,
                            c.hasSetup ? &c.setup : nullptr);
}

/**
 * Wrap @p fn so every completion ticks the progress callback with a
 * monotonically increasing done count. The count advances and the
 * callback runs under one lock, so invocations are serialized and
 * the done counts the callback observes are strictly in order —
 * never "2/n before 1/n" even when two pool threads finish
 * back-to-back. Results (and therefore outputs) stay input-ordered
 * and bitwise identical; only the callback runs in completion
 * order.
 */
template <typename Fn>
auto
withProgress(Fn fn, const SweepProgress &progress,
             std::size_t total)
{
    struct Tick
    {
        std::mutex mutex;
        std::size_t done = 0;
    };
    auto tick = std::make_shared<Tick>();
    return [fn, progress, tick, total](const SweepCase &c) {
        auto result = fn(c);
        {
            std::lock_guard<std::mutex> lock(tick->mutex);
            progress(++tick->done, total);
        }
        return result;
    };
}

/**
 * Wrap @p fn so a ConfigError it throws names the case it came from
 * (scenario and generation): a spec can parse yet describe a
 * scenario with no feasible setup, and the message must say which.
 */
template <typename Fn>
auto
namingCase(Fn fn)
{
    return [fn](const SweepCase &c) {
        try {
            return fn(c);
        } catch (const ConfigError &e) {
            static const std::string kPrefix = "config error: ";
            std::string msg = e.what();
            if (msg.compare(0, kPrefix.size(), kPrefix) == 0)
                msg.erase(0, kPrefix.size());
            throw ConfigError(detail::concat(
                "scenario '",
                c.scenario ? c.scenario->name
                           : models::workloadName(c.workload),
                "' on generation ", arch::generationName(c.gen), ": ",
                msg));
        }
    };
}

}  // namespace

std::vector<SweepCase>
makeGrid(const std::vector<models::Workload> &workloads,
         const std::vector<arch::NpuGeneration> &gens,
         const arch::GatingParams &params)
{
    std::vector<SweepCase> grid;
    grid.reserve(workloads.size() * gens.size());
    for (auto w : workloads) {
        for (auto gen : gens) {
            SweepCase c;
            c.workload = w;
            c.gen = gen;
            c.params = params;
            grid.push_back(std::move(c));
        }
    }
    return grid;
}

void
applyScenarioGating(arch::GatingParams *params,
                    const models::ScenarioSpec &spec)
{
    auto ratios = params->ratios();
    for (const auto &[key, value] : spec.gating) {
        if (key == "logic_off")
            ratios.logicOff = value;
        else if (key == "sram_sleep")
            ratios.sramSleep = value;
        else if (key == "sram_off")
            ratios.sramOff = value;
    }
    params->setRatios(ratios);
    for (const auto &[key, value] : spec.gating) {
        if (key == "delay_scale")
            params->setDelayScale(value);
    }
}

SweepCase
scenarioCase(std::shared_ptr<const models::ScenarioSpec> spec,
             arch::NpuGeneration gen, const arch::GatingParams &params)
{
    REGATE_CHECK(spec, "null scenario spec");
    SweepCase c;
    c.gen = gen;
    c.params = params;
    applyScenarioGating(&c.params, *spec);
    // A spec identical to a paper workload runs as that workload:
    // the case (and therefore any golden comparison) is
    // byte-identical to the enum-driven grid. Gating
    // overrides ride in c.params either way.
    models::Workload w;
    if (models::builtinWorkloadOf(*spec, &w)) {
        c.workload = w;
        return c;
    }
    c.scenario = std::move(spec);
    return c;
}

std::vector<SweepCase>
scenarioGrid(
    const std::vector<std::shared_ptr<const models::ScenarioSpec>>
        &scenarios,
    const std::vector<arch::NpuGeneration> &gens,
    const arch::GatingParams &params)
{
    std::vector<SweepCase> grid;
    grid.reserve(scenarios.size() * gens.size());
    for (const auto &spec : scenarios) {
        for (auto gen : gens)
            grid.push_back(scenarioCase(spec, gen, params));
    }
    return grid;
}

std::vector<WorkloadReport>
SweepRunner::run(const std::vector<SweepCase> &cases,
                 const SweepProgress &progress)
{
    auto runCase = namingCase(simulateCase);
    if (!progress)
        return parallelMapOrdered(pool_, cases, runCase);
    return parallelMapOrdered(
        pool_, cases, withProgress(runCase, progress, cases.size()));
}

std::vector<SloResult>
SweepRunner::search(const std::vector<SweepCase> &cases,
                    const SweepProgress &progress)
{
    auto searchCase = namingCase([](const SweepCase &c) {
        if (c.scenario)
            return findBestSetup(c.scenario, c.gen, c.params);
        return findBestSetup(c.workload, c.gen, c.params);
    });
    if (!progress)
        return parallelMapOrdered(pool_, cases, searchCase);
    return parallelMapOrdered(
        pool_, cases,
        withProgress(searchCase, progress, cases.size()));
}

std::vector<WorkloadReport>
SweepRunner::runSerial(const std::vector<SweepCase> &cases)
{
    std::vector<WorkloadReport> out;
    out.reserve(cases.size());
    for (const auto &c : cases)
        out.push_back(simulateCase(c));
    return out;
}

}  // namespace sim
}  // namespace regate
