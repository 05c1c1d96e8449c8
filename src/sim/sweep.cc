#include "sim/sweep.h"

#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "arch/npu_config.h"
#include "common/error.h"

namespace regate {
namespace sim {

namespace {

/**
 * Run @p fn for case @p c so a ConfigError it throws names the case
 * (scenario and generation): a spec can parse yet describe a
 * scenario with no feasible setup, and the message must say which.
 */
template <typename Fn>
auto
namingCase(const SweepCase &c, Fn &&fn)
{
    try {
        return fn();
    } catch (const ConfigError &e) {
        static const std::string kPrefix = "config error: ";
        std::string msg = e.what();
        if (msg.compare(0, kPrefix.size(), kPrefix) == 0)
            msg.erase(0, kPrefix.size());
        throw ConfigError(detail::concat(
            "scenario '", c.spec()->name, "' on generation ",
            arch::generationName(c.gen), ": ", msg));
    }
}

/**
 * Completion ticks for run()/search(). The count advances and the
 * callback runs under one lock, so invocations are serialized and
 * the done counts the callback observes are strictly in order —
 * never "2/n before 1/n" even when two pool threads finish
 * back-to-back.
 */
class ProgressTicker
{
  public:
    ProgressTicker(SweepProgress progress, std::size_t total)
        : progress_(std::move(progress)), total_(total)
    {}

    void
    operator()()
    {
        if (!progress_)
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        progress_(++done_, total_);
    }

  private:
    SweepProgress progress_;
    std::size_t total_;
    std::mutex mutex_;
    std::size_t done_ = 0;
};

/**
 * Do @p a and @p b run the same execution: same scenario, generation
 * and setup? They may differ in params only.
 */
bool
sameExecution(const SweepCase &a, const SweepCase &b)
{
    return a.spec() == b.spec() && a.gen == b.gen &&
           a.hasSetup == b.hasSetup && (!a.hasSetup || a.setup == b.setup);
}

/** Cases [begin, end) of a grid that share one execution. */
struct CaseGroup
{
    std::size_t begin = 0;
    std::size_t end = 0;
};

/**
 * Split @p cases into maximal runs of adjacent cases that share one
 * execution. Only neighbours are compared and nothing is kept
 * between sweeps, so grid order decides what is shared.
 */
std::vector<CaseGroup>
groupCases(const std::vector<SweepCase> &cases)
{
    std::vector<CaseGroup> groups;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        if (!groups.empty() &&
            sameExecution(cases[groups.back().begin], cases[i]))
            groups.back().end = i + 1;
        else
            groups.push_back({i, i + 1});
    }
    return groups;
}

/**
 * One group: build, compile and execute once, then price each case
 * (the last one consumes the execution). @p tick runs after each.
 */
std::vector<WorkloadReport>
runGroup(const std::vector<SweepCase> &cases, CaseGroup g,
         ProgressTicker &tick)
{
    const auto &first = cases[g.begin];
    ExecutedCase ex = namingCase(first, [&] {
        return executeScenario(first.spec(), first.gen,
                               first.hasSetup ? &first.setup : nullptr);
    });
    std::vector<WorkloadReport> out;
    out.reserve(g.end - g.begin);
    for (std::size_t i = g.begin; i < g.end; ++i) {
        const auto &params = cases[i].params;
        out.push_back(namingCase(cases[i], [&] {
            return i + 1 < g.end ? priceReport(ex, params)
                                 : priceReport(std::move(ex), params);
        }));
        tick();
    }
    return out;
}

/** Groups' reports, concatenated in grid order. */
std::vector<WorkloadReport>
flatten(std::vector<std::vector<WorkloadReport>> parts, std::size_t n)
{
    std::vector<WorkloadReport> out;
    out.reserve(n);
    for (auto &part : parts)
        for (auto &rep : part)
            out.push_back(std::move(rep));
    return out;
}

}  // namespace

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
    c.scenario = models::canonicalScenario(std::move(spec));
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
    ProgressTicker tick(progress, cases.size());
    auto parts = parallelMapOrdered(
        pool_, groupCases(cases),
        [&](CaseGroup g) { return runGroup(cases, g, tick); });
    return flatten(std::move(parts), cases.size());
}

std::vector<SloResult>
SweepRunner::search(const std::vector<SweepCase> &cases,
                    const SweepProgress &progress)
{
    // Every generation of a scenario shares one 1x SLO target, so
    // resolve each distinct scenario's target once, then fan the
    // searches out. A failed target is rethrown by each of its cases,
    // so the first failing case in grid order still names the error.
    std::vector<std::shared_ptr<const models::ScenarioSpec>> specs;
    std::unordered_map<const models::ScenarioSpec *, std::size_t>
        target_of;
    for (const auto &c : cases) {
        if (target_of.emplace(c.spec().get(), specs.size()).second)
            specs.push_back(c.spec());
    }
    struct Target
    {
        double secondsPerUnit = 0;
        std::exception_ptr error;
    };
    auto targets = parallelMapOrdered(
        pool_, specs,
        [](const std::shared_ptr<const models::ScenarioSpec> &spec) {
            Target t;
            try {
                t.secondsPerUnit = sloTargetSecondsPerUnit(spec);
            } catch (...) {
                t.error = std::current_exception();
            }
            return t;
        });

    ProgressTicker tick(progress, cases.size());
    return parallelMapOrdered(pool_, cases, [&](const SweepCase &c) {
        const auto &target = targets[target_of.at(c.spec().get())];
        auto result = namingCase(c, [&] {
            if (target.error)
                std::rethrow_exception(target.error);
            return findBestSetup(c.spec(), c.gen, target.secondsPerUnit,
                                 c.params);
        });
        tick();
        return result;
    });
}

std::vector<WorkloadReport>
SweepRunner::runSerial(const std::vector<SweepCase> &cases)
{
    ProgressTicker tick({}, cases.size());
    std::vector<std::vector<WorkloadReport>> parts;
    for (auto g : groupCases(cases))
        parts.push_back(runGroup(cases, g, tick));
    return flatten(std::move(parts), cases.size());
}

}  // namespace sim
}  // namespace regate
