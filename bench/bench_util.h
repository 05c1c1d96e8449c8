/**
 * @file
 * Shared helpers for the figure/table regeneration benches. Each
 * bench binary prints the rows/series of one paper artifact so the
 * output can be compared side by side with the paper (shape, not
 * absolute numbers -- see DESIGN.md).
 */

#ifndef REGATE_BENCH_BENCH_UTIL_H
#define REGATE_BENCH_BENCH_UTIL_H

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/table.h"
#include "models/registry.h"
#include "models/spec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/report.h"
#include "sim/sweep.h"

namespace regate {
namespace bench {

/**
 * The shared sweep runner used by the figure binaries. One pool per
 * process; worker count follows REGATE_THREADS / hardware
 * concurrency. Results are deterministic (input-ordered) regardless
 * of the worker count.
 */
inline sim::SweepRunner &
sweeper()
{
    static sim::SweepRunner runner;
    return runner;
}

/**
 * The CLI every grid binary shares (initBench parses it):
 *
 *     figNN [--spec FILE]        replace the workload axis with the
 *                                spec file's scenarios;
 *     figNN --list-generators    print the workload generators and
 *                                their spec keys, then exit;
 *     figNN --cases              print the grid's case count, then
 *                                exit without simulating;
 *     figNN --trace-out FILE     record the run as trace-event JSON;
 *     figNN --metrics-out FILE   write the metrics snapshot at exit.
 *
 * Exit status: 0 = success, 1 = a scenario that cannot run (message
 * on stderr names the binary, scenario and generation), 2 = usage
 * error.
 */
struct BenchCli
{
    /** argv[0], for error messages. */
    std::string program;

    bool casesOnly = false;

    /** `--spec FILE`: the scenarios that replace the binary's default
     *  workload axis (workloadAxis). */
    std::string specPath;
    std::vector<std::shared_ptr<const models::ScenarioSpec>> scenarios;

    /**
     * `--trace-out FILE`: record the run as Chrome/Perfetto
     * trace-event JSON (obs/trace.h) — graph build/compile and
     * engine phases, one span per completed sweep case.
     */
    std::string traceOut;

    /**
     * `--metrics-out FILE`: write the process's canonical metrics
     * snapshot (obs::MetricsRegistry::writeSnapshot) at exit.
     */
    std::string metricsOut;

    bool hasSpec() const { return !scenarios.empty(); }
};

inline BenchCli &
benchCli()
{
    static BenchCli cli;
    return cli;
}

/**
 * `--list-generators`: print every registered workload generator and
 * the spec keys it accepts, then exit 0. The output is the reference
 * for writing `--spec` files (and the smoke test that the registry
 * self-registration ran).
 */
inline void
listGeneratorsAndExit()
{
    const auto &registry = models::GeneratorRegistry::instance();
    for (const auto &family : registry.families()) {
        const auto *gen = registry.find(family);
        std::cout << family << " — " << gen->familyLabel() << "\n";
        for (const auto &key : gen->specKeys())
            std::cout << "  " << key.key << ": " << key.doc << "\n";
    }
    std::exit(0);
}

/**
 * Parse the shared bench CLI (see BenchCli). Call first thing in
 * main(); exits with code 2 and a usage message on a bad command
 * line. Binaries without a sweep grid simply never read the state.
 */
inline void
initBench(int argc, char **argv)
{
    auto &cli = benchCli();
    cli.program = argv[0];
    auto usage = [&](const std::string &msg) {
        std::cerr << argv[0] << ": " << msg << "\n"
                  << "usage: " << argv[0]
                  << " [--spec scenarios.spec] [--list-generators]"
                  << " [--cases] [--trace-out trace.json]"
                  << " [--metrics-out metrics.json]\n";
        std::exit(2);
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--spec") {
            if (++i >= argc)
                usage("--spec needs a path");
            cli.specPath = argv[i];
        } else if (arg == "--list-generators") {
            listGeneratorsAndExit();
        } else if (arg == "--cases") {
            cli.casesOnly = true;
        } else if (arg == "--trace-out") {
            if (++i >= argc)
                usage("--trace-out needs a path");
            cli.traceOut = argv[i];
        } else if (arg == "--metrics-out") {
            if (++i >= argc)
                usage("--metrics-out needs a path");
            cli.metricsOut = argv[i];
        } else {
            usage("unknown argument '" + arg + "'");
        }
    }
    if (!cli.specPath.empty()) {
        try {
            cli.scenarios = models::parseSpecFile(cli.specPath).scenarios;
        } catch (const ConfigError &e) {
            std::cerr << argv[0] << ": --spec: " << e.what() << "\n";
            std::exit(1);
        }
    }
    if (!cli.traceOut.empty())
        obs::TraceRecorder::instance().start(cli.traceOut);
    if (!cli.metricsOut.empty()) {
        // Construct the registry before registering the writer:
        // statics are destroyed in reverse order of construction,
        // interleaved with atexit handlers, so this order keeps the
        // registry alive while the writer runs.
        obs::MetricsRegistry::instance();
        std::atexit([] {
            try {
                obs::MetricsRegistry::instance().writeSnapshot(
                    benchCli().metricsOut);
            } catch (const ConfigError &e) {
                std::cerr << "--metrics-out: " << e.what() << "\n";
            }
        });
    }
}

/**
 * The initBench counterpart for binaries with NO sweep grid (fig15
 * and tables 2/3 print closed-form/VLIW-core values): any argument —
 * `--cases` included — is rejected with a one-line usage error and
 * exit 2.
 */
inline void
initBenchNoGrid(int argc, char **argv)
{
    if (argc <= 1)
        return;
    std::cerr << argv[0] << ": unexpected argument '" << argv[1]
              << "' — this binary has no sweep grid and takes no "
                 "arguments\n";
    std::exit(2);
}

namespace detail {

/** Handle `--cases`: print the grid size and exit successfully. */
inline void
maybePrintCasesAndExit(std::size_t cases)
{
    if (!benchCli().casesOnly)
        return;
    std::cout << cases << "\n";
    std::exit(0);
}

/**
 * The explicit trace lane of the sweep-progress timeline. Per-case
 * spans cover the interval since the previous completion *globally*
 * — not since this worker thread's previous case — so they cannot
 * live on the worker threads' auto lanes without overlapping a
 * concurrent case's sim spans. On one dedicated lane they tile the
 * grid span exactly, and the value is far above any auto-allocated
 * thread lane.
 */
constexpr int kSweepLane = 1000000;

/**
 * Per-case trace spans (null when tracing is off): each completed
 * case becomes one complete event on kSweepLane covering the
 * interval since the previous completion, seeded at @p sweep_start
 * so the first case's span begins where the enclosing grid span
 * does. The runner serializes progress callbacks with strictly
 * increasing done counts, so consecutive spans never overlap.
 */
inline sim::SweepProgress
traceProgress(std::uint64_t sweep_start)
{
    auto &trace = obs::TraceRecorder::instance();
    if (!trace.enabled())
        return {};
    auto last = std::make_shared<std::uint64_t>(sweep_start);
    return [last, &trace](std::size_t done, std::size_t total) {
        auto now = trace.nowUs();
        trace.completeLane("case", "sweep", kSweepLane, *last, now,
                           {{"done", std::to_string(done)},
                            {"total", std::to_string(total)}});
        *last = now;
    };
}

/**
 * Run one sweep of the grid (@p sweep is the runner call) inside a
 * @p kind trace span. A scenario that cannot run (a ConfigError, which
 * the runner tags with the case's scenario and generation) ends the
 * process with exit 1 and the binary's name on the message.
 */
template <typename Sweep>
auto
tracedSweep(const char *kind, std::size_t cases, Sweep &&sweep)
{
    auto &trace = obs::TraceRecorder::instance();
    auto sweep_start = trace.nowUs();
    try {
        auto results = sweep(traceProgress(sweep_start));
        if (trace.enabled()) {
            trace.completeLane(kind, "sweep", kSweepLane, sweep_start,
                               trace.nowUs(),
                               {{"cases", std::to_string(cases)}});
            trace.flush();
        }
        return results;
    } catch (const ConfigError &e) {
        std::cerr << benchCli().program << ": " << e.what() << "\n";
        std::exit(1);
    }
}

}  // namespace detail

/** Run the binary's sweep grid: the plain in-process parallel sweep. */
inline std::vector<sim::WorkloadReport>
runGrid(const std::vector<sim::SweepCase> &grid)
{
    detail::maybePrintCasesAndExit(grid.size());
    return detail::tracedSweep(
        "grid.run", grid.size(), [&](const sim::SweepProgress &p) {
            return sweeper().run(grid, p);
        });
}

/** SLO-search counterpart of runGrid (the fig02/table4 path). */
inline std::vector<sim::SloResult>
searchGrid(const std::vector<sim::SweepCase> &grid)
{
    detail::maybePrintCasesAndExit(grid.size());
    return detail::tracedSweep(
        "grid.search", grid.size(), [&](const sim::SweepProgress &p) {
            return sweeper().search(grid, p);
        });
}

/**
 * One entry of a binary's workload axis: a paper workload's
 * models::builtinScenario (the default axis, or a `--spec` scenario
 * identical to one) or a registry-driven custom scenario. The figure
 * binaries iterate this instead of the Workload enum, so
 * `--spec FILE` swaps the whole axis without touching any rendering
 * code.
 */
struct Scenario
{
    std::shared_ptr<const models::ScenarioSpec> spec;

    std::string name() const { return spec->name; }

    std::string
    familyLabel() const
    {
        return models::scenarioFamilyLabel(*spec);
    }

    models::WorkUnit unit() const { return models::scenarioWorkUnit(*spec); }

    std::string unitLabel() const
    {
        return models::workUnitName(unit());
    }
};

/**
 * The binary's workload axis: @p defaults as built-in scenarios, or —
 * under `--spec FILE` — the spec's scenarios (those identical to a
 * paper workload replaced by its built-in, models::canonicalScenario).
 */
inline std::vector<Scenario>
workloadAxis(const std::vector<models::Workload> &defaults)
{
    const auto &cli = benchCli();
    std::vector<Scenario> axis;
    if (!cli.hasSpec()) {
        axis.reserve(defaults.size());
        for (auto w : defaults)
            axis.push_back(Scenario{models::builtinScenario(w)});
        return axis;
    }
    axis.reserve(cli.scenarios.size());
    for (const auto &spec : cli.scenarios)
        axis.push_back(Scenario{models::canonicalScenario(spec)});
    return axis;
}

/**
 * The sweep case of one axis entry on @p gen (sim::scenarioCase:
 * @p params plus the spec's gating overrides).
 */
inline sim::SweepCase
caseFor(const Scenario &s, arch::NpuGeneration gen,
        const arch::GatingParams &params = {})
{
    return sim::scenarioCase(s.spec, gen, params);
}

/** Dense (axis x generations) grid, axis-major. */
inline std::vector<sim::SweepCase>
makeGrid(const std::vector<Scenario> &axis,
         const std::vector<arch::NpuGeneration> &gens,
         const arch::GatingParams &params = {})
{
    std::vector<sim::SweepCase> grid;
    grid.reserve(axis.size() * gens.size());
    for (const auto &s : axis) {
        for (auto gen : gens)
            grid.push_back(caseFor(s, gen, params));
    }
    return grid;
}

/** Simulate (axis entry, gen) pairs in parallel, input-ordered. */
inline std::vector<sim::WorkloadReport>
simulateAll(const std::vector<Scenario> &axis,
            const std::vector<arch::NpuGeneration> &gens,
            const arch::GatingParams &params = {})
{
    return runGrid(makeGrid(axis, gens, params));
}

/**
 * Walk simulateAll results in consumption order: returns the report
 * at @p idx and advances it, checking the report really is the
 * (scenario, gen) the caller's loop expects — so a consumption loop
 * that falls out of step with makeGrid's axis-major grid order fails
 * loudly instead of silently showing another case's numbers.
 */
inline const sim::WorkloadReport &
reportFor(const std::vector<sim::WorkloadReport> &reports,
          std::size_t &idx, const Scenario &s, arch::NpuGeneration gen)
{
    const auto &rep = reports.at(idx++);
    REGATE_CHECK(rep.scenario == s.spec && rep.gen == gen,
                 "report order mismatch at index ", idx - 1,
                 ": expected ", s.name(), "/",
                 arch::generationName(gen), ", got ",
                 rep.scenario ? rep.scenario->name : "(none)", "/",
                 arch::generationName(rep.gen));
    return rep;
}

/**
 * Print the standard bench banner — except in `--cases` mode (the
 * query must print a bare number).
 */
inline void
banner(const std::string &artifact, const std::string &caption)
{
    if (benchCli().casesOnly)
        return;
    std::cout << "==============================================="
                 "=============\n"
              << artifact << ": " << caption << "\n"
              << "==============================================="
                 "=============\n";
}

/** The generations most figures sweep (A..D; E only in Fig. 23). */
inline std::vector<arch::NpuGeneration>
paperGenerations()
{
    return {arch::NpuGeneration::A, arch::NpuGeneration::B,
            arch::NpuGeneration::C, arch::NpuGeneration::D};
}

/** The §6.5 sensitivity workload set. */
inline std::vector<models::Workload>
sensitivityWorkloads()
{
    return {models::Workload::Train405B, models::Workload::Prefill405B,
            models::Workload::Decode405B, models::Workload::DlrmL,
            models::Workload::DiTXL};
}

/** Short generation label ("A".."E"). */
inline std::string
genLabel(arch::NpuGeneration gen)
{
    return arch::generationName(gen);
}

}  // namespace bench
}  // namespace regate

#endif  // REGATE_BENCH_BENCH_UTIL_H
