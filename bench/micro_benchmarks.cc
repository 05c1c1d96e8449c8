/**
 * @file
 * google-benchmark micro-benchmarks of the simulator substrate plus
 * the one gated core case.
 *
 * Besides the registered google-benchmark cases, main() times
 * engine_price_many — a sweep's five gating points priced off one
 * execution against five full simulations — verifies the two agree
 * bitwise, and writes the measurement to BENCH_core.json so CI can
 * track the perf trajectory. Run with --benchmark_filter=... to
 * select google-benchmark cases; pass --core-only to skip them
 * entirely.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "common/prng.h"
#include "core/gating_engine.h"
#include "ici/collective.h"
#include "ici/topology.h"
#include "sa/sa_analytical.h"
#include "sa/systolic_array.h"
#include "sim/report.h"
#include "sim/slo.h"

namespace {

using namespace regate;

// ====================================================================
// Core-case timing harness
// ====================================================================

using Clock = std::chrono::steady_clock;

double
elapsedNs(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

struct CoreCase
{
    std::string name;
    /** Baseline time: five full simulations, one per point. */
    double seed_ns = 0;
    double new_ns = 0;
    std::vector<std::pair<std::string, double>> extras;

    double
    speedup() const
    {
        // A new time below clock resolution counts as infinitely
        // faster, not as a regression.
        return new_ns > 0 ? seed_ns / new_ns
                          : std::numeric_limits<double>::infinity();
    }
};

/** Bitwise equality of every policy result two runs report. */
bool
samePolicies(const sim::WorkloadRun &a, const sim::WorkloadRun &b)
{
    bool same = a.cycles == b.cycles && a.seconds == b.seconds;
    for (auto p : sim::allPolicies()) {
        const auto &ra = a.result(p);
        const auto &rb = b.result(p);
        same = same &&
               std::memcmp(&ra.energy, &rb.energy, sizeof(ra.energy)) ==
                   0 &&
               ra.overheadCycles == rb.overheadCycles &&
               ra.seconds == rb.seconds && ra.peakPowerW == rb.peakPowerW &&
               ra.vuGateEvents == rb.vuGateEvents &&
               ra.sramSetpmPairs == rb.sramSetpmPairs;
    }
    return same;
}

/**
 * engine_price_many: Fig. 21's five leakage points on Train405B/D,
 * priced off one execution (build + compile + Engine::execute once,
 * Engine::price five times — what a grouped sweep does) vs five full
 * simulations, one per point. Every policy result must match bitwise.
 */
CoreCase
caseEnginePriceMany()
{
    CoreCase cc;
    cc.name = "engine_price_many";
    const auto w = models::Workload::Train405B;
    const auto gen = arch::NpuGeneration::D;
    const double settings[][3] = {{0.03, 0.25, 0.002},
                                  {0.1, 0.3, 0.01},
                                  {0.2, 0.4, 0.1},
                                  {0.4, 0.5, 0.25},
                                  {0.6, 0.8, 0.4}};
    std::vector<arch::GatingParams> points;
    for (const auto &s : settings) {
        arch::LeakageRatios r;
        r.logicOff = s[0];
        r.sramSleep = s[1];
        r.sramOff = s[2];
        points.emplace_back(r);
    }
    cc.extras.emplace_back("points", static_cast<double>(points.size()));

    // One pass is tens of µs; enough passes for a stable ratio.
    constexpr int kPasses = 256;
    std::vector<sim::WorkloadReport> full, priced;
    auto t0 = Clock::now();
    for (int i = 0; i < kPasses; ++i) {
        full.clear();
        for (const auto &p : points)
            full.push_back(sim::simulateWorkload(w, gen, p));
    }
    cc.seed_ns = elapsedNs(t0) / kPasses;

    t0 = Clock::now();
    for (int i = 0; i < kPasses; ++i) {
        priced.clear();
        auto ex = sim::executeScenario(models::builtinScenario(w), gen);
        for (const auto &p : points)
            priced.push_back(sim::priceReport(ex, p));
    }
    cc.new_ns = elapsedNs(t0) / kPasses;

    for (std::size_t i = 0; i < points.size(); ++i) {
        if (!samePolicies(full[i].run(), priced[i].run()))
            throw LogicError("priced run differs from a full run");
    }
    cc.extras.emplace_back("identical", 1.0);
    return cc;
}

bool
writeBenchJson(const CoreCase &c, const std::string &path)
{
    std::ofstream out(path);
    // JSON has no infinity literal; clamp the below-clock-resolution
    // case to a finite sentinel.
    out << "{\n  \"bench\": \"core\",\n  \"cases\": [\n"
        << "    {\"name\": \"" << c.name << "\", \"seed_ns\": "
        << c.seed_ns << ", \"new_ns\": " << c.new_ns
        << ", \"speedup\": " << std::min(c.speedup(), 1e12)
        << ", \"gated\": 1";
    for (const auto &[k, v] : c.extras)
        out << ", \"" << k << "\": " << v;
    out << "}\n  ]\n}\n";
    out.flush();
    return out.good();
}

int
runCoreCases()
{
    auto c = caseEnginePriceMany();
    std::cout << "==== core case ====\n"
              << "  " << c.name << ": full runs " << c.seed_ns / 1e6
              << " ms, priced " << c.new_ns / 1e6 << " ms, speedup "
              << c.speedup() << "x\n";
    bool ok = true;
    // Pricing one execution five times saves four of five executions
    // but still pays five pricings: it must beat five full runs.
    if (c.speedup() < 1.0) {
        std::cerr << "FAIL: " << c.name
                  << " — pricing one execution five times is slower "
                     "than five full runs\n";
        ok = false;
    }
    if (writeBenchJson(c, "BENCH_core.json")) {
        std::cout << "wrote BENCH_core.json\n";
    } else {
        std::cerr << "FAIL: could not write BENCH_core.json\n";
        ok = false;
    }
    return ok ? 0 : 1;
}

// ====================================================================
// google-benchmark cases
// ====================================================================

void
BM_SystolicArrayCycleSim(benchmark::State &state)
{
    const int width = static_cast<int>(state.range(0));
    sa::Matrix w(width, width), x(2 * width, width);
    Prng rng(1);
    for (int i = 0; i < width; ++i)
        for (int j = 0; j < width; ++j)
            w.at(i, j) = 1.0 + rng.uniform(0, 7);
    for (int i = 0; i < 2 * width; ++i)
        for (int j = 0; j < width; ++j)
            x.at(i, j) = rng.uniform(0, 9);
    for (auto _ : state) {
        sa::SystolicArray sim(width, true);
        sim.loadWeights(w);
        benchmark::DoNotOptimize(sim.run(x));
    }
    state.SetItemsProcessed(state.iterations() * 2 * width * width *
                            width);
}
BENCHMARK(BM_SystolicArrayCycleSim)->Arg(8)->Arg(16)->Arg(32);

void
BM_SaAnalytical(benchmark::State &state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            sa::analyzeMatmul(65536, 8192, 1280, 128));
    }
}
BENCHMARK(BM_SaAnalytical);

void
BM_GatingEngineEvaluate(benchmark::State &state)
{
    arch::GatingParams params;
    auto t = core::ActivityTimeline::periodic(1u << 20, 0, 8, 1024);
    core::UnitSpec spec{arch::GatedUnit::Vu, 5.0, 1e-9};
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::evaluateTimeline(
            t, spec, core::GatingMode::SwExact, params));
    }
}
BENCHMARK(BM_GatingEngineEvaluate);

void
BM_TimelineAppend(benchmark::State &state)
{
    auto unit = core::ActivityTimeline::periodic(4096, 3, 16, 128);
    for (auto _ : state) {
        core::ActivityTimeline acc;
        for (int i = 0; i < 256; ++i)
            acc.append(unit);
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_TimelineAppend);

void
BM_TimelineRepeated(benchmark::State &state)
{
    auto unit = core::ActivityTimeline::periodic(4096, 3, 16, 128);
    for (auto _ : state)
        benchmark::DoNotOptimize(unit.repeated(1u << 20));
}
BENCHMARK(BM_TimelineRepeated);

void
BM_CollectiveModel(benchmark::State &state)
{
    const auto &cfg = arch::npuConfig(arch::NpuGeneration::D);
    ici::Torus torus = ici::Torus::forChips(cfg, 64);
    ici::CollectiveModel coll(cfg, torus);
    for (auto _ : state) {
        benchmark::DoNotOptimize(coll.seconds(
            ici::CollectiveKind::AllReduce, 256u << 20));
    }
}
BENCHMARK(BM_CollectiveModel);

void
BM_WholeWorkloadSimulation(benchmark::State &state)
{
    // Build + compile + execute + price on every iteration.
    for (auto _ : state) {
        benchmark::DoNotOptimize(sim::simulateWorkload(
            models::Workload::Prefill70B, arch::NpuGeneration::D));
    }
}
BENCHMARK(BM_WholeWorkloadSimulation);

void
BM_SloSearch(benchmark::State &state)
{
    // Every candidate setup is built, compiled and simulated.
    for (auto _ : state) {
        benchmark::DoNotOptimize(sim::findBestSetup(
            models::builtinScenario(models::Workload::DlrmM),
            arch::NpuGeneration::D));
    }
}
BENCHMARK(BM_SloSearch);

}  // namespace

int
main(int argc, char **argv)
{
    // --core-only: just the core cases. A --benchmark_* flag without
    // --core-only selects google-benchmark cases and skips the core
    // harness (and its BENCH_core.json write). Default: both.
    bool core_only = false;
    bool gbench_flags = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg(argv[i]);
        if (arg == "--core-only")
            core_only = true;
        else if (arg.rfind("--benchmark_", 0) == 0)
            gbench_flags = true;
    }

    int rc = 0;
    if (core_only || !gbench_flags)
        rc = runCoreCases();
    if (core_only)
        return rc;

    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return rc;
}
