/**
 * @file
 * google-benchmark micro-benchmarks of the simulator substrate plus
 * the core-speedup trajectory cases.
 *
 * Besides the registered google-benchmark cases, main() times the
 * current hot-path implementations against faithful replicas of the
 * seed algorithms (linear-scan gap multisets, O(repeat) seam removal,
 * uncached operator simulation, serial sweeps) on a repeated-block
 * LLM decode workload, verifies the results are identical, and writes
 * the measurements to BENCH_core.json so CI can track the perf
 * trajectory. Run with --benchmark_filter=... to select
 * google-benchmark cases; pass --core-only to skip them entirely.
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
#include "compiler/compiler.h"
#include "obs/metrics.h"
#include "core/gating_engine.h"
#include "ici/collective.h"
#include "ici/topology.h"
#include "mem/sram_allocator.h"
#include "sa/sa_analytical.h"
#include "sa/systolic_array.h"
#include "sim/graph_cache.h"
#include "sim/slo.h"
#include "sim/sweep.h"

namespace {

using namespace regate;
using core::ActivityTimeline;
using core::GapGroup;

// ====================================================================
// Seed-algorithm replicas (the pre-overhaul hot path), used as the
// timing baseline. These mirror the original ActivityTimeline code:
// addGap linear-scans the multiset, append re-sorts it, repeated
// removes seam gaps one pair per iteration.
// ====================================================================

struct SeedTimeline
{
    Cycles span = 0;
    Cycles active = 0;
    std::uint64_t activations = 0;
    std::vector<GapGroup> gaps;
    Cycles lead = 0;
    Cycles trail = 0;
};

SeedTimeline
toSeed(const ActivityTimeline &t)
{
    return {t.span(),        t.activeCycles(), t.activations(),
            t.gaps(),        t.leadingIdle(),  t.trailingIdle()};
}

void
seedAddGap(std::vector<GapGroup> &gaps, Cycles length,
           std::uint64_t count)
{
    if (length == 0 || count == 0)
        return;
    for (auto &g : gaps) {
        if (g.length == length) {
            g.count += count;
            return;
        }
    }
    gaps.push_back({length, count});
}

void
seedRemoveOneGap(std::vector<GapGroup> &gaps, Cycles length)
{
    if (length == 0)
        return;
    for (auto it = gaps.begin(); it != gaps.end(); ++it) {
        if (it->length == length) {
            if (--it->count == 0)
                gaps.erase(it);
            return;
        }
    }
    throw LogicError("seedRemoveOneGap: no gap of requested length");
}

void
seedSortGaps(std::vector<GapGroup> &gaps)
{
    std::sort(gaps.begin(), gaps.end(),
              [](const GapGroup &a, const GapGroup &b) {
                  return a.length < b.length;
              });
}

void
seedAppend(SeedTimeline &a, const SeedTimeline &b)
{
    if (b.span == 0)
        return;
    if (a.span == 0) {
        a = b;
        return;
    }
    bool a_ends_active = a.active > 0 && a.trail == 0;
    bool b_starts_active = b.active > 0 && b.lead == 0;
    bool a_all_idle = a.active == 0;
    bool b_all_idle = b.active == 0;

    Cycles seam = a.trail + b.lead;
    seedRemoveOneGap(a.gaps, a.trail);
    std::vector<GapGroup> b_gaps = b.gaps;
    seedRemoveOneGap(b_gaps, b.lead);
    for (const auto &g : b_gaps)
        seedAddGap(a.gaps, g.length, g.count);
    seedAddGap(a.gaps, seam, 1);
    seedSortGaps(a.gaps);

    a.activations += b.activations;
    if (seam == 0 && a_ends_active && b_starts_active)
        a.activations -= 1;
    a.span += b.span;
    a.active += b.active;
    a.lead = a_all_idle ? seam : a.lead;
    a.trail = b_all_idle ? seam : b.trail;
}

SeedTimeline
seedRepeated(const SeedTimeline &t, std::uint64_t times)
{
    if (times == 0)
        return SeedTimeline();
    if (times == 1 || t.span == 0)
        return t;

    SeedTimeline out;
    out.span = t.span * times;
    if (t.active == 0) {
        out.gaps.push_back({out.span, 1});
        out.lead = out.trail = out.span;
        return out;
    }
    out.active = t.active * times;
    out.gaps = t.gaps;
    for (auto &g : out.gaps)
        g.count *= times;

    Cycles seam = t.trail + t.lead;
    std::uint64_t seams = times - 1;
    for (std::uint64_t i = 0; i < seams; ++i) {
        seedRemoveOneGap(out.gaps, t.trail);
        seedRemoveOneGap(out.gaps, t.lead);
    }
    seedAddGap(out.gaps, seam, seams);
    seedSortGaps(out.gaps);

    out.activations = t.activations * times - (seam == 0 ? seams : 0);
    out.lead = t.lead;
    out.trail = t.trail;
    return out;
}

// ====================================================================
// Core-speedup timing harness
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
    double seed_ns = 0;
    double new_ns = 0;
    /**
     * Gated cases enforce the 5x floor here and the >20% slowdown
     * check in CI; ungated cases (pool scaling, closed-form op
     * memoization) are machine-dependent and tracked for the
     * trajectory only.
     */
    bool gated = false;
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

/**
 * Per-op component timelines and block repeats of a compiled LLM
 * decode graph: the exact inputs the engine hot path composes.
 */
struct BlockTimelines
{
    std::uint64_t repeat = 1;
    // One entry per op: the op's SA/VU/HBM/ICI timelines.
    std::vector<std::array<ActivityTimeline, 4>> ops;
};

std::vector<BlockTimelines>
decodeBlockTimelines(models::Workload w, arch::NpuGeneration gen,
                     std::uint64_t min_repeat)
{
    const auto &cfg = arch::npuConfig(gen);
    auto setup = models::defaultSetup(w, gen);
    auto compiled =
        compiler::compileGraph(models::buildGraph(w, setup), cfg);

    ici::Torus torus = ici::Torus::forChips(cfg, setup.chips);
    ici::CollectiveModel coll(cfg, torus);
    sim::OperatorSimulator op_sim(cfg, coll);

    std::vector<BlockTimelines> blocks;
    for (const auto &block : compiled.graph.blocks) {
        BlockTimelines bt;
        // The speedup case targets repeated blocks; lift small repeat
        // counts to the requested floor (>= 1024 per the perf goal).
        bt.repeat = std::max<std::uint64_t>(block.repeat, min_repeat);
        for (const auto &op : block.ops) {
            auto ex = op_sim.simulate(op);
            bt.ops.push_back({ex.timeline[arch::Component::Sa],
                              ex.timeline[arch::Component::Vu],
                              ex.timeline[arch::Component::Hbm],
                              ex.timeline[arch::Component::Ici]});
        }
        blocks.push_back(std::move(bt));
    }
    return blocks;
}

/** Compose all blocks with the seed algorithms; returns a checksum. */
std::uint64_t
composeSeed(const std::vector<BlockTimelines> &blocks)
{
    std::array<SeedTimeline, 4> run_tl;
    for (const auto &block : blocks) {
        std::array<SeedTimeline, 4> block_tl;
        for (const auto &op : block.ops)
            for (int c = 0; c < 4; ++c)
                seedAppend(block_tl[c], toSeed(op[c]));
        for (int c = 0; c < 4; ++c)
            seedAppend(run_tl[c],
                       seedRepeated(block_tl[c], block.repeat));
    }
    std::uint64_t sum = 0;
    for (const auto &t : run_tl) {
        sum += t.span + t.active + t.activations;
        for (const auto &g : t.gaps)
            sum += g.length * g.count;
    }
    return sum;
}

/** Compose all blocks with the current algorithms; same checksum. */
std::uint64_t
composeNew(const std::vector<BlockTimelines> &blocks)
{
    std::array<ActivityTimeline, 4> run_tl;
    for (const auto &block : blocks) {
        std::array<ActivityTimeline, 4> block_tl;
        for (const auto &op : block.ops)
            for (int c = 0; c < 4; ++c)
                block_tl[c].append(op[c]);
        for (int c = 0; c < 4; ++c)
            run_tl[c].append(block_tl[c].repeated(block.repeat));
    }
    std::uint64_t sum = 0;
    for (const auto &t : run_tl) {
        sum += t.span() + t.activeCycles() + t.activations();
        for (const auto &g : t.gaps())
            sum += g.length * g.count;
    }
    return sum;
}

/**
 * The headline case: compose the activity timelines of a real LLM
 * decode workload whose blocks repeat >= 1024 times, seed algorithm
 * vs current.
 */
CoreCase
caseRepeatedBlockCompose()
{
    CoreCase cc;
    cc.name = "llm_decode_block_compose";
    auto blocks = decodeBlockTimelines(models::Workload::Decode70B,
                                       arch::NpuGeneration::D, 1024);
    std::uint64_t max_repeat = 0;
    for (const auto &b : blocks)
        max_repeat = std::max(max_repeat, b.repeat);
    cc.extras.emplace_back("block_repeat_max",
                           static_cast<double>(max_repeat));

    constexpr int kPasses = 5;
    std::uint64_t seed_sum = 0, new_sum = 0;

    auto t0 = Clock::now();
    for (int i = 0; i < kPasses; ++i)
        seed_sum = composeSeed(blocks);
    cc.seed_ns = elapsedNs(t0) / kPasses;

    t0 = Clock::now();
    for (int i = 0; i < kPasses; ++i)
        new_sum = composeNew(blocks);
    cc.new_ns = elapsedNs(t0) / kPasses;

    if (seed_sum != new_sum)
        throw LogicError("seed/new timeline composition disagree");
    return cc;
}

/** Pure repeated(): seed O(repeat) seam loop vs O(log G) arithmetic. */
CoreCase
caseTimelineRepeated()
{
    CoreCase cc;
    cc.name = "timeline_repeated_64k";
    auto unit = ActivityTimeline::periodic(4096, 3, 16, 128);
    auto seed_unit = toSeed(unit);
    constexpr std::uint64_t kTimes = 1u << 16;
    constexpr int kPasses = 20;

    auto t0 = Clock::now();
    std::uint64_t sink = 0;
    for (int i = 0; i < kPasses; ++i)
        sink += seedRepeated(seed_unit, kTimes).activations;
    cc.seed_ns = elapsedNs(t0) / kPasses;

    t0 = Clock::now();
    std::uint64_t sink2 = 0;
    for (int i = 0; i < kPasses; ++i)
        sink2 += unit.repeated(kTimes).activations();
    cc.new_ns = elapsedNs(t0) / kPasses;

    if (sink != sink2)
        throw LogicError("seed/new repeated() disagree");
    return cc;
}

/**
 * Memoized rerun: re-simulating a grid point whose run is already in
 * the whole-run memo — a warm simulateWorkload, i.e. the steady-state
 * sweep path, which since the zero-copy refactor aliases the cached
 * run instead of deep-copying it — vs the seed behaviour of
 * re-running the engine with memoization disabled. The intermediate
 * warm-engine timing (operator cache hot, but the engine still
 * recomposing timelines/opRecords/policies) is kept as the
 * warm_engine_ns extra for the trajectory. Asserts the warm hits
 * perform zero WorkloadRun deep copies.
 */
CoreCase
caseEngineMemoization()
{
    CoreCase cc;
    cc.name = "engine_rerun_memoized";
    const auto gen = arch::NpuGeneration::D;
    const auto w = models::Workload::Decode70B;
    const auto &cfg = arch::npuConfig(gen);
    auto setup = models::defaultSetup(w, gen);
    auto compiled =
        compiler::compileGraph(models::buildGraph(w, setup), cfg);

    // Averaged over enough runs that the µs-scale per-run time is
    // stable for the CI trajectory check.
    constexpr int kRuns = 256;

    sim::Engine cold(cfg);
    cold.setMemoization(false);
    auto t0 = Clock::now();
    double sink = 0;
    for (int i = 0; i < kRuns; ++i) {
        auto run = cold.run(compiled.graph, setup.chips);
        sink += run.result(sim::Policy::Full).energy.busyTotal();
    }
    cc.seed_ns = elapsedNs(t0) / kRuns;

    sim::Engine warm(cfg);
    t0 = Clock::now();
    double sink2 = 0;
    std::uint64_t hits = 0;
    for (int i = 0; i < kRuns; ++i) {
        auto run = warm.run(compiled.graph, setup.chips);
        sink2 += run.result(sim::Policy::Full).energy.busyTotal();
        hits += run.opCacheHits;
    }
    cc.extras.emplace_back("warm_engine_ns", elapsedNs(t0) / kRuns);
    cc.extras.emplace_back("cache_hits", static_cast<double>(hits));
    cc.extras.emplace_back("cache_entries",
                           static_cast<double>(warm.opCache().size()));

    // The memoized rerun itself: default setup and params, so this
    // replays the exact point the engine loops above simulate.
    sim::clearSharedCaches();
    auto prime = sim::simulateWorkload(w, gen);
    auto copies_before = sim::WorkloadRun::copies();
    t0 = Clock::now();
    double sink3 = 0;
    for (int i = 0; i < kRuns; ++i) {
        auto rep = sim::simulateWorkload(w, gen);
        sink3 +=
            rep.run().result(sim::Policy::Full).energy.busyTotal();
    }
    cc.new_ns = elapsedNs(t0) / kRuns;
    if (sim::WorkloadRun::copies() != copies_before)
        throw LogicError("warm simulateWorkload copied the run");
    cc.extras.emplace_back("run_copies", 0.0);

    if (sink != sink2 || sink != sink3)
        throw LogicError("memoized rerun changed results");
    return cc;
}

/**
 * BM_WarmHitCost: per-hit cost of the warm simulateWorkload path vs
 * a faithful replica of the seed warm hit, which deep-copied the
 * memoized run — array-of-structs opRecords with one heap string per
 * record, six gap-multiset timelines, and the policy table — into
 * every report. Timed per batch of kHits hits so the measurement
 * sits well above CI's clock-resolution noise floor, and asserts the
 * new path performs zero WorkloadRun deep copies.
 */
CoreCase
caseWarmHitCost()
{
    CoreCase cc;
    cc.name = "BM_WarmHitCost";
    const auto w = models::Workload::Decode70B;
    const auto gen = arch::NpuGeneration::D;

    sim::clearSharedCaches();
    auto rep = sim::simulateWorkload(w, gen);
    const auto &run = rep.run();

    // Seed-representation replica of the memoized run: the pre-arena
    // WorkloadRun stored opRecords as a vector of structs, each with
    // its own heap-allocated name.
    struct SeedOpRecord
    {
        std::string name;
        graph::OpKind kind;
        std::uint64_t count;
        Cycles duration;
        double sramDemandBytes;
        double dynamicJ;
        double sramUsedFrac;
        arch::ComponentMap<double> activeFrac;
    };
    struct SeedRun
    {
        std::string name;
        Cycles cycles = 0;
        double seconds = 0;
        arch::ComponentMap<ActivityTimeline> timeline;
        double sramUsedIntegral = 0;
        std::vector<SeedOpRecord> opRecords;
        std::array<sim::PolicyResult, sim::kNumPolicies> policies;
    };
    SeedRun cached;
    cached.name = run.name;
    cached.cycles = run.cycles;
    cached.seconds = run.seconds;
    cached.timeline = run.timeline;
    cached.sramUsedIntegral = run.sramUsedIntegral;
    cached.policies = run.policies;
    for (auto rec : run.opRecords) {
        SeedOpRecord s;
        s.name = rec.name();
        s.kind = rec.kind();
        s.count = rec.count();
        s.duration = rec.duration();
        s.sramDemandBytes = rec.sramDemandBytes();
        s.dynamicJ = rec.dynamicJ();
        s.sramUsedFrac = rec.sramUsedFrac();
        for (auto c : arch::kAllComponents)
            s.activeFrac[c] = rec.activeFrac(c);
        cached.opRecords.push_back(std::move(s));
    }

    constexpr int kHits = 4096;
    constexpr int kPasses = 3;
    cc.extras.emplace_back("hits_per_pass",
                           static_cast<double>(kHits));
    cc.extras.emplace_back("op_records",
                           static_cast<double>(run.opRecords.size()));

    double sink_seed = 0;
    auto t0 = Clock::now();
    for (int p = 0; p < kPasses; ++p) {
        for (int i = 0; i < kHits; ++i) {
            SeedRun copy = cached;  // The seed warm hit: a deep copy.
            sink_seed += copy.seconds +
                         static_cast<double>(copy.opRecords.size());
        }
    }
    cc.seed_ns = elapsedNs(t0) / kPasses;

    auto copies_before = sim::WorkloadRun::copies();
    double sink_new = 0;
    t0 = Clock::now();
    for (int p = 0; p < kPasses; ++p) {
        for (int i = 0; i < kHits; ++i) {
            auto hit = sim::simulateWorkload(w, gen);
            sink_new +=
                hit.run().seconds +
                static_cast<double>(hit.run().opRecords.size());
        }
    }
    cc.new_ns = elapsedNs(t0) / kPasses;
    if (sim::WorkloadRun::copies() != copies_before)
        throw LogicError("warm simulateWorkload hit copied the run");
    cc.extras.emplace_back("run_copies", 0.0);

    if (sink_seed != sink_new)
        throw LogicError("seed-replica / warm-hit results disagree");
    return cc;
}

/**
 * BM_MetricsOverhead: cost of enabled telemetry on the hottest
 * steady-state path — the warm simulateWorkload hit, whose shared
 * caches mirror their counters onto obs::MetricsRegistry (a couple
 * of relaxed atomic adds per hit). seed_ns is the same batch with
 * the registry runtime-disabled, so speedup ~= 1.0 and any drop
 * below 0.98 means enabled-but-idle telemetry costs more than the
 * 2% budget. Modes alternate round-by-round and each takes its best
 * round, so drift and scheduling noise hit both sides alike.
 */
CoreCase
caseMetricsOverhead()
{
    CoreCase cc;
    cc.name = "BM_MetricsOverhead";
    const auto w = models::Workload::Decode70B;
    const auto gen = arch::NpuGeneration::D;

    sim::clearSharedCaches();
    auto prime = sim::simulateWorkload(w, gen);

    constexpr int kHits = 4096;
    constexpr int kRounds = 7;
    auto timeBatch = [&] {
        auto t0 = Clock::now();
        double sink = 0;
        for (int i = 0; i < kHits; ++i)
            sink += sim::simulateWorkload(w, gen).run().seconds;
        benchmark::DoNotOptimize(sink);
        return elapsedNs(t0);
    };

    auto best_off = std::numeric_limits<double>::infinity();
    auto best_on = best_off;
    for (int r = 0; r < kRounds; ++r) {
        obs::MetricsRegistry::setEnabled(false);
        best_off = std::min(best_off, timeBatch());
        obs::MetricsRegistry::setEnabled(true);
        best_on = std::min(best_on, timeBatch());
    }
    obs::MetricsRegistry::setEnabled(true);

    cc.seed_ns = best_off;
    cc.new_ns = best_on;
    cc.extras.emplace_back("hits_per_round",
                           static_cast<double>(kHits));
    cc.extras.emplace_back("overhead_frac",
                           best_on / best_off - 1.0);
    return cc;
}

/**
 * Graph/run cache: warm simulateWorkload (memoized run replayed) vs
 * cold (graph + run caches cleared before every run, so the graph is
 * rebuilt, recompiled, and re-run through the engine — the seed
 * behaviour). The operator cache is hot on both sides, isolating the
 * new cache subsystem itself, and the cold/warm reports must be
 * bitwise identical.
 */
CoreCase
caseGraphCacheWarmRun()
{
    CoreCase cc;
    cc.name = "simulate_workload_graph_cache";
    const auto w = models::Workload::Decode70B;
    const auto gen = arch::NpuGeneration::D;

    // Prime every cache once so both timed paths run with hot
    // operator memoization.
    sim::clearSharedCaches();
    auto warm_ref = sim::simulateWorkload(w, gen);

    auto energySum = [](const sim::WorkloadReport &rep) {
        double s = 0;
        for (auto p : sim::allPolicies())
            s += rep.run().result(p).energy.busyTotal();
        return s;
    };
    auto identicalRuns = [](const sim::WorkloadRun &a,
                            const sim::WorkloadRun &b) {
        bool same = a.cycles == b.cycles && a.seconds == b.seconds;
        for (auto p : sim::allPolicies()) {
            const auto &ra = a.result(p);
            const auto &rb = b.result(p);
            same = same &&
                   std::memcmp(&ra.energy, &rb.energy,
                               sizeof(ra.energy)) == 0 &&
                   ra.overheadCycles == rb.overheadCycles &&
                   ra.seconds == rb.seconds &&
                   ra.peakPowerW == rb.peakPowerW;
        }
        return same;
    };

    // Averaged over enough runs that the µs-scale per-run time is
    // stable for the CI trajectory check.
    constexpr int kRuns = 64;

    auto t0 = Clock::now();
    double sink_cold = 0;
    sim::WorkloadReport cold_rep;
    for (int i = 0; i < kRuns; ++i) {
        sim::sharedGraphCache().clear();
        sim::sharedRunCache().clear();
        cold_rep = sim::simulateWorkload(w, gen);
        sink_cold += energySum(cold_rep);
    }
    cc.seed_ns = elapsedNs(t0) / kRuns;

    t0 = Clock::now();
    double sink_warm = 0;
    sim::WorkloadReport warm_rep;
    for (int i = 0; i < kRuns; ++i) {
        warm_rep = sim::simulateWorkload(w, gen);
        sink_warm += energySum(warm_rep);
    }
    cc.new_ns = elapsedNs(t0) / kRuns;

    if (sink_cold != sink_warm ||
        !identicalRuns(cold_rep.run(), warm_rep.run()) ||
        !identicalRuns(warm_ref.run(), warm_rep.run()))
        throw LogicError("graph cache changed simulation results");
    cc.extras.emplace_back(
        "graph_cache_entries",
        static_cast<double>(sim::sharedGraphCache().size()));
    cc.extras.emplace_back(
        "run_cache_entries",
        static_cast<double>(sim::sharedRunCache().size()));
    cc.extras.emplace_back("identical", 1.0);
    return cc;
}

/**
 * Sweep runner: serial loop vs worker pool over a small grid, with a
 * bitwise equality check of the energy/overhead numbers.
 */
CoreCase
caseParallelSweep()
{
    CoreCase cc;
    cc.name = "sweep_parallel_vs_serial";
    auto grid = sim::makeGrid(
        {models::Workload::Prefill8B, models::Workload::Decode8B,
         models::Workload::DlrmS},
        {arch::NpuGeneration::C, arch::NpuGeneration::D});

    // Untimed warm-up pass to touch every code path once; each timed
    // pass then starts from cleared run/graph caches (keeping the
    // operator cache warm) so both genuinely re-simulate every grid
    // point instead of replaying the whole-run memo, and the
    // comparison isolates the worker pool.
    sim::SweepRunner::runSerial(grid);

    auto clearRunLevelCaches = [] {
        sim::sharedRunCache().clear();
        sim::sharedGraphCache().clear();
    };

    // Averaged over several passes for a stable CI trajectory.
    constexpr int kPasses = 8;

    std::vector<sim::WorkloadReport> serial;
    auto t0 = Clock::now();
    for (int i = 0; i < kPasses; ++i) {
        clearRunLevelCaches();
        serial = sim::SweepRunner::runSerial(grid);
    }
    cc.seed_ns = elapsedNs(t0) / kPasses;

    sim::SweepRunner runner;
    std::vector<sim::WorkloadReport> parallel;
    t0 = Clock::now();
    for (int i = 0; i < kPasses; ++i) {
        clearRunLevelCaches();
        parallel = runner.run(grid);
    }
    cc.new_ns = elapsedNs(t0) / kPasses;
    cc.extras.emplace_back("threads",
                           static_cast<double>(runner.threadCount()));

    bool identical = serial.size() == parallel.size();
    for (std::size_t i = 0; identical && i < serial.size(); ++i) {
        for (auto p : sim::allPolicies()) {
            const auto &a = serial[i].run().result(p);
            const auto &b = parallel[i].run().result(p);
            identical = identical &&
                        std::memcmp(&a.energy, &b.energy,
                                    sizeof(a.energy)) == 0 &&
                        a.overheadCycles == b.overheadCycles &&
                        a.seconds == b.seconds;
        }
    }
    if (!identical)
        throw LogicError("parallel sweep diverged from serial sweep");
    cc.extras.emplace_back("identical", 1.0);
    return cc;
}

bool
writeBenchJson(const std::vector<CoreCase> &cases,
               const std::string &path)
{
    std::ofstream out(path);
    out << "{\n  \"bench\": \"core\",\n  \"cases\": [\n";
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const auto &c = cases[i];
        // JSON has no infinity literal; clamp the
        // below-clock-resolution case to a finite sentinel.
        out << "    {\"name\": \"" << c.name << "\", \"seed_ns\": "
            << c.seed_ns << ", \"new_ns\": " << c.new_ns
            << ", \"speedup\": " << std::min(c.speedup(), 1e12)
            << ", \"gated\": " << (c.gated ? 1 : 0);
        for (const auto &[k, v] : c.extras)
            out << ", \"" << k << "\": " << v;
        out << "}" << (i + 1 < cases.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    out.flush();
    return out.good();
}

int
runCoreCases()
{
    std::vector<CoreCase> cases;
    cases.push_back(caseTimelineRepeated());
    cases.push_back(caseRepeatedBlockCompose());
    cases.push_back(caseEngineMemoization());
    cases.push_back(caseWarmHitCost());
    cases.push_back(caseMetricsOverhead());
    cases.push_back(caseGraphCacheWarmRun());
    cases.push_back(caseParallelSweep());

    std::cout << "==== core speedup cases (seed algorithm vs current) "
                 "====\n";
    bool ok = true;
    for (auto &c : cases) {
        std::cout << "  " << c.name << ": seed " << c.seed_ns / 1e6
                  << " ms, new " << c.new_ns / 1e6 << " ms, speedup "
                  << c.speedup() << "x\n";
        // The headline timeline-algebra cases, the compiled-graph
        // cache case, and the zero-copy warm-hit cases regression-
        // gate CI. The sweep case is reported for the trajectory
        // only: its scaling depends on the machine's core count.
        c.gated = c.name == "timeline_repeated_64k" ||
                  c.name == "llm_decode_block_compose" ||
                  c.name == "engine_rerun_memoized" ||
                  c.name == "BM_WarmHitCost" ||
                  c.name == "BM_MetricsOverhead" ||
                  c.name == "simulate_workload_graph_cache";
        // BM_WarmHitCost is exempt from the in-process 5x floor: its
        // seed baseline is a single deep copy of the cached run, and
        // the warm hit beating even that ~3x is the point being
        // pinned — the >=5x whole-path win is enforced through
        // engine_rerun_memoized (cold re-simulation vs warm replay).
        // BM_MetricsOverhead's baseline is the SAME path with
        // telemetry disabled, so its target is parity, not 5x: it
        // fails when enabled telemetry costs more than 2%.
        bool parity = c.name == "BM_MetricsOverhead";
        bool floor = c.gated && c.name != "BM_WarmHitCost" &&
                     !parity;
        if (floor && c.speedup() < 5.0) {
            std::cerr << "FAIL: " << c.name
                      << " speedup below the 5x target\n";
            ok = false;
        }
        if (parity && c.speedup() < 0.98) {
            std::cerr << "FAIL: " << c.name << " — enabled telemetry "
                      << "costs more than 2% on the warm hit path\n";
            ok = false;
        }
    }
    if (writeBenchJson(cases, "BENCH_core.json")) {
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
BM_TimelineRepeatedSeedAlgorithm(benchmark::State &state)
{
    auto unit =
        toSeed(core::ActivityTimeline::periodic(4096, 3, 16, 128));
    for (auto _ : state)
        benchmark::DoNotOptimize(seedRepeated(unit, 1u << 20));
}
BENCHMARK(BM_TimelineRepeatedSeedAlgorithm);

void
BM_SramAllocator(benchmark::State &state)
{
    Prng rng(7);
    for (auto _ : state) {
        mem::SramAllocator alloc(128u << 20, 4096);
        for (int i = 0; i < 200; ++i) {
            std::uint64_t start = i;
            try {
                alloc.allocate((1 + rng.uniform(0, 63)) << 12, start,
                               start + 1 + rng.uniform(0, 9));
            } catch (const ConfigError &) {
            }
        }
        benchmark::DoNotOptimize(alloc.peakBytes());
    }
}
BENCHMARK(BM_SramAllocator);

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
    // Steady-state (warm) path: after the first iteration this is a
    // whole-run cache replay.
    for (auto _ : state) {
        benchmark::DoNotOptimize(sim::simulateWorkload(
            models::Workload::Prefill70B, arch::NpuGeneration::D));
    }
}
BENCHMARK(BM_WholeWorkloadSimulation);

void
BM_WholeWorkloadSimulationCold(benchmark::State &state)
{
    // Genuinely cold path: every shared cache dropped per iteration,
    // so build + compile + operator simulation all rerun.
    for (auto _ : state) {
        sim::clearSharedCaches();
        benchmark::DoNotOptimize(sim::simulateWorkload(
            models::Workload::Prefill70B, arch::NpuGeneration::D));
    }
}
BENCHMARK(BM_WholeWorkloadSimulationCold);

void
BM_SloSearch(benchmark::State &state)
{
    // Steady-state (warm) path: after the first iteration every
    // candidate evaluation is a whole-run cache replay.
    for (auto _ : state) {
        benchmark::DoNotOptimize(sim::findBestSetup(
            models::Workload::DlrmM, arch::NpuGeneration::D));
    }
}
BENCHMARK(BM_SloSearch);

void
BM_SloSearchCold(benchmark::State &state)
{
    // Genuinely cold path: every shared cache dropped per iteration,
    // so each candidate setup is rebuilt, recompiled, and re-run.
    for (auto _ : state) {
        sim::clearSharedCaches();
        benchmark::DoNotOptimize(sim::findBestSetup(
            models::Workload::DlrmM, arch::NpuGeneration::D));
    }
}
BENCHMARK(BM_SloSearchCold);

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
