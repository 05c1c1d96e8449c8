/**
 * @file
 * The benchmark's traced, serial, in-process replay of one workload.
 *
 * Each workload is a list of legs, one per figure/table binary it
 * runs, and each leg is that binary's sweep grid: the same cases,
 * built from the same public calls (sim::scenarioCase,
 * sim::simulateWorkload/simulateScenario, sim::findBestSetupSerial).
 * Around every call into a layer this program records a span (name,
 * start, end, parent, case id) in memory and writes the spans as
 * Chrome trace-event JSON at exit, so the per-layer cost comes from
 * the benchmark's own code, not from spans inside the simulator.
 *
 * Per run-mode case it records:
 *   sim.report.simulate  the cached report path the binaries take;
 *   energy.account       energyPerUnit/podTotalEnergy per policy;
 *   probe                an uncached re-execution split by layer:
 *     models.build, compiler.compile, sim.engine.run (memo off),
 *     sim.opsim.simulate (OperatorSimulator::simulate on every op),
 *     core.evaluate (evaluateTimeline per component x policy mode).
 * The probe's run must equal the report's run field by field; a
 * difference counts as a mismatch. Search-mode legs (fig02, table4)
 * record one sim.slo.search span per case. Between legs the shared
 * caches are cleared, as each binary is its own process.
 *
 * After the replay, the run-mode legs are swept with
 * SweepRunner::runSerial and with SweepRunner::run at REGATE_THREADS
 * workers (caches cleared before each) for the parallel speed-up.
 *
 *   layer_trace --workload paper_suite|spec_sweep|sensitivity
 *               [--spec FILE] [--trace-out FILE]
 *
 * Without --trace-out no span is recorded; the serial time it prints
 * is then the untraced reference for the tracing overhead. The last
 * stdout line is a JSON object of timings and counters, with each
 * leg's case count under "leg_cases".
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"

#include "arch/gating_params.h"
#include "arch/npu_config.h"
#include "common/error.h"
#include "compiler/compiler.h"
#include "core/gating_engine.h"
#include "energy/power_model.h"
#include "ici/collective.h"
#include "ici/topology.h"
#include "models/registry.h"
#include "models/spec.h"
#include "models/workload.h"
#include "sim/engine.h"
#include "sim/graph_cache.h"
#include "sim/operator_sim.h"
#include "sim/report.h"
#include "sim/slo.h"
#include "sim/sweep.h"

namespace {

using namespace regate;
using Clock = std::chrono::steady_clock;

/** In-memory span recorder; a no-op unless enabled. */
class Tracer
{
  public:
    struct Rec
    {
        const char *name;
        Clock::time_point start;
        Clock::time_point end;
        long parent;  ///< Index of the enclosing span, -1 for a root.
        std::string caseId;
    };

    class Span
    {
      public:
        Span(Tracer &t, const char *name, const std::string &case_id = {})
            : t_(t), index_(-1)
        {
            if (!t_.enabled_)
                return;
            index_ = static_cast<long>(t_.recs_.size());
            long parent = t_.open_.empty() ? -1 : t_.open_.back();
            std::string id = case_id;
            if (id.empty() && parent >= 0)
                id = t_.recs_[parent].caseId;
            t_.recs_.push_back({name, Clock::now(), {}, parent, id});
            t_.open_.push_back(index_);
        }
        ~Span()
        {
            if (index_ < 0)
                return;
            t_.recs_[index_].end = Clock::now();
            t_.open_.pop_back();
        }
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer &t_;
        long index_;
    };

    explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now())
    {}

    /** Chrome trace-event JSON; span ids are the event order. */
    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        REGATE_CHECK(out.good(), "cannot open ", path);
        auto us = [&](Clock::time_point t) {
            return std::chrono::duration<double, std::micro>(t - epoch_)
                .count();
        };
        out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
        char buf[512];
        for (std::size_t i = 0; i < recs_.size(); ++i) {
            const auto &r = recs_[i];
            std::snprintf(buf, sizeof buf,
                          "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\","
                          "\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                          "\"id\":%zu,\"parent\":%ld,\"case\":\"%s\"}}",
                          i ? "," : "", r.name, us(r.start),
                          us(r.end) - us(r.start), i, r.parent,
                          r.caseId.c_str());
            out << buf;
        }
        out << "\n]}\n";
        REGATE_CHECK(out.good(), "cannot write ", path);
    }

  private:
    bool enabled_;
    Clock::time_point epoch_;
    std::vector<Rec> recs_;
    std::vector<long> open_;
};

enum class Mode { Run, Search };

/** One binary's grid: cases plus how the binary treats them. */
struct Leg
{
    std::string binary;
    Mode mode = Mode::Run;
    std::vector<sim::SweepCase> cases;
    bool parsesSpec = false;
};

/** Counters taken where the work happens. */
struct Counters
{
    std::uint64_t cases = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t modelOps = 0;
    std::uint64_t fusedOps = 0;
    std::uint64_t engineOps = 0;
    std::uint64_t gapGroups = 0;
    std::uint64_t sloSearches = 0;
    std::uint64_t sloCandidates = 0;
    std::uint64_t opHits = 0;
    std::uint64_t opLookups = 0;
    double checksum = 0;  ///< Keeps the energy calls observable.
};

// The grids below mirror bench/*.cc: the default axes, generations
// and per-case gating parameters of each figure/table binary. The
// replay prints each leg's case count, and perfbench/run.py checks it
// against the binary's own --cases count.

std::vector<arch::GatingParams>
leakageSettings()  // fig21
{
    const double settings[][3] = {{0.03, 0.25, 0.002},
                                  {0.1, 0.3, 0.01},
                                  {0.2, 0.4, 0.1},
                                  {0.4, 0.5, 0.25},
                                  {0.6, 0.8, 0.4}};
    std::vector<arch::GatingParams> out;
    for (const auto &s : settings) {
        arch::LeakageRatios r;
        r.logicOff = s[0];
        r.sramSleep = s[1];
        r.sramOff = s[2];
        out.emplace_back(r);
    }
    return out;
}

std::vector<arch::GatingParams>
delaySettings()  // fig22
{
    std::vector<arch::GatingParams> out;
    for (double scale : {1.0, 1.5, 2.0, 3.0, 4.0}) {
        arch::GatingParams p;
        p.setDelayScale(scale);
        out.push_back(p);
    }
    return out;
}

using Scenarios = std::vector<std::shared_ptr<const models::ScenarioSpec>>;

/** Axis x generations x params, axis-major (the binaries' order). */
std::vector<sim::SweepCase>
grid(const std::vector<models::Workload> &axis, const Scenarios *spec,
     const std::vector<arch::NpuGeneration> &gens,
     const std::vector<arch::GatingParams> &params = {{}})
{
    std::vector<sim::SweepCase> out;
    auto add = [&](auto &&make) {
        for (auto gen : gens)
            for (const auto &p : params)
                out.push_back(make(gen, p));
    };
    if (spec) {
        for (const auto &s : *spec)
            add([&](arch::NpuGeneration g, const arch::GatingParams &p) {
                return sim::scenarioCase(s, g, p);
            });
    } else {
        for (auto w : axis)
            add([&](arch::NpuGeneration g, const arch::GatingParams &p) {
                sim::SweepCase c;
                c.workload = w;
                c.gen = g;
                c.params = p;
                return c;
            });
    }
    return out;
}

std::vector<Leg>
legsFor(const std::string &workload, const Scenarios *spec)
{
    using G = arch::NpuGeneration;
    const auto &all = models::allWorkloads();
    const auto gens = bench::paperGenerations();
    const auto sens = bench::sensitivityWorkloads();
    const std::vector<G> d = {G::D};
    if (workload == "spec_sweep")
        return {{"fig17_energy_savings", Mode::Run,
                 grid(all, spec, d), true},
                {"fig02_energy_efficiency", Mode::Search,
                 grid(all, spec, gens), true}};
    if (workload == "sensitivity")
        return {{"fig21_sens_leakage", Mode::Run,
                 grid(sens, spec, d, leakageSettings()), true},
                {"fig22_sens_delay", Mode::Run,
                 grid(sens, spec, d, delaySettings()), true}};
    REGATE_CHECK(workload == "paper_suite", "unknown workload '",
                 workload, "'");
    const std::vector<models::Workload> fig16 = {
        models::Workload::Prefill13B, models::Workload::Decode13B,
        models::Workload::Prefill70B, models::Workload::Decode70B};
    std::vector<Leg> legs;
    legs.push_back({"fig02_energy_efficiency", Mode::Search,
                    grid(all, nullptr, gens)});
    for (const char *b : {"fig03_energy_breakdown", "fig04_sa_temporal_util",
                          "fig05_sa_spatial_util", "fig06_vu_temporal_util"})
        legs.push_back({b, Mode::Run, grid(all, nullptr, gens)});
    legs.push_back({"fig07_sram_demand_cdf", Mode::Run, grid(all, nullptr, d)});
    for (const char *b : {"fig08_ici_temporal_util", "fig09_hbm_temporal_util"})
        legs.push_back({b, Mode::Run, grid(all, nullptr, gens)});
    legs.push_back({"fig16_validation", Mode::Run, grid(fig16, nullptr, d)});
    for (const char *b : {"fig17_energy_savings", "fig18_power",
                          "fig19_perf_overhead", "fig20_setpm_rate"})
        legs.push_back({b, Mode::Run, grid(all, nullptr, d)});
    legs.push_back({"fig21_sens_leakage", Mode::Run,
                    grid(sens, nullptr, d, leakageSettings())});
    legs.push_back({"fig22_sens_delay", Mode::Run,
                    grid(sens, nullptr, d, delaySettings())});
    legs.push_back({"fig23_generations", Mode::Run,
                    grid(sens, nullptr, arch::allGenerations())});
    for (const char *b : {"fig24_carbon_reduction", "fig25_lifespan"})
        legs.push_back({b, Mode::Run, grid(sens, nullptr, d)});
    legs.push_back({"table4_slo_configs", Mode::Search, grid(all, nullptr, d)});
    return legs;
}

sim::WorkloadReport
simulateCase(const sim::SweepCase &c)
{
    if (c.scenario)
        return sim::simulateScenario(c.scenario, c.gen, c.params);
    return sim::simulateWorkload(c.workload, c.gen, c.params);
}

void
accountEnergy(Tracer &tr, const sim::WorkloadReport &rep, Counters &n)
{
    Tracer::Span span(tr, "energy.account");
    for (auto p : sim::allPolicies())
        n.checksum += rep.energyPerUnit(p) + rep.podTotalEnergy(p);
}

bool
sameRun(const sim::WorkloadRun &a, const sim::WorkloadRun &b)
{
    if (a.cycles != b.cycles || a.seconds != b.seconds)
        return false;
    for (auto c : arch::kAllComponents)
        if (!(a.timeline[c] == b.timeline[c]))
            return false;
    for (auto p : sim::allPolicies())
        if (a.result(p).energy.busyTotal() != b.result(p).energy.busyTotal() ||
            a.result(p).seconds != b.result(p).seconds)
            return false;
    return true;
}

/** The uncached, layer-by-layer re-execution of one run-mode case. */
void
probe(Tracer &tr, const sim::SweepCase &c, const sim::WorkloadReport &rep,
      Counters &n)
{
    Tracer::Span span(tr, "probe");
    const auto &cfg = arch::npuConfig(c.gen);
    graph::OperatorGraph g;
    {
        Tracer::Span s(tr, "models.build");
        g = c.scenario ? models::buildScenarioGraph(*c.scenario, rep.setup)
                       : models::buildGraph(c.workload, rep.setup);
    }
    for (const auto &block : g.blocks)
        n.modelOps += block.ops.size();
    compiler::CompileResult compiled;
    {
        Tracer::Span s(tr, "compiler.compile");
        compiled = compiler::compileGraph(g, cfg);
    }
    n.fusedOps += compiled.fusion.fusedOps;
    sim::WorkloadRun run;
    {
        Tracer::Span s(tr, "sim.engine.run");
        sim::Engine engine(cfg, c.params);
        engine.setMemoization(false);
        run = engine.run(compiled.graph, rep.setup.chips);
    }
    {
        Tracer::Span s(tr, "sim.opsim.simulate");
        ici::CollectiveModel coll(cfg,
                                  ici::Torus::forChips(cfg, rep.setup.chips));
        sim::OperatorSimulator opsim(cfg, coll);
        for (const auto &block : compiled.graph.blocks)
            for (const auto &op : block.ops) {
                n.checksum += static_cast<double>(opsim.simulate(op).duration);
                ++n.engineOps;
            }
    }
    {
        // Engine::evaluatePolicy's evaluateTimeline calls: one per
        // timeline-gated component and policy, in its gating mode.
        Tracer::Span s(tr, "core.evaluate");
        using arch::Component;
        using arch::GatedUnit;
        energy::PowerModel power(cfg);
        const double tau = cfg.cycleTime();
        const std::pair<Component, core::UnitSpec> units[] = {
            {Component::Sa,
             {GatedUnit::SaFull, power.staticPower(Component::Sa), tau}},
            {Component::Vu,
             {GatedUnit::Vu, power.staticPower(Component::Vu), tau}},
            {Component::Hbm, {GatedUnit::Hbm, power.hbmStaticPower(), tau}},
            {Component::Ici, {GatedUnit::Ici, power.iciStaticPower(), tau}},
        };
        for (auto p : sim::allPolicies())
            for (const auto &[comp, unit] : units) {
                auto mode = p == sim::Policy::NoPG ? core::GatingMode::None
                            : p == sim::Policy::Ideal
                                ? core::GatingMode::Ideal
                            : comp == Component::Vu && p == sim::Policy::Full
                                ? core::GatingMode::SwExact
                                : core::GatingMode::HwDetect;
                const auto &tl = run.timeline[comp];
                n.gapGroups += tl.gaps().size();
                n.checksum +=
                    core::evaluateTimeline(tl, unit, mode, c.params)
                        .staticEnergy;
            }
    }
    if (!sameRun(run, rep.run()))
        ++n.mismatches;
}

void
runLeg(Tracer &tr, const Leg &leg, const std::string &spec_path,
       Counters &n)
{
    Tracer::Span span(tr, "leg", leg.binary);
    if (leg.parsesSpec) {
        Tracer::Span s(tr, "models.parse");
        n.checksum += models::parseSpecFile(spec_path).scenarios.size();
    }
    for (std::size_t i = 0; i < leg.cases.size(); ++i) {
        const auto &c = leg.cases[i];
        Tracer::Span cs(tr, "case", leg.binary + "#" + std::to_string(i));
        ++n.cases;
        if (leg.mode == Mode::Search) {
            sim::SloResult res;
            {
                Tracer::Span s(tr, "sim.slo.search");
                res = c.scenario ? sim::findBestSetupSerial(
                                       c.scenario, c.gen, c.params)
                                 : sim::findBestSetupSerial(
                                       c.workload, c.gen, c.params);
            }
            ++n.sloSearches;
            n.sloCandidates +=
                c.scenario ? sim::candidateSetups(*c.scenario, c.gen).size()
                           : sim::candidateSetups(c.workload, c.gen).size();
            accountEnergy(tr, res.report, n);
            continue;
        }
        auto run_hits = sim::sharedRunCache().hits();
        sim::WorkloadReport rep;
        {
            Tracer::Span s(tr, "sim.report.simulate");
            rep = simulateCase(c);
        }
        if (sim::sharedRunCache().hits() == run_hits) {
            // A fresh engine run: its op-memo counters are this case's.
            n.opHits += rep.run().opCacheHits;
            n.opLookups += rep.run().opCacheHits + rep.run().opCacheMisses;
        }
        accountEnergy(tr, rep, n);
        probe(tr, c, rep, n);
    }
}

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

[[noreturn]] void
usage(const std::string &msg)
{
    std::cerr << "layer_trace: " << msg
              << "\nusage: layer_trace --workload NAME [--spec FILE]"
                 " [--trace-out FILE]\n";
    std::exit(2);
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string workload, spec_path, trace_out;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (++i >= argc)
                usage(arg + " needs a value");
            return argv[i];
        };
        if (arg == "--workload") {
            workload = value();
        } else if (arg == "--spec") {
            spec_path = value();
        } else if (arg == "--trace-out") {
            trace_out = value();
        } else {
            usage("unknown argument '" + arg + "'");
        }
    }
    if (workload.empty())
        usage("--workload is required");
    if (workload != "paper_suite" && spec_path.empty())
        usage(workload + " needs --spec");

    try {
        Scenarios scenarios;
        if (!spec_path.empty())
            scenarios = models::parseSpecFile(spec_path).scenarios;
        auto legs = legsFor(workload, spec_path.empty() ? nullptr : &scenarios);

        Tracer tr(!trace_out.empty());
        Counters n;
        auto &graphs = sim::sharedGraphCache();
        auto &runs = sim::sharedRunCache();
        auto g0 = graphs.hits() + graphs.misses(), gh0 = graphs.hits();
        auto r0 = runs.hits() + runs.misses(), rh0 = runs.hits();

        auto t0 = Clock::now();
        for (const auto &leg : legs) {
            sim::clearSharedCaches();
            runLeg(tr, leg, spec_path, n);
        }
        auto serial_s = seconds(t0, Clock::now());

        // Parallel speed-up of the run-mode sweeps, cold caches each.
        // Each side runs twice and keeps its faster time, so neither
        // pays alone for first-touch allocation.
        double sweep_serial = 0, sweep_parallel = 0;
        sim::SweepRunner runner;
        auto timed = [&](const char *name, const Leg &leg, auto &&sweep) {
            double best = 0;
            for (int rep = 0; rep < 2; ++rep) {
                sim::clearSharedCaches();
                Tracer::Span s(tr, name, leg.binary);
                auto a = Clock::now();
                n.checksum += sweep().size();
                double t = seconds(a, Clock::now());
                best = rep ? std::min(best, t) : t;
            }
            return best;
        };
        for (const auto &leg : legs) {
            if (leg.mode != Mode::Run)
                continue;
            sweep_serial += timed("sim.sweep.serial", leg, [&] {
                return sim::SweepRunner::runSerial(leg.cases);
            });
            sweep_parallel += timed("sim.sweep.parallel", leg, [&] {
                return runner.run(leg.cases);
            });
        }

        if (!trace_out.empty())
            tr.write(trace_out);

        std::string leg_cases;
        for (const auto &leg : legs)
            leg_cases += (leg_cases.empty() ? "\"" : ",\"") + leg.binary +
                         "\":" + std::to_string(leg.cases.size());
        auto gl = graphs.hits() + graphs.misses() - g0;
        auto rl = runs.hits() + runs.misses() - r0;
        std::printf(
            "{\"workload\":\"%s\",\"leg_cases\":{%s},\"cases\":%llu,"
            "\"mismatches\":%llu,\"serial_s\":%.9f,"
            "\"sweep_serial_s\":%.9f,\"sweep_parallel_s\":%.9f,"
            "\"threads\":%u,\"model_ops\":%llu,\"fused_ops\":%llu,"
            "\"engine_ops\":%llu,\"gap_groups\":%llu,"
            "\"slo_searches\":%llu,\"slo_candidates\":%llu,"
            "\"graph_hits\":%llu,\"graph_lookups\":%llu,"
            "\"run_hits\":%llu,\"run_lookups\":%llu,"
            "\"op_hits\":%llu,\"op_lookups\":%llu,\"checksum\":%.6g}\n",
            workload.c_str(), leg_cases.c_str(),
            static_cast<unsigned long long>(n.cases),
            static_cast<unsigned long long>(n.mismatches), serial_s,
            sweep_serial, sweep_parallel, runner.threadCount(),
            static_cast<unsigned long long>(n.modelOps),
            static_cast<unsigned long long>(n.fusedOps),
            static_cast<unsigned long long>(n.engineOps),
            static_cast<unsigned long long>(n.gapGroups),
            static_cast<unsigned long long>(n.sloSearches),
            static_cast<unsigned long long>(n.sloCandidates),
            static_cast<unsigned long long>(graphs.hits() - gh0),
            static_cast<unsigned long long>(gl),
            static_cast<unsigned long long>(runs.hits() - rh0),
            static_cast<unsigned long long>(rl),
            static_cast<unsigned long long>(n.opHits),
            static_cast<unsigned long long>(n.opLookups), n.checksum);
        return n.mismatches ? 1 : 0;
    } catch (const std::exception &e) {
        std::cerr << "layer_trace: " << e.what() << "\n";
        return 1;
    }
}
