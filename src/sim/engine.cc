#include "sim/engine.h"

#include <algorithm>

#include "common/error.h"
#include "obs/metrics.h"
#include "core/gating_engine.h"
#include "ici/topology.h"

namespace regate {
namespace sim {

using arch::Component;
using arch::GatedUnit;
using core::ActivityTimeline;
using core::GatingMode;

const std::array<Policy, kNumPolicies> &
allPolicies()
{
    static const std::array<Policy, kNumPolicies> all = {
        Policy::NoPG, Policy::Base, Policy::HW, Policy::Full,
        Policy::Ideal};
    return all;
}

std::string
policyName(Policy p)
{
    switch (p) {
      case Policy::NoPG:
        return "NoPG";
      case Policy::Base:
        return "ReGate-Base";
      case Policy::HW:
        return "ReGate-HW";
      case Policy::Full:
        return "ReGate-Full";
      case Policy::Ideal:
        return "Ideal";
    }
    throw LogicError("unknown Policy");
}

void
OpRecordArena::append(const OpRecord &rec)
{
    auto [it, inserted] = interner_.emplace(
        rec.name, static_cast<std::uint32_t>(names_.size()));
    if (inserted)
        names_.push_back(rec.name);
    nameId_.push_back(it->second);
    kind_.push_back(rec.kind);
    count_.push_back(rec.count);
    duration_.push_back(rec.duration);
    sramDemandBytes_.push_back(rec.sramDemandBytes);
    dynamicJ_.push_back(rec.dynamicJ);
    sramUsedFrac_.push_back(rec.sramUsedFrac);
    for (auto c : arch::kAllComponents)
        activeFrac_.push_back(rec.activeFrac[c]);
}

void
OpRecordArena::reserve(std::size_t n)
{
    nameId_.reserve(n);
    kind_.reserve(n);
    count_.reserve(n);
    duration_.reserve(n);
    sramDemandBytes_.reserve(n);
    dynamicJ_.reserve(n);
    sramUsedFrac_.reserve(n);
    activeFrac_.reserve(n * arch::kNumComponents);
}

void
OpRecordArena::seal()
{
    interner_ = {};
    nameId_.shrink_to_fit();
    kind_.shrink_to_fit();
    count_.shrink_to_fit();
    duration_.shrink_to_fit();
    sramDemandBytes_.shrink_to_fit();
    dynamicJ_.shrink_to_fit();
    sramUsedFrac_.shrink_to_fit();
    activeFrac_.shrink_to_fit();
    names_.shrink_to_fit();
}

const PolicyResult &
WorkloadRun::result(Policy p) const
{
    return policies[static_cast<std::size_t>(p)];
}

double
WorkloadRun::temporalUtil(arch::Component c) const
{
    return timeline[c].utilization();
}

double
WorkloadRun::savingVsNoPg(Policy p) const
{
    double base = result(Policy::NoPG).energy.busyTotal();
    return base > 0 ? 1.0 - result(p).energy.busyTotal() / base : 0.0;
}

Engine::Engine(const arch::NpuConfig &cfg,
               const arch::GatingParams &params)
    : cfg_(cfg), params_(params), power_(cfg)
{
}

WorkloadRun
Engine::run(const graph::OperatorGraph &graph, int pod_chips) const
{
    return price(execute(graph, pod_chips), params_);
}

Execution
Engine::execute(const graph::OperatorGraph &graph, int pod_chips) const
{
    graph.validate();
    ici::Torus torus = ici::Torus::forChips(cfg_, pod_chips);
    ici::CollectiveModel coll(cfg_, torus);
    OperatorSimulator op_sim(cfg_, coll);

    Execution ex;
    WorkloadRun &run = ex.run;
    run.name = graph.name;
    std::uint64_t ops = 0;

    for (const auto &block : graph.blocks) {
        Execution::Block &eb = ex.blocks.emplace_back();
        eb.repeat = block.repeat;
        ops += block.ops.size();
        arch::ComponentMap<ActivityTimeline> block_tl;
        energy::WorkCounters block_work;
        sa::SaTileStats block_sa;
        double block_sram_integral = 0;
        Cycles block_dur = 0;
        std::uint64_t sram_resizes = 0;
        bool have_prev_used = false;
        std::uint64_t prev_used_bytes = 0;

        for (const auto &op : block.ops) {
            const OpExecution op_ex = op_sim.simulate(op);

            if (op_ex.active[Component::Sa] > 0 &&
                op_ex.active[Component::Vu] > 0 &&
                op_ex.bottleneck == Component::Sa) {
                eb.saBoundVuActivations.push_back(
                    op_ex.timeline[Component::Vu].activations());
            }

            for (auto c : {Component::Sa, Component::Vu, Component::Hbm,
                           Component::Ici}) {
                block_tl[c].append(op_ex.timeline[c]);
                if (op_ex.active[c] > 0) {
                    eb.uses[c].push_back({block_dur,
                                          block_dur + op_ex.active[c],
                                          op_ex.bottleneck});
                }
            }
            block_work += op_ex.work;
            block_sa += op_ex.saStats;

            double used_frac =
                op_ex.sramUsedBytes / static_cast<double>(cfg_.sramBytes);
            block_sram_integral +=
                static_cast<double>(op_ex.duration) * used_frac;
            // Compare whole bytes: sramUsedBytes is a byte count that
            // happens to be carried in a double, and float equality
            // would flag resizes on sub-byte rounding noise.
            auto used_bytes =
                static_cast<std::uint64_t>(op_ex.sramUsedBytes + 0.5);
            if (have_prev_used && used_bytes != prev_used_bytes)
                ++sram_resizes;
            prev_used_bytes = used_bytes;
            have_prev_used = true;

            OpRecord rec;
            rec.name = op.name;
            rec.kind = op.kind;
            rec.count = block.repeat;
            rec.duration = op_ex.duration;
            rec.sramDemandBytes = op.sramDemandBytes;
            rec.dynamicJ = power_.dynamicEnergy(op_ex.work).sum();
            rec.sramUsedFrac = used_frac;
            for (auto c : arch::kAllComponents)
                rec.activeFrac[c] = op_ex.activeFraction(c);
            run.opRecords.append(rec);

            block_dur += op_ex.duration;
        }
        eb.duration = block_dur;

        // Scale the block to its repeat count and append to the run.
        for (auto c : {Component::Sa, Component::Vu, Component::Hbm,
                       Component::Ici}) {
            run.timeline[c].append(block_tl[c].repeated(block.repeat));
        }
        double rep = static_cast<double>(block.repeat);
        run.work.macs += block_work.macs * rep;
        run.work.vuOps += block_work.vuOps * rep;
        run.work.sramBytes += block_work.sramBytes * rep;
        run.work.hbmBytes += block_work.hbmBytes * rep;
        run.work.iciBytes += block_work.iciBytes * rep;
        run.saStats += block_sa.scaled(block.repeat);
        run.sramUsedIntegral += block_sram_integral * rep;
        run.cycles += block_dur * block.repeat;
        ex.sramResizes += sram_resizes * block.repeat;
    }
    run.seconds = static_cast<double>(run.cycles) * cfg_.cycleTime();
    run.opRecords.seal();
    for (const auto &rec : run.opRecords) {
        ex.peakNoPgW = std::max(
            ex.peakNoPgW, opPower(rec, logicStaticPower(rec, 1.0), 1.0));
        ex.peakIdealW = std::max(
            ex.peakIdealW, opPower(rec, logicStaticPower(rec, 0.0), 0.0));
    }

    static obs::Counter &executions =
        obs::MetricsRegistry::instance().counter("sim.engine.executions");
    static obs::Counter &op_count =
        obs::MetricsRegistry::instance().counter("sim.engine.ops");
    executions.add(1);
    op_count.add(ops);
    return ex;
}

WorkloadRun
Engine::price(const Execution &ex, const arch::GatingParams &params) const
{
    return priced(ex.run, ex, params);
}

WorkloadRun
Engine::price(Execution &&ex, const arch::GatingParams &params) const
{
    return priced(std::move(ex.run), ex, params);
}

WorkloadRun
Engine::priced(WorkloadRun run, const Execution &ex,
               const arch::GatingParams &params) const
{
    std::array<Cycles, kNumPolicies> overheads{};
    for (const auto &eb : ex.blocks) {
        std::array<Cycles, kNumPolicies> block_ov{};
        auto charge = [&](Policy p, Cycles d) {
            block_ov[static_cast<std::size_t>(p)] += d;
        };

        // ReGate-Base cannot hide the per-burst VU wake-ups that
        // drain SA output tiles (§6.4): with the idle-detection FSM
        // gating the VU between bursts, a fraction of the 2-cycle
        // wakes stalls the SA pipeline (the output queue absorbs the
        // rest). ReGate-HW/Full pre-wake via the dataflow / setpm and
        // expose nothing.
        constexpr double kVuStallShare = 0.15;
        for (std::uint64_t activations : eb.saBoundVuActivations) {
            double stalls =
                static_cast<double>(activations) *
                static_cast<double>(params.onOffDelay(GatedUnit::Vu)) *
                kVuStallShare;
            charge(Policy::Base, static_cast<Cycles>(stalls));
        }

        // Inter-use wake overhead per policy: count idle gaps (with
        // wrap-around between block repeats) that the hardware
        // idle-detection would have gated before the next use.
        for (auto c : {Component::Sa, Component::Vu, Component::Hbm,
                       Component::Ici}) {
            const auto &uses = eb.uses[c];
            if (uses.empty())
                continue;
            GatedUnit unit = c == Component::Sa ? GatedUnit::SaFull
                             : c == Component::Vu ? GatedUnit::Vu
                             : c == Component::Hbm ? GatedUnit::Hbm
                                                   : GatedUnit::Ici;
            Cycles window = params.detectionWindow(unit);
            for (std::size_t i = 0; i < uses.size(); ++i) {
                Cycles gap =
                    i == 0 ? eb.duration - uses.back().end + uses[0].start
                           : uses[i].start - uses[i - 1].end;
                if (gap < window)
                    continue;
                bool is_bottleneck = uses[i].bottleneck == c;
                switch (c) {
                  case Component::Sa:
                    // Base pays the full-SA wake; HW/Full overlap the
                    // diagonal wake and expose one PE delay (§6.4).
                    charge(Policy::Base,
                           params.onOffDelay(GatedUnit::SaFull));
                    charge(Policy::HW, params.onOffDelay(GatedUnit::SaPe));
                    charge(Policy::Full,
                           params.onOffDelay(GatedUnit::SaPe));
                    break;
                  case Component::Vu:
                    // Exposed only when the VU gates the op; Full
                    // pre-wakes via setpm (§4.3).
                    if (is_bottleneck) {
                        charge(Policy::Base,
                               params.onOffDelay(GatedUnit::Vu));
                        charge(Policy::HW, params.onOffDelay(GatedUnit::Vu));
                    }
                    break;
                  case Component::Hbm:
                    if (is_bottleneck) {
                        for (Policy p : {Policy::Base, Policy::HW,
                                         Policy::Full}) {
                            charge(p, params.onOffDelay(GatedUnit::Hbm));
                        }
                    }
                    break;
                  case Component::Ici:
                    for (Policy p :
                         {Policy::Base, Policy::HW, Policy::Full})
                        charge(p, params.onOffDelay(GatedUnit::Ici));
                    break;
                  default:
                    break;
                }
            }
        }

        for (std::size_t p = 0; p < kNumPolicies; ++p)
            overheads[p] += block_ov[p] * eb.repeat;
    }

    for (auto p : allPolicies()) {
        auto i = static_cast<std::size_t>(p);
        run.policies[i] = evaluatePolicy(run, p, params, overheads[i]);
    }
    auto &full = run.policies[static_cast<std::size_t>(Policy::Full)];
    // SRAM resize setpm pairs (Full only; reported in Fig. 20).
    full.sramSetpmPairs = ex.sramResizes;

    // Peak power: the most power-hungry operator (Fig. 18). Base and
    // HW leak alike, and Full differs from them only in its SRAM.
    const auto &ratios = params.ratios();
    double peak_base = 0;
    double peak_full = 0;
    for (const auto &rec : run.opRecords) {
        double logic = logicStaticPower(rec, ratios.logicOff);
        peak_base =
            std::max(peak_base, opPower(rec, logic, ratios.sramSleep));
        peak_full =
            std::max(peak_full, opPower(rec, logic, ratios.sramOff));
    }
    run.policies[static_cast<std::size_t>(Policy::NoPG)].peakPowerW =
        ex.peakNoPgW;
    run.policies[static_cast<std::size_t>(Policy::Base)].peakPowerW =
        peak_base;
    run.policies[static_cast<std::size_t>(Policy::HW)].peakPowerW =
        peak_base;
    full.peakPowerW = peak_full;
    run.policies[static_cast<std::size_t>(Policy::Ideal)].peakPowerW =
        ex.peakIdealW;

    static obs::Counter &pricings =
        obs::MetricsRegistry::instance().counter("sim.engine.pricings");
    pricings.add(1);
    return run;
}

PolicyResult
Engine::priceNoPg(const Execution &ex,
                  const arch::GatingParams &params) const
{
    PolicyResult res = evaluatePolicy(ex.run, Policy::NoPG, params, 0);
    res.peakPowerW = ex.peakNoPgW;
    return res;
}

PolicyResult
Engine::evaluatePolicy(const WorkloadRun &run, Policy policy,
                       const arch::GatingParams &params,
                       Cycles overhead) const
{
    PolicyResult res;
    res.policy = policy;
    const double tau = cfg_.cycleTime();
    const auto &ratios = params.ratios();

    auto modeFor = [&](Component c) -> GatingMode {
        if (policy == Policy::NoPG)
            return GatingMode::None;
        if (policy == Policy::Ideal)
            return GatingMode::Ideal;
        if (c == Component::Vu && policy == Policy::Full)
            return GatingMode::SwExact;
        return GatingMode::HwDetect;
    };

    energy::EnergyBreakdown e;

    // ---- SA ----
    {
        core::UnitSpec spec{GatedUnit::SaFull,
                            power_.staticPower(Component::Sa), tau};
        auto r = core::evaluateTimeline(run.timeline[Component::Sa],
                                        spec, modeFor(Component::Sa),
                                        params);
        double e_sa = r.staticEnergy;
        if (policy == Policy::HW || policy == Policy::Full ||
            policy == Policy::Ideal) {
            // Replace the flat active-period energy with the
            // PE-granularity split from the analytical SA model.
            double flat = power_.staticPower(Component::Sa) * tau *
                          static_cast<double>(
                              run.timeline[Component::Sa].activeCycles());
            double off_leak =
                policy == Policy::Ideal ? 0.0 : ratios.logicOff;
            // The per-SA analytical totals already cover all PEs of
            // one array; numSa arrays ran the serial tile stream in
            // parallel, so PE-cycle totals are unchanged.
            double gated = power_.peStaticPower() * tau *
                           (static_cast<double>(run.saStats.peOnCycles) +
                            sa::kWOnPowerFraction *
                                static_cast<double>(
                                    run.saStats.peWOnCycles) +
                            off_leak * static_cast<double>(
                                           run.saStats.peOffCycles));
            if (gated < flat)
                e_sa += gated - flat;
        }
        e.staticJ[Component::Sa] = e_sa;
    }

    // ---- VU ----
    {
        core::UnitSpec spec{GatedUnit::Vu,
                            power_.staticPower(Component::Vu), tau};
        auto r = core::evaluateTimeline(run.timeline[Component::Vu],
                                        spec, modeFor(Component::Vu),
                                        params);
        e.staticJ[Component::Vu] = r.staticEnergy;
        if (policy == Policy::Full)
            res.vuGateEvents = r.gateEvents;
    }

    // ---- HBM ----
    {
        core::UnitSpec spec{GatedUnit::Hbm, power_.hbmStaticPower(),
                            tau};
        auto r = core::evaluateTimeline(run.timeline[Component::Hbm],
                                        spec, modeFor(Component::Hbm),
                                        params);
        e.staticJ[Component::Hbm] = r.staticEnergy;
    }

    // ---- ICI ----
    {
        core::UnitSpec spec{GatedUnit::Ici, power_.iciStaticPower(),
                            tau};
        auto r = core::evaluateTimeline(run.timeline[Component::Ici],
                                        spec, modeFor(Component::Ici),
                                        params);
        e.staticJ[Component::Ici] = r.staticEnergy;
    }

    // ---- SRAM: capacity-based (§4.1) ----
    {
        double p_sram = power_.staticPower(Component::Sram);
        double used = run.sramUsedIntegral;
        double unused = static_cast<double>(run.cycles) - used;
        double leak;
        switch (policy) {
          case Policy::NoPG:
            leak = 1.0;
            break;
          case Policy::Base:
          case Policy::HW:
            leak = ratios.sramSleep;
            break;
          case Policy::Full:
            leak = ratios.sramOff;
            break;
          case Policy::Ideal:
            leak = 0.0;
            break;
          default:
            throw LogicError("unknown policy");
        }
        e.staticJ[Component::Sram] = p_sram * tau * (used + leak * unused);
    }

    // ---- Other: never gated ----
    e.staticJ[Component::Other] = power_.staticPower(Component::Other) *
                                  tau *
                                  static_cast<double>(run.cycles);

    // ---- Dynamic energy (identical across policies) ----
    e.dynamicJ = power_.dynamicEnergy(run.work);

    // ---- Performance overhead ----
    res.overheadCycles = overhead;
    res.perfOverhead =
        run.cycles > 0 ? static_cast<double>(res.overheadCycles) /
                             static_cast<double>(run.cycles)
                       : 0.0;
    res.seconds = static_cast<double>(run.cycles + res.overheadCycles) *
                  tau;
    // The chip burns (policy-reduced) static power during the extra
    // cycles; charge it at the post-gating average static power.
    if (res.overheadCycles > 0 && run.cycles > 0) {
        double avg_static_w =
            e.staticJ.sum() / (static_cast<double>(run.cycles) * tau);
        e.staticJ[Component::Other] +=
            avg_static_w * static_cast<double>(res.overheadCycles) * tau;
    }

    res.energy = e;
    res.avgPowerW = e.busyTotal() / res.seconds;
    return res;
}

double
Engine::logicStaticPower(const OpRecordArena::Ref &rec, double leak) const
{
    double p = 0;
    for (auto c : {Component::Sa, Component::Vu, Component::Hbm,
                   Component::Ici}) {
        p += power_.staticPower(c) *
             (rec.activeFrac(c) + (1.0 - rec.activeFrac(c)) * leak);
    }
    return p;
}

double
Engine::opPower(const OpRecordArena::Ref &rec, double logic,
                double sram_leak) const
{
    double p = logic + power_.staticPower(Component::Sram) *
                           (rec.sramUsedFrac() +
                            (1.0 - rec.sramUsedFrac()) * sram_leak);
    p += power_.staticPower(Component::Other);
    double dur_s = static_cast<double>(rec.duration()) * cfg_.cycleTime();
    return p + rec.dynamicJ() / dur_s;
}

}  // namespace sim
}  // namespace regate
