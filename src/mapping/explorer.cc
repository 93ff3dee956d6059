#include "mapping/explorer.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>

#include "arch/chip.hh"
#include "common/log.hh"
#include "sim/fleet.hh"

namespace synchro::mapping
{

bool
refreshPlacement(ActorPlacement &p, double ref_mhz, unsigned divider,
                 const power::SupplyLevels &levels)
{
    if (divider == 0)
        return false;
    double f_column = ref_mhz / divider;
    if (f_column + 1e-9 < p.f_needed_mhz)
        return false; // the divided clock cannot cover the demand
    try {
        p.divider = divider;
        p.f_column_mhz = f_column;
        p.v = levels.voltageFor(f_column);
        p.zorm = exactRateMatch(
            uint64_t(std::llround(f_column * 1e6)),
            uint64_t(std::llround(p.f_needed_mhz * 1e6)));
    } catch (const FatalError &) {
        return false; // no supply level / rate match exists
    }
    return true;
}

namespace
{

std::map<std::string, uint64_t>
chipStats(const arch::Chip &chip)
{
    std::map<std::string, uint64_t> out;
    chip.forEachStat([&out](const std::string &name, uint64_t v) {
        out[name] = v;
    });
    return out;
}

} // namespace

std::vector<PlanVariant>
enumeratePlanVariants(const ChipPlan &baseline,
                      double iterations_per_sec,
                      const power::SupplyLevels &levels,
                      const ExploreOptions &opt)
{
    sync_assert(!baseline.placements.empty(),
                "enumeratePlanVariants: empty baseline plan");
    sync_assert(iterations_per_sec > 0,
                "enumeratePlanVariants: need a positive rate");

    std::vector<PlanVariant> out;
    out.push_back({"baseline", baseline, iterations_per_sec});

    // Rate variants: the whole mapping re-derived for a scaled
    // target rate — every placement's demand, divider, supply level
    // and ZORM move together, exactly as the AutoMapper would have
    // derived them had it been asked for that rate.
    for (double rf : opt.rate_factors) {
        if (rf <= 0)
            continue;
        ChipPlan plan = baseline;
        bool ok = true;
        for (auto &p : plan.placements) {
            p.f_needed_mhz *= rf;
            unsigned d = unsigned(plan.ref_freq_mhz / p.f_needed_mhz);
            if (!refreshPlacement(p, plan.ref_freq_mhz, d, levels)) {
                ok = false;
                break;
            }
        }
        if (ok) {
            out.push_back({strprintf("rate x%.2f", rf), plan,
                           iterations_per_sec * rf});
        }
    }

    // Divider variants: one placement's clock raised (divider
    // lowered) at the planned rate. ZORM pads the wider gap, the
    // supply quantizes up — same throughput at more power, the
    // measurably dominated points the Optimizer's pick must beat.
    for (size_t i = 0; i < baseline.placements.size(); ++i) {
        unsigned d = baseline.placements[i].divider;
        for (unsigned s = 1; s <= opt.divider_steps && s < d; ++s) {
            ChipPlan plan = baseline;
            if (!refreshPlacement(plan.placements[i],
                                  plan.ref_freq_mhz, d - s, levels))
                continue;
            out.push_back(
                {strprintf("%s /%u",
                           baseline.placements[i].actor.c_str(),
                           d - s),
                 plan, iterations_per_sec});
        }
    }
    return out;
}

ExplorationResult
explorePlans(const ExplorableApp &app, const ExploreOptions &opt)
{
    sync_assert(app.lower && app.tick_limit && app.verify,
                "explorePlans: the app must supply lower, tick_limit "
                "and verify hooks");
    sync_assert(app.priced_items > 0,
                "explorePlans: priced_items must be set");

    power::VfModel vf;
    power::SupplyLevels levels(vf);
    power::SystemPowerModel model;

    std::vector<PlanVariant> variants = enumeratePlanVariants(
        app.baseline, app.iterations_per_sec, levels, opt);
    variants.insert(variants.end(), app.shard_variants.begin(),
                    app.shard_variants.end());

    ExplorationResult res;
    res.app = app.name;
    res.baseline_index = 0;
    res.points.resize(variants.size());

    // One fleet runs every chip of this exploration: each lowered
    // candidate is a workload whose template is its cold build, served
    // as one single-item stream. The worker that ran a point measures
    // it in the read_output hook, writing only that point's slot, so
    // the slots need no lock; drain() publishes them.
    struct Slot
    {
        PipelineProgram prog;
        bool lowered = false;
        unsigned workload = 0;
        unsigned stream = 0;
        std::map<std::string, uint64_t> stats; //!< for the cross-check
    };
    std::vector<Slot> slots(variants.size());

    auto measure = [&](size_t i, arch::Chip &chip) {
        MeasuredPoint &pt = res.points[i];
        uint64_t overruns = chip.fabric().stats().value("overruns");
        uint64_t conflicts = chip.fabric().stats().value("conflicts");
        if (overruns != 0 || conflicts != 0) {
            pt.failure = strprintf(
                "unclean fabric: %llu overruns, %llu conflicts",
                (unsigned long long)overruns,
                (unsigned long long)conflicts);
            return;
        }
        pt.ran = true;
        pt.ticks = chip.curTick();
        pt.deferrals = chip.fabric().stats().value("deferrals");
        pt.achieved_items_per_sec = double(app.priced_items) *
                                    pt.plan.ref_freq_mhz * 1e6 /
                                    double(pt.ticks);
        pt.power = power::priceSimulationComparison(
            chip, app.priced_items, pt.achieved_items_per_sec,
            levels, model);
        pt.total_mw = pt.power.multi_v.total();
        std::string mismatch = app.verify(chip, slots[i].prog);
        pt.bit_exact = mismatch.empty();
        if (!pt.bit_exact)
            pt.failure = mismatch;
        slots[i].stats = chipStats(chip);
    };

    // Declared after everything its hooks reference, so it is
    // destroyed (its workers joined) first.
    sim::FleetConfig fcfg;
    fcfg.workers = opt.threads;
    fcfg.scheduler = opt.scheduler;
    fcfg.verify = false;
    sim::FleetExecutor fleet(fcfg);

    for (size_t i = 0; i < variants.size(); ++i) {
        const PlanVariant &v = variants[i];
        MeasuredPoint &pt = res.points[i];
        pt.label = v.label;
        pt.plan = v.plan;
        pt.target_iterations_per_sec = v.iterations_per_sec;
        try {
            Slot &slot = slots[i];
            slot.prog = app.lower(v.plan, v.iterations_per_sec);
            sim::FleetWorkload wl;
            wl.name = v.label;
            wl.tick_limit = app.tick_limit(v.plan, slot.prog);
            wl.build = [&v, &slot](SchedulerKind kind) {
                return buildChip(v.plan, slot.prog, kind);
            };
            // A fresh clone of the template is the item.
            wl.feed = [](arch::Chip &, uint64_t) {};
            wl.read_output = [&measure, i](arch::Chip &chip) {
                measure(i, chip);
                return std::vector<uint8_t>();
            };
            slot.workload = fleet.addWorkload(std::move(wl));
            slot.lowered = true;
        } catch (const FatalError &e) {
            pt.failure = strprintf("did not lower: %s", e.what());
            // The codegen verifier gate rejected the candidate
            // before any chip was staged — the pre-simulation
            // filter, counted separately in the report.
            if (pt.failure.find("statically rejected") !=
                std::string::npos) {
                ++res.statically_rejected;
            }
        }
    }

    // Every candidate is lowered before any chip runs, so lowering
    // never competes with the runs for cores. Runs that did not drain
    // never reach the measuring hook, and a hook or run that threw
    // left its failure in the stream's result. Each workload is
    // retired once its one stream is in, so its template is freed
    // as soon as that stream has cloned it.
    for (Slot &slot : slots) {
        if (!slot.lowered)
            continue;
        slot.stream = fleet.admitStream(slot.workload, 1);
        fleet.retireWorkload(slot.workload);
    }
    sim::FleetReport rep = fleet.drain();
    for (size_t i = 0; i < slots.size(); ++i) {
        if (!slots[i].lowered)
            continue;
        MeasuredPoint &pt = res.points[i];
        const sim::FleetStreamResult &sr =
            rep.stream_results[slots[i].stream];
        if (sr.last_exit != arch::RunExit::AllHalted) {
            pt.failure = sr.last_exit == arch::RunExit::Deadlock
                             ? "deadlocked"
                             : "tick budget exhausted";
        } else if (!sr.first_failure.empty()) {
            pt.failure = sr.first_failure;
        }
    }

    // Pareto reduction over the measurable points: a point survives
    // if no other measurable point delivers at least its rate for
    // strictly less power (ties broken toward the cheaper point).
    std::vector<size_t> eligible;
    for (size_t i = 0; i < res.points.size(); ++i) {
        if (res.points[i].ran && res.points[i].bit_exact)
            eligible.push_back(i);
    }
    std::sort(eligible.begin(), eligible.end(),
              [&](size_t a, size_t b) {
                  const MeasuredPoint &pa = res.points[a];
                  const MeasuredPoint &pb = res.points[b];
                  if (pa.achieved_items_per_sec !=
                      pb.achieved_items_per_sec)
                      return pa.achieved_items_per_sec >
                             pb.achieved_items_per_sec;
                  return pa.total_mw < pb.total_mw;
              });
    double best_mw = std::numeric_limits<double>::infinity();
    for (size_t i : eligible) {
        if (res.points[i].total_mw < best_mw) {
            best_mw = res.points[i].total_mw;
            res.points[i].on_frontier = true;
            res.frontier.push_back(i);
        }
    }
    std::reverse(res.frontier.begin(), res.frontier.end());

    // Cross-check the frontier (and the baseline) on the EventQueue
    // backend, on the same fleet: each checked point is rebuilt cold
    // from its lowered program, independent of the measured chip, and
    // must reach the identical final tick, identical statistics, and
    // pass the golden check again.
    bool crosschecks_ok = true;
    if (opt.crosscheck_frontier) {
        std::vector<size_t> check = res.frontier;
        const MeasuredPoint &base = res.points[res.baseline_index];
        if (base.ran && base.bit_exact && !base.on_frontier)
            check.push_back(res.baseline_index);

        for (size_t idx : check) {
            MeasuredPoint &pt = res.points[idx];
            const Slot &slot = slots[idx];
            sim::FleetWorkload wl;
            wl.name = pt.label + " (EventQueue)";
            wl.tick_limit = app.tick_limit(pt.plan, slot.prog);
            wl.build = [&pt, &slot](SchedulerKind) {
                return buildChip(pt.plan, slot.prog,
                                 SchedulerKind::EventQueue);
            };
            wl.feed = [](arch::Chip &, uint64_t) {};
            wl.read_output = [&app, &pt, &slot](arch::Chip &chip) {
                pt.crosschecked = chip.curTick() == pt.ticks &&
                                  chipStats(chip) == slot.stats &&
                                  app.verify(chip, slot.prog).empty();
                return std::vector<uint8_t>();
            };
            const unsigned id = fleet.addWorkload(std::move(wl));
            fleet.admitStream(id, 1);
            fleet.retireWorkload(id);
        }
        fleet.drain();
        for (size_t idx : check) {
            MeasuredPoint &pt = res.points[idx];
            if (!pt.crosschecked) {
                crosschecks_ok = false;
                if (pt.failure.empty())
                    pt.failure = "EventQueue cross-check diverged";
            }
        }
    }

    // Agreement: the analytic Optimizer's pick must sit on (or
    // within tolerance of) the measured frontier at its rate.
    MeasuredPoint &base = res.points[res.baseline_index];
    if (base.ran && base.bit_exact) {
        double best = std::numeric_limits<double>::infinity();
        for (size_t i : res.frontier) {
            const MeasuredPoint &pt = res.points[i];
            if (pt.achieved_items_per_sec + 1e-9 >=
                base.achieved_items_per_sec)
                best = std::min(best, pt.total_mw);
        }
        if (best < std::numeric_limits<double>::infinity() &&
            best > 0) {
            res.baseline_gap_pct = std::max(
                0.0, 100.0 * (base.total_mw - best) / best);
            res.agreement =
                res.baseline_gap_pct <= opt.agreement_tolerance_pct;
        }
    }

    // Every point that ran must have matched its golden, and every
    // cross-checked point (frontier or baseline) must have agreed
    // across backends.
    res.all_bit_exact = !res.frontier.empty() && crosschecks_ok;
    for (const MeasuredPoint &pt : res.points) {
        if (pt.ran && !pt.bit_exact)
            res.all_bit_exact = false;
    }
    return res;
}

std::string
ExplorationResult::report() const
{
    std::string out = strprintf(
        "design space, %s: %zu candidate plans, %zu measured, "
        "%zu on the frontier\n",
        app.c_str(), points.size(),
        size_t(std::count_if(points.begin(), points.end(),
                             [](const MeasuredPoint &p) {
                                 return p.ran;
                             })),
        frontier.size());
    if (statically_rejected > 0) {
        out += strprintf("  %zu candidate(s) statically rejected "
                         "before simulation\n",
                         statically_rejected);
    }
    out += strprintf("  %-18s %10s %12s %9s %8s  %s\n", "plan",
                     "ticks", "items/s", "mW", "saved%", "");
    for (const MeasuredPoint &pt : points) {
        if (!pt.ran) {
            out += strprintf("  %-18s %s\n", pt.label.c_str(),
                             pt.failure.c_str());
            continue;
        }
        out += strprintf(
            "  %-18s %10llu %12.4g %9.2f %8.1f  %s%s%s\n",
            pt.label.c_str(), (unsigned long long)pt.ticks,
            pt.achieved_items_per_sec, pt.total_mw,
            pt.power.savingsPct(),
            pt.on_frontier ? "frontier" : "",
            pt.crosschecked ? " xchk" : "",
            pt.bit_exact ? "" : " MISMATCH");
    }
    out += strprintf(
        "  optimizer pick vs measured frontier: %.2f%% gap -> %s\n",
        baseline_gap_pct,
        agreement ? "agreement" : "DISAGREEMENT");
    return out;
}

} // namespace synchro::mapping
