#include "mapping/explorer.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>

#include "arch/chip.hh"
#include "common/log.hh"
#include "sim/session.hh"

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

    // Lower every candidate and stage one chip on opt.scheduler per
    // successful lowering on a single heterogeneous session — each
    // chip its own configuration, program and tick budget.
    struct Prep
    {
        size_t point = 0;
        unsigned session_id = 0;
        PipelineProgram prog;
        std::unique_ptr<arch::Chip> chip;
    };
    std::vector<Prep> preps;
    sim::SessionConfig scfg;
    scfg.threads = opt.threads;
    sim::SimSession session(scfg);

    for (const auto &v : variants) {
        MeasuredPoint pt;
        pt.label = v.label;
        pt.plan = v.plan;
        pt.target_iterations_per_sec = v.iterations_per_sec;
        try {
            Prep prep;
            prep.point = res.points.size();
            prep.prog = app.lower(v.plan, v.iterations_per_sec);
            prep.chip = buildChip(v.plan, prep.prog,
                                  opt.scheduler);
            prep.session_id = session.admit(
                sim::ChipSpec(*prep.chip)
                    .tickLimit(app.tick_limit(v.plan, prep.prog)));
            preps.push_back(std::move(prep));
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
        res.points.push_back(std::move(pt));
    }

    // The whole batch, concurrently; per-chip budgets govern.
    session.runAll();

    for (auto &prep : preps) {
        MeasuredPoint &pt = res.points[prep.point];
        const arch::RunResult &r = session.results()[prep.session_id];
        arch::Chip &chip = *prep.chip;
        if (r.exit != arch::RunExit::AllHalted) {
            pt.failure = r.exit == arch::RunExit::Deadlock
                             ? "deadlocked"
                             : "tick budget exhausted";
            continue;
        }
        uint64_t overruns = chip.fabric().stats().value("overruns");
        uint64_t conflicts = chip.fabric().stats().value("conflicts");
        if (overruns != 0 || conflicts != 0) {
            pt.failure = strprintf(
                "unclean fabric: %llu overruns, %llu conflicts",
                (unsigned long long)overruns,
                (unsigned long long)conflicts);
            continue;
        }
        pt.ran = true;
        pt.ticks = r.ticks;
        pt.deferrals = chip.fabric().stats().value("deferrals");
        pt.achieved_items_per_sec = double(app.priced_items) *
                                    pt.plan.ref_freq_mhz * 1e6 /
                                    double(pt.ticks);
        pt.power = power::priceSimulationComparison(
            chip, app.priced_items, pt.achieved_items_per_sec,
            levels, model);
        pt.total_mw = pt.power.multi_v.total();
        std::string mismatch = app.verify(chip, prep.prog);
        pt.bit_exact = mismatch.empty();
        if (!pt.bit_exact)
            pt.failure = mismatch;
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
    // backend: identical final tick, identical statistics, and the
    // golden check passing again on the second chip.
    bool crosschecks_ok = true;
    if (opt.crosscheck_frontier) {
        std::vector<size_t> check = res.frontier;
        const MeasuredPoint &base = res.points[res.baseline_index];
        if (base.ran && base.bit_exact && !base.on_frontier)
            check.push_back(res.baseline_index);

        struct Recheck
        {
            Prep *prep;
            std::unique_ptr<arch::Chip> chip;
            unsigned session_id = 0;
        };
        std::vector<Recheck> rechecks;
        sim::SimSession xsession(scfg);
        for (size_t idx : check) {
            auto it = std::find_if(preps.begin(), preps.end(),
                                   [idx](const Prep &p) {
                                       return p.point == idx;
                                   });
            sync_assert(it != preps.end(),
                        "frontier point with no prepared chip");
            Recheck rc;
            rc.prep = &*it;
            rc.chip = buildChip(res.points[idx].plan, it->prog,
                                SchedulerKind::EventQueue);
            rc.session_id = xsession.admit(
                sim::ChipSpec(*rc.chip)
                    .tickLimit(app.tick_limit(res.points[idx].plan,
                                              it->prog)));
            rechecks.push_back(std::move(rc));
        }
        xsession.runAll();
        for (auto &rc : rechecks) {
            MeasuredPoint &pt = res.points[rc.prep->point];
            const arch::RunResult &r =
                xsession.results()[rc.session_id];
            pt.crosschecked =
                r.exit == arch::RunExit::AllHalted &&
                r.ticks == pt.ticks &&
                chipStats(*rc.chip) == chipStats(*rc.prep->chip) &&
                app.verify(*rc.chip, rc.prep->prog).empty();
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
