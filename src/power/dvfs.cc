#include "power/dvfs.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <set>

#include "common/log.hh"
#include "mapping/explorer.hh"
#include "power/vf_model.hh"

namespace synchro::power
{

namespace
{

/** The ZORM settings of @p plan aligned with @p prog's columns. */
std::pair<std::vector<unsigned>, std::vector<mapping::ZormSetting>>
planZorms(const mapping::ChipPlan &plan,
          const mapping::PipelineProgram &prog)
{
    std::vector<unsigned> cols;
    std::vector<mapping::ZormSetting> zorms;
    for (const mapping::ColumnProgram &cp : prog.columns) {
        const mapping::ActorPlacement *found = nullptr;
        for (const auto &p : plan.placements) {
            if (p.actor == cp.actor) {
                found = &p;
                break;
            }
        }
        if (!found) {
            fatal("safe-transition table: program column %u runs "
                  "actor '%s' with no placement in the plan",
                  cp.column, cp.actor.c_str());
        }
        cols.push_back(cp.column);
        zorms.push_back(found->zorm);
    }
    return {cols, zorms};
}

/** One item's activity: the counter deltas (after - before). */
ActivityReport
activityDelta(const ActivityReport &before,
              const ActivityReport &after)
{
    ActivityReport d = after;
    for (size_t c = 0; c < d.columns.size(); ++c) {
        ColumnActivity &a = d.columns[c];
        const ColumnActivity &b = before.columns[c];
        a.compute_slots -= b.compute_slots;
        a.branch_stalls -= b.branch_stalls;
        a.comm_stall_slots -= b.comm_stall_slots;
        a.zorm_nops -= b.zorm_nops;
        a.issue_slots -= b.issue_slots;
    }
    d.bus_transfers -= before.bus_transfers;
    d.wire_span_sum -= before.wire_span_sum;
    return d;
}

/** Tick budget for one item served at @p point (slower points drain
 *  proportionally later than the baseline the budget was sized for). */
Tick
itemBudget(Tick tick_limit, const DvfsOperatingPoint &point)
{
    double scaled = double(tick_limit) / point.rate_scale;
    return Tick(std::ceil(scaled)) + tick_limit;
}

uint64_t
busDeferrals(const arch::Chip &chip)
{
    return chip.fabric().stats().value("deferrals");
}

} // namespace

SafeTransitionTable
SafeTransitionTable::build(const mapping::LoweredArtifact &art,
                           const std::vector<double> &rate_scales,
                           const power::SupplyLevels &levels)
{
    std::set<double> scales(rate_scales.begin(), rate_scales.end());
    scales.insert(1.0);

    SafeTransitionTable table;
    for (double s : scales) {
        if (s <= 0 || s > 1.0) {
            ++table.rejected_;
            continue;
        }
        mapping::ChipPlan plan = art.plan;
        bool ok = true;
        for (auto &p : plan.placements) {
            p.f_needed_mhz *= s;
            unsigned d =
                unsigned(plan.ref_freq_mhz / p.f_needed_mhz);
            if (!mapping::refreshPlacement(p, plan.ref_freq_mhz, d,
                                           levels)) {
                ok = false;
                break;
            }
        }
        auto [cols, zorms] =
            ok ? planZorms(plan, art.prog)
               : std::pair<std::vector<unsigned>,
                           std::vector<mapping::ZormSetting>>{};
        if (ok)
            ok = candidateReport(art, plan, zorms, s).ok();
        if (!ok) {
            if (s == 1.0) {
                fatal("safe-transition table: the baseline plan of "
                      "'%s' fails its own static proof",
                      art.name.c_str());
            }
            ++table.rejected_;
            continue;
        }
        DvfsOperatingPoint pt;
        pt.rate_scale = s;
        pt.plan = plan;
        pt.dividers = plan.dividers();
        pt.zorm_columns = cols;
        pt.zorms = zorms;
        table.points_.push_back(std::move(pt));
    }

    std::sort(table.points_.begin(), table.points_.end(),
              [](const DvfsOperatingPoint &a,
                 const DvfsOperatingPoint &b) {
                  return a.rate_scale < b.rate_scale;
              });
    table.baseline_ = table.points_.size() - 1;
    for (size_t i = 0; i < table.points_.size(); ++i) {
        if (table.points_[i].rate_scale == 1.0)
            table.baseline_ = i;
    }
    return table;
}

mapping::VerifyReport
SafeTransitionTable::candidateReport(
    const mapping::LoweredArtifact &art,
    const mapping::ChipPlan &plan,
    const std::vector<mapping::ZormSetting> &zorms, double rate_scale)
{
    if (zorms.size() != art.prog.columns.size()) {
        mapping::VerifyReport rep;
        rep.add(mapping::Severity::Error, "zorm",
                strprintf("%zu ZORM settings for %zu columns",
                          zorms.size(), art.prog.columns.size()));
        return rep;
    }
    mapping::PipelineProgram prog = art.prog;
    for (size_t i = 0; i < prog.columns.size(); ++i)
        prog.columns[i].zorm = zorms[i];
    return mapping::verifyLowered(art.spec, plan, prog,
                                  art.iterations_per_sec * rate_scale,
                                  art.slack);
}

size_t
SafeTransitionTable::indexOf(
    const std::vector<unsigned> &dividers) const
{
    for (size_t i = 0; i < points_.size(); ++i) {
        if (points_[i].dividers == dividers)
            return i;
    }
    return npos;
}

std::string
SafeTransitionTable::describe() const
{
    std::string out = strprintf(
        "%zu verified operating points (%zu rejected), baseline %zu\n",
        points_.size(), rejected_, baseline_);
    for (size_t i = 0; i < points_.size(); ++i) {
        const DvfsOperatingPoint &pt = points_[i];
        out += strprintf("  [%zu] x%.3f dividers", i, pt.rate_scale);
        for (unsigned d : pt.dividers)
            out += strprintf(" %u", d);
        out += "\n";
    }
    return out;
}

void
applyOperatingPoint(arch::Chip &chip, const DvfsOperatingPoint &point)
{
    chip.retune(point.dividers);
    for (size_t j = 0; j < point.zorms.size(); ++j) {
        chip.column(point.zorm_columns[j])
            .controller()
            .setRateMatch(point.zorms[j].nops,
                          point.zorms[j].period);
    }
}

DvfsGovernor::DvfsGovernor(const SafeTransitionTable &table,
                           double nominal_window_ticks,
                           DvfsGovernorConfig cfg)
    : table_(table), cfg_(cfg),
      nominal_window_ticks_(nominal_window_ticks),
      current_(table.baselineIndex()),
      measured_busy_(table.points().size(), 0),
      max_deferrals_(table.points().size(), 0)
{
    if (table_.points().empty())
        fatal("DvfsGovernor: empty safe-transition table");
    if (nominal_window_ticks_ <= 0)
        fatal("DvfsGovernor: need a positive nominal window, got %g",
              nominal_window_ticks_);
}

void
DvfsGovernor::observe(size_t point, uint64_t busy_ticks,
                      const ActivityReport &delta,
                      uint64_t bus_deferrals)
{
    if (point >= table_.points().size())
        fatal("DvfsGovernor::observe: point %zu out of range", point);
    // Keep the slowest item seen per point: items carry constant
    // work per app, but data-dependent branches wobble slightly, and
    // the governor must never promise a window the worst item can't
    // meet.
    measured_busy_[point] =
        std::max(measured_busy_[point], busy_ticks);
    max_deferrals_[point] =
        std::max(max_deferrals_[point], bus_deferrals);
    if (work_slots_.size() < delta.columns.size())
        work_slots_.resize(delta.columns.size(), 0);
    for (const ColumnActivity &col : delta.columns) {
        // Occupancy feedforward: compute + branch-stall + comm-stall
        // slots are the item's demand on the column; ZORM-idle nops
        // are the current point's own padding and excluded (they are
        // exactly what a retune reclaims).
        uint64_t w = col.compute_slots + col.branch_stalls +
                     col.comm_stall_slots;
        work_slots_[col.column] =
            std::max(work_slots_[col.column], w);
    }
}

uint64_t
DvfsGovernor::predictedBusyTicks(size_t point) const
{
    if (point >= table_.points().size())
        return std::numeric_limits<uint64_t>::max();
    if (measured_busy_[point])
        return measured_busy_[point];

    // Unvisited point: scale the calibrated per-column useful-slot
    // demand by the point's ZORM fraction and divider. Without any
    // calibration yet the estimate is unusable — report infinity so
    // decide() stays at the baseline until the first observation.
    const DvfsOperatingPoint &pt = table_.points()[point];
    uint64_t est = 0;
    bool any = false;
    for (size_t j = 0; j < pt.zorms.size(); ++j) {
        unsigned c = pt.zorm_columns[j];
        if (c >= work_slots_.size() || work_slots_[c] == 0)
            continue;
        any = true;
        double useful = pt.zorms[j].usefulFraction();
        double slots = double(work_slots_[c]) /
                       (useful > 0 ? useful : 1.0);
        double ticks = slots * pt.dividers[c] * cfg_.headroom;
        est = std::max(est, uint64_t(std::ceil(ticks)));
    }
    if (!any)
        return std::numeric_limits<uint64_t>::max();
    // Physical floor: no point drains faster than the fastest
    // (baseline) point has been measured to.
    uint64_t base = measured_busy_[table_.baselineIndex()];
    return std::max(est, base);
}

size_t
DvfsGovernor::decide(double declared_rate_scale)
{
    size_t chosen = table_.baselineIndex();
    if (declared_rate_scale <= 0) {
        // An idle gap has no deadline: the cheapest verified point.
        chosen = 0;
    } else {
        double window =
            nominal_window_ticks_ / declared_rate_scale;
        uint64_t budget = uint64_t(cfg_.setpoint * window);
        for (size_t i = 0; i < table_.points().size(); ++i) {
            if (predictedBusyTicks(i) <= budget) {
                chosen = i;
                break;
            }
        }
    }
    decisions_.push_back(chosen);
    current_ = chosen;
    return chosen;
}

bool
DvfsGovernor::applyPoint(arch::Chip &chip, size_t point)
{
    if (point >= table_.points().size())
        return false;
    if (!chip.atReconfigPoint())
        return false;
    applyOperatingPoint(chip, table_.points()[point]);
    applied_.push_back(point);
    current_ = point;
    return true;
}

bool
DvfsGovernor::applyDividers(arch::Chip &chip,
                            const std::vector<unsigned> &dividers)
{
    size_t idx = table_.indexOf(dividers);
    if (idx == SafeTransitionTable::npos)
        return false; // no precomputed proof -> never applied
    return applyPoint(chip, idx);
}

void
DvfsGovernor::noteDeadlineMiss()
{
    ++deadline_misses_;
    // The measured busy time of the current point already reflects
    // the overrun; inflate it slightly so a point that misses right
    // at the boundary is not re-picked by a hair.
    measured_busy_[current_] += measured_busy_[current_] / 16 + 1;
}

size_t
measuredOraclePoint(const SafeTransitionTable &table,
                    const std::vector<uint64_t> &busy_by_point,
                    double declared_rate_scale,
                    double nominal_window_ticks, double setpoint)
{
    if (declared_rate_scale <= 0)
        return 0;
    double window = nominal_window_ticks / declared_rate_scale;
    uint64_t budget = uint64_t(setpoint * window);
    for (size_t i = 0; i < table.points().size(); ++i) {
        if (i < busy_by_point.size() && busy_by_point[i] <= budget)
            return i;
    }
    return table.baselineIndex();
}

GovernedRunResult
runGoverned(const DvfsAppHooks &app,
            const sim::TrafficScenario &scenario,
            const GovernedRunOptions &opt)
{
    using clock = std::chrono::steady_clock;

    if (app.iterations_per_item == 0)
        fatal("runGoverned(%s): iterations_per_item must be set",
              app.name.c_str());

    SystemPowerModel model;
    VfModel vf;
    SupplyLevels levels(vf);

    SafeTransitionTable table = SafeTransitionTable::build(
        app.artifact, opt.governor.rate_scales, levels);

    double ref_hz = app.artifact.plan.ref_freq_mhz * 1e6;
    double window_sec = double(app.iterations_per_item) /
                        app.artifact.iterations_per_sec;
    double window_ticks = window_sec * ref_hz;

    GovernedRunResult res;
    res.app = app.name;
    res.policy = opt.policy;
    res.table_points = table.points().size();
    res.table_rejected = table.rejected();

    const sim::FleetWorkload &wl = app.workload;
    std::unique_ptr<arch::Chip> chip = wl.build(opt.scheduler);

    // Oracle calibration: one probe item per point, on a clone so
    // the measured chip's counters stay clean. The probe must run
    // before the main chip does (clone is only legal at tick 0).
    std::vector<uint64_t> busy_by_point;
    if (opt.policy == DvfsPolicy::Oracle) {
        std::unique_ptr<arch::Chip> probe = chip->clone();
        for (const DvfsOperatingPoint &pt : table.points()) {
            applyOperatingPoint(*probe, pt);
            wl.feed(*probe, 0);
            arch::RunResult r =
                probe->run(itemBudget(wl.tick_limit, pt));
            busy_by_point.push_back(
                r.exit == arch::RunExit::AllHalted
                    ? r.ticks
                    : std::numeric_limits<uint64_t>::max());
        }
    }

    DvfsGovernorConfig gcfg = opt.governor;
    gcfg.setpoint = app.setpoint > 0 ? app.setpoint : gcfg.setpoint;
    DvfsGovernor gov(table, window_ticks, gcfg);

    // Epoch accumulator: counters zeroed, column shapes (index,
    // active tiles) from the programmed chip.
    ActivityReport shape = collectActivity(*chip);
    ActivityReport acc = shape;
    for (ColumnActivity &c : acc.columns) {
        c.issue_slots = c.compute_slots = 0;
        c.branch_stalls = c.comm_stall_slots = c.zorm_nops = 0;
        c.utilization = 0;
    }
    acc.bus_transfers = acc.wire_span_sum = 0;
    const ActivityReport acc_zero = acc;
    double acc_seconds = 0;

    size_t cur = table.baselineIndex();

    auto closeEpoch = [&]() {
        if (acc_seconds <= 0)
            return;
        res.epochs.push_back({acc, acc_seconds});
        acc = acc_zero;
        acc_seconds = 0;
    };
    auto padIdle = [&](double idle_ticks) {
        // Active idle: the columns keep clocking at the CURRENT
        // point, so the epoch's priced frequency stays the
        // configured one (slots = ticks / divider => f = f_column).
        const DvfsOperatingPoint &pt = table.points()[cur];
        for (ColumnActivity &c : acc.columns) {
            if (c.active_tiles == 0)
                continue;
            c.issue_slots +=
                uint64_t(idle_ticks / pt.dividers[c.column]);
        }
    };
    auto switchTo = [&](size_t target) {
        if (target == cur)
            return;
        closeEpoch();
        if (opt.policy == DvfsPolicy::Governed) {
            if (!gov.applyPoint(*chip, target)) {
                fatal("runGoverned(%s): governor failed to apply "
                      "verified point %zu",
                      app.name.c_str(), target);
            }
        } else {
            applyOperatingPoint(*chip, table.points()[target]);
        }
        cur = target;
    };

    for (const sim::TrafficEvent &ev : scenario.events()) {
        if (ev.idle) {
            if (opt.policy == DvfsPolicy::Governed)
                switchTo(gov.decide(0));
            else if (opt.policy == DvfsPolicy::Oracle)
                switchTo(measuredOraclePoint(table, busy_by_point, 0,
                                             window_ticks,
                                             gcfg.setpoint));
            double sec = ev.windows * window_sec;
            padIdle(ev.windows * window_ticks);
            acc_seconds += sec;
            res.stream_seconds += sec;
            continue;
        }

        size_t target = table.baselineIndex();
        if (opt.policy == DvfsPolicy::Governed)
            target = gov.decide(ev.rate_scale);
        else if (opt.policy == DvfsPolicy::Oracle)
            target = measuredOraclePoint(table, busy_by_point,
                                         ev.rate_scale, window_ticks,
                                         gcfg.setpoint);
        switchTo(target);

        wl.feed(*chip, ev.item);
        ActivityReport before = collectActivity(*chip);
        uint64_t def_before = busDeferrals(*chip);
        auto t0 = clock::now();
        arch::RunResult r =
            chip->run(itemBudget(wl.tick_limit, table.points()[cur]));
        res.sim_seconds +=
            std::chrono::duration<double>(clock::now() - t0).count();
        ActivityReport after = collectActivity(*chip);

        uint64_t busy = r.ticks;
        res.busy_ticks += busy;
        ++res.items;
        res.trajectory.push_back(cur);

        if (r.exit != arch::RunExit::AllHalted) {
            res.bit_exact = false;
            if (res.first_failure.empty()) {
                res.first_failure = strprintf(
                    "%s item %llu did not drain at point %zu",
                    app.name.c_str(), (unsigned long long)ev.item,
                    cur);
            }
        } else {
            std::vector<uint8_t> out = wl.read_output(*chip);
            if (opt.verify_outputs) {
                std::vector<uint8_t> want = wl.golden(ev.item);
                if (out != want) {
                    res.bit_exact = false;
                    if (res.first_failure.empty()) {
                        res.first_failure = strprintf(
                            "%s item %llu mismatches its golden at "
                            "point %zu",
                            app.name.c_str(),
                            (unsigned long long)ev.item, cur);
                    }
                }
            }
            if (opt.keep_outputs)
                res.outputs.push_back(std::move(out));
        }

        double ev_window_ticks = ev.windows * window_ticks;
        bool missed = double(busy) > ev_window_ticks;
        if (missed) {
            ++res.deadline_misses;
            if (opt.policy == DvfsPolicy::Governed)
                gov.noteDeadlineMiss();
        }
        const ActivityReport delta = activityDelta(before, after);
        if (opt.policy == DvfsPolicy::Governed) {
            gov.observe(cur, busy, delta,
                        busDeferrals(*chip) - def_before);
        }

        // The event's wall share: the arrival window, stretched when
        // the item overran it. The slack between drain and window is
        // active idle at the current point's clocks.
        double ev_sec =
            std::max(ev.windows * window_sec, double(busy) / ref_hz);
        for (size_t c = 0; c < acc.columns.size(); ++c) {
            ColumnActivity &a = acc.columns[c];
            const ColumnActivity &d = delta.columns[c];
            a.compute_slots += d.compute_slots;
            a.branch_stalls += d.branch_stalls;
            a.comm_stall_slots += d.comm_stall_slots;
            a.zorm_nops += d.zorm_nops;
            a.issue_slots += d.issue_slots;
        }
        acc.bus_transfers += delta.bus_transfers;
        acc.wire_span_sum += delta.wire_span_sum;
        if (!missed)
            padIdle(ev_window_ticks - double(busy));
        acc_seconds += ev_sec;
        res.stream_seconds += ev_sec;
    }
    closeEpoch();

    if (!res.epochs.empty()) {
        res.power = priceActivityEpochs(res.epochs,
                                        chip->numColumns(), levels,
                                        model);
    }
    return res;
}

} // namespace synchro::power
