/**
 * @file
 * Static plan/program verifier implementation.
 *
 * The analyses here mirror the execution semantics of
 * arch/simd_controller.cc (issue order, loop-end unwinding) and
 * arch/bus.cc (tag-matched pops, self-timed deferral) *exactly* —
 * every proof below is sound only because the abstract step rules
 * are the concrete ones with data values erased. When those files
 * change, change this one. The DOU programs are not interpreted
 * here: the "slots" check walks the arch::BusTimeline the chip runs.
 */

#include "mapping/verifier.hh"

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "arch/bus_timeline.hh"
#include "arch/dou.hh"
#include "common/log.hh"
#include "isa/uop.hh"

namespace synchro::mapping
{

namespace
{

using detail::CommEvent;
using detail::WalkResult;
using isa::MicroOp;
using isa::UopKind;

constexpr uint32_t AllUnits = (1u << isa::NumRegUnits) - 1;

std::string
severityName(Severity s)
{
    switch (s) {
      case Severity::Error:
        return "error";
      case Severity::Warning:
        return "warning";
      default:
        return "note";
    }
}

} // namespace

// ---------------------------------------------------------------------
// Abstract comm-sequence walk
// ---------------------------------------------------------------------

/**
 * Concretely walk @p uops with the controller's advance rules. Loop
 * trip counts are static (`lsetup` immediates), so the walk is exact
 * for branch-free programs. Conditional branches are handled by the
 * comm-transparency rules documented inline; anything else degrades
 * the walk to textual lane sets.
 *
 * Cost is O(program + comm events): a loop whose body is
 * straight-line code with properly nested inner loops is charged
 * trip x body slots in closed form, its comm ops listed from one
 * iteration's positions, instead of being stepped — with the
 * budget, re-arm and loop-unwinding outcomes of stepping it.
 */
detail::WalkResult
detail::walkComm(const std::vector<MicroOp> &uops, uint64_t budget)
{
    WalkResult w;
    for (const MicroOp &u : uops) {
        if (u.kind == UopKind::CommRead)
            w.read_lanes.insert(u.imm);
        else if (u.kind == UopKind::CommWrite)
            w.write_lanes.insert(u.imm);
    }

    const size_t n = uops.size();

    // A region is comm-transparent when executing it (or skipping it)
    // cannot change the program's comm sequence: no comm ops, no
    // control transfers out of it, and any loop armed inside it also
    // completes inside it.
    auto plainRegion = [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi && i < n; ++i) {
            switch (uops[i].kind) {
              case UopKind::Halt:
              case UopKind::Jump:
              case UopKind::Jcc:
              case UopKind::Jncc:
              case UopKind::CommRead:
              case UopKind::CommWrite:
                return false;
              case UopKind::Lsetup:
                if (uops[i].end > hi)
                    return false;
                break;
              default:
                break;
            }
        }
        return true;
    };

    // Closed form of one full execution of a branch-free loop. The
    // body [lo, hi) must run straight through: no control transfer,
    // every nested lsetup well-formed, ending inside its enclosing
    // loop and arming a unit none of its enclosing loops in the body
    // holds. Then every iteration issues the same slots with the
    // same comm ops at the same positions. `slots` saturates past
    // the budget, where every larger count walks the same (and no
    // comm op is listed: an exhausted walk keeps none).
    struct Closed
    {
        bool ok = false;
        uint64_t slots = 0; //!< issue slots, the lsetup excluded
        uint32_t units = 0; //!< loop units the body's lsetups arm
        std::vector<uint32_t> comm; //!< comm op pcs, in issue order
    };
    const uint64_t saturated = budget + 1;
    // A unit past the mask never takes the closed form.
    auto unitBit = [](uint8_t unit) {
        return unit < 32 ? uint32_t(1) << unit : 0;
    };
    auto repeat = [&](Closed c, uint64_t trip) {
        if (c.slots > saturated / trip) {
            c.slots = saturated;
            c.comm.clear();
            return c;
        }
        const size_t per = c.comm.size();
        c.comm.reserve(per * trip);
        for (uint64_t k = 1; k < trip; ++k) {
            for (size_t j = 0; j < per; ++j)
                c.comm.push_back(c.comm[j]);
        }
        c.slots *= trip;
        return c;
    };
    auto body = [&](size_t lo, size_t hi, uint32_t held,
                    auto &&self) -> Closed {
        Closed c;
        auto issue = [&](uint64_t k) {
            c.slots = std::min(saturated, c.slots + k);
            if (c.slots == saturated)
                c.comm.clear();
        };
        for (size_t i = lo; i < hi;) {
            const MicroOp &u = uops[i];
            switch (u.kind) {
              case UopKind::Halt:
              case UopKind::Jump:
              case UopKind::Jcc:
              case UopKind::Jncc:
                return Closed{};
              case UopKind::CommRead:
              case UopKind::CommWrite:
                issue(1);
                if (c.slots < saturated)
                    c.comm.push_back(uint32_t(i));
                ++i;
                continue;
              case UopKind::Lsetup: {
                const uint32_t bit = unitBit(u.acc);
                if (u.imm <= 0 || u.end <= i + 1 || u.end > hi ||
                    !bit || (held & bit))
                    return Closed{};
                const Closed in = self(i + 1, u.end, held | bit, self);
                if (!in.ok)
                    return Closed{};
                const Closed loop = repeat(in, uint64_t(u.imm));
                issue(1 + loop.slots);
                if (c.slots < saturated)
                    c.comm.insert(c.comm.end(), loop.comm.begin(),
                                  loop.comm.end());
                c.units |= bit | loop.units;
                i = u.end;
                continue;
              }
              default:
                issue(1);
                ++i;
                continue;
            }
        }
        c.ok = true;
        return c;
    };
    std::vector<std::optional<Closed>> closed(n); //!< per lsetup pc

    struct Loop
    {
        uint32_t start, end, remaining;
        uint8_t unit;
    };
    std::vector<Loop> stack;

    // Mirror of SimdController::advancePc(): unwind loop ends from
    // the top of the stack.
    auto advance = [&](uint32_t from) {
        uint32_t next = from + 1;
        while (!stack.empty() && next == stack.back().end) {
            if (--stack.back().remaining > 0) {
                next = stack.back().start;
                break;
            }
            stack.pop_back();
        }
        return next;
    };

    auto inexact = [&](std::string why) {
        w.sequence_exact = false;
        w.timing_exact = false;
        if (w.inexact_why.empty())
            w.inexact_why = std::move(why);
        w.events.clear();
    };

    uint32_t pc = 0;
    while (true) {
        if (pc >= n) {
            inexact("pc fell off the program end");
            return w;
        }
        if (w.total_slots >= budget) {
            inexact("walk budget exceeded");
            return w;
        }
        const MicroOp &u = uops[pc];
        ++w.total_slots;
        switch (u.kind) {
          case UopKind::Halt:
            return w;
          case UopKind::Jump:
            if (u.imm < 0 || uint32_t(u.imm) >= n) {
                inexact("jump target out of range");
                return w;
            }
            pc = uint32_t(u.imm);
            continue;
          case UopKind::Jcc:
          case UopKind::Jncc: {
            // Which way a conditional branch goes is data-dependent,
            // so slot counts stop being exact here (and the taken path
            // also costs a branch-stall cycle the walk does not
            // model).
            w.timing_exact = false;
            if (u.imm < 0 || uint32_t(u.imm) >= n) {
                inexact("branch target out of range");
                return w;
            }
            const uint32_t tgt = uint32_t(u.imm);
            bool armed_end = false;
            for (const Loop &l : stack)
                armed_end = armed_end || l.end == tgt;
            if (tgt > pc && plainRegion(pc + 1, tgt) && !armed_end) {
                // Forward skip over a comm-transparent region: both
                // paths produce the same comm sequence (a taken
                // branch jumps straight to tgt without loop-end
                // processing, hence the armed_end guard). Walk the
                // fall-through path.
                pc = advance(pc);
            } else if (tgt <= pc && plainRegion(tgt, pc)) {
                // Backward data-dependent loop over a
                // comm-transparent body: however many times the real
                // run iterates, no comm happens; walk the exit path.
                pc = advance(pc);
            } else {
                inexact(strprintf("data-dependent branch at pc %u "
                                  "spans communication",
                                  pc));
                return w;
            }
            continue;
          }
          case UopKind::Lsetup: {
            if (u.imm <= 0 || u.end <= pc + 1 || u.end > n) {
                inexact(strprintf("malformed lsetup at pc %u", pc));
                return w;
            }
            uint32_t held = 0;
            for (const Loop &l : stack) {
                if (l.unit == u.acc) {
                    inexact(strprintf(
                        "loop unit lc%u re-armed at pc %u while "
                        "active",
                        unsigned(u.acc), pc));
                    return w;
                }
                held |= unitBit(l.unit);
            }
            if (!closed[pc]) {
                const uint32_t bit = unitBit(u.acc);
                closed[pc] = bit ? repeat(body(pc + 1, u.end, bit, body),
                                          uint64_t(u.imm))
                                 : Closed{};
            }
            const Closed &c = *closed[pc];
            if (c.ok && !(c.units & held)) {
                // Every slot of the loop runs before the budget runs
                // out, or the walk ends inside it; resume after its
                // last iteration.
                if (w.total_slots + c.slots > budget) {
                    w.total_slots = budget;
                    inexact("walk budget exceeded");
                    return w;
                }
                for (uint32_t cpc : c.comm) {
                    CommEvent e;
                    e.is_read = uops[cpc].kind == UopKind::CommRead;
                    e.lane = uops[cpc].imm;
                    w.events.push_back(e);
                }
                w.total_slots += c.slots;
                stack.push_back({pc + 1, u.end, 1, u.acc});
                pc = advance(u.end - 1);
                continue;
            }
            stack.push_back(
                {pc + 1, u.end, uint32_t(u.imm), u.acc});
            pc = advance(pc);
            continue;
          }
          case UopKind::CommRead:
          case UopKind::CommWrite: {
            CommEvent e;
            e.is_read = u.kind == UopKind::CommRead;
            e.lane = u.imm;
            w.events.push_back(e);
            pc = advance(pc);
            continue;
          }
          default:
            pc = advance(pc);
            continue;
        }
    }
}

arch::BusTimeline
detail::douTimeline(const PipelineProgram &prog)
{
    const auto idle =
        std::make_shared<const arch::DouProgram>(arch::DouProgram::idle());
    std::vector<std::shared_ptr<const arch::DouProgram>> programs(
        prog.total_columns, idle);
    for (const ColumnProgram &col : prog.columns) {
        if (col.column < programs.size() && col.dou.malformed().empty())
            programs[col.column] =
                std::make_shared<const arch::DouProgram>(col.dou);
    }
    return arch::BusTimeline(std::move(programs));
}

namespace
{

// ---------------------------------------------------------------------
// Shared analysis state
// ---------------------------------------------------------------------

struct EdgeInfo
{
    size_t src = 0, dst = 0; //!< stage indices
    unsigned lane = 0;
    uint64_t src_words = 0, dst_words = 0; //!< words per firing
};

struct ColInfo
{
    const ColumnProgram *col = nullptr;
    const DagStage *stage = nullptr;
    const ActorPlacement *place = nullptr;
    std::vector<MicroOp> uops;
    WalkResult walk;
    std::vector<size_t> in_edges, out_edges; //!< edge indices
    std::vector<CommEvent> events; //!< lane-normalized (tags check)
    bool events_ok = false; //!< events usable for the token replay
};

struct Analysis
{
    const DagSpec *spec = nullptr;
    const ChipPlan *plan = nullptr;
    const PipelineProgram *prog = nullptr;
    double rate = 0;
    double slack = 1;
    double ref_hz = 0;
    std::vector<ColInfo> cols;   //!< parallel to spec->stages
    std::vector<EdgeInfo> edges; //!< parallel to spec->edges
    bool slots_clean = true;     //!< set by checkSlots
};

/**
 * Resolve stages <-> columns <-> placements <-> edges and decode
 * every program. Shape problems (an artifact whose pieces no longer
 * name each other) are reported under "slots" and abort the analysis
 * — nothing else is provable about mismatched pieces.
 */
bool
resolve(Analysis &a, VerifyReport &rep)
{
    const DagSpec &spec = *a.spec;
    const PipelineProgram &prog = *a.prog;

    auto shape = [&](std::string msg) {
        rep.add(Severity::Error, "slots",
                "artifact shape: " + std::move(msg));
        return false;
    };

    if (spec.stages.empty())
        return shape("no stages");
    if (prog.columns.size() != spec.stages.size())
        return shape(strprintf("%zu programmed columns for %zu "
                               "stages",
                               prog.columns.size(),
                               spec.stages.size()));
    if (prog.lanes.size() != spec.edges.size())
        return shape(strprintf("%zu lane bindings for %zu edges",
                               prog.lanes.size(),
                               spec.edges.size()));
    if (a.plan->ref_freq_mhz <= 0)
        return shape("non-positive reference frequency");
    a.ref_hz = a.plan->ref_freq_mhz * 1e6;

    std::map<std::string, size_t> idx;
    for (size_t i = 0; i < spec.stages.size(); ++i) {
        if (!idx.emplace(spec.stages[i].actor, i).second)
            return shape("duplicate stage '" + spec.stages[i].actor +
                         "'");
    }

    a.cols.resize(spec.stages.size());
    std::set<unsigned> columns;
    for (const ColumnProgram &col : prog.columns) {
        auto it = idx.find(col.actor);
        if (it == idx.end())
            return shape("column for unknown actor '" + col.actor +
                         "'");
        ColInfo &ci = a.cols[it->second];
        if (ci.col)
            return shape("two columns run actor '" + col.actor +
                         "'");
        ci.col = &col;
        ci.stage = &spec.stages[it->second];
        for (const ActorPlacement &p : a.plan->placements) {
            if (p.actor == col.actor)
                ci.place = &p;
        }
        if (!ci.place)
            return shape("actor '" + col.actor +
                         "' has no placement in the plan");
        if (col.column >= prog.total_columns)
            return shape(strprintf("actor '%s' on column %u of %u",
                                   col.actor.c_str(), col.column,
                                   prog.total_columns));
        if (!columns.insert(col.column).second)
            return shape(strprintf("two actors on column %u",
                                   col.column));
        ci.uops = isa::decodeProgram(col.program)->uops;
    }
    for (size_t i = 0; i < a.cols.size(); ++i) {
        if (!a.cols[i].col)
            return shape("stage '" + spec.stages[i].actor +
                         "' has no programmed column");
    }

    for (size_t e = 0; e < spec.edges.size(); ++e) {
        const DagEdgeSpec &es = spec.edges[e];
        auto s = idx.find(es.src), d = idx.find(es.dst);
        if (s == idx.end() || d == idx.end())
            return shape(strprintf("edge %zu references an unknown "
                                   "actor",
                                   e));
        EdgeInfo ei;
        ei.src = s->second;
        ei.dst = d->second;
        ei.lane = prog.lanes[e];
        if (ei.lane >= arch::BusLanes)
            return shape(strprintf("edge %zu bound to lane %u (bus "
                                   "has %u)",
                                   e, ei.lane, arch::BusLanes));
        ei.src_words = es.src_words_per_firing;
        ei.dst_words = es.dst_words_per_firing;
        a.cols[ei.src].out_edges.push_back(e);
        a.cols[ei.dst].in_edges.push_back(e);
        a.edges.push_back(ei);
    }

    for (ColInfo &ci : a.cols)
        ci.walk = detail::walkComm(ci.uops);
    return true;
}

// ---------------------------------------------------------------------
// "program": register dataflow + issue-slot accounting
// ---------------------------------------------------------------------

void
checkProgram(Analysis &a, VerifyReport &rep)
{
    for (ColInfo &ci : a.cols) {
        const std::vector<MicroOp> &uops = ci.uops;
        const size_t n = uops.size();
        const std::string &actor = ci.stage->actor;
        if (n == 0) {
            rep.add(Severity::Error, "program",
                    "actor '" + actor + "': empty program");
            continue;
        }

        // Successor sets. A linear advance from pc can also re-enter
        // any loop whose end address is pc+1 — tracking which loops
        // are armed needs path context, so take the superset: it can
        // only under-approximate the must-init sets (sound) and
        // over-approximate liveness (fewer dead-write warnings).
        std::vector<std::vector<uint32_t>> body_start_at(n + 1);
        bool malformed = false;
        for (size_t i = 0; i < n && !malformed; ++i) {
            const MicroOp &u = uops[i];
            if (u.kind == UopKind::Lsetup) {
                if (u.imm <= 0 || u.end <= i + 1 || u.end > n) {
                    rep.add(Severity::Error, "program",
                            strprintf("actor '%s': malformed lsetup "
                                      "at pc %zu",
                                      actor.c_str(), i));
                    malformed = true;
                } else {
                    body_start_at[u.end].push_back(uint32_t(i + 1));
                }
            } else if (u.kind == UopKind::Jump ||
                       u.kind == UopKind::Jcc ||
                       u.kind == UopKind::Jncc) {
                if (u.imm < 0 || uint32_t(u.imm) >= n) {
                    rep.add(Severity::Error, "program",
                            strprintf("actor '%s': branch target %d "
                                      "out of range at pc %zu",
                                      actor.c_str(), u.imm, i));
                    malformed = true;
                }
            }
        }
        if (malformed)
            continue;

        // The successors of pc i are succ[succ_at[i]] up to
        // succ[succ_at[i + 1]]: one flat array, not a vector per pc.
        std::vector<uint32_t> succ, succ_at{0};
        for (size_t i = 0; i < n; ++i) {
            const MicroOp &u = uops[i];
            auto linear = [&](uint32_t next) {
                if (next < n)
                    succ.push_back(next);
                for (uint32_t b : body_start_at[next])
                    succ.push_back(b);
            };
            switch (u.kind) {
              case UopKind::Halt:
                break;
              case UopKind::Jump:
                succ.push_back(uint32_t(u.imm));
                break;
              case UopKind::Jcc:
              case UopKind::Jncc:
                succ.push_back(uint32_t(u.imm));
                linear(uint32_t(i + 1));
                break;
              default:
                linear(uint32_t(i + 1));
                break;
            }
            succ_at.push_back(uint32_t(succ.size()));
        }

        std::vector<isa::UopEffects> eff(n);
        for (size_t i = 0; i < n; ++i)
            eff[i] = isa::uopEffects(uops[i]);

        // Must-initialize forward dataflow: in[pc] = the register
        // units written on EVERY path from entry. A read outside
        // in[pc] can observe the architectural reset value — the bug
        // class the runners could previously only catch dynamically.
        std::vector<uint32_t> in(n, AllUnits);
        std::vector<char> reach(n, 0);
        in[0] = 0;
        reach[0] = 1;
        std::vector<uint32_t> work{0};
        while (!work.empty()) {
            uint32_t i = work.back();
            work.pop_back();
            const uint32_t out = in[i] | eff[i].writes;
            for (uint32_t k = succ_at[i]; k < succ_at[i + 1]; ++k) {
                const uint32_t s = succ[k];
                uint32_t next = reach[s] ? (in[s] & out) : out;
                if (!reach[s] || next != in[s]) {
                    in[s] = next;
                    reach[s] = 1;
                    work.push_back(s);
                }
            }
        }
        for (size_t i = 0; i < n; ++i) {
            if (!reach[i])
                continue;
            uint32_t missing = eff[i].reads & ~in[i];
            if (!missing)
                continue;
            std::string units;
            for (unsigned u = 0; u < isa::NumRegUnits; ++u) {
                if (missing & (1u << u)) {
                    if (!units.empty())
                        units += ", ";
                    units += isa::regUnitName(u);
                }
            }
            rep.add(Severity::Error, "program",
                    strprintf("uninitialized read: actor '%s' pc %zu "
                              "reads %s before any write reaches it",
                              actor.c_str(), i, units.c_str()));
        }

        // May-liveness backward dataflow for dead writes. Post-modify
        // pointer updates are addressing idiom (the increment rides
        // along for free), so a dead pointer write on Load/Store is
        // not reported.
        std::vector<uint32_t> live(n, 0);
        bool changed = true;
        while (changed) {
            changed = false;
            for (size_t r = n; r-- > 0;) {
                uint32_t out = 0;
                for (uint32_t k = succ_at[r]; k < succ_at[r + 1]; ++k)
                    out |= live[succ[k]];
                uint32_t li = eff[r].reads | (out & ~eff[r].writes);
                if (li != live[r]) {
                    live[r] = li;
                    changed = true;
                }
            }
        }
        for (size_t i = 0; i < n; ++i) {
            if (!reach[i])
                continue;
            uint32_t out = 0;
            for (uint32_t k = succ_at[i]; k < succ_at[i + 1]; ++k)
                out |= live[succ[k]];
            uint32_t dead = eff[i].writes & ~out;
            if (uops[i].kind == UopKind::Store ||
                ((uops[i].kind == UopKind::Load) &&
                 (uops[i].flags & isa::UopPostMod))) {
                dead &= ~(1u << (isa::UnitPtr0 + uops[i].rs1));
            }
            if (!dead || succ_at[i] == succ_at[i + 1])
                continue;
            std::string units;
            for (unsigned u = 0; u < isa::NumRegUnits; ++u) {
                if (dead & (1u << u)) {
                    if (!units.empty())
                        units += ", ";
                    units += isa::regUnitName(u);
                }
            }
            rep.add(Severity::Warning, "program",
                    strprintf("dead write: actor '%s' pc %zu writes "
                              "%s but no path reads it",
                              actor.c_str(), i, units.c_str()));
        }

        // Issue-slot accounting: for branch-free programs the walk's
        // slot total is exact, so the steady-state firing-loop period
        // (slots per SDF iteration) is derivable and can be checked
        // against the divider + ZORM useful-slot budget.
        const DagStage &st = *ci.stage;
        if (ci.walk.timing_exact && st.per_iteration > 0 &&
            st.firings >= st.per_iteration && ci.place->divider > 0) {
            const double iters =
                double(st.firings) / double(st.per_iteration);
            const double slots_per_iter =
                double(ci.walk.total_slots) / iters;
            const double demand_hz = slots_per_iter * a.rate;
            const double avail_hz = a.ref_hz / ci.place->divider *
                                    ci.place->zorm.usefulFraction();
            if (demand_hz > avail_hz * 1.02) {
                rep.add(
                    Severity::Warning, "program",
                    strprintf("actor '%s' needs %.0f issue slots/s "
                              "(%.1f per iteration) but its column "
                              "provides %.0f useful slots/s — the "
                              "planned rate is not sustainable",
                              actor.c_str(), demand_hz,
                              slots_per_iter, avail_hz));
            }
        }
    }
}

// ---------------------------------------------------------------------
// "slots": conflict freedom, DOU/schedule agreement, feasibility
// ---------------------------------------------------------------------

/**
 * The DOU half of "slots", proven on the schedule the chip runs: the
 * bus timeline of the programs PipelineProgram::load leaves on the
 * chip (detail::douTimeline), walked for one period from reset. Every
 * active phase's (seg, buf) outputs must equal each column's
 * schedule, every scheduled transfer must fall on an active phase,
 * and at bus cycle `period` every DOU must be back at its reset
 * position, which extends the proof to every later period by
 * induction. Quiet phases move no data, so their segment switches
 * are not compared. One finding per column, the first in bus-cycle
 * order, in column order.
 */
std::vector<std::string>
douFindings(const Analysis &a)
{
    const PipelineProgram &prog = *a.prog;
    const size_t n = a.cols.size();
    std::vector<std::string> finding(n);

    // Each column's scheduled bus cycles in [0, period), ascending,
    // with their reference outputs. A zero-period schedule defines
    // none from its prologue on, so its column is not walked.
    struct Due
    {
        uint64_t cycle;
        const ActiveCycle *ref;
    };
    std::vector<std::vector<ActiveCycle>> active(n);
    std::vector<std::vector<Due>> due(n);
    for (size_t i = 0; i < n; ++i) {
        const std::string why = a.cols[i].col->dou.malformed();
        if (!why.empty()) {
            finding[i] = "actor '" + a.cols[i].stage->actor + "': " + why;
            continue;
        }
        const CommSchedule &sched = a.cols[i].col->schedule;
        active[i] = scheduleActiveCycles(sched);
        if (sched.period == 0) {
            if (sched.prologue < prog.period)
                finding[i] = "actor '" + a.cols[i].stage->actor +
                             "': zero schedule period; DOU replay skipped";
            continue;
        }
        for (uint64_t base = sched.prologue; base < prog.period;
             base += sched.period) {
            for (const ActiveCycle &c : active[i]) {
                if (base + c.offset >= prog.period)
                    break;
                due[i].push_back({base + c.offset, &c});
            }
        }
    }

    auto collect = [&finding] {
        std::vector<std::string> out;
        for (std::string &f : finding) {
            if (!f.empty())
                out.push_back(std::move(f));
        }
        return out;
    };
    const arch::BusTimeline tl = detail::douTimeline(prog);
    if (!tl.ready()) {
        std::vector<std::string> out = collect();
        out.push_back(strprintf(
            "the joint DOU schedule does not close within the bus "
            "timeline's bounds (%zu nodes, %llu comm-free steps); the "
            "chip would step its DOUs literally",
            arch::BusTimeline::MaxNodes,
            (unsigned long long)arch::BusTimeline::WalkBudget));
        return out;
    }

    // Check column i at bus cycle cyc, where its DOU outputs *out
    // (null in a quiet phase, where it neither drives nor captures).
    std::vector<size_t> next(n, 0); //!< first due entry not yet met
    const ActiveCycle idle;
    auto visit = [&](size_t i, uint64_t cyc, const arch::DouState *out) {
        const char *name = a.cols[i].stage->actor.c_str();
        const ActiveCycle *ref = &idle;
        if (next[i] < due[i].size() && due[i][next[i]].cycle == cyc)
            ref = due[i][next[i]++].ref;
        const bool diverges =
            out ? out->seg != ref->out.seg || out->buf != ref->out.buf
                : ref->out.drivesOrCaptures();
        if (!ref->malformed.empty()) {
            finding[i] = strprintf("actor '%s': schedule is malformed at "
                                   "bus cycle %llu (%s); DOU replay "
                                   "skipped",
                                   name, (unsigned long long)cyc,
                                   ref->malformed.c_str());
        } else if (diverges) {
            finding[i] = strprintf("actor '%s': DOU output diverges from "
                                   "its schedule at bus cycle %llu",
                                   name, (unsigned long long)cyc);
        }
    };
    auto quietUntil = [&](uint64_t end) {
        for (size_t i = 0; i < n; ++i) {
            while (finding[i].empty() && next[i] < due[i].size() &&
                   due[i][next[i]].cycle < end)
                visit(i, due[i][next[i]].cycle, nullptr);
        }
    };

    std::vector<arch::DouPosition> pos;
    uint64_t t = 0; //!< bus cycle at which the node's gap starts
    arch::BusTimeline::Cursor cur;
    while (true) {
        const arch::BusTimeline::Node &node = tl.node(cur.node);
        const uint64_t left = prog.period - t;
        if (node.gap >= left) {
            // The period ends in this gap (or at its active phase).
            quietUntil(prog.period);
            cur.used = left;
            break;
        }
        quietUntil(t + node.gap);
        tl.positionAt({cur.node, node.gap}, pos);
        for (size_t i = 0; i < n; ++i) {
            if (finding[i].empty()) {
                const ColumnProgram &col = *a.cols[i].col;
                visit(i, t + node.gap,
                      &col.dou.states[pos[col.column].state]);
            }
        }
        t += node.gap + 1;
        cur = {node.next, 0};
    }

    tl.positionAt(cur, pos);
    for (size_t i = 0; i < n; ++i) {
        const ColumnProgram &col = *a.cols[i].col;
        if (finding[i].empty() &&
            !(pos[col.column] == col.dou.resetPosition())) {
            finding[i] = "actor '" + a.cols[i].stage->actor +
                         "': DOU machine does not return to its initial "
                         "state after one period, so later periods "
                         "diverge from the schedule";
        }
    }
    return collect();
}

void
checkSlots(Analysis &a, VerifyReport &rep)
{
    const PipelineProgram &prog = *a.prog;
    bool clean = true;
    auto err = [&](std::string msg) {
        rep.add(Severity::Error, "slots", std::move(msg));
        clean = false;
    };

    std::set<unsigned> lanes_used;
    for (size_t e = 0; e < a.edges.size(); ++e) {
        if (!lanes_used.insert(a.edges[e].lane).second)
            err(strprintf("edge %zu shares bus lane %u with another "
                          "edge; tag-matched pops need one lane per "
                          "edge",
                          e, a.edges[e].lane));
    }

    // Global slot map: (offset, lane) -> owners. Two drives on one
    // lane in one bus cycle is the structural hazard the fabric
    // counts as a conflict; the verifier proves there are none.
    struct Owner
    {
        size_t col;
        bool drive;
    };
    std::map<std::pair<unsigned, unsigned>, std::vector<Owner>> slot;
    for (size_t c = 0; c < a.cols.size(); ++c) {
        const CommSchedule &sched = a.cols[c].col->schedule;
        if (sched.period != prog.period)
            err(strprintf("actor '%s' schedule period %u != program "
                          "period %u",
                          a.cols[c].stage->actor.c_str(),
                          sched.period, prog.period));
        if (sched.prologue != 0)
            err(strprintf("actor '%s' schedule has a prologue; the "
                          "lowerer never emits one",
                          a.cols[c].stage->actor.c_str()));
        for (const Transfer &t : sched.transfers) {
            if (t.offset >= sched.period || t.lane >= arch::BusLanes) {
                err(strprintf("actor '%s' transfer at offset %u lane "
                              "%u out of range",
                              a.cols[c].stage->actor.c_str(),
                              t.offset, t.lane));
                continue;
            }
            slot[{t.offset, t.lane}].push_back(
                {c, t.src_tile >= 0});
        }
    }
    for (const auto &[key, owners] : slot) {
        size_t drives = 0, captures = 0;
        for (const Owner &o : owners)
            (o.drive ? drives : captures) += 1;
        if (drives > 1 || captures > 1) {
            std::string who;
            for (const Owner &o : owners) {
                if (!who.empty())
                    who += ", ";
                who += "'" + a.cols[o.col].stage->actor + "'";
            }
            err(strprintf("conflicting slot assignment: bus cycle %u "
                          "lane %u is claimed more than once (%s)",
                          key.first, key.second, who.c_str()));
        } else if (drives == 1 && captures == 0) {
            rep.add(Severity::Warning, "slots",
                    strprintf("drive slot at bus cycle %u lane %u "
                              "has no capture; delivered words go "
                              "nowhere",
                              key.first, key.second));
        } else if (captures == 1 && drives == 0) {
            err(strprintf("capture slot at bus cycle %u lane %u has "
                          "no matching drive; the consumer's buffer "
                          "is never fed",
                          key.first, key.second));
        }
    }

    // Per-edge slot sets: the producer's drive offsets and the
    // consumer's capture offsets on the edge's lane must agree, and
    // their rate must cover the edge's token rate at the lowering's
    // grid pacing (slots are a delivery ceiling; the grid paces the
    // DAG at demand/slack).
    for (size_t e = 0; e < a.edges.size(); ++e) {
        const EdgeInfo &ei = a.edges[e];
        auto offsetsOf = [&](size_t c, bool drive) {
            std::set<unsigned> offs;
            for (const Transfer &t : a.cols[c].col->schedule.transfers)
                if (t.lane == ei.lane && (t.src_tile >= 0) == drive)
                    offs.insert(t.offset);
            return offs;
        };
        std::set<unsigned> d = offsetsOf(ei.src, true);
        std::set<unsigned> cap = offsetsOf(ei.dst, false);
        const std::string desc = strprintf(
            "edge %zu (%s -> %s, lane %u)", e,
            a.cols[ei.src].stage->actor.c_str(),
            a.cols[ei.dst].stage->actor.c_str(), ei.lane);
        if (d.empty()) {
            err(desc + ": producer has no drive slot on the lane");
            continue;
        }
        if (d != cap) {
            err(desc + ": drive and capture slot offsets disagree");
            continue;
        }
        if (prog.period == 0)
            continue;
        const double cap_hz =
            double(d.size()) * a.ref_hz / double(prog.period);
        const double need_hz = ei.src_words *
                               double(a.cols[ei.src].stage
                                          ->per_iteration) *
                               a.rate / a.slack;
        if (cap_hz < need_hz * (1 - 1e-9)) {
            err(desc +
                strprintf(": %zu slots/period deliver %.0f words/s "
                          "but the edge needs %.0f at the lowered "
                          "pacing — under-provisioned",
                          d.size(), cap_hz, need_hz));
        }
    }

    // Stray transfers: a column driving or capturing a lane that is
    // not one of its actor's edges moves words the dataflow graph
    // does not account for.
    for (size_t c = 0; c < a.cols.size(); ++c) {
        std::set<unsigned> out_l, in_l;
        for (size_t e : a.cols[c].out_edges)
            out_l.insert(a.edges[e].lane);
        for (size_t e : a.cols[c].in_edges)
            in_l.insert(a.edges[e].lane);
        for (const Transfer &t : a.cols[c].col->schedule.transfers) {
            if (t.offset >= prog.period || t.lane >= arch::BusLanes)
                continue; // already reported
            const bool drive = t.src_tile >= 0;
            const std::set<unsigned> &own = drive ? out_l : in_l;
            if (!own.count(t.lane))
                err(strprintf("actor '%s' has a stray %s slot on "
                              "lane %u (not one of its edges)",
                              a.cols[c].stage->actor.c_str(),
                              drive ? "drive" : "capture", t.lane));
        }
    }

    for (std::string &msg : douFindings(a))
        err(std::move(msg));

    a.slots_clean = clean;
}

// ---------------------------------------------------------------------
// "tags": lane-tag producer/consumer matching + token counts
// ---------------------------------------------------------------------

void
checkTags(Analysis &a, VerifyReport &rep)
{
    for (ColInfo &ci : a.cols) {
        const std::string &actor = ci.stage->actor;
        std::map<unsigned, size_t> in_lane_edge, out_lane_edge;
        for (size_t e : ci.in_edges)
            in_lane_edge[a.edges[e].lane] = e;
        for (size_t e : ci.out_edges)
            out_lane_edge[a.edges[e].lane] = e;

        bool ok = true;
        auto checkLane = [&](bool is_read, int lane,
                             int &resolved) -> bool {
            const auto &own = is_read ? in_lane_edge : out_lane_edge;
            const char *dir = is_read ? "input" : "output";
            const char *op = is_read ? "crd" : "cwr";
            if (lane < 0) {
                if (own.size() != 1) {
                    rep.add(Severity::Error, "tags",
                            strprintf("actor '%s' executes untagged "
                                      "`%s` but has %zu %s edges — "
                                      "the binding is ambiguous",
                                      actor.c_str(), op, own.size(),
                                      dir));
                    return false;
                }
                resolved = int(own.begin()->first);
                return true;
            }
            if (!own.count(unsigned(lane))) {
                rep.add(Severity::Error, "tags",
                        strprintf("mismatched lane tag: actor '%s' "
                                  "executes `%s` tagged lane %d, "
                                  "which is not one of its %s-edge "
                                  "lanes",
                                  actor.c_str(), op, lane, dir));
                return false;
            }
            resolved = lane;
            return true;
        };

        if (ci.walk.sequence_exact) {
            std::map<unsigned, uint64_t> reads, writes;
            ci.events = ci.walk.events;
            for (CommEvent &ev : ci.events) {
                int resolved = -1;
                if (!checkLane(ev.is_read, ev.lane, resolved)) {
                    ok = false;
                    break;
                }
                ev.lane = resolved;
                (ev.is_read ? reads
                            : writes)[unsigned(resolved)] += 1;
            }
            if (ok) {
                for (const auto &[lane, e] : in_lane_edge) {
                    const uint64_t want =
                        a.edges[e].dst_words *
                        a.cols[a.edges[e].dst].stage->firings;
                    const uint64_t got = reads.count(lane)
                                             ? reads.at(lane)
                                             : 0;
                    if (got != want) {
                        rep.add(
                            Severity::Error, "tags",
                            strprintf("token count mismatch: actor "
                                      "'%s' reads %llu words on lane "
                                      "%u but edge %zu delivers %llu",
                                      actor.c_str(),
                                      (unsigned long long)got, lane,
                                      e, (unsigned long long)want));
                        ok = false;
                    }
                }
                for (const auto &[lane, e] : out_lane_edge) {
                    const uint64_t want =
                        a.edges[e].src_words *
                        a.cols[a.edges[e].src].stage->firings;
                    const uint64_t got = writes.count(lane)
                                             ? writes.at(lane)
                                             : 0;
                    if (got != want) {
                        rep.add(
                            Severity::Error, "tags",
                            strprintf("token count mismatch: actor "
                                      "'%s' writes %llu words on "
                                      "lane %u but edge %zu carries "
                                      "%llu",
                                      actor.c_str(),
                                      (unsigned long long)got, lane,
                                      e, (unsigned long long)want));
                        ok = false;
                    }
                }
            }
            ci.events_ok = ok;
        } else {
            // Data-dependent comm sequence: degrade to lane-set
            // membership — every lane the program can touch must
            // still be one of its edges.
            for (int lane : ci.walk.read_lanes) {
                int resolved = -1;
                ok = checkLane(true, lane, resolved) && ok;
            }
            for (int lane : ci.walk.write_lanes) {
                int resolved = -1;
                ok = checkLane(false, lane, resolved) && ok;
            }
            rep.add(Severity::Note, "tags",
                    strprintf("actor '%s': %s; token counts checked "
                              "by lane membership only",
                              actor.c_str(),
                              ci.walk.inexact_why.c_str()));
            ci.events_ok = false;
        }
    }
}

// ---------------------------------------------------------------------
// "tokens": worst-case token flow (overrun + deadlock freedom)
// ---------------------------------------------------------------------

/**
 * Untimed Kahn-network replay for self-timed artifacts. The network
 * — single-slot write buffer per column, single-slot read buffer per
 * (column, lane), one producer per lane, deferral instead of drops —
 * has the diamond property (an enabled move stays enabled until
 * taken), so greedy maximal progress terminates iff some schedule
 * does; reaching every program's end proves deadlock freedom for
 * every real timing, and deferral makes overrun structurally
 * unreachable.
 */
void
kahnReplay(Analysis &a, VerifyReport &rep)
{
    std::array<int, arch::BusLanes> consumer_of;
    consumer_of.fill(-1);
    for (const EdgeInfo &ei : a.edges)
        consumer_of[ei.lane] = int(ei.dst);

    struct KCol
    {
        size_t next = 0;
        int wb_lane = -1;
        std::array<char, arch::BusLanes> rb{};
    };
    std::vector<KCol> st(a.cols.size());

    bool progress = true;
    while (progress) {
        progress = false;
        for (size_t c = 0; c < a.cols.size(); ++c) {
            KCol &k = st[c];
            const std::vector<CommEvent> &ev = a.cols[c].events;
            while (k.next < ev.size()) {
                const CommEvent &e = ev[k.next];
                const unsigned lane = unsigned(e.lane);
                if (e.is_read) {
                    if (!k.rb[lane])
                        break;
                    k.rb[lane] = 0;
                } else {
                    if (k.wb_lane >= 0)
                        break;
                    k.wb_lane = int(lane);
                }
                ++k.next;
                progress = true;
            }
        }
        for (size_t c = 0; c < a.cols.size(); ++c) {
            KCol &k = st[c];
            if (k.wb_lane < 0)
                continue;
            const int dst = consumer_of[unsigned(k.wb_lane)];
            if (dst >= 0 && !st[size_t(dst)].rb[unsigned(k.wb_lane)]) {
                st[size_t(dst)].rb[unsigned(k.wb_lane)] = 1;
                k.wb_lane = -1;
                progress = true;
            }
        }
    }

    std::string blocked;
    for (size_t c = 0; c < a.cols.size(); ++c) {
        const std::vector<CommEvent> &ev = a.cols[c].events;
        if (st[c].next >= ev.size())
            continue;
        const CommEvent &e = ev[st[c].next];
        if (!blocked.empty())
            blocked += "; ";
        blocked += strprintf("actor '%s' blocked at comm op %zu (%s "
                             "lane %d)",
                             a.cols[c].stage->actor.c_str(),
                             st[c].next, e.is_read ? "crd" : "cwr",
                             e.lane);
    }
    if (!blocked.empty()) {
        rep.add(Severity::Error, "tokens",
                "deadlock: the token network cannot complete under "
                "any timing — " +
                    blocked);
    }
}

void
checkTokens(Analysis &a, VerifyReport &rep)
{
    if (!a.slots_clean) {
        rep.add(Severity::Note, "tokens",
                "token-flow replay skipped: the slot schedule is "
                "inconsistent");
        return;
    }

    // Overrun is structurally unreachable on the self-timed bus (a
    // transfer whose destination buffer is full defers), so the
    // property left to prove is deadlock freedom.
    bool all_exact = true;
    for (const ColInfo &ci : a.cols)
        all_exact = all_exact && ci.events_ok;
    if (all_exact) {
        kahnReplay(a, rep);
    } else {
        rep.add(Severity::Note, "tokens",
                "deadlock freedom not statically provable: some comm "
                "sequence is data-dependent; the runner's drain "
                "asserts cover it dynamically");
    }
}

// ---------------------------------------------------------------------
// "zorm": plan/program rate-match consistency
// ---------------------------------------------------------------------

void
checkZorm(Analysis &a, VerifyReport &rep)
{
    for (const ColInfo &ci : a.cols) {
        const ActorPlacement &p = *ci.place;
        const ZormSetting &z = ci.col->zorm;
        const std::string &actor = ci.stage->actor;

        if (ci.col->column != p.first_column) {
            rep.add(Severity::Error, "zorm",
                    strprintf("actor '%s' programmed on column %u "
                              "but planned on column %u",
                              actor.c_str(), ci.col->column,
                              p.first_column));
        }
        if (p.divider == 0) {
            rep.add(Severity::Error, "zorm",
                    "actor '" + actor + "': zero clock divider");
            continue;
        }
        const double f_col = a.plan->ref_freq_mhz / p.divider;
        if (p.f_column_mhz > 0 &&
            std::abs(f_col - p.f_column_mhz) >
                1e-6 * std::max(1.0, p.f_column_mhz)) {
            rep.add(Severity::Error, "zorm",
                    strprintf("actor '%s': planned column frequency "
                              "%.6f MHz is not ref/divider = %.6f "
                              "MHz",
                              actor.c_str(), p.f_column_mhz, f_col));
        }
        if (p.f_needed_mhz > f_col * (1 + 1e-9)) {
            rep.add(Severity::Error, "zorm",
                    strprintf("actor '%s': demand %.6f MHz exceeds "
                              "its column clock %.6f MHz",
                              actor.c_str(), p.f_needed_mhz, f_col));
            continue;
        }
        if (z.nops != p.zorm.nops || z.period != p.zorm.period) {
            rep.add(Severity::Error, "zorm",
                    strprintf("ZORM plan/program mismatch for actor "
                              "'%s': program runs %u/%u but the plan "
                              "says %u/%u",
                              actor.c_str(), z.nops, z.period,
                              p.zorm.nops, p.zorm.period));
            continue;
        }
        if (z.period > 0 && z.nops >= z.period) {
            rep.add(Severity::Error, "zorm",
                    strprintf("ZORM setting %u/%u for actor '%s' "
                              "leaves no useful slots",
                              z.nops, z.period, actor.c_str()));
            continue;
        }
        // The loaded fraction must reproduce the plan's demand/clock
        // ratio to the precision the producer works at:
        // exactRateMatch() reduces the fraction of the two rates
        // *rounded to integer Hz*, so the loaded rational can differ
        // from the unrounded MHz ratio by up to 0.5 Hz in each rate
        // (~1/f_col_hz combined) on top of the half-slot-per-period
        // representation granularity. Tighter would reject settings
        // the mapper itself emits.
        if (p.f_needed_mhz > 0) {
            const double want = p.f_needed_mhz / f_col;
            const double got = z.usefulFraction();
            const double quant = 1.0 / (f_col * 1e6);
            const double tol =
                (z.period > 0 ? 0.5 / double(z.period) : 1e-9) +
                quant;
            if (std::abs(got - want) > tol) {
                rep.add(
                    Severity::Error, "zorm",
                    strprintf("ZORM setting %u/%u for actor '%s' "
                              "paces %.9f of the column clock but "
                              "the plan needs %.9f",
                              z.nops, z.period, actor.c_str(), got,
                              want));
            }
        }
    }
}

} // namespace

// ---------------------------------------------------------------------
// VerifyReport
// ---------------------------------------------------------------------

const std::vector<std::string> &
VerifyReport::checkNames()
{
    static const std::vector<std::string> names{
        "program", "slots", "tags", "tokens", "zorm"};
    return names;
}

bool
VerifyReport::ok() const
{
    for (const Finding &f : findings) {
        if (f.severity == Severity::Error)
            return false;
    }
    return true;
}

bool
VerifyReport::checkPassed(const std::string &check) const
{
    for (const Finding &f : findings) {
        if (f.severity == Severity::Error && f.check == check)
            return false;
    }
    return true;
}

std::string
VerifyReport::errorSummary() const
{
    std::string out;
    for (const Finding &f : findings) {
        if (f.severity != Severity::Error)
            continue;
        if (!out.empty())
            out += "; ";
        out += "[" + f.check + "] " + f.message;
    }
    return out;
}

std::string
VerifyReport::render() const
{
    size_t errors = 0, warnings = 0, notes = 0;
    for (const Finding &f : findings) {
        switch (f.severity) {
          case Severity::Error:
            ++errors;
            break;
          case Severity::Warning:
            ++warnings;
            break;
          default:
            ++notes;
            break;
        }
    }
    std::string out = strprintf(
        "static verification: %s (%zu errors, %zu warnings, %zu "
        "notes)\n",
        ok() ? "PASS" : "FAIL", errors, warnings, notes);
    for (const std::string &check : checkNames()) {
        out += strprintf("  %-8s %s\n", (check + ":").c_str(),
                         checkPassed(check) ? "pass" : "FAIL");
    }
    for (const Finding &f : findings) {
        out += strprintf("  [%s] %s: %s\n",
                         severityName(f.severity).c_str(),
                         f.check.c_str(), f.message.c_str());
    }
    return out;
}

void
VerifyReport::add(Severity sev, const std::string &check,
                  std::string message)
{
    findings.push_back(Finding{sev, check, std::move(message)});
}

// ---------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------

VerifyReport
verifyLowered(const DagSpec &spec, const ChipPlan &plan,
              const PipelineProgram &prog, double iterations_per_sec,
              double slack)
{
    VerifyReport rep;
    Analysis a;
    a.spec = &spec;
    a.plan = &plan;
    a.prog = &prog;
    a.rate = iterations_per_sec > 0 ? iterations_per_sec : 0;
    a.slack = slack >= 1.0 ? slack : 1.0;
    if (!resolve(a, rep))
        return rep;
    checkProgram(a, rep);
    checkSlots(a, rep);
    checkTags(a, rep);
    checkZorm(a, rep);
    checkTokens(a, rep); // consumes tags/slots results; keep last
    return rep;
}

} // namespace synchro::mapping
