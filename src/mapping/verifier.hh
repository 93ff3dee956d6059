/**
 * @file
 * Static plan/program verifier: prove a lowered artifact safe before
 * a single tick runs.
 *
 * Every safety property the runners assert *dynamically* — zero
 * bus-slot conflicts, zero read-buffer overruns, lane-tag matching at
 * joins, ZORM/divider consistency — is a property of the lowered
 * artifact (ChipPlan + per-column uop programs + comm schedule), not
 * of any particular input. verifyLowered() proves them statically,
 * without simulating, by five named checks:
 *
 *  - "program": abstract interpretation of each column's micro-op
 *    stream over the unified register units (isa::uopEffects):
 *    must-initialize dataflow flags any read of a register no path
 *    has written (Error), a may-liveness pass flags dead writes
 *    (Warning), and an issue-slot walk derives each column's minimum
 *    steady-state firing period, cross-checked against the plan's
 *    divider + ZORM useful-slot rate (Warning when the column
 *    provably cannot reach its planned rate).
 *
 *  - "slots": global bus-slot conflict freedom — no two columns ever
 *    drive the same lane in the same bus cycle, every capture has
 *    exactly one matching drive — and slots-as-ceiling feasibility:
 *    every edge's slot capacity covers its token rate at the
 *    lowering's grid pacing. The DOU programs are checked on the
 *    schedule the chip runs, the arch::BusTimeline of the programs
 *    PipelineProgram::load leaves on it (detail::douTimeline): every
 *    program is well-formed (DouProgram::malformed), the timeline
 *    closes within its bounds (so no chip built from the artifact
 *    falls back to stepping its DOUs), and one period walked from
 *    reset outputs each column's reference scheduleOutputAt() at
 *    every active phase, puts every scheduled transfer on an active
 *    phase and ends with every DOU at its reset position (so the
 *    proof extends to every later period).
 *
 *  - "tags": an abstract walk of each column's comm sequence (exact
 *    when control flow is static or data-dependent branches enclose
 *    comm-free regions) proves every `crd`/`cwr` lane tag names a
 *    real in-/out-edge of the actor, per-program token counts match
 *    the edge word counts, and every tagged lane has matching DOU
 *    drive/capture slots. Columns with data-dependent communication
 *    degrade to lane-set membership with a Note.
 *
 *  - "tokens": worst-case token flow on the self-timed bus every
 *    lowered program runs on: a structural no-overrun argument
 *    (deferral + tag-matched pops) plus an untimed Kahn-network
 *    replay of the exact comm sequences proving every join input is
 *    eventually fed (no deadlock under any timing).
 *
 *  - "zorm": plan/program ZORM consistency — each column's loaded
 *    setting equals its placement's, the placement's setting equals
 *    exactRateMatch() recomputed from its frequencies, and divider /
 *    f_column / f_needed are mutually consistent.
 *
 * codegen gates every lowering on this report (fatal on Error), and
 * the design-space explorer uses the same gate to reject
 * provably-broken candidates before staging a chip.
 *
 * Cost: O(program + comm events + bus slots), not O(issue slots +
 * ticks). The comm walk charges branch-free loops in closed form;
 * the DOU check builds the bus timeline once (a few microseconds for
 * the mapped apps) and visits its nodes and the scheduled transfers,
 * never the quiet cycles between them. Every finding is the one
 * stepping slot by slot would produce.
 */

#ifndef SYNC_MAPPING_VERIFIER_HH
#define SYNC_MAPPING_VERIFIER_HH

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "arch/bus_timeline.hh"
#include "isa/uop.hh"
#include "mapping/codegen.hh"

namespace synchro::mapping
{

/** Severity of one verifier finding. */
enum class Severity
{
    Error,   //!< provable safety violation; the artifact must not run
    Warning, //!< suspicious but not provably unsafe
    Note     //!< a check degraded (property not statically provable)
};

/** One verifier finding. */
struct Finding
{
    Severity severity = Severity::Error;
    std::string check; //!< "program", "slots", "tags", "tokens", "zorm"
    std::string message;
};

/** The structured result of a verification pass. */
struct VerifyReport
{
    std::vector<Finding> findings;

    /** Checks that ran (pass/fail derivable via checkPassed). */
    static const std::vector<std::string> &checkNames();

    /** No Error-severity findings anywhere. */
    bool ok() const;

    /** No Error-severity findings under @p check. */
    bool checkPassed(const std::string &check) const;

    /** Every Error message, joined — what the codegen gate reports. */
    std::string errorSummary() const;

    /** Human-readable per-check table plus every finding. */
    std::string render() const;

    void add(Severity sev, const std::string &check,
             std::string message);
};

/**
 * Verify the lowered artifact @p prog against the @p spec and @p plan
 * it was lowered from, at the lowering's @p iterations_per_sec and
 * @p slack. Pure analysis: builds no chip, runs no ticks, mutates
 * nothing. Never fatal()s on verification failures — they come back
 * as findings, malformed column schedules and DOU programs included;
 * fatal() only on artifacts too malformed to analyze (e.g. a program
 * that no longer decodes).
 */
VerifyReport verifyLowered(const DagSpec &spec, const ChipPlan &plan,
                           const PipelineProgram &prog,
                           double iterations_per_sec, double slack);

/**
 * One app's lowered artifact bundled with everything verifyLowered()
 * needs — the report hook apps::AppRegistry's verifiable() view
 * derives from each mapped app's AppSpec, so the verify_plan example
 * and the regression tests can re-verify every committed lowering
 * without duplicating the app setup.
 */
struct LoweredArtifact
{
    std::string name;
    DagSpec spec;
    ChipPlan plan;
    PipelineProgram prog;
    double iterations_per_sec = 0;
    double slack = 0;

    VerifyReport
    verify() const
    {
        return verifyLowered(spec, plan, prog, iterations_per_sec,
                             slack);
    }
};

namespace detail
{

/** One `crd`/`cwr` in program order. */
struct CommEvent
{
    bool is_read = false;
    int lane = -1; //!< tagged lane, or -1 for the untagged forms
};

/**
 * Result of abstractly executing one column program. Two exactness
 * levels: `sequence_exact` means `events` is the exact comm sequence
 * every run of the program produces (data-dependent branches were
 * proven comm-transparent); `timing_exact` additionally means
 * `total_slots` is the exact issue-slot count (no conditional
 * branches at all, so no data-dependent path lengths and no
 * branch-stall cycles).
 */
struct WalkResult
{
    bool sequence_exact = true;
    bool timing_exact = true;
    std::string inexact_why;
    std::vector<CommEvent> events;
    uint64_t total_slots = 0; //!< issue slots for the whole run
    std::set<int> read_lanes, write_lanes; //!< textual, whole program
};

/** Issue slots a walk takes before it gives up as inexact. */
constexpr uint64_t WalkBudget = 50'000'000;

/**
 * The "tags" pass's comm walk of one decoded column program: the
 * controller's issue and loop-unwinding rules, with comm-free loops
 * charged in closed form. Internal to verifyLowered() (which always
 * walks with the default budget); declared here so tests can hold it
 * to a slot-stepped reference walk.
 */
WalkResult walkComm(const std::vector<isa::MicroOp> &uops,
                    uint64_t budget = WalkBudget);

/**
 * The bus timeline of @p prog on a chip of prog.total_columns
 * columns, as PipelineProgram::load leaves it: each programmed
 * column's DOU program, DouProgram::idle() on the others (and on a
 * column whose program is malformed, which the "slots" check reports
 * instead). Unbuilt. The "slots" check walks it; a chip loaded with
 * @p prog builds the same timeline from the same programs.
 */
arch::BusTimeline douTimeline(const PipelineProgram &prog);

} // namespace detail

} // namespace synchro::mapping

#endif // SYNC_MAPPING_VERIFIER_HH
