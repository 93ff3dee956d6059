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
 *    exactly one matching drive, each column's compiled DOU program
 *    is replayed abstractly for one full period against the
 *    reference scheduleOutputAt() and must return to its initial
 *    machine state (so the proof extends to every later period), and
 *    slots-as-ceiling feasibility: every edge's slot capacity covers
 *    its token rate at the lowering's grid pacing.
 *
 *  - "tags": an abstract walk of each column's comm sequence (exact
 *    when control flow is static or data-dependent branches enclose
 *    comm-free regions) proves every `crd`/`cwr` lane tag names a
 *    real in-/out-edge of the actor, per-program token counts match
 *    the edge word counts, and every tagged lane has matching DOU
 *    drive/capture slots. Columns with data-dependent communication
 *    degrade to lane-set membership with a Note.
 *
 *  - "tokens": worst-case token flow. Self-timed artifacts get a
 *    structural no-overrun argument (deferral + tag-matched pops)
 *    plus an untimed Kahn-network replay of the exact comm sequences
 *    proving every join input is eventually fed (no deadlock).
 *    Legacy (drop-new) artifacts get an exact timed replay of the
 *    comm-relevant projection — issue-slot distances, ZORM Bresenham
 *    stepping, divider edges, delivery-visibility latency — proving
 *    drop-new overrun unreachable for branch-free programs.
 *
 *  - "zorm": plan/program ZORM consistency — each column's loaded
 *    setting equals its placement's, the placement's setting equals
 *    exactRateMatch() recomputed from its frequencies, and divider /
 *    f_column / f_needed are mutually consistent.
 *
 * codegen gates every lowering on this report (fatal on Error), and
 * the design-space explorer uses the same gate to reject
 * provably-broken candidates before staging a chip.
 */

#ifndef SYNC_MAPPING_VERIFIER_HH
#define SYNC_MAPPING_VERIFIER_HH

#include <string>
#include <vector>

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
 * as findings; fatal() only on artifacts too malformed to analyze
 * (e.g. a program that no longer decodes).
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

} // namespace synchro::mapping

#endif // SYNC_MAPPING_VERIFIER_HH
