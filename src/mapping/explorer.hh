/**
 * @file
 * Measured design-space exploration — closing the loop the paper's
 * analytic mapping flow (Section 4.1, Tables 3/4) could not: instead
 * of trusting the power model's pick, enumerate candidate chip plans
 * around it, lower every candidate through real codegen, run the
 * whole batch cycle-accurately on one sim::FleetExecutor, verify
 * each run bit-exactly against the application's dsp:: golden, and
 * price each with power::priceSimulationComparison. The output is a
 * *measured* power-vs-throughput Pareto frontier per application and
 * an agreement verdict for the analytic Optimizer's pick.
 *
 * The plan space enumerated around a baseline ChipPlan:
 *
 *  - rate variants: the whole mapping re-derived (per-actor demand,
 *    divider, supply level, ZORM) for a scaled target rate — the
 *    throughput axis of the frontier;
 *  - divider/supply variants: one placement's clock divider lowered
 *    (its column runs faster, quantizes to a higher supply level,
 *    and ZORM pads the wider gap) — measurably dominated points that
 *    demonstrate why the Optimizer's divider pick wins;
 *  - shard variants: alternative actor shardings supplied by the
 *    application itself (ExplorableApp::shard_variants), for runners
 *    that can regenerate their DAG at a different parallel width
 *    (e.g. the motion-estimation search farm).
 *
 * An application opts in by packaging itself as an ExplorableApp —
 * the plan-variant hook apps::AppRegistry's explorable() view derives
 * from each mapped app's AppSpec.
 */

#ifndef SYNC_MAPPING_EXPLORER_HH
#define SYNC_MAPPING_EXPLORER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mapping/codegen.hh"
#include "power/activity.hh"
#include "sim/scheduler.hh"

namespace synchro::mapping
{

/** One candidate chip configuration in the explored plan space. */
struct PlanVariant
{
    std::string label;
    ChipPlan plan;

    /** Rate the candidate is lowered (grid-paced, ZORMed) for. */
    double iterations_per_sec = 0;
};

/**
 * A mapped application packaged for exploration: its baseline plan
 * plus the three hooks the evaluator needs to run an *arbitrary*
 * plan variant — lower it, budget it, and verify the finished chip
 * against the dsp:: golden.
 */
struct ExplorableApp
{
    std::string name;

    /** The rate the baseline was mapped for (SDF iterations/s). */
    double iterations_per_sec = 0;

    /** Items per run, for achieved-rate pricing (see MappedApp). */
    uint64_t priced_items = 0;

    /** The analytic Optimizer's own pick (via planApp). */
    ChipPlan baseline;

    /** Lower @p plan at @p iterations_per_sec into a program. */
    std::function<PipelineProgram(const ChipPlan &plan,
                                  double iterations_per_sec)>
        lower;

    /** Tick budget for one run of a lowered candidate. */
    std::function<Tick(const ChipPlan &, const PipelineProgram &)>
        tick_limit;

    /**
     * Read the outputs back from a finished chip and compare against
     * the golden: "" when bit-exact, else a describeMismatch() line.
     */
    std::function<std::string(arch::Chip &, const PipelineProgram &)>
        verify;

    /** Alternative shardings (their own plans and rates), if any. */
    std::vector<PlanVariant> shard_variants;
};

struct ExploreOptions
{
    /** Target-rate scale factors to re-derive the mapping at. */
    std::vector<double> rate_factors = {0.75, 0.9, 1.15, 1.3};

    /** Per-placement divider decrements to try (0 disables). */
    unsigned divider_steps = 2;

    /** Re-run frontier + baseline points on EventQueue and demand
     *  identical ticks, stats and outputs. */
    bool crosscheck_frontier = true;

    /** Fleet workers for the batch (0 = hardware concurrency). */
    unsigned threads = 0;

    /** Max % the baseline's measured power may sit above the
     *  frontier before the agreement check fails. */
    double agreement_tolerance_pct = 10.0;

    /** Backend the measurement chips run on (the frontier
     *  cross-check always re-runs on EventQueue regardless). */
    SchedulerKind scheduler = defaultSchedulerKind();
};

/** One candidate plan, measured. */
struct MeasuredPoint
{
    std::string label;
    ChipPlan plan;
    double target_iterations_per_sec = 0;

    /** The run drained with clean fabric stats. */
    bool ran = false;
    std::string failure; //!< why not, when !ran

    /** Output matched the dsp:: golden bit for bit. */
    bool bit_exact = false;

    /** Re-run on EventQueue with identical ticks/stats/output. */
    bool crosschecked = false;

    uint64_t ticks = 0;
    uint64_t deferrals = 0;
    double achieved_items_per_sec = 0;

    power::MeasuredComparison power;
    double total_mw = 0; //!< measured multi-V total

    bool on_frontier = false;
};

/** A finished exploration of one application's plan space. */
struct ExplorationResult
{
    std::string app;
    std::vector<MeasuredPoint> points;

    /** Indices of frontier points, ascending achieved rate. */
    std::vector<size_t> frontier;

    size_t baseline_index = 0;

    /**
     * Candidates the codegen verifier gate rejected at lowering time
     * (their points carry a "statically rejected" failure) — filtered
     * before any chip was staged or simulated.
     */
    size_t statically_rejected = 0;

    /**
     * How far the baseline's measured power sits above the cheapest
     * frontier point at >= its achieved rate (0 when the baseline is
     * itself that point).
     */
    double baseline_gap_pct = 0;

    /** baseline_gap_pct within the agreement tolerance. */
    bool agreement = false;

    /** Every measurable point bit-exact (and crosschecks passed). */
    bool all_bit_exact = false;

    /** Human-readable frontier + agreement table. */
    std::string report() const;
};

/**
 * Re-derive the divider-dependent fields of one placement for a new
 * divider: column frequency, quantized supply level, and the ZORM
 * setting closing the gap down to the (possibly rescaled)
 * f_needed_mhz. False when the combination is infeasible (divided
 * clock below demand, no supply level, no exact rate match).
 * Shared by the explorer's variant enumeration and the DVFS
 * governor's safe-transition table (power/dvfs.hh), so both derive
 * candidate operating points by exactly the same rules the
 * AutoMapper would have used.
 */
bool refreshPlacement(ActorPlacement &p, double ref_mhz,
                      unsigned divider,
                      const power::SupplyLevels &levels);

/**
 * Enumerate candidate plans around @p baseline: the baseline itself
 * (always index 0), rate-scaled re-derivations, and single-placement
 * divider decrements. Every returned variant is feasible by
 * construction (each column's divided clock still covers its demand,
 * ZORM recomputed); infeasible combinations are silently skipped.
 */
std::vector<PlanVariant> enumeratePlanVariants(
    const ChipPlan &baseline, double iterations_per_sec,
    const power::SupplyLevels &levels, const ExploreOptions &opt = {});

/**
 * The measured evaluator: enumerate (plus the app's shard variants),
 * lower every candidate, run the whole batch concurrently on one
 * sim::FleetExecutor (one single-item stream per candidate, measured
 * by the worker that ran it), verify bit-exactness, price each run,
 * and reduce to a Pareto frontier (mW vs achieved rate) with the
 * Optimizer-agreement verdict. Candidates that fail to lower or
 * drain, or whose run or verify hook throws, become failed points
 * (with their failure recorded), never errors.
 */
ExplorationResult explorePlans(const ExplorableApp &app,
                               const ExploreOptions &opt = {});

} // namespace synchro::mapping

#endif // SYNC_MAPPING_EXPLORER_HH
