/**
 * @file
 * Closed-loop online DVFS governor (ROADMAP item 4).
 *
 * The paper's mappings are static: the AutoMapper picks one divider
 * and supply per column for the declared worst-case rate, and any
 * slack under a slower real stream is burned as active idle at the
 * planned clock. This module closes the loop at run time without
 * giving up the static safety story:
 *
 *  - A SafeTransitionTable is precomputed at load time: for each
 *    candidate rate scale the artifact's plan is re-derived through
 *    the SAME refreshPlacement() rules the explorer uses (divider,
 *    quantized supply, exact ZORM), the per-column ZORM settings are
 *    substituted into a copy of the lowered program, and the full
 *    static verifier (mapping/verifier.hh — the [slots]/[tokens]/
 *    [zorm] proofs) re-checks the candidate at the artifact's
 *    unchanged grid pacing. Only candidates whose proof goes through
 *    become operating points; the rest are counted as rejected.
 *
 *  - The DvfsGovernor is a per-chip feedback controller sampled at
 *    item boundaries: it reads per-column occupancy
 *    (comm-stall slots), bus deferral and ZORM-idle counters plus
 *    the drain time of every served item, calibrates a per-point
 *    busy-tick estimate, and retunes toward a rate setpoint —
 *    picking the cheapest verified point whose estimated busy time
 *    fits inside setpoint * the declared arrival window.
 *
 *  - Retunes are applied ONLY at statically-safe reconfiguration
 *    points (arch::Chip::retune enforces tick 0 / drained): between
 *    items the chip is fully comm-quiet, restart() realigns every
 *    clock edge from tick 0, and the verifier's phase-0 alignment
 *    assumption therefore holds for the retuned divider vector
 *    exactly as it did for the original.
 *
 * runGoverned() drives one chip through a sim::TrafficScenario under
 * a Static / Governed / Oracle policy and prices the run epoch by
 * epoch (power::priceActivityEpochs), so each inter-reconfiguration
 * stretch is charged at its own V/f point.
 */

#ifndef SYNC_POWER_DVFS_HH
#define SYNC_POWER_DVFS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mapping/verifier.hh"
#include "power/activity.hh"
#include "sim/fleet.hh"
#include "sim/traffic.hh"

namespace synchro::power
{

/**
 * One app packaged for governed serving: the verifier-gated lowered
 * artifact (the safe-transition table's ground truth), the fleet
 * workload hooks (build / feed / read_output / golden), the app's
 * canonical traffic shape, and the item <-> SDF-iteration exchange
 * rate every window computation needs. Exposed per app through
 * apps::AppDescriptor::dvfs().
 */
struct DvfsAppHooks
{
    std::string name;
    mapping::LoweredArtifact artifact;
    sim::FleetWorkload workload;

    /** The app's default scenario shape (seeded, deterministic). */
    sim::TrafficSpec traffic;

    /** SDF iterations one work item represents (nominal window =
     *  iterations_per_item / artifact.iterations_per_sec seconds). */
    uint64_t iterations_per_item = 0;

    /** Fraction of the arrival window an item may occupy. */
    double setpoint = 0.85;
};

/** One verified operating point of a safe-transition table. */
struct DvfsOperatingPoint
{
    /** Rate scale the point was re-derived for (1.0 = baseline). */
    double rate_scale = 1.0;

    /** The refreshed plan (scaled f_needed, new dividers/V/ZORM). */
    mapping::ChipPlan plan;

    /** Per-column divider vector, ready for arch::Chip::retune. */
    std::vector<unsigned> dividers;

    /** Chip column index of each entry in zorms (programmed cols). */
    std::vector<unsigned> zorm_columns;
    std::vector<mapping::ZormSetting> zorms;
};

/**
 * The precomputed set of divider/ZORM vectors a chip may legally
 * retune between — every point re-proved by the full static verifier
 * against the artifact's own spec/program at load time, so the
 * governor never needs to verify anything online. Points are sorted
 * by ascending rate_scale: index 0 is the slowest (cheapest)
 * verified point, baselineIndex() the artifact's own mapping.
 */
class SafeTransitionTable
{
  public:
    static constexpr size_t npos = size_t(-1);

    /**
     * Re-derive and verify one candidate per rate scale (1.0 is
     * always included). fatal() if even the baseline re-derivation
     * fails its proof — that would mean the artifact itself is
     * inconsistent.
     */
    static SafeTransitionTable build(
        const mapping::LoweredArtifact &art,
        const std::vector<double> &rate_scales,
        const SupplyLevels &levels);

    /**
     * The verifier gate one candidate must pass (it passes when the
     * report is ok()): @p plan with the per-column ZORM settings
     * @p zorms (aligned with art.prog.columns) substituted into a
     * copy of the artifact's program, re-verified at the rate the
     * point runs at, the artifact's rate times @p rate_scale.
     * Exposed so tests can plant a tampered (unsafe) candidate and
     * watch it fail.
     */
    static mapping::VerifyReport candidateReport(
        const mapping::LoweredArtifact &art,
        const mapping::ChipPlan &plan,
        const std::vector<mapping::ZormSetting> &zorms,
        double rate_scale);

    const std::vector<DvfsOperatingPoint> &points() const
    {
        return points_;
    }

    /** Index of the artifact's own (rate_scale 1.0) point. */
    size_t baselineIndex() const { return baseline_; }

    /** Candidates whose static proof failed (never applied). */
    size_t rejected() const { return rejected_; }

    /** First point with exactly @p dividers; npos when absent. */
    size_t indexOf(const std::vector<unsigned> &dividers) const;

    bool
    contains(const std::vector<unsigned> &dividers) const
    {
        return indexOf(dividers) != npos;
    }

    /** One line per point: scale, dividers, supplies. */
    std::string describe() const;

  private:
    std::vector<DvfsOperatingPoint> points_;
    size_t baseline_ = 0;
    size_t rejected_ = 0;
};

/**
 * Apply @p point to @p chip: retune every column divider (legal only
 * at a reconfiguration point — Chip::retune enforces it) and load
 * each programmed column's ZORM setting. Both survive restart(), so
 * the point stays in force across work items until the next apply.
 */
void applyOperatingPoint(arch::Chip &chip,
                         const DvfsOperatingPoint &point);

struct DvfsGovernorConfig
{
    /** Candidate rate scales the safe table is built for. */
    std::vector<double> rate_scales = {0.25,       1.0 / 3.0, 0.5,
                                       2.0 / 3.0,  0.75,      1.0};

    /** Fraction of the arrival window an item may occupy. */
    double setpoint = 0.85;

    /** Safety factor on predicted busy ticks at unvisited points. */
    double headroom = 1.15;
};

/**
 * The per-chip feedback controller. All state is derived from
 * bit-exact simulation counters, so a governor fed the same item
 * sequence makes the same decisions on every scheduler backend and
 * under any fleet worker count.
 */
class DvfsGovernor
{
  public:
    /**
     * @param nominal_window_ticks reference ticks one work item's
     *        arrival window spans at the mapped (scale 1.0) rate
     */
    DvfsGovernor(const SafeTransitionTable &table,
                 double nominal_window_ticks,
                 DvfsGovernorConfig cfg = {});

    /** The operating point currently in force. */
    size_t current() const { return current_; }

    const SafeTransitionTable &table() const { return table_; }

    /**
     * Feed back one served item: the point it ran at, its drain time
     * in reference ticks, the activity *deltas* it accrued (compute,
     * branch-stall, comm-stall occupancy and ZORM-idle counters) and
     * the bus deferrals it suffered.
     */
    void observe(size_t point, uint64_t busy_ticks,
                 const ActivityReport &delta, uint64_t bus_deferrals);

    /**
     * Pick the operating point for the next item given its declared
     * arrival-rate fraction (0 = idle gap: the cheapest point wins):
     * the slowest verified point whose estimated busy time fits in
     * setpoint * the declared window. Unvisited points are estimated
     * from the calibrated per-column useful-slot counts scaled by
     * the point's ZORM fraction and divider (plus headroom); with no
     * calibration yet the baseline is chosen. Records the decision
     * and makes it current.
     */
    size_t decide(double declared_rate_scale);

    /**
     * Apply table point @p point to @p chip. False (and no chip
     * mutation) when the index is out of range or the chip is not at
     * a reconfiguration point.
     */
    bool applyPoint(arch::Chip &chip, size_t point);

    /**
     * Apply the table point with exactly @p dividers. A vector not
     * in the table — i.e. any transition without a precomputed
     * static proof — is REJECTED: returns false, touches nothing.
     */
    bool applyDividers(arch::Chip &chip,
                       const std::vector<unsigned> &dividers);

    /** Estimated busy ticks per item at @p point (see decide()). */
    uint64_t predictedBusyTicks(size_t point) const;

    /** An item overran its declared window: step the estimate up. */
    void noteDeadlineMiss();

    uint64_t deadlineMisses() const { return deadline_misses_; }

    /** Every decide() outcome, in order. */
    const std::vector<size_t> &decisions() const { return decisions_; }

    /** Every applied transition (always table indices). */
    const std::vector<size_t> &applied() const { return applied_; }

  private:
    const SafeTransitionTable &table_;
    DvfsGovernorConfig cfg_;
    double nominal_window_ticks_ = 0;
    size_t current_ = 0;

    std::vector<uint64_t> measured_busy_; //!< 0 = not yet visited
    std::vector<uint64_t> work_slots_;    //!< per column, max seen
    std::vector<uint64_t> max_deferrals_; //!< per point, max seen
    std::vector<size_t> decisions_;
    std::vector<size_t> applied_;
    uint64_t deadline_misses_ = 0;
};

/**
 * The per-phase oracle: the cheapest table point whose MEASURED busy
 * ticks (one calibration run per point) fit in setpoint * the
 * declared window — the explorer-frontier point restricted to the
 * moves a live chip can actually make (divider + ZORM retunes; actors
 * cannot be re-placed mid-run). busy_by_point entries of UINT64_MAX
 * mark unusable points. Falls back to the baseline.
 */
size_t measuredOraclePoint(const SafeTransitionTable &table,
                           const std::vector<uint64_t> &busy_by_point,
                           double declared_rate_scale,
                           double nominal_window_ticks,
                           double setpoint);

/** Operating-point policy of a governed run. */
enum class DvfsPolicy
{
    Static,   //!< paper behavior: the mapped point, always
    Governed, //!< the online feedback governor
    Oracle    //!< per-phase measured-optimal point (upper bound)
};

struct GovernedRunOptions
{
    DvfsPolicy policy = DvfsPolicy::Governed;
    SchedulerKind scheduler = defaultSchedulerKind();
    DvfsGovernorConfig governor;

    /** Check every item against the workload golden. */
    bool verify_outputs = true;

    /** Retain every item's output bytes (cross-policy equality). */
    bool keep_outputs = false;
};

/** One chip driven through one traffic scenario under one policy. */
struct GovernedRunResult
{
    std::string app;
    DvfsPolicy policy = DvfsPolicy::Static;

    uint64_t items = 0;
    uint64_t deadline_misses = 0;
    bool bit_exact = true;
    std::string first_failure;

    /** Modeled stream wall time (arrival windows + idle bursts). */
    double stream_seconds = 0;

    /** Summed per-item drain times, reference ticks. */
    uint64_t busy_ticks = 0;

    /** Host wall seconds spent inside Chip::run (sim throughput). */
    double sim_seconds = 0;

    /** Operating point each work item ran at, in order. */
    std::vector<size_t> trajectory;

    /** The inter-reconfiguration epochs the run was priced from. */
    std::vector<ActivityEpoch> epochs;

    /** Epoch-faithful power (power::priceActivityEpochs). */
    MeasuredComparison power;

    size_t table_points = 0;
    size_t table_rejected = 0;

    /** Per-item output bytes (GovernedRunOptions::keep_outputs). */
    std::vector<std::vector<uint8_t>> outputs;
};

/**
 * Drive one chip of @p app through @p scenario under the options'
 * policy: build the safe table, serve every work item (bit-exact
 * against the golden), retune at item boundaries per the policy,
 * charge idle bursts and per-item slack as active idle at the
 * CURRENT point's clocks, and price the whole stream epoch by epoch.
 */
GovernedRunResult runGoverned(const DvfsAppHooks &app,
                              const sim::TrafficScenario &scenario,
                              const GovernedRunOptions &opt = {});

} // namespace synchro::power

#endif // SYNC_POWER_DVFS_HH
