/**
 * @file
 * Activity-driven power estimation: the bridge from a simulated chip
 * to the Section 4.1 power model, closing the paper's methodology
 * loop (steps 6-9: simulate to get cycles, derive frequencies from
 * the data rate, look up voltages, evaluate the power equations).
 *
 * Given a finished simulation and the wall-clock data rate the run
 * represents, each column's required frequency is
 *
 *     f_c = (issue slots consumed) / (samples processed) * rate
 *
 * and its bus traffic is the fabric's measured transfer count scaled
 * to transfers/s. Voltages come from the quantized supply levels.
 */

#ifndef SYNC_POWER_ACTIVITY_HH
#define SYNC_POWER_ACTIVITY_HH

#include <vector>

#include "arch/chip.hh"
#include "power/system_power.hh"
#include "power/vf_model.hh"

namespace synchro::power
{

/** Activity of one simulated column. */
struct ColumnActivity
{
    unsigned column = 0;
    unsigned active_tiles = 0;
    uint64_t issue_slots = 0;   //!< compute + stalls + zorm nops
    uint64_t compute_slots = 0; //!< instructions actually issued
    double utilization = 0;     //!< compute / issue

    // The issue-slot split the DVFS governor's feedback loop reads:
    // branch stalls and compute are rate-invariant work per item,
    // comm stalls track cross-column coupling, and zorm nops are the
    // operating point's own padding (what retuning reclaims).
    uint64_t branch_stalls = 0;
    uint64_t comm_stall_slots = 0;
    uint64_t zorm_nops = 0;
};

/** Activity extracted from a finished simulation. */
struct ActivityReport
{
    std::vector<ColumnActivity> columns;
    uint64_t bus_transfers = 0;
    uint64_t wire_span_sum = 0;

    /** Mean switched-span fraction per transfer (1.0 = full bus). */
    double
    meanSpanFraction(unsigned nodes_full_span) const
    {
        if (bus_transfers == 0)
            return 0.0;
        return double(wire_span_sum) /
               (double(bus_transfers) * nodes_full_span);
    }
};

/** Collect per-column and fabric activity from a chip. */
ActivityReport collectActivity(const arch::Chip &chip);

/**
 * Measured multi-V vs single-V comparison — Table 4's two power
 * columns, but produced from simulated activity instead of the
 * paper's calibrated estimates. The multi-V breakdown prices each
 * column with the Section 4.1 equations at the frequency derived
 * from its measured slots/sample, bus power from the measured
 * transfer count and spans; the single-voltage baseline re-prices
 * every column at the run's maximum supply with unchanged
 * frequencies (paper Section 4.4).
 */
struct MeasuredComparison
{
    PowerBreakdown multi_v;
    PowerBreakdown single_v;
    double vmax = 0;           //!< highest per-column supply seen
    std::vector<DomainLoad> loads; //!< derived per-column loads

    /** Percentage saved by multiple voltage domains. */
    double
    savingsPct() const
    {
        double sv = single_v.total();
        return sv > 0 ? 100.0 * (1.0 - multi_v.total() / sv) : 0.0;
    }
};

/**
 * Price a finished run at one operating point: priceActivityEpochs()
 * over the single epoch {collectActivity(chip), samples / rate},
 * where @p samples input samples stand for @p sample_rate_hz of
 * real-time traffic.
 */
MeasuredComparison priceSimulationComparison(
    const arch::Chip &chip, uint64_t samples, double sample_rate_hz,
    const SupplyLevels &levels, const SystemPowerModel &model);

/**
 * One stretch of a run executed at a single operating point: the
 * activity *deltas* accumulated between two reconfiguration points,
 * and the wall-clock time the stretch represents.
 */
struct ActivityEpoch
{
    ActivityReport activity;
    double seconds = 0;
};

/**
 * Price a run whose operating point changed mid-stream — e.g. a
 * DVFS-governed run — by pricing each inter-reconfiguration epoch at
 * its *own* derived V/f point and time-weighting the breakdowns.
 *
 * Pricing the whole run as one epoch (priceSimulationComparison()
 * on the final chip) silently attributes every epoch's activity to
 * one averaged frequency (and the final voltage), which mis-prices
 * any run with a mid-stream rate step; this is the epoch-faithful
 * replacement. The single-V baseline re-prices every epoch's loads at
 * the *global* maximum supply across all epochs, matching Table 4's
 * "one supply for the whole run" semantics.
 */
MeasuredComparison priceActivityEpochs(
    const std::vector<ActivityEpoch> &epochs, unsigned columns,
    const SupplyLevels &levels, const SystemPowerModel &model);

} // namespace synchro::power

#endif // SYNC_POWER_ACTIVITY_HH
