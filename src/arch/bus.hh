/**
 * @file
 * The Synchroscalar interconnect: per-column 256-bit segmented buses
 * (8 separable 32-bit lanes, segment switches between tiles) plus the
 * single horizontal inter-column bus (paper Section 2.3, Figures 1-2).
 *
 * Topology modelled per lane:
 *
 *    H ======================================== (horizontal bus)
 *    |seg[3]          |seg[3]
 *   tile0            tile0
 *    |seg[0]          |seg[0]
 *   tile1            tile1          ... one chain per column
 *    |seg[1]          |seg[1]
 *   tile2            tile2
 *    |seg[2]          |seg[2]
 *   tile3            tile3
 *
 * Each 4-bit SEG field controls its segment switch at lane-pair
 * granularity: bit g of seg[k] connects lanes 2g and 2g+1 across
 * point k. With every switch closed the fabric is one chip-wide
 * broadcast bus; with switches open, disjoint segments carry
 * independent transfers in the same cycle (the "approximate bandwidth
 * of a mesh" of Section 2.3).
 */

#ifndef SYNC_ARCH_BUS_HH
#define SYNC_ARCH_BUS_HH

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "arch/dou.hh"
#include "arch/tile.hh"
#include "common/stats.hh"

namespace synchro::arch
{

/** What one column contributes to a bus cycle. */
struct ColumnBusView
{
    const DouState *state = nullptr;
    //! By position; nullptr where the tile is absent or supply-gated.
    std::array<Tile *, TilesPerColumn> tiles{};
};

/**
 * The resolution plan of one lane for one combination of DOU bus
 * outputs (buf bytes + seg nibbles of every column). Segment
 * connectivity, driver/capture slot lists and group node counts
 * depend only on that content; buffer validity, lane tags and
 * deferral stay dynamic (BusFabric::runPlan).
 */
struct LanePlan
{
    struct Slot
    {
        uint8_t col = 0;
        uint8_t tile = 0;
        uint16_t group = 0; //!< dense id of the segment group
    };
    uint8_t lane = 0;
    std::vector<Slot> drivers;  //!< in scan order: col asc, tile asc
    std::vector<Slot> captures; //!< same order
    std::vector<uint32_t> group_nodes; //!< per group: node count
};

/** A resolved bus cycle: one plan per lane with a scheduled drive. */
using CyclePlan = std::vector<LanePlan>;

/**
 * A plan that is one point-to-point transfer: a single lane with one
 * driver and one capture, both in one segment group. Every active
 * phase lowerDag emits is one; BusFabric::runTransfer runs it without
 * the per-group scratch of runPlan.
 */
struct PointTransfer
{
    uint8_t lane = 0;
    LanePlan::Slot driver;  //!< (col, tile); group unused
    LanePlan::Slot capture; //!< (col, tile); group unused
    uint32_t span = 0;      //!< the group's node count (wire span)
};

/** @p plan as one point-to-point transfer, if it is one. */
std::optional<PointTransfer> pointTransfer(const CyclePlan &plan);

/**
 * The bus-visible outputs of @p st — buf bytes and seg nibbles —
 * packed into one word: the per-column content a CyclePlan depends
 * on.
 */
uint64_t busOutputs(const DouState &st);

/**
 * Resolve the plan of the bus cycle whose DOU outputs are
 * @p views' states (a null state contributes nothing; the tiles are
 * not consulted).
 */
CyclePlan planCycle(const std::vector<ColumnBusView> &views);

class BusFabric
{
  public:
    /**
     * @param self_timed  latency-insensitive delivery: a transfer
     *        whose destination read buffer is still full *defers* —
     *        the driver keeps its word and the slot retries next
     *        period — instead of overrunning. Producer-side
     *        backpressure (`cwr` stalls on a full write buffer) plus
     *        capture-side deferral self-time a whole DAG of edges;
     *        drop-new overruns never happen on scheduled transfers.
     */
    explicit BusFabric(unsigned n_columns, bool strict = false,
                       bool self_timed = false);

    /**
     * Resolve one bus cycle from each column's current DOU outputs:
     * a cycle in which no DOU drives or captures is a no-op;
     * otherwise the outputs' plan (memoized per output combination,
     * so steady-state schedules skip the union-find rebuild) runs
     * through runPlan().
     */
    void cycle(std::vector<ColumnBusView> &views);

    /**
     * Run one bus cycle of a resolved @p plan: pop driving tiles'
     * write buffers onto lanes and push captured values into the
     * per-lane read buffers, tiles taken from @p views.
     *
     * A drive slot whose write buffer holds a word tagged for a
     * *different* lane defers (counted, never fatal): the word waits
     * for its own lane's slot. This is what lets one producer feed
     * several DAG edges through a single write buffer.
     *
     * In strict mode, structural hazards (two drivers in one connected
     * group), driver underruns (drive with empty write buffer) and
     * capture overruns (push into a still-valid read buffer) are
     * fatal; otherwise they are counted in stats.
     */
    void runPlan(const CyclePlan &plan,
                 const std::vector<ColumnBusView> &views);

    /**
     * runPlan() of the one-lane plan @p x stands for, with its tiles
     * resolved: @p driver and @p capture (nullptr where the position
     * is absent or supply-gated). Same valid-bit, tag and deferral
     * rules, same counters, touched list and strict-mode fatals.
     */
    void runTransfer(const PointTransfer &x, Tile *driver,
                     Tile *capture);

    /**
     * A bus cycle in which no DOU drives or captures: nothing moves
     * and nothing is counted, so only the touched list resets.
     */
    void quietCycle() { touched_.clear(); }

    bool selfTimed() const { return self_timed_; }

    /**
     * Columns whose comm buffers the last cycle changed: a write
     * buffer popped (transfer or conflict) or a read buffer filled
     * (capture). A column may appear more than once. The Compiled
     * scheduler wakes comm-stalled columns from this list — no other
     * bus cycle can release their hazard.
     */
    const std::vector<unsigned> &
    touchedColumns() const
    {
        return touched_;
    }

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    /** Total driver events (32-bit bus transactions). */
    uint64_t transfers() const { return transfers_.value(); }

    /**
     * Sum over transfers of the connected-group node count — a proxy
     * for the wire length each transfer toggled; the segmentation
     * ablation uses this to quantify the energy saved by splitting
     * the bus.
     */
    uint64_t wireSpanSum() const { return wire_span_.value(); }

  private:
    unsigned n_columns_;
    bool strict_;
    bool self_timed_;

    StatGroup stats_;
    Counter &transfers_;
    Counter &captures_;
    Counter &conflicts_;
    Counter &underruns_;
    Counter &overruns_;
    Counter &deferrals_;
    Counter &wire_span_;

    /** One candidate driver of a connected segment group. */
    struct Driver
    {
        uint32_t value = 0;
        int src_node = 0;
        Tile *src_tile = nullptr;
        bool present = false;
        bool conflicted = false;
    };

    // Per-lane scratch (reused across cycles — the resolution runs
    // every active reference phase, so it must not allocate).
    std::vector<Driver> group_driver_;
    std::vector<char> group_deferred_;
    std::vector<unsigned> touched_; //!< see touchedColumns()

    /** A capture slot with no word to take: count (strict: fatal). */
    void captureUnderrun(const LanePlan::Slot &s, unsigned lane);

    const CyclePlan &lookupPlan(const std::vector<ColumnBusView> &views);

    //! Content key (one packed buf+seg word per column) -> plan.
    std::map<std::vector<uint64_t>, CyclePlan> plan_cache_;
    std::vector<uint64_t> plan_key_; //!< lookup scratch
};

} // namespace synchro::arch

#endif // SYNC_ARCH_BUS_HH
