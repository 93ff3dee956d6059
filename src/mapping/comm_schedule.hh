/**
 * @file
 * Static communication scheduling: compiles a periodic transfer
 * schedule into a DOU program (paper Section 4.1 step 4: "Assume
 * every data transfer takes one clock cycle. Statically schedule all
 * the data transfers", and Section 2.3's DOU programming model).
 *
 * A schedule is a repeating window of `period` bus cycles with
 * transfers pinned to offsets. The compiler emits one DOU state per
 * active cycle, compresses idle gaps with the DOU's down-counters
 * (falling back to chained idle states when all four counters are
 * taken), checks for lane conflicts, and wires the segment switches
 * to span exactly the tiles each transfer touches.
 */

#ifndef SYNC_MAPPING_COMM_SCHEDULE_HH
#define SYNC_MAPPING_COMM_SCHEDULE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "arch/dou.hh"

namespace synchro::mapping
{

/** One periodic transfer on a column's bus. */
struct Transfer
{
    unsigned offset = 0; //!< bus cycle within the period
    unsigned lane = 0;   //!< 32-bit lane (0..7)
    int src_tile = 0;    //!< driving tile position, or -1 when the
                         //!< data arrives from the horizontal bus
    std::vector<unsigned> dst_tiles; //!< capturing tile positions
    bool to_horizontal = false; //!< also forward to the H bus
};

/** A periodic column communication schedule. */
struct CommSchedule
{
    unsigned period = 1;  //!< bus cycles per repetition
    unsigned prologue = 0; //!< idle bus cycles before the first pass
    std::vector<Transfer> transfers;
};

/**
 * Compile to a DOU program. fatal() on lane conflicts within a
 * cycle, out-of-range tiles, offsets >= period, or programs
 * exceeding the 128-state / 4-counter hardware.
 */
arch::DouProgram compileSchedule(const CommSchedule &sched);

/**
 * Delivery slots for the edges of an SDF DAG within one grid period
 * of @p spacing bus cycles: edge e rides its own 32-bit lane e and
 * gets slots_per_edge[e] drive/capture slots per period, spread
 * evenly through it and phase-staggered by edge index. Offsets are
 * globally unique (a greedy forward probe resolves collisions), so
 * no tile ever has to drive or capture two edges in the same cycle —
 * every column's transfers stay conflict-free by construction,
 * whatever the DAG's fan-out/fan-in shape — and each lane's slots
 * stay in time order, preserving token order through the
 * single-entry buffers.
 *
 * A slot is a delivery *opportunity*, not an obligation, because
 * delivery is self-timed: a drive slot on lane e pops the producer's
 * write buffer only if the pending word is tagged for lane e (the
 * tag-matching pop rule — see arch/comm_buffer.hh); a slot that
 * finds no matching word, or whose destination read buffer is still
 * full, idles and counts an underrun or deferral. slots_per_edge[e]
 * therefore sets edge e's delivery *ceiling*: it must cover the
 * edge's worst-case token rate (tokens per iteration x iteration
 * rate, plus lowering slack), or producers stall on `cwr` and the
 * whole DAG runs below its planned rate. codegen::lowerDag sizes the
 * period so ONE slot covers the busiest edge divided by the slack
 * factor; burstier edges ask for more via DagEdgeSpec::
 * slots_per_period.
 *
 * fatal() when the edges exceed the bus lanes or the period is too
 * tight to place every slot (the data rate is too high for the
 * reference clock).
 */
struct EdgeSlots
{
    unsigned period = 0;        //!< the grid period (== spacing)
    std::vector<unsigned> lane; //!< bus lane per edge
    std::vector<std::vector<unsigned>> offsets; //!< slots per edge
};

EdgeSlots allocateEdgeSlots(const std::vector<unsigned> &slots_per_edge,
                            uint64_t spacing);

/**
 * Reference interpretation of a schedule: the (seg, buf) outputs the
 * DOU must produce at the given absolute bus cycle. Tests compare
 * the compiled program's trace against this. fatal() on the
 * malformations compileSchedule() rejects at that cycle.
 */
arch::DouState scheduleOutputAt(const CommSchedule &sched,
                                uint64_t bus_cycle);

/** One active offset of a schedule and its reference outputs. */
struct ActiveCycle
{
    unsigned offset = 0;
    arch::DouState out;    //!< scheduleOutputAt() at this offset
    std::string malformed; //!< why out is undefined, or ""
};

/**
 * scheduleOutputAt() for one whole period in one pass over the
 * transfers: an entry per offset in [0, period) that carries a
 * transfer, ascending; every other cycle of the period outputs
 * DouState{}. Never fatal()s: an offset scheduleOutputAt() would
 * fatal() on carries the reason in `malformed` instead.
 */
std::vector<ActiveCycle> scheduleActiveCycles(const CommSchedule &sched);

} // namespace synchro::mapping

#endif // SYNC_MAPPING_COMM_SCHEDULE_HH
