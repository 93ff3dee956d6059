/**
 * @file
 * Data Orchestration Unit — the decoupled, statically-scheduled
 * communication controller of each column (paper Section 2.3,
 * Figure 3).
 *
 * The DOU is a state machine of up to 128 states driven at the bus
 * (maximum) frequency. Each state word packs five field types:
 *
 *   CNTR  (2 b)  which of the four 32-bit down-counters to test
 *   SEG   (4x4 b) segment-switch controls for the column bus
 *   Buffer(4x8 b) per-tile drive/capture controls
 *   NXTSTATE0 (7 b) successor when the tested counter is zero
 *                   (the counter also reloads its initial value)
 *   NXTSTATE1 (7 b) successor otherwise (the counter decrements)
 *
 * = 64 bits per state, exactly the layout of the paper's Figure 3.
 * The four pre-programmed down-counters give four nested loops.
 *
 * Buffer byte layout (our encoding of the paper's 8 bits/tile):
 *   bit 7    drive enable  (write buffer -> bus lane)
 *   bits 6:4 drive lane    (which of the 8 32-bit splits)
 *   bit 3    capture enable(bus lane -> read buffer)
 *   bits 2:0 capture lane
 */

#ifndef SYNC_ARCH_DOU_HH
#define SYNC_ARCH_DOU_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/stats.hh"

namespace synchro::arch
{

constexpr unsigned DouMaxStates = 128;
constexpr unsigned DouNumCounters = 4;
constexpr unsigned TilesPerColumn = 4;
constexpr unsigned BusLanes = 8;          //!< 8 x 32-bit = 256 bits
constexpr unsigned SegPointsPerColumn = 4; //!< 3 inter-tile + boundary

/** Per-tile buffer-control helpers. */
struct BufferCtl
{
    bool drive = false;
    uint8_t drive_lane = 0;
    bool capture = false;
    uint8_t capture_lane = 0;

    uint8_t
    byte() const
    {
        return uint8_t((drive ? 0x80 : 0) | ((drive_lane & 7) << 4) |
                       (capture ? 0x08 : 0) | (capture_lane & 7));
    }

    static BufferCtl
    fromByte(uint8_t b)
    {
        BufferCtl c;
        c.drive = (b & 0x80) != 0;
        c.drive_lane = (b >> 4) & 7;
        c.capture = (b & 0x08) != 0;
        c.capture_lane = b & 7;
        return c;
    }
};

/** One DOU state. */
struct DouState
{
    uint8_t cntr = 0;                              //!< 2 bits
    std::array<uint8_t, SegPointsPerColumn> seg{}; //!< 4 bits each
    std::array<uint8_t, TilesPerColumn> buf{};     //!< 8 bits each
    uint8_t nxt0 = 0;                              //!< 7 bits
    uint8_t nxt1 = 0;                              //!< 7 bits

    /** Pack into the 64-bit state word of Figure 3. */
    uint64_t pack() const;
    static DouState unpack(uint64_t word);

    friend bool
    operator==(const DouState &a, const DouState &b)
    {
        return a.pack() == b.pack();
    }
};

/** A complete DOU configuration: states plus counter initial values. */
struct DouProgram
{
    std::vector<DouState> states;
    std::array<uint32_t, DouNumCounters> counter_init{};

    /** A single self-looping all-idle state. */
    static DouProgram idle();

    /** fatal() if the program violates hardware limits. */
    void validate() const;
};

/**
 * The DOU state machine. Call step() once per bus cycle; the returned
 * state's SEG/Buffer outputs configure the column bus for that cycle.
 */
class Dou
{
  public:
    explicit Dou(unsigned column);

    void load(const DouProgram &prog);

    /**
     * Outputs for this cycle, then advance. Defined inline: the
     * reference phase calls this once per column per active tick.
     */
    const DouState &
    step()
    {
        // A cached comm-free run covers this step: walkCommFree()
        // mirrors step()'s transition rule exactly, so one real step
        // consumes one slot of the proven run. Past the run's end
        // nothing is known.
        if (cf_run_ > 0) {
            --cf_run_;
            --cf_cap_;
        } else {
            cf_cap_ = 0;
        }
        ++steps_;
        const DouState &out = prog_.states[state_];
        uint32_t &ctr = counters_[out.cntr];
        if (ctr == 0) {
            ctr = prog_.counter_init[out.cntr];
            state_ = out.nxt0;
        } else {
            --ctr;
            state_ = out.nxt1;
        }
        return out;
    }

    /** Outputs for this cycle without advancing. */
    const DouState &current() const { return prog_.states[state_]; }

    /**
     * How many of the next @p max step() calls are *comm-free*: every
     * state visited (including the current one) has all-zero buffer
     * controls, so no tile drives or captures and a bus cycle against
     * it is a guaranteed no-op. The walk goes through state
     * transitions — wait states (nxt1 == self) and inert self-loops
     * (both successors back to the state: the idle DOU, or a finished
     * schedule's parking state) are consumed in O(1), other comm-free
     * states one at a time — so a schedule that parks between its
     * active slots reports the whole gap.
     */
    uint64_t commFreeRun(uint64_t max) const;

    /**
     * Commit @p n comm-free cycles in one call: state and counters
     * advance exactly as n step() calls would, and the step statistic
     * is credited. @p n must not exceed commFreeRun(n) — the walk
     * panics if it reaches a driving/capturing state early.
     */
    void fastForwardCommFree(uint64_t n);

    unsigned stateIndex() const { return state_; }
    uint32_t counter(unsigned i) const { return counters_.at(i); }

    void reset();

    /**
     * Snapshot @p other's program and machine position (state index,
     * counters) into this DOU; the comm-free lookahead cache is
     * dropped (it is re-proven on demand) and statistics are NOT
     * copied. Chip::clone() drives this.
     */
    void copyStateFrom(const Dou &other);

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

  private:
    uint64_t walkCommFree(uint64_t max, unsigned &st,
                          std::array<uint32_t, DouNumCounters> &ctrs)
        const;

    unsigned column_;
    DouProgram prog_;
    unsigned state_ = 0;
    std::array<uint32_t, DouNumCounters> counters_{};
    StatGroup stats_;
    Counter &steps_;

    /**
     * Comm-free lookahead cache: the next cf_run_ step() calls are
     * proven comm-free against horizon cf_cap_ (cf_run_ < cf_cap_
     * means the run's end is exact, not horizon-capped). Repeated
     * probes over one quiet window — Chip::commFreeAdvance probes
     * and then commits, the ParallelColumns scheduler sizes its
     * window before advancing through it — then hit the cache
     * instead of re-walking. Any other state change resets it.
     *
     * cf_end_* is the machine position after consuming the whole
     * cached run. Whenever cf_run_ > 0 it is current: only a probe
     * walk raises cf_run_ (and records the end), and every consuming
     * path shortens the run from the front, which leaves the position
     * after the remainder unchanged. fastForwardCommFree() snaps to
     * it when asked to commit exactly the remaining run.
     */
    mutable uint64_t cf_run_ = 0;
    mutable uint64_t cf_cap_ = 0;
    mutable unsigned cf_end_state_ = 0;
    mutable std::array<uint32_t, DouNumCounters> cf_end_ctrs_{};
};

} // namespace synchro::arch

#endif // SYNC_ARCH_DOU_HH
