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
#include <memory>
#include <string>
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

    /** Some tile drives or captures (a buffer-control byte is set). */
    bool
    drivesOrCaptures() const
    {
        uint8_t any = 0;
        for (uint8_t b : buf)
            any |= b;
        return any != 0;
    }

    /** Pack into the 64-bit state word of Figure 3. */
    uint64_t pack() const;
    static DouState unpack(uint64_t word);

    friend bool
    operator==(const DouState &a, const DouState &b)
    {
        return a.pack() == b.pack();
    }
};

/**
 * Where a DOU stands in its program: the state index plus the four
 * down-counters. Everything a DOU will ever output follows from its
 * program and this position — the machine never reads data.
 */
struct DouPosition
{
    unsigned state = 0;
    std::array<uint32_t, DouNumCounters> counters{};

    friend bool
    operator==(const DouPosition &a, const DouPosition &b)
    {
        return a.state == b.state && a.counters == b.counters;
    }
};

/** A complete DOU configuration: states plus counter initial values. */
struct DouProgram
{
    std::vector<DouState> states;
    std::array<uint32_t, DouNumCounters> counter_init{};

    /** A single self-looping all-idle state. */
    static DouProgram idle();

    /**
     * Why the program violates the hardware's limits — no states,
     * more than DouMaxStates, a counter or successor out of range, a
     * SEG field wider than 4 bits — or "" when it does not. A
     * well-formed program never steps past its states.
     */
    std::string malformed() const;

    /** fatal() with malformed()'s reason, if there is one. */
    void validate() const;

    /** The position after reset: state 0, counters at their inits. */
    DouPosition
    resetPosition() const
    {
        return {0, counter_init};
    }

    /**
     * One cycle from @p pos: returns the state whose outputs drive
     * the cycle and moves @p pos to its successor (the tested
     * counter reloads and NXTSTATE0 is taken at zero; otherwise it
     * decrements and NXTSTATE1 is taken).
     */
    const DouState &
    step(DouPosition &pos) const
    {
        const DouState &out = states[pos.state];
        uint32_t &ctr = pos.counters[out.cntr];
        if (ctr == 0) {
            ctr = counter_init[out.cntr];
            pos.state = out.nxt0;
        } else {
            --ctr;
            pos.state = out.nxt1;
        }
        return out;
    }

    /**
     * Advance @p pos through up to @p max *comm-free* cycles — every
     * state visited has all-zero buffer controls, so no tile drives
     * or captures — exactly as that many Dou::step() calls would.
     * Returns the cycles taken; fewer than @p max means the walk
     * stopped at a state that drives or captures, or ran out of
     * @p budget. Inert self-loops (both successors back to the
     * state: the idle DOU, or a finished schedule's parking state)
     * are consumed in O(1) by closed form; every other transition
     * (a wait state's exit or a generic step) spends one unit of
     * @p budget.
     */
    uint64_t walkCommFree(DouPosition &pos, uint64_t max,
                          uint64_t &budget) const;
};

/**
 * The DOU state machine. Call step() once per bus cycle; the returned
 * state's SEG/Buffer outputs configure the column bus for that cycle.
 */
class Dou
{
  public:
    Dou();

    /** Install a program; the DOU restarts from its reset position. */
    void load(const DouProgram &prog);

    /** Outputs for this cycle, then advance. */
    const DouState &
    step()
    {
        ++steps_;
        return prog_->step(pos_);
    }

    /** Outputs for this cycle without advancing. */
    const DouState &current() const { return prog_->states[pos_.state]; }

    /**
     * The loaded program. Each load() installs a new one, and
     * copyStateFrom() shares it, so pointer identity names a program
     * set: the chip's bus timeline is valid while its DOUs hold the
     * programs it was built from.
     */
    const std::shared_ptr<const DouProgram> &
    program() const
    {
        return prog_;
    }

    const DouPosition &position() const { return pos_; }

    /**
     * Put the machine at @p pos and credit @p steps cycles to the
     * step statistic — the chip's bus timeline does this when a run
     * ends, having advanced the schedule without stepping the DOU.
     */
    void
    place(const DouPosition &pos, uint64_t steps)
    {
        pos_ = pos;
        steps_ += steps;
    }

    unsigned stateIndex() const { return pos_.state; }
    uint32_t counter(unsigned i) const { return pos_.counters.at(i); }

    void reset();

    /**
     * Snapshot @p other's program and machine position (state index,
     * counters) into this DOU; statistics are NOT copied.
     * Chip::clone() drives this.
     */
    void copyStateFrom(const Dou &other);

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

  private:
    std::shared_ptr<const DouProgram> prog_;
    DouPosition pos_;
    StatGroup stats_;
    Counter &steps_;
};

} // namespace synchro::arch

#endif // SYNC_ARCH_DOU_HH
