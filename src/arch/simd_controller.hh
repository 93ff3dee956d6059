/**
 * @file
 * The per-column SIMD controller (paper Section 2.2).
 *
 * One program memory and one thread of control drive the whole column:
 * the controller performs all control instructions itself and forwards
 * computation instructions to the tiles in lock step. Conditional
 * branches cost one extra stall cycle ("we provide a short pipeline in
 * the control unit to calculate branches quickly, and delay
 * instructions from reaching the processing elements"); zero-overhead
 * loops cost nothing because only the PC is consulted.
 *
 * The controller also implements Zero Overhead Rate Matching (paper
 * Section 2.4): a programmable counter pair (nops n, period d) makes
 * it dynamically insert n nops spread over every d issue slots, so a
 * column's computational rate can be matched to any target data rate
 * without code changes.
 */

#ifndef SYNC_ARCH_SIMD_CONTROLLER_HH
#define SYNC_ARCH_SIMD_CONTROLLER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/tile.hh"
#include "common/stats.hh"
#include "isa/assembler.hh"
#include "isa/uop.hh"
#include "sim/types.hh"

namespace synchro::arch
{

/** How the controller reduces tile CC flags for branches. */
enum class CcMode
{
    Tile0, //!< use the designated tile's flag (default)
    Any,   //!< OR of the active tiles' flags
    All,   //!< AND of the active tiles' flags
};

class SimdController
{
  public:
    /** Instruction SRAM is 2 KB (paper Table 2) = 512 words. */
    static constexpr unsigned InsnMemWords = 512;

    explicit SimdController(unsigned column);

    /**
     * Load a program; fatal() if it exceeds instruction SRAM. The
     * program is decoded once into micro-ops through the shared
     * decoded-program cache (isa/uop.hh); the per-slot broadcast
     * path never re-decodes.
     */
    void loadProgram(const isa::Program &prog);

    /** The decoded program driving this column (null if none). */
    const std::shared_ptr<const isa::DecodedProgram> &
    decodedProgram() const
    {
        return prog_;
    }

    /**
     * Configure rate matching: insert @p nops nops over every
     * @p period issue slots (0/0 disables). fatal() if nops >= period
     * with period != 0.
     */
    void setRateMatch(uint32_t nops, uint32_t period);

    /**
     * The least slot count in which rate matching issues
     * @p want_issues slots, starting from accumulator @p acc (the
     * per-slot rule: acc += nops, and the slot is a nop when
     * acc >= period, which then subtracts period). One division;
     * needs nops < period and acc < period.
     */
    static uint64_t zormSlots(uint64_t want_issues, uint64_t acc,
                              uint64_t nops, uint64_t period);

    void setCcMode(CcMode mode) { cc_mode_ = mode; }

    /**
     * One column clock edge. Decides between halt, branch-stall slot,
     * ZORM nop, communication stall, control execution, and broadcast
     * to @p tiles (the active tiles of the column).
     */
    void cycle(const std::vector<Tile *> &tiles);

    /**
     * Execute up to @p max_slots issue slots as one block — the
     * Compiled scheduler backend's edge path. Straight-line runs
     * (isa::DecodedProgram::run_len) execute as pre-analyzed blocks,
     * whole zero-overhead loops in bulk and ZORM-paced nops in closed
     * form. Every other slot whose effect stays inside the column
     * runs in place by cycle()'s per-slot rule: branch-stall slots,
     * jump, jcc/jncc (on the column's own CC), lsetup (with its
     * fatal checks) and the ZORM nops before them. So does a
     * crd/cwr whose hazard is clear within the first @p comm_slots
     * slots, where the caller proved no bus cycle touches the
     * column's buffers. The block ends before halt (its slot decides
     * when the chip halts), a comm op past @p comm_slots or with its
     * hazard holding (the caller's sleep path takes it), and a pc
     * past the program end. Returns the number of slots consumed;
     * 0 means the current slot needs the per-slot path (caller
     * falls back to cycle()). State, statistics and tile effects
     * are bit-identical to the same number of cycle() calls.
     */
    Tick cycleBlock(const std::vector<Tile *> &tiles, Tick max_slots,
                    Tick comm_slots);

    /**
     * True when the next slot is a CommRead with an empty buffer or a
     * CommWrite with a full one (no branch stall pending; a ZORM nop
     * slot only defers the check). Comm buffers change only through
     * bus activity and this column's own issue slots, which a stalled
     * column does not perform — so the column stays stalled, every
     * slot a comm stall or a ZORM-paced nop, until a bus cycle fills
     * or drains one of its buffers.
     */
    bool commStalled(const std::vector<Tile *> &tiles) const;

    /**
     * Credit @p slots issue slots of a comm-stalled column in one
     * call: the ZORM-paced nops interleaved in closed form, the rest
     * comm stalls, exactly as that many cycle() calls would. Unchecked
     * — the caller proved commStalled() holds for every one of them
     * (the Compiled walk: no bus cycle touched the column's buffers).
     */
    void stallCredit(Tick slots);

    bool halted() const { return halted_; }
    uint32_t pc() const { return pc_; }

    /** Restart the loaded program from address 0. */
    void reset();

    /**
     * Snapshot @p other's decoded program (shared, refcounted — no
     * re-decode), thunk tables, PC/halt/stall position, loop units,
     * ZORM configuration and CC mode into this controller.
     * Statistics are NOT copied. Chip::clone() drives this.
     */
    void copyStateFrom(const SimdController &other);

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

  private:
    struct LoopUnit
    {
        uint32_t start = 0;
        uint32_t end = 0;
        uint32_t remaining = 0;
    };

    bool readCc(const std::vector<Tile *> &tiles) const;

    /**
     * The next slot, which is not part of a straight run, may issue
     * inside a block (see cycleBlock()); @p comm_ok: comm ops may.
     */
    bool blockSlot(const std::vector<Tile *> &tiles, bool comm_ok) const;
    void advancePc();

    /** @p uop is a comm op some active tile cannot complete yet. */
    static bool commHazard(const isa::MicroOp &uop,
                           const std::vector<Tile *> &tiles);

    /**
     * Fold a window of ZORM pacing in closed form: the least slot
     * count S that yields @p want_issues issue slots (zormSlots(),
     * capped at @p avail total slots), split into issues + paced
     * nops, with zorm_acc_ advanced exactly as S per-slot Bresenham
     * steps would.
     */
    void zormWindow(uint64_t want_issues, Tick avail,
                    uint64_t &issues, uint64_t &nops);

    unsigned column_;
    std::shared_ptr<const isa::DecodedProgram> prog_;
    std::vector<Tile::OpFn> fns_; //!< per-pc opThunk()s for blocks
    std::vector<Tile::OpLoopFn> loop_fns_; //!< per-pc opLoopThunk()s

    uint32_t pc_ = 0;
    bool halted_ = true;
    unsigned stall_ = 0; //!< pending branch-stall cycles

    LoopUnit loops_[2];
    std::vector<uint8_t> loop_stack_; //!< activation order of units

    uint32_t zorm_nops_ = 0;
    uint32_t zorm_period_ = 0;
    uint32_t zorm_acc_ = 0;

    CcMode cc_mode_ = CcMode::Tile0;

    StatGroup stats_;
    Counter &issued_;
    Counter &zorm_nops_issued_;
    Counter &branch_stalls_;
    Counter &comm_stalls_;
    Counter &halt_cycles_;
};

} // namespace synchro::arch

#endif // SYNC_ARCH_SIMD_CONTROLLER_HH
