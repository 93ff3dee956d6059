/**
 * @file
 * One Synchroscalar processor tile.
 *
 * The tile is a simple single-issue Blackfin-style datapath: R0-R7,
 * P0-P5, two 40-bit accumulators, a CC flag, and 32 KB of local data
 * SRAM. It has no fetch/decode of its own — the column's SIMD
 * controller broadcasts decoded instructions (paper Section 2.2) and
 * the tile merely executes them against private state. R7 is the
 * designated communication register; `cwr`/`crd` move data through the
 * write/read buffers that the DOU services at bus cycles.
 */

#ifndef SYNC_ARCH_TILE_HH
#define SYNC_ARCH_TILE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "arch/comm_buffer.hh"
#include "arch/dou.hh"
#include "common/log.hh"
#include "common/stats.hh"
#include "isa/inst.hh"
#include "isa/uop.hh"

namespace synchro::arch
{

// The ISA's lane-operand range must track the bus width: a lane tag
// encodable in crd/cwr has to address a real lane and read buffer.
static_assert(isa::BusLaneCount == BusLanes,
              "isa::BusLaneCount must equal arch::BusLanes");

class Tile
{
  public:
    static constexpr unsigned MemBytes = 32 * 1024; //!< 32 KB SRAM

    /**
     * @param column column index on the chip
     * @param index  position within the column (0 = top)
     */
    Tile(unsigned column, unsigned index);

    unsigned column() const { return column_; }
    unsigned index() const { return index_; }

    /// @name Architectural state access (tests, loaders)
    /// @{
    uint32_t reg(unsigned r) const;
    void setReg(unsigned r, uint32_t v);
    uint32_t preg(unsigned p) const;
    void setPreg(unsigned p, uint32_t v);
    int64_t acc(unsigned a) const;
    void setAcc(unsigned a, int64_t v);
    bool cc() const { return cc_; }
    void setCc(bool c) { cc_ = c; }
    /// @}

    /// @name Local SRAM access
    /// @{
    void writeMem(uint32_t addr, const void *data, uint32_t len);
    void readMem(uint32_t addr, void *data, uint32_t len) const;
    void writeMemWords(uint32_t addr, const std::vector<int32_t> &w);
    std::vector<int32_t> readMemWords(uint32_t addr, uint32_t n) const;
    void writeMemHalves(uint32_t addr, const std::vector<int16_t> &h);
    std::vector<int16_t> readMemHalves(uint32_t addr, uint32_t n) const;
    /// @}

    /**
     * Execute one pre-decoded non-control micro-op — the broadcast
     * fast path. The caller (SIMD controller) has already resolved
     * hazards; executing `crd` with an empty read buffer or `cwr`
     * with a full write buffer is a panic here, as is a control
     * micro-op reaching a tile.
     */
    void execute(const isa::MicroOp &uop);

    /**
     * Convenience for tests and single-shot callers: decode (with
     * full operand validation) and execute one instruction.
     */
    void execute(const isa::Inst &inst);

    /** A specialized executor for one micro-op. */
    using OpFn = void (*)(Tile &, const isa::MicroOp &);

    /**
     * The specialized executor for @p uop, or nullptr for control
     * kinds that may never reach a tile. Loads and stores are
     * specialized on their size, sign extension and post-modify
     * flag, the rest on their kind alone. The returned function runs
     * the op's datapath semantics only — activity counters are the
     * caller's job (execute() charges them per op, executeBlock() in
     * bulk).
     */
    static OpFn opThunk(const isa::MicroOp &uop);

    /**
     * Execute @p n micro-ops of a pre-analyzed straight-line block
     * (isa::DecodedProgram::run_len) in one call — the Compiled
     * scheduler backend's broadcast path. @p fns are the matching
     * opThunk() pointers; @p broadcast / @p mems / @p macs are the
     * per-tile counter charges for the whole range (controller nops
     * are issued but not broadcast, so broadcast <= n).
     */
    void executeBlock(const OpFn *fns, const isa::MicroOp *uops,
                      uint32_t n, uint64_t broadcast, uint64_t mems,
                      uint64_t macs);

    /**
     * Execute @p iters complete firings of an @p n micro-op loop
     * body in one call — executeBlock() for a whole zero-overhead
     * loop. The counter charges cover all iterations.
     */
    void executeLoop(const OpFn *fns, const isa::MicroOp *uops,
                     uint32_t n, uint64_t iters, uint64_t broadcast,
                     uint64_t mems, uint64_t macs);

    /** A specialized executor running one op @p iters times. */
    using OpLoopFn = void (*)(Tile &, const isa::MicroOp &, uint64_t);

    /**
     * The iterated executor for @p uop (nullptr for control kinds).
     * For single-op loop bodies this beats @p iters opThunk() calls:
     * the op is inlined into the iteration loop, which the optimizer
     * then collapses or vectorizes. Semantics and panics are
     * identical to calling opThunk(uop) @p iters times.
     */
    static OpLoopFn opLoopThunk(const isa::MicroOp &uop);

    /** executeLoop() for a one-op body via its opLoopThunk(). */
    void executeLoopOp(OpLoopFn fn, const isa::MicroOp &uop,
                       uint64_t iters, uint64_t broadcast,
                       uint64_t mems, uint64_t macs);

    /**
     * The single write buffer. Words may carry a lane tag (from a
     * tagged `cwr`); the DOU only drives a tagged word onto its
     * matching lane.
     */
    CommBuffer &writeBuffer() { return wbuf_; }
    const CommBuffer &writeBuffer() const { return wbuf_; }

    /**
     * Per-lane read buffers (paper Figure 2: the buffers align words
     * onto any 32-bit split of the 256-bit bus — one latch per
     * split). A DOU capture on lane L fills readBuffer(L); a tagged
     * `crd rd, L` drains exactly that buffer, so a join actor can
     * wait on each input edge independently. Untagged `crd` drains
     * the lowest-indexed valid buffer (legacy single-buffer code has
     * at most one valid at a time).
     */
    CommBuffer &readBuffer(unsigned lane = 0);
    const CommBuffer &readBuffer(unsigned lane = 0) const;

    /** True if any lane's read buffer holds a word. */
    bool anyReadValid() const;

    /** Reset architectural state (not SRAM contents). */
    void resetState();

    /**
     * Zero the whole SRAM (stream refeed between work items). A
     * shared SRAM is dropped for the zero page, copying nothing.
     */
    void clearMem();

    /**
     * Snapshot @p other's architectural state and SRAM into this
     * tile: registers, accumulators, CC, memory, write buffer and
     * per-lane read buffers. Statistics are NOT copied — a clone
     * starts counting from zero. Chip::clone() drives this.
     *
     * The SRAM is shared, not copied: both tiles read the same
     * buffer until either stores to it, and that store first gives
     * the storing tile a private copy (so neither ever sees the
     * other's writes). Safe to call concurrently on one @p other
     * while @p other itself is not being written.
     */
    void copyStateFrom(const Tile &other);

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

  private:
    using Sram = std::array<uint8_t, MemBytes>;

    /** What every fresh or cleared tile reads: an all-zero SRAM. */
    static const Sram ZeroSram;

    template <isa::UopKind K>
    static void opFn(Tile &t, const isa::MicroOp &uop);

    template <unsigned Size, bool SignExtend, bool PostMod>
    static void loadOp(Tile &t, const isa::MicroOp &uop);

    template <unsigned Size, bool PostMod>
    static void storeOp(Tile &t, const isa::MicroOp &uop);

    template <OpFn F>
    static void loopOf(Tile &t, const isa::MicroOp &uop,
                       uint64_t iters);

    /** The executor pair of one op; see opThunk()/opLoopThunk(). */
    struct OpEntry
    {
        OpFn fn;
        OpLoopFn loop;
    };
    static OpEntry opEntry(const isa::MicroOp &uop);

    template <OpFn F>
    static OpEntry entryOf();

    template <unsigned Size, bool SignExtend>
    static OpEntry loadEntry(bool post_mod);

    template <unsigned Size>
    static OpEntry storeEntry(bool post_mod);

    /** The SRAM, writable: a private copy if it is shared. */
    uint8_t *
    writableMem()
    {
        if (sram_shared_) [[unlikely]]
            ownMem();
        return sram_->data();
    }

    /** Give this tile a private copy of what it reads. */
    void ownMem();

    template <unsigned Size>
    void
    checkAccess(uint32_t addr, const char *what) const
    {
        if (uint64_t(addr) + Size > MemBytes) [[unlikely]]
            fatal("tile (%u,%u): %s at 0x%x beyond SRAM", column_,
                  index_, what, addr);
        if (addr % Size != 0) [[unlikely]]
            fatal("tile (%u,%u): unaligned %u-byte %s at 0x%x",
                  column_, index_, Size, what, addr);
    }

    template <bool PostMod>
    uint32_t
    effectiveAddress(const isa::MicroOp &uop)
    {
        uint32_t p = pregs_[uop.rs1];
        if constexpr (!PostMod)
            return p + uint32_t(uop.imm);
        // Post-modify: access at p, then update the pointer.
        pregs_[uop.rs1] = p + uint32_t(uop.imm);
        return p;
    }

    unsigned column_;
    unsigned index_;

    std::array<uint32_t, isa::NumDataRegs> regs_{};
    std::array<uint32_t, isa::NumPtrRegs> pregs_{};
    std::array<int64_t, isa::NumAccums> accs_{};
    bool cc_ = false;

    /**
     * SRAM. Loads read mem_, which points at ZeroSram (sram_ null),
     * at a buffer shared with other tiles, or at this tile's private
     * buffer. Stores go through writableMem(): while sram_shared_ is
     * set the buffer may be shared (a clone sets it on both tiles),
     * and the first store copies it. A shared buffer is never
     * written.
     */
    const uint8_t *mem_ = ZeroSram.data();
    std::shared_ptr<Sram> sram_;
    mutable std::atomic<bool> sram_shared_{true};

    CommBuffer wbuf_;
    std::array<CommBuffer, BusLanes> rbufs_; //!< one per lane

    StatGroup stats_;
    Counter &instructions_;
    Counter &mem_ops_;
    Counter &mac_ops_;
};

} // namespace synchro::arch

#endif // SYNC_ARCH_TILE_HH
