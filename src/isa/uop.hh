/**
 * @file
 * Pre-decoded micro-ops and the decoded-program cache.
 *
 * A Synchroscalar column broadcasts every issued instruction to up to
 * four tiles, so any work done per-instruction at issue time is paid
 * once per slot, every slot. Decoding is static, though: the SIMD
 * controller's program never changes while it runs. This module
 * therefore decodes a Program once into a dense array of MicroOps —
 * operand indices validated, memory sizes and sign-extension shifts
 * resolved, MAC half-selects split into flags — and the tiles execute
 * via one switch on a compact UopKind.
 *
 * Decoded programs are cached per content hash (decodeProgram), so
 * re-loading the same kernel (parameter sweeps, fleet streams,
 * benches) costs a lookup instead of a decode. Decode-time validation
 * also closes a latent UB hole: a hand-built Inst with an
 * out-of-range register index previously indexed tile register files
 * unchecked; now decodeInst() rejects it with fatal() before it can
 * reach a datapath.
 */

#ifndef SYNC_ISA_UOP_HH
#define SYNC_ISA_UOP_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "isa/assembler.hh"
#include "isa/inst.hh"

namespace synchro::isa
{

/**
 * Compact executed-form opcode. Control kinds (executed by the SIMD
 * controller) come first so isControl() is a single compare; memory
 * opcodes collapse into Load/Store with the access size and
 * sign-extension pre-resolved into MicroOp fields.
 */
enum class UopKind : uint8_t
{
    // Controller-executed kinds — keep before FirstCompute.
    Nop = 0,
    Halt,
    Jump,
    Jcc,
    Jncc,
    Lsetup,

    FirstCompute,

    // Three-register ALU
    Add = FirstCompute,
    Sub,
    And,
    Or,
    Xor,
    Min,
    Max,
    Lsl,
    Lsr,
    Asr,
    Mul,
    Sel,

    // Two-register ALU
    Neg,
    Not,
    Abs,
    Mov,

    // Register-immediate ALU
    AddImm,
    LslImm,
    LsrImm,
    AsrImm,

    // Dual-16-bit video ALU
    Add16,
    Sub16,

    // Accumulator / MAC group
    Mac,
    Msu,
    Saa,
    AClr,
    AExt,

    // Moves / immediates
    MovImm,
    MovImmHigh,
    MovPtrImm,
    MovPtr,
    MovFromPtr,
    PtrAddImm,
    TileId,

    // Memory (size/sign pre-resolved in the MicroOp)
    Load,
    Store,

    // Compares
    CmpEq,
    CmpLt,
    CmpLe,
    CmpLtu,

    // Communication buffers
    CommWrite,
    CommRead,

    NumUopKinds
};

/// @name MicroOp::flags bits
/// @{
constexpr uint8_t UopSignExtend = 0x01; //!< Load sign-extends
constexpr uint8_t UopPostMod = 0x02;    //!< post-modify addressing
constexpr uint8_t UopAHigh = 0x04;      //!< MAC rs1 high half
constexpr uint8_t UopBHigh = 0x08;      //!< MAC rs2 high half
/// @}

/**
 * One pre-decoded instruction. All register/accumulator indices are
 * validated in range at decode time, so executors may index register
 * files directly.
 */
struct MicroOp
{
    UopKind kind = UopKind::Nop;
    uint8_t rd = 0;       //!< destination register index
    uint8_t rs1 = 0;      //!< first source / pointer register
    uint8_t rs2 = 0;      //!< second source register
    uint8_t acc = 0;      //!< accumulator index; loop unit for Lsetup
    uint8_t mem_size = 0; //!< memory access bytes (Load/Store)
    uint8_t flags = 0;    //!< UopSignExtend | UopPostMod | ...
    uint16_t end = 0;     //!< loop end address (Lsetup)
    int32_t imm = 0;      //!< immediate / branch target / loop count

    bool isControl() const { return kind < UopKind::FirstCompute; }
};

/**
 * Decode (and validate) a single instruction. fatal() on operand
 * indices outside the architectural register files or on malformed
 * fields — the decode-time bounds check that lets executors skip
 * per-access checks.
 */
MicroOp decodeInst(const Inst &inst);

/**
 * True for micro-ops a compiled backend may execute inside a
 * straight-line block without consulting the per-slot machinery:
 * every broadcast compute kind except the communication buffers
 * (whose hazard checks are time-sensitive), plus the controller-local
 * `nop` (issued without a tile broadcast). Branches, `halt`, `lsetup`
 * and comm ops go through the per-slot rule, one slot at a time.
 */
inline bool
isBlockStraight(UopKind k)
{
    return k == UopKind::Nop ||
           (k >= UopKind::FirstCompute && k != UopKind::CommRead &&
            k != UopKind::CommWrite);
}

/** A program decoded once for broadcast-side consumption. */
struct DecodedProgram
{
    std::vector<Inst> insts;   //!< original decoded form (disasm)
    std::vector<MicroOp> uops; //!< dense executed form
    uint64_t hash = 0;         //!< content hash (cache key)

    /**
     * Static steady-state block analysis for the Compiled scheduler
     * backend, computed once at decode time (and therefore shared
     * through the decode cache).
     *
     * run_len[pc] is the number of consecutive micro-ops starting at
     * pc that satisfy isBlockStraight() *and* whose interior
     * addresses are not the end address of any `lsetup` in the
     * program — so every advance inside the run is a plain pc+1 and
     * only the final advance needs the zero-overhead-loop check.
     * 0 means pc must go through the per-slot path.
     */
    std::vector<uint16_t> run_len;

    /**
     * Prefix sums over uops[0..i): controller nops, memory ops and
     * MAC/SAA ops. A block executor charges per-tile activity
     * counters for a whole [pc, pc+n) range with two lookups each.
     */
    std::vector<uint32_t> nop_prefix;
    std::vector<uint32_t> mem_prefix;
    std::vector<uint32_t> mac_prefix;

    size_t size() const { return uops.size(); }
};

/// @name Unified register-unit numbering for static dataflow walks
/// One flat index space covering every architecturally named storage
/// unit a micro-op can read or write, so an analysis can track
/// def-before-use with a single bitmask: data registers r0..r7 map to
/// units 0..7, pointer registers p0..p5 to 8..13, accumulators a0/a1
/// to 14/15, and the controller's condition code CC to 16.
/// @{
constexpr unsigned UnitData0 = 0;
constexpr unsigned UnitPtr0 = UnitData0 + NumDataRegs;
constexpr unsigned UnitAcc0 = UnitPtr0 + NumPtrRegs;
constexpr unsigned UnitCc = UnitAcc0 + NumAccums;
constexpr unsigned NumRegUnits = UnitCc + 1;
/// @}

/** Architectural name of a unified register unit ("r3", "p0", ...). */
std::string regUnitName(unsigned unit);

/**
 * The register units one micro-op reads and writes, as bitmasks over
 * the unified numbering above — the dataflow footprint a static
 * verifier walks (mapping/verifier) without re-deriving the decode
 * table's operand semantics. Communication side effects (the buffer
 * pop/push of CommRead/CommWrite) and memory are not register units
 * and are not represented here.
 */
struct UopEffects
{
    uint32_t reads = 0;
    uint32_t writes = 0;
};

UopEffects uopEffects(const MicroOp &u);

/**
 * Decode @p prog, consulting the process-wide cache keyed by content
 * hash (hash collisions are verified against the full instruction
 * stream). Thread-safe. The returned program is immutable and shared
 * by every controller running it.
 */
std::shared_ptr<const DecodedProgram>
decodeProgram(const Program &prog);

/** Observability for the decoded-program cache. */
struct DecodeCacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t entries = 0;   //!< decoded programs currently cached
    uint64_t evictions = 0; //!< entries dropped by capacity flushes
};

DecodeCacheStats decodeCacheStats();

/** Drop every cached program (entries -> 0; hit/miss counters kept). */
void clearDecodeCache();

/**
 * Cap the cache at @p n programs (default 1024). When an insert would
 * exceed the cap the cache is flushed — deterministic and good enough
 * for the "many short-lived identical kernels" pattern the cache
 * serves. n == 0 disables caching entirely.
 */
void setDecodeCacheCapacity(uint64_t n);

} // namespace synchro::isa

#endif // SYNC_ISA_UOP_HH
