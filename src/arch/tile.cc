#include "arch/tile.hh"

#include <algorithm>
#include <cstring>

#include "common/fixed.hh"
#include "common/log.hh"

namespace synchro::arch
{

using isa::Inst;
using isa::MicroOp;
using isa::UopKind;

const Tile::Sram Tile::ZeroSram{};

Tile::Tile(unsigned column, unsigned index)
    : column_(column), index_(index),
      instructions_(stats_.counter("instructions")),
      mem_ops_(stats_.counter("memOps")),
      mac_ops_(stats_.counter("macOps"))
{
}

uint32_t
Tile::reg(unsigned r) const
{
    sync_assert(r < isa::NumDataRegs, "bad data reg %u", r);
    return regs_[r];
}

void
Tile::setReg(unsigned r, uint32_t v)
{
    sync_assert(r < isa::NumDataRegs, "bad data reg %u", r);
    regs_[r] = v;
}

uint32_t
Tile::preg(unsigned p) const
{
    sync_assert(p < isa::NumPtrRegs, "bad pointer reg %u", p);
    return pregs_[p];
}

void
Tile::setPreg(unsigned p, uint32_t v)
{
    sync_assert(p < isa::NumPtrRegs, "bad pointer reg %u", p);
    pregs_[p] = v;
}

int64_t
Tile::acc(unsigned a) const
{
    sync_assert(a < isa::NumAccums, "bad accumulator %u", a);
    return accs_[a];
}

void
Tile::setAcc(unsigned a, int64_t v)
{
    sync_assert(a < isa::NumAccums, "bad accumulator %u", a);
    accs_[a] = sat40(v);
}

void
Tile::writeMem(uint32_t addr, const void *data, uint32_t len)
{
    if (uint64_t(addr) + len > MemBytes)
        fatal("tile (%u,%u): writeMem [%u, %u) beyond %u-byte SRAM",
              column_, index_, addr, addr + len, MemBytes);
    std::memcpy(writableMem() + addr, data, len);
}

void
Tile::readMem(uint32_t addr, void *data, uint32_t len) const
{
    if (uint64_t(addr) + len > MemBytes)
        fatal("tile (%u,%u): readMem [%u, %u) beyond %u-byte SRAM",
              column_, index_, addr, addr + len, MemBytes);
    std::memcpy(data, mem_ + addr, len);
}

void
Tile::writeMemWords(uint32_t addr, const std::vector<int32_t> &w)
{
    writeMem(addr, w.data(), uint32_t(w.size() * 4));
}

std::vector<int32_t>
Tile::readMemWords(uint32_t addr, uint32_t n) const
{
    std::vector<int32_t> out(n);
    readMem(addr, out.data(), n * 4);
    return out;
}

void
Tile::writeMemHalves(uint32_t addr, const std::vector<int16_t> &h)
{
    writeMem(addr, h.data(), uint32_t(h.size() * 2));
}

std::vector<int16_t>
Tile::readMemHalves(uint32_t addr, uint32_t n) const
{
    std::vector<int16_t> out(n);
    readMem(addr, out.data(), n * 2);
    return out;
}

void
Tile::resetState()
{
    regs_.fill(0);
    pregs_.fill(0);
    accs_.fill(0);
    cc_ = false;
    wbuf_.clear();
    for (auto &b : rbufs_)
        b.clear();
}

void
Tile::clearMem()
{
    if (sram_shared_) {
        sram_.reset();
        mem_ = ZeroSram.data();
    } else {
        sram_->fill(0);
    }
}

void
Tile::ownMem()
{
    sram_ = sram_ ? std::make_shared<Sram>(*sram_)
                  : std::make_shared<Sram>();
    mem_ = sram_->data();
    sram_shared_ = false;
}

void
Tile::copyStateFrom(const Tile &other)
{
    regs_ = other.regs_;
    pregs_ = other.pregs_;
    accs_ = other.accs_;
    cc_ = other.cc_;
    other.sram_shared_ = true;
    sram_ = other.sram_;
    mem_ = other.mem_;
    sram_shared_ = true;
    wbuf_ = other.wbuf_;
    rbufs_ = other.rbufs_;
}

CommBuffer &
Tile::readBuffer(unsigned lane)
{
    return rbufs_.at(lane);
}

const CommBuffer &
Tile::readBuffer(unsigned lane) const
{
    return rbufs_.at(lane);
}

bool
Tile::anyReadValid() const
{
    for (const auto &b : rbufs_) {
        if (b.valid())
            return true;
    }
    return false;
}

namespace
{

int16_t
half(uint32_t v, bool high)
{
    return int16_t(high ? (v >> 16) : (v & 0xffff));
}

/** Signed 16x16 product of the halves selected at decode time. */
int32_t
halfProduct(uint32_t a, uint32_t b, uint8_t flags)
{
    return int32_t(half(a, flags & isa::UopAHigh)) *
           int32_t(half(b, flags & isa::UopBHigh));
}

} // namespace

void
Tile::execute(const Inst &inst)
{
    execute(isa::decodeInst(inst));
}

/**
 * The single source of op semantics: one specialization per
 * executable UopKind. execute() dispatches through a switch (the
 * per-slot interpreter) and the Compiled backend calls the same
 * functions through opThunk() pointers, so the two paths cannot
 * drift apart. Activity counters live in the callers.
 */
template <UopKind K>
void
Tile::opFn(Tile &t, const MicroOp &uop)
{
    auto &r = t.regs_;

    if constexpr (K == UopKind::Add) {
        r[uop.rd] = r[uop.rs1] + r[uop.rs2];
    } else if constexpr (K == UopKind::Sub) {
        r[uop.rd] = r[uop.rs1] - r[uop.rs2];
    } else if constexpr (K == UopKind::And) {
        r[uop.rd] = r[uop.rs1] & r[uop.rs2];
    } else if constexpr (K == UopKind::Or) {
        r[uop.rd] = r[uop.rs1] | r[uop.rs2];
    } else if constexpr (K == UopKind::Xor) {
        r[uop.rd] = r[uop.rs1] ^ r[uop.rs2];
    } else if constexpr (K == UopKind::Min) {
        r[uop.rd] = uint32_t(std::min(int32_t(r[uop.rs1]),
                                      int32_t(r[uop.rs2])));
    } else if constexpr (K == UopKind::Max) {
        r[uop.rd] = uint32_t(std::max(int32_t(r[uop.rs1]),
                                      int32_t(r[uop.rs2])));
    } else if constexpr (K == UopKind::Lsl) {
        r[uop.rd] = r[uop.rs1] << (r[uop.rs2] & 31);
    } else if constexpr (K == UopKind::Lsr) {
        r[uop.rd] = r[uop.rs1] >> (r[uop.rs2] & 31);
    } else if constexpr (K == UopKind::Asr) {
        r[uop.rd] =
            uint32_t(int32_t(r[uop.rs1]) >> (r[uop.rs2] & 31));
    } else if constexpr (K == UopKind::Mul) {
        r[uop.rd] = uint32_t(int64_t(int32_t(r[uop.rs1])) *
                             int64_t(int32_t(r[uop.rs2])));
    } else if constexpr (K == UopKind::Sel) {
        r[uop.rd] = t.cc_ ? r[uop.rs1] : r[uop.rs2];
    } else if constexpr (K == UopKind::Neg) {
        r[uop.rd] = uint32_t(-int32_t(r[uop.rs1]));
    } else if constexpr (K == UopKind::Not) {
        r[uop.rd] = ~r[uop.rs1];
    } else if constexpr (K == UopKind::Abs) {
        // DSP-style saturating abs: |INT32_MIN| -> INT32_MAX.
        int32_t v = int32_t(r[uop.rs1]);
        r[uop.rd] = v == INT32_MIN ? uint32_t(INT32_MAX)
                                   : uint32_t(v < 0 ? -v : v);
    } else if constexpr (K == UopKind::Mov) {
        r[uop.rd] = r[uop.rs1];
    } else if constexpr (K == UopKind::AddImm) {
        r[uop.rd] += uint32_t(uop.imm);
    } else if constexpr (K == UopKind::LslImm) {
        r[uop.rd] = r[uop.rs1] << uop.imm;
    } else if constexpr (K == UopKind::LsrImm) {
        r[uop.rd] = r[uop.rs1] >> uop.imm;
    } else if constexpr (K == UopKind::AsrImm) {
        r[uop.rd] = uint32_t(int32_t(r[uop.rs1]) >> uop.imm);
    } else if constexpr (K == UopKind::Add16) {
        uint32_t a = r[uop.rs1], b = r[uop.rs2];
        uint32_t lo = uint16_t(sat16(int64_t(half(a, false)) +
                                     half(b, false)));
        uint32_t hi = uint16_t(sat16(int64_t(half(a, true)) +
                                     half(b, true)));
        r[uop.rd] = (hi << 16) | lo;
    } else if constexpr (K == UopKind::Sub16) {
        uint32_t a = r[uop.rs1], b = r[uop.rs2];
        uint32_t lo = uint16_t(sat16(int64_t(half(a, false)) -
                                     half(b, false)));
        uint32_t hi = uint16_t(sat16(int64_t(half(a, true)) -
                                     half(b, true)));
        r[uop.rd] = (hi << 16) | lo;
    } else if constexpr (K == UopKind::Mac) {
        t.accs_[uop.acc] = sat40(
            t.accs_[uop.acc] +
            halfProduct(r[uop.rs1], r[uop.rs2], uop.flags));
    } else if constexpr (K == UopKind::Msu) {
        t.accs_[uop.acc] = sat40(
            t.accs_[uop.acc] -
            halfProduct(r[uop.rs1], r[uop.rs2], uop.flags));
    } else if constexpr (K == UopKind::Saa) {
        // Video-ALU sum of absolute byte differences (4 lanes).
        uint32_t a = r[uop.rs1], b = r[uop.rs2];
        int64_t sum = 0;
        for (unsigned i = 0; i < 4; ++i) {
            int32_t ba = int32_t((a >> (8 * i)) & 0xff);
            int32_t bb = int32_t((b >> (8 * i)) & 0xff);
            sum += ba > bb ? ba - bb : bb - ba;
        }
        t.accs_[uop.acc] = sat40(t.accs_[uop.acc] + sum);
    } else if constexpr (K == UopKind::AClr) {
        t.accs_[uop.acc] = 0;
    } else if constexpr (K == UopKind::AExt) {
        r[uop.rd] = uint32_t(sat32(t.accs_[uop.acc] >> uop.imm));
    } else if constexpr (K == UopKind::MovImm) {
        r[uop.rd] = uint32_t(uop.imm);
    } else if constexpr (K == UopKind::MovImmHigh) {
        r[uop.rd] = (r[uop.rd] & 0xffff) | (uint32_t(uop.imm) << 16);
    } else if constexpr (K == UopKind::MovPtrImm) {
        t.pregs_[uop.rd] = uint32_t(uop.imm);
    } else if constexpr (K == UopKind::MovPtr) {
        t.pregs_[uop.rd] = r[uop.rs1];
    } else if constexpr (K == UopKind::MovFromPtr) {
        r[uop.rd] = t.pregs_[uop.rs1];
    } else if constexpr (K == UopKind::PtrAddImm) {
        t.pregs_[uop.rd] += uint32_t(uop.imm);
    } else if constexpr (K == UopKind::TileId) {
        r[uop.rd] = t.index_;
    } else if constexpr (K == UopKind::CmpEq) {
        t.cc_ = r[uop.rd] == r[uop.rs1];
    } else if constexpr (K == UopKind::CmpLt) {
        t.cc_ = int32_t(r[uop.rd]) < int32_t(r[uop.rs1]);
    } else if constexpr (K == UopKind::CmpLe) {
        t.cc_ = int32_t(r[uop.rd]) <= int32_t(r[uop.rs1]);
    } else if constexpr (K == UopKind::CmpLtu) {
        t.cc_ = r[uop.rd] < r[uop.rs1];
    } else if constexpr (K == UopKind::CommWrite) {
        if (!t.wbuf_.push(r[uop.rd], int(uop.imm)))
            panic("tile (%u,%u): cwr into a full write buffer "
                  "(controller must stall first)",
                  t.column_, t.index_);
    } else if constexpr (K == UopKind::CommRead) {
        if (uop.imm >= 0) {
            CommBuffer &b = t.rbufs_[unsigned(uop.imm)];
            if (!b.valid())
                panic("tile (%u,%u): crd from empty lane-%d read "
                      "buffer (controller must stall first)",
                      t.column_, t.index_, int(uop.imm));
            r[uop.rd] = b.pop();
        } else {
            for (auto &b : t.rbufs_) {
                if (b.valid()) {
                    r[uop.rd] = b.pop();
                    return;
                }
            }
            panic("tile (%u,%u): crd with no valid read buffer "
                  "(controller must stall first)",
                  t.column_, t.index_);
        }
    } else if constexpr (K == UopKind::Nop) {
        (void)t;
        (void)uop;
    } else {
        static_assert(K == UopKind::Nop,
                      "opFn on a control or memory kind");
    }
}

// Loads and stores dominate mapped-app kernels. Their size, sign
// extension and post-modify flag are fixed per op, so each variant
// is its own executor: the bounds and alignment checks fold to
// constant masks and the access to a single load or store.
template <unsigned Size, bool SignExtend, bool PostMod>
void
Tile::loadOp(Tile &t, const MicroOp &uop)
{
    const uint32_t addr = t.effectiveAddress<PostMod>(uop);
    t.checkAccess<Size>(addr, "load");
    uint32_t v;
    if constexpr (Size == 1) {
        v = t.mem_[addr];
    } else if constexpr (Size == 2) {
        uint16_t h;
        std::memcpy(&h, t.mem_ + addr, 2);
        v = h;
    } else {
        std::memcpy(&v, t.mem_ + addr, 4);
    }
    if constexpr (SignExtend && Size < 4) {
        constexpr unsigned shift = 32 - 8 * Size;
        v = uint32_t(int32_t(v << shift) >> shift);
    }
    t.regs_[uop.rd] = v;
}

template <unsigned Size, bool PostMod>
void
Tile::storeOp(Tile &t, const MicroOp &uop)
{
    const uint32_t addr = t.effectiveAddress<PostMod>(uop);
    t.checkAccess<Size>(addr, "store");
    const uint32_t value = t.regs_[uop.rd];
    uint8_t *mem = t.writableMem();
    if constexpr (Size == 1) {
        mem[addr] = uint8_t(value);
    } else if constexpr (Size == 2) {
        const uint16_t h = uint16_t(value);
        std::memcpy(mem + addr, &h, 2);
    } else {
        std::memcpy(mem + addr, &value, 4);
    }
}

// Every micro-op kind a tile executes through opFn, for stamping out
// the per-kind thunk table below (loads and stores are specialized
// further by opEntry).
#define SYNC_TILE_EXECUTABLE_KINDS(X) \
    X(Nop) \
    X(Add) \
    X(Sub) \
    X(And) \
    X(Or) \
    X(Xor) \
    X(Min) \
    X(Max) \
    X(Lsl) \
    X(Lsr) \
    X(Asr) \
    X(Mul) \
    X(Sel) \
    X(Neg) \
    X(Not) \
    X(Abs) \
    X(Mov) \
    X(AddImm) \
    X(LslImm) \
    X(LsrImm) \
    X(AsrImm) \
    X(Add16) \
    X(Sub16) \
    X(Mac) \
    X(Msu) \
    X(Saa) \
    X(AClr) \
    X(AExt) \
    X(MovImm) \
    X(MovImmHigh) \
    X(MovPtrImm) \
    X(MovPtr) \
    X(MovFromPtr) \
    X(PtrAddImm) \
    X(TileId) \
    X(CmpEq) \
    X(CmpLt) \
    X(CmpLe) \
    X(CmpLtu) \
    X(CommWrite) \
    X(CommRead)

template <Tile::OpFn F>
void
Tile::loopOf(Tile &t, const MicroOp &uop, uint64_t iters)
{
    // One fully-inlined op per iteration: for simple bodies the
    // optimizer reduces this to a closed form or a tight loop with
    // no indirect calls.
    for (uint64_t i = 0; i < iters; ++i)
        F(t, uop);
}

template <Tile::OpFn F>
Tile::OpEntry
Tile::entryOf()
{
    return {F, &loopOf<F>};
}

template <unsigned Size, bool SignExtend>
Tile::OpEntry
Tile::loadEntry(bool post_mod)
{
    return post_mod ? entryOf<&loadOp<Size, SignExtend, true>>()
                    : entryOf<&loadOp<Size, SignExtend, false>>();
}

template <unsigned Size>
Tile::OpEntry
Tile::storeEntry(bool post_mod)
{
    return post_mod ? entryOf<&storeOp<Size, true>>()
                    : entryOf<&storeOp<Size, false>>();
}

Tile::OpEntry
Tile::opEntry(const MicroOp &uop)
{
    const bool post_mod = uop.flags & isa::UopPostMod;
    const bool sign = uop.flags & isa::UopSignExtend;
    switch (uop.kind) {
#define X(K)                                                          \
      case UopKind::K:                                                \
        return entryOf<&opFn<UopKind::K>>();
        SYNC_TILE_EXECUTABLE_KINDS(X)
#undef X
      case UopKind::Load:
        switch (uop.mem_size) {
          case 1:
            return sign ? loadEntry<1, true>(post_mod)
                        : loadEntry<1, false>(post_mod);
          case 2:
            return sign ? loadEntry<2, true>(post_mod)
                        : loadEntry<2, false>(post_mod);
          default:
            return loadEntry<4, false>(post_mod);
        }
      case UopKind::Store:
        switch (uop.mem_size) {
          case 1:
            return storeEntry<1>(post_mod);
          case 2:
            return storeEntry<2>(post_mod);
          default:
            return storeEntry<4>(post_mod);
        }
      default:
        return {nullptr, nullptr};
    }
}

Tile::OpFn
Tile::opThunk(const MicroOp &uop)
{
    return opEntry(uop).fn;
}

Tile::OpLoopFn
Tile::opLoopThunk(const MicroOp &uop)
{
    return opEntry(uop).loop;
}

void
Tile::execute(const MicroOp &uop)
{
    ++instructions_;
    switch (uop.kind) {
      case UopKind::Load:
      case UopKind::Store:
        ++mem_ops_;
        break;
      case UopKind::Mac:
      case UopKind::Msu:
      case UopKind::Saa:
        ++mac_ops_;
        break;
      default:
        break;
    }
    OpFn fn = opThunk(uop);
    if (!fn)
        panic("tile (%u,%u): control micro-op %u broadcast to tile",
              column_, index_, unsigned(uop.kind));
    fn(*this, uop);
}

void
Tile::executeBlock(const OpFn *fns, const MicroOp *uops, uint32_t n,
                   uint64_t broadcast, uint64_t mems, uint64_t macs)
{
    instructions_ += broadcast;
    mem_ops_ += mems;
    mac_ops_ += macs;
    for (uint32_t i = 0; i < n; ++i)
        fns[i](*this, uops[i]);
}

void
Tile::executeLoop(const OpFn *fns, const MicroOp *uops, uint32_t n,
                  uint64_t iters, uint64_t broadcast, uint64_t mems,
                  uint64_t macs)
{
    instructions_ += broadcast;
    mem_ops_ += mems;
    mac_ops_ += macs;
    if (n == 1) {
        // Single-op bodies are common (accumulation loops); hoist
        // the dispatch so the branch predictor sees one target.
        const OpFn fn = fns[0];
        const MicroOp &u = uops[0];
        for (uint64_t it = 0; it < iters; ++it)
            fn(*this, u);
        return;
    }
    for (uint64_t it = 0; it < iters; ++it) {
        for (uint32_t i = 0; i < n; ++i)
            fns[i](*this, uops[i]);
    }
}

void
Tile::executeLoopOp(OpLoopFn fn, const MicroOp &uop, uint64_t iters,
                    uint64_t broadcast, uint64_t mems, uint64_t macs)
{
    instructions_ += broadcast;
    mem_ops_ += mems;
    mac_ops_ += macs;
    fn(*this, uop, iters);
}

} // namespace synchro::arch
