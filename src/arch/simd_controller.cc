#include "arch/simd_controller.hh"

#include <algorithm>

#include "common/log.hh"

namespace synchro::arch
{

using isa::MicroOp;
using isa::UopKind;

SimdController::SimdController(unsigned column)
    : column_(column), issued_(stats_.counter("issued")),
      zorm_nops_issued_(stats_.counter("zormNops")),
      branch_stalls_(stats_.counter("branchStalls")),
      comm_stalls_(stats_.counter("commStalls")),
      halt_cycles_(stats_.counter("haltCycles"))
{
}

void
SimdController::loadProgram(const isa::Program &prog)
{
    if (prog.insts.size() > InsnMemWords)
        fatal("column %u: program of %zu insts exceeds %u-word "
              "instruction SRAM",
              column_, prog.insts.size(), InsnMemWords);
    if (prog.insts.empty())
        fatal("column %u: empty program", column_);
    prog_ = isa::decodeProgram(prog);
    fns_.clear();
    fns_.reserve(prog_->uops.size());
    loop_fns_.clear();
    loop_fns_.reserve(prog_->uops.size());
    for (const MicroOp &u : prog_->uops) {
        fns_.push_back(Tile::opThunk(u));
        loop_fns_.push_back(Tile::opLoopThunk(u));
    }
    reset();
}

void
SimdController::reset()
{
    pc_ = 0;
    halted_ = !prog_ || prog_->uops.empty();
    stall_ = 0;
    loops_[0] = loops_[1] = LoopUnit{};
    loop_stack_.clear();
    zorm_acc_ = 0;
}

void
SimdController::copyStateFrom(const SimdController &other)
{
    prog_ = other.prog_;
    fns_ = other.fns_;
    loop_fns_ = other.loop_fns_;
    pc_ = other.pc_;
    halted_ = other.halted_;
    stall_ = other.stall_;
    loops_[0] = other.loops_[0];
    loops_[1] = other.loops_[1];
    loop_stack_ = other.loop_stack_;
    zorm_nops_ = other.zorm_nops_;
    zorm_period_ = other.zorm_period_;
    zorm_acc_ = other.zorm_acc_;
    cc_mode_ = other.cc_mode_;
}

void
SimdController::setRateMatch(uint32_t nops, uint32_t period)
{
    if (period == 0 && nops != 0)
        fatal("column %u: rate match with zero period", column_);
    if (period != 0 && nops >= period)
        fatal("column %u: rate match nops %u must be < period %u",
              column_, nops, period);
    zorm_nops_ = nops;
    zorm_period_ = period;
    zorm_acc_ = 0;
}

bool
SimdController::readCc(const std::vector<Tile *> &tiles) const
{
    sync_assert(!tiles.empty(), "column %u has no active tiles",
                column_);
    switch (cc_mode_) {
      case CcMode::Tile0:
        return tiles.front()->cc();
      case CcMode::Any:
        return std::any_of(tiles.begin(), tiles.end(),
                           [](Tile *t) { return t->cc(); });
      case CcMode::All:
        return std::all_of(tiles.begin(), tiles.end(),
                           [](Tile *t) { return t->cc(); });
    }
    return false;
}

void
SimdController::advancePc()
{
    uint32_t next = pc_ + 1;
    // Zero-overhead loop-back: handled entirely by PC comparison, so
    // it costs no cycles (paper Section 2.2). Units sharing an end
    // address unwind innermost-first.
    while (!loop_stack_.empty()) {
        LoopUnit &u = loops_[loop_stack_.back()];
        if (u.end != next)
            break;
        if (--u.remaining > 0) {
            next = u.start;
            break;
        }
        loop_stack_.pop_back();
    }
    pc_ = next;
}

void
SimdController::cycle(const std::vector<Tile *> &tiles)
{
    if (halted_) {
        ++halt_cycles_;
        return;
    }

    if (stall_ > 0) {
        --stall_;
        ++branch_stalls_;
        return;
    }

    // Zero Overhead Rate Matching: evenly distribute zorm_nops_ nop
    // slots over every zorm_period_ issue slots (Bresenham pacing).
    if (zorm_period_ != 0) {
        zorm_acc_ += zorm_nops_;
        if (zorm_acc_ >= zorm_period_) {
            zorm_acc_ -= zorm_period_;
            ++zorm_nops_issued_;
            return;
        }
    }

    if (pc_ >= prog_->uops.size())
        fatal("column %u: pc %u fell off the program end (missing "
              "halt?)",
              column_, pc_);

    const MicroOp &uop = prog_->uops[pc_];

    if (uop.isControl()) {
        ++issued_;
        switch (uop.kind) {
          case UopKind::Nop:
            advancePc();
            break;
          case UopKind::Halt:
            halted_ = true;
            break;
          case UopKind::Jump:
            pc_ = uint32_t(uop.imm);
            break;
          case UopKind::Jcc:
          case UopKind::Jncc: {
            bool cc = readCc(tiles);
            bool taken = uop.kind == UopKind::Jcc ? cc : !cc;
            if (taken)
                pc_ = uint32_t(uop.imm);
            else
                advancePc();
            stall_ = 1; // single-cycle conditional-branch stall
            break;
          }
          case UopKind::Lsetup: {
            if (uop.end <= pc_ + 1)
                fatal("column %u: lsetup at %u with empty body "
                      "(end %u)",
                      column_, pc_, uop.end);
            if (uop.end > prog_->uops.size())
                fatal("column %u: lsetup end %u beyond program",
                      column_, uop.end);
            uint8_t lc = uop.acc; // loop unit index
            for (uint8_t active : loop_stack_) {
                if (active == lc)
                    fatal("column %u: lc%u re-armed while active",
                          column_, lc);
            }
            loops_[lc] = LoopUnit{pc_ + 1, uop.end, uint32_t(uop.imm)};
            loop_stack_.push_back(lc);
            advancePc();
            break;
          }
          default:
            panic("column %u: unhandled control micro-op %u", column_,
                  unsigned(uop.kind));
        }
        return;
    }

    // Communication hazard checks: the whole column stalls until every
    // active tile can complete the operation (these stall cycles are
    // the cross-domain synchronization nops of paper Section 4.5).
    if (commHazard(uop, tiles)) {
        ++comm_stalls_;
        return;
    }

    ++issued_;
    for (Tile *t : tiles)
        t->execute(uop);
    advancePc();
}

uint64_t
SimdController::zormSlots(uint64_t want_issues, uint64_t acc,
                          uint64_t nops, uint64_t period)
{
    // acc stays in [0, period), so after S slots exactly
    //   Z(S) = (acc + S * nops) / period
    // were nops and issues(S) = S - Z(S), which grows by 0 or 1 per
    // slot. For W >= 1: issues(S) >= W iff Z(S) <= S - W iff
    // acc + S * nops < (S - W + 1) * period iff
    // S * (period - nops) > (W - 1) * period + acc.
    const uint64_t W = want_issues;
    return W == 0 ? 0 : ((W - 1) * period + acc) / (period - nops) + 1;
}

void
SimdController::zormWindow(uint64_t want_issues, Tick avail,
                           uint64_t &issues, uint64_t &nops)
{
    const uint64_t acc0 = zorm_acc_;
    const uint64_t rate = zorm_nops_;
    const uint64_t period = zorm_period_;
    const uint64_t S = std::min<uint64_t>(
        zormSlots(want_issues, acc0, rate, period), uint64_t(avail));
    const uint64_t Z = (acc0 + S * rate) / period;
    issues = S - Z;
    nops = Z;
    zorm_acc_ = uint32_t(acc0 + S * rate - Z * period);
}

bool
SimdController::blockSlot(const std::vector<Tile *> &tiles,
                           bool comm_ok) const
{
    if (stall_ > 0)
        return true;
    if (pc_ >= prog_->uops.size())
        return false;
    const MicroOp &uop = prog_->uops[pc_];
    switch (uop.kind) {
      case UopKind::Halt:
        return false;
      case UopKind::CommRead:
      case UopKind::CommWrite:
        return comm_ok && !commHazard(uop, tiles);
      default:
        return true;
    }
}

Tick
SimdController::cycleBlock(const std::vector<Tile *> &tiles,
                           Tick max_slots, Tick comm_slots)
{
    if (halted_ || !prog_)
        return 0;

    const auto &run_len = prog_->run_len;
    const size_t psize = prog_->uops.size();
    Tick slots = 0;

    while (slots < max_slots) {
        if (stall_ > 0 || pc_ >= psize || run_len[pc_] == 0) {
            // Not a straight run: one slot by the per-slot rule,
            // while it stays inside the column.
            if (!blockSlot(tiles, slots < comm_slots))
                break;
            cycle(tiles);
            ++slots;
            continue;
        }
        const uint64_t run = run_len[pc_];
        const Tick avail = max_slots - slots;

        // Whole-loop batching: at the start of the innermost active
        // zero-overhead loop whose entire body is one straight run,
        // execute complete firings in bulk — the steady-state case
        // the backend exists for. Partial windows (avail smaller
        // than one body) fall through to the per-run path below.
        if (!loop_stack_.empty()) {
            LoopUnit &u = loops_[loop_stack_.back()];
            const uint64_t body = u.end - u.start;
            if (u.start == pc_ && run == body) {
                uint64_t iters, nops2 = 0, consumed;
                if (zorm_period_ != 0) {
                    // Issue capacity of the whole window, rounded
                    // down to complete firings.
                    const uint64_t acc0 = zorm_acc_;
                    const uint64_t rate = zorm_nops_;
                    const uint64_t period = zorm_period_;
                    const uint64_t cap =
                        uint64_t(avail) -
                        (acc0 + uint64_t(avail) * rate) / period;
                    iters = std::min<uint64_t>(u.remaining,
                                               cap / body);
                    if (iters == 0)
                        goto per_run;
                    uint64_t issues2;
                    zormWindow(iters * body, avail, issues2, nops2);
                    sync_assert(issues2 == iters * body,
                                "column %u: zorm window %llu != "
                                "%llu firings of %llu",
                                column_,
                                (unsigned long long)issues2,
                                (unsigned long long)iters,
                                (unsigned long long)body);
                    consumed = issues2 + nops2;
                } else {
                    iters = std::min<uint64_t>(u.remaining,
                                               uint64_t(avail) / body);
                    if (iters == 0)
                        goto per_run;
                    consumed = iters * body;
                }

                const MicroOp *uops = prog_->uops.data() + u.start;
                const Tile::OpFn *fns = fns_.data() + u.start;
                const uint64_t ctrl_nops =
                    prog_->nop_prefix[u.end] - prog_->nop_prefix[u.start];
                const uint64_t mems =
                    prog_->mem_prefix[u.end] - prog_->mem_prefix[u.start];
                const uint64_t macs =
                    prog_->mac_prefix[u.end] - prog_->mac_prefix[u.start];
                if (body == 1) {
                    const Tile::OpLoopFn lf = loop_fns_[u.start];
                    for (Tile *t : tiles) {
                        t->executeLoopOp(lf, uops[0], iters,
                                         iters * (1 - ctrl_nops),
                                         iters * mems, iters * macs);
                    }
                } else {
                    for (Tile *t : tiles) {
                        t->executeLoop(fns, uops, uint32_t(body),
                                       iters,
                                       iters * (body - ctrl_nops),
                                       iters * mems, iters * macs);
                    }
                }
                issued_ += iters * body;
                zorm_nops_issued_ += nops2;
                slots += Tick(consumed);

                // Equivalent loop-state update: iters - 1 loop-backs
                // already taken, then the final firing's advance
                // (which pops the unit — and unwinds any outer unit
                // sharing the end address — when it was the last).
                u.remaining -= uint32_t(iters) - 1;
                pc_ = u.end - 1;
                advancePc();
                continue;
            }
        }
    per_run:

        uint64_t issues, nops;
        if (zorm_period_ != 0) {
            zormWindow(run, avail, issues, nops);
        } else {
            issues = std::min<uint64_t>(run, uint64_t(avail));
            nops = 0;
        }
        if (issues == 0) {
            // The whole window is rate-match nops.
            zorm_nops_issued_ += nops;
            slots += Tick(nops);
            break;
        }

        const MicroOp *uops = prog_->uops.data() + pc_;
        const Tile::OpFn *fns = fns_.data() + pc_;
        const uint64_t ctrl_nops =
            prog_->nop_prefix[pc_ + issues] - prog_->nop_prefix[pc_];
        const uint64_t mems =
            prog_->mem_prefix[pc_ + issues] - prog_->mem_prefix[pc_];
        const uint64_t macs =
            prog_->mac_prefix[pc_ + issues] - prog_->mac_prefix[pc_];
        for (Tile *t : tiles) {
            t->executeBlock(fns, uops, uint32_t(issues),
                            issues - ctrl_nops, mems, macs);
        }
        issued_ += issues;
        zorm_nops_issued_ += nops;
        slots += Tick(issues + nops);

        if (issues == run) {
            // Interior addresses of a run are never loop ends, so
            // only the final advance needs the zero-overhead-loop
            // check (which may wrap pc back into a firing loop).
            pc_ += uint32_t(issues) - 1;
            advancePc();
        } else {
            pc_ += uint32_t(issues);
        }
    }
    return slots;
}

bool
SimdController::commHazard(const MicroOp &uop,
                           const std::vector<Tile *> &tiles)
{
    if (uop.kind == UopKind::CommRead) {
        for (Tile *t : tiles) {
            // Tagged reads wait for their specific lane buffer — the
            // join-side handshake; untagged reads wait for any lane.
            bool ready = uop.imm >= 0
                             ? t->readBuffer(unsigned(uop.imm)).valid()
                             : t->anyReadValid();
            if (!ready)
                return true;
        }
    } else if (uop.kind == UopKind::CommWrite) {
        for (Tile *t : tiles) {
            if (t->writeBuffer().valid())
                return true;
        }
    }
    return false;
}

bool
SimdController::commStalled(const std::vector<Tile *> &tiles) const
{
    // A ZORM nop slot defers the hazard check, so only the op kind
    // at the PC decides.
    return !halted_ && stall_ == 0 && prog_ &&
           pc_ < prog_->uops.size() &&
           commHazard(prog_->uops[pc_], tiles);
}

void
SimdController::stallCredit(Tick slots)
{
    // Per slot the per-slot path takes either the ZORM-nop branch or
    // the comm-stall branch; over S slots that is Z(S) paced nops and
    // S - Z(S) stall cycles, with the accumulator advanced as S
    // Bresenham steps.
    if (zorm_period_ != 0) {
        const uint64_t acc0 = zorm_acc_;
        const uint64_t S = uint64_t(slots);
        const uint64_t Z = (acc0 + S * zorm_nops_) / zorm_period_;
        zorm_acc_ = uint32_t(acc0 + S * zorm_nops_ - Z * zorm_period_);
        zorm_nops_issued_ += Z;
        comm_stalls_ += S - Z;
    } else {
        comm_stalls_ += uint64_t(slots);
    }
}

} // namespace synchro::arch
