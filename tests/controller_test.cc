/** @file SIMD controller behaviour: loops, branches, ZORM, timing. */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "arch/column.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "test_util.hh"

using namespace synchro;
using namespace synchro::arch;
using synchro::test::runToHalt;
using synchro::test::singleColumnChip;

TEST(SimdController, BroadcastsToAllTiles)
{
    auto chip = singleColumnChip(R"(
        movi r0, 42
        halt
    )");
    auto res = runToHalt(*chip);
    EXPECT_EQ(res.exit, RunExit::AllHalted);
    for (unsigned t = 0; t < 4; ++t)
        EXPECT_EQ(chip->column(0).tile(t).reg(0), 42u);
}

TEST(SimdController, SpmdViaTileId)
{
    auto chip = singleColumnChip(R"(
        tid r0
        lsli r1, r0, 2   ; r1 = 4 * tid
        halt
    )");
    runToHalt(*chip);
    for (unsigned t = 0; t < 4; ++t)
        EXPECT_EQ(chip->column(0).tile(t).reg(1), 4 * t);
}

TEST(SimdController, ZeroOverheadLoopIterates)
{
    auto chip = singleColumnChip(R"(
        movi r0, 0
        lsetup lc0, done, 10
        addi r0, 1
    done:
        halt
    )");
    runToHalt(*chip);
    EXPECT_EQ(chip->column(0).tile(0).reg(0), 10u);
}

TEST(SimdController, ZeroOverheadLoopCostsNothing)
{
    // Loop body of 1 instruction, N iterations: issue count must be
    // exactly N + overhead (movi + lsetup + halt), no loop-back tax.
    auto chip = singleColumnChip(R"(
        movi r0, 0
        lsetup lc0, done, 50
        addi r0, 1
    done:
        halt
    )");
    runToHalt(*chip);
    EXPECT_EQ(chip->column(0).controller().stats().value("issued"),
              50u + 3u);
    EXPECT_EQ(
        chip->column(0).controller().stats().value("branchStalls"),
        0u);
}

TEST(SimdController, NestedLoops)
{
    auto chip = singleColumnChip(R"(
        movi r0, 0
        lsetup lc0, outer_end, 3
        lsetup lc1, inner_end, 4
        addi r0, 1
    inner_end:
        addi r0, 100
    outer_end:
        halt
    )");
    runToHalt(*chip);
    // 3 * (4 * 1 + 100) = 312
    EXPECT_EQ(chip->column(0).tile(0).reg(0), 312u);
}

TEST(SimdController, NestedLoopsSharingEndLabel)
{
    auto chip = singleColumnChip(R"(
        movi r0, 0
        lsetup lc0, end, 3
        lsetup lc1, end, 4
        addi r0, 1
    end:
        halt
    )");
    runToHalt(*chip);
    EXPECT_EQ(chip->column(0).tile(0).reg(0), 12u);
}

TEST(SimdController, ConditionalBranchTaken)
{
    auto chip = singleColumnChip(R"(
        movi r0, 5
        movi r1, 5
        cmpeq r0, r1
        jcc equal
        movi r2, 111
        halt
    equal:
        movi r2, 222
        halt
    )");
    runToHalt(*chip);
    EXPECT_EQ(chip->column(0).tile(0).reg(2), 222u);
}

TEST(SimdController, ConditionalBranchCostsOneStall)
{
    auto chip = singleColumnChip(R"(
        movi r0, 1
        movi r1, 2
        cmpeq r0, r1   ; false
        jcc never
        halt
    never:
        halt
    )");
    runToHalt(*chip);
    const auto &st = chip->column(0).controller().stats();
    EXPECT_EQ(st.value("branchStalls"), 1u);
    EXPECT_EQ(st.value("issued"), 5u); // movi x2, cmpeq, jcc, halt
}

TEST(SimdController, CountedLoopWithBackwardBranch)
{
    // Software loop: decrement and branch while nonzero.
    auto chip = singleColumnChip(R"(
        movi r0, 0
        movi r1, 6
        movi r2, 0
    top:
        addi r0, 2
        addi r1, -1
        cmpeq r1, r2
        jncc top
        halt
    )");
    runToHalt(*chip);
    EXPECT_EQ(chip->column(0).tile(0).reg(0), 12u);
    // Six taken/not-taken conditional branches = 6 stall cycles.
    EXPECT_EQ(
        chip->column(0).controller().stats().value("branchStalls"),
        6u);
}

TEST(SimdController, ZormInsertsExactNopFraction)
{
    // 1 nop per 4 slots: a 30-instruction straight-line program needs
    // 10 zorm nops interleaved (30 real / 40 slots issued total).
    std::string body;
    for (int i = 0; i < 29; ++i)
        body += "addi r0, 1\n";
    auto chip = singleColumnChip("movi r0, 0\n" + body + "halt\n");
    chip->column(0).controller().setRateMatch(1, 4);
    runToHalt(*chip);
    EXPECT_EQ(chip->column(0).tile(0).reg(0), 29u);
    const auto &st = chip->column(0).controller().stats();
    // ceil-ish: every 4th slot is a nop while the program runs.
    EXPECT_EQ(st.value("zormNops"), 10u);
}

TEST(SimdController, ZormRateIsExactOverLongRuns)
{
    // Property: for (n, d), issue slots split exactly d-n compute per
    // d total in every window. Run a long loop and check the global
    // ratio matches to within one slot.
    auto chip = singleColumnChip(R"(
        movi r0, 0
        lsetup lc0, e, 300
        addi r0, 1
    e:
        halt
    )");
    chip->column(0).controller().setRateMatch(3, 7);
    runToHalt(*chip);
    const auto &st = chip->column(0).controller().stats();
    uint64_t real = st.value("issued");
    uint64_t nops = st.value("zormNops");
    // nops/(real+nops) must equal 3/7 within rounding.
    EXPECT_NEAR(double(nops) / double(real + nops), 3.0 / 7.0, 0.01);
}

TEST(SimdController, ZormSlotsMatchTheIterativeRule)
{
    // Property: the closed form is the least fixed point of
    // S = W + (acc + S * nops) / period, iterated from below, and for
    // short windows the slot at which the per-slot Bresenham rule
    // issues its W-th slot.
    Rng rng(0x2014);
    const uint64_t scales[] = {8, 64, 1024, uint64_t(1) << 20};
    for (unsigned i = 0; i < 100'000 && !HasFailure(); ++i) {
        const uint64_t period = 1 + rng.below(scales[i % 4]);
        const uint64_t nops = rng.below(period);
        const uint64_t acc = rng.below(period);
        const uint64_t want = i % 8 == 0 ? rng.below(4) : rng.below(5000);
        uint64_t iter = want;
        while (true) {
            const uint64_t next = want + (acc + iter * nops) / period;
            if (next == iter)
                break;
            iter = next;
        }
        const std::string what = strprintf(
            "W %llu acc %llu nops %llu period %llu",
            (unsigned long long)want, (unsigned long long)acc,
            (unsigned long long)nops, (unsigned long long)period);
        ASSERT_EQ(SimdController::zormSlots(want, acc, nops, period), iter)
            << what;
        if (want > 200)
            continue;
        uint64_t slots = 0, issued = 0, a = acc;
        while (issued < want) {
            ++slots;
            a += nops;
            if (a >= period)
                a -= period;
            else
                ++issued;
        }
        ASSERT_EQ(iter, slots) << what;
    }
}

TEST(SimdController, ZormValidation)
{
    auto chip = singleColumnChip("halt\n");
    EXPECT_THROW(chip->column(0).controller().setRateMatch(4, 4),
                 FatalError);
    EXPECT_THROW(chip->column(0).controller().setRateMatch(1, 0),
                 FatalError);
    EXPECT_NO_THROW(chip->column(0).controller().setRateMatch(0, 0));
}

TEST(SimdController, CcModesReduceAcrossTiles)
{
    // tid != 0 is true on tiles 1..3 and false on tile 0.
    const char *src = R"(
        tid r0
        movi r1, 0
        cmpeq r0, r1  ; CC = (tid == 0): true only on tile 0
        jcc taken
        movi r2, 1
        halt
    taken:
        movi r2, 2
        halt
    )";
    {
        auto chip = singleColumnChip(src);
        chip->column(0).controller().setCcMode(CcMode::Tile0);
        runToHalt(*chip);
        EXPECT_EQ(chip->column(0).tile(0).reg(2), 2u);
    }
    {
        auto chip = singleColumnChip(src);
        chip->column(0).controller().setCcMode(CcMode::All);
        runToHalt(*chip);
        EXPECT_EQ(chip->column(0).tile(0).reg(2), 1u);
    }
    {
        auto chip = singleColumnChip(src);
        chip->column(0).controller().setCcMode(CcMode::Any);
        runToHalt(*chip);
        EXPECT_EQ(chip->column(0).tile(0).reg(2), 2u);
    }
}

TEST(SimdController, IdleTilesDoNotExecute)
{
    auto chip = singleColumnChip(R"(
        movi r0, 9
        halt
    )");
    chip->column(0).setTileActive(2, false);
    runToHalt(*chip);
    EXPECT_EQ(chip->column(0).tile(0).reg(0), 9u);
    EXPECT_EQ(chip->column(0).tile(2).reg(0), 0u);
    EXPECT_EQ(chip->column(0).tile(2).stats().value("instructions"),
              0u);
}

TEST(SimdController, ProgramTooLargeRejected)
{
    std::string big;
    for (unsigned i = 0; i < SimdController::InsnMemWords + 1; ++i)
        big += "nop\n";
    auto chip = singleColumnChip("halt\n");
    EXPECT_THROW(
        chip->column(0).controller().loadProgram(isa::assemble(big)),
        FatalError);
}

TEST(SimdController, FallingOffProgramEndIsFatal)
{
    auto chip = singleColumnChip("movi r0, 1\n"); // no halt
    EXPECT_THROW(runToHalt(*chip), FatalError);
}

TEST(SimdController, LoopReArmWhileActiveIsFatal)
{
    auto chip = singleColumnChip(R"(
        lsetup lc0, end, 3
        lsetup lc0, end, 2
        nop
    end:
        halt
    )");
    EXPECT_THROW(runToHalt(*chip), FatalError);
}

// ---------------------------------------------------------------
// Compiled blocks (SimdController::cycleBlock): every slot a block
// consumes must leave the column exactly as that many cycle() calls
// would. Each test loads one program into two columns, runs blocks on
// one and as many per-slot edges on the other, and compares.

namespace
{

std::map<std::string, uint64_t>
statsOf(const StatGroup &g)
{
    std::map<std::string, uint64_t> out;
    for (const auto &kv : g.all())
        out[kv.first] = kv.second.value();
    return out;
}

/** One program in two columns: one runs blocks, one slot by slot. */
struct ColumnPair
{
    Column block{0, 2, ClockDomain(600e6, 1, 0)};
    Column slots{0, 2, ClockDomain(600e6, 1, 0)};

    explicit ColumnPair(const std::string &src, uint32_t nops = 0,
                        uint32_t period = 0)
    {
        for (Column *c : {&block, &slots}) {
            c->controller().loadProgram(isa::assemble(src));
            c->controller().setRateMatch(nops, period);
        }
    }

    /** Give both columns' tiles a word in read buffer 0. */
    void
    deliver(uint32_t v)
    {
        for (Column *c : {&block, &slots}) {
            for (unsigned t = 0; t < c->numTiles(); ++t)
                c->tile(t).readBuffer(0).push(v);
        }
    }

    /** One block of up to @p max slots; as many edges on the other. */
    Tick
    step(Tick max, Tick comm)
    {
        const Tick k = block.clockEdgeBlock(max, comm);
        for (Tick i = 0; i < k; ++i)
            slots.clockEdge();
        return k;
    }

    void
    expectSame(const std::string &what) const
    {
        const SimdController &a = block.controller();
        const SimdController &b = slots.controller();
        EXPECT_EQ(a.pc(), b.pc()) << what;
        EXPECT_EQ(a.halted(), b.halted()) << what;
        EXPECT_EQ(block.commStalled(), slots.commStalled()) << what;
        EXPECT_EQ(block.cyclesSeen(), slots.cyclesSeen()) << what;
        EXPECT_EQ(statsOf(a.stats()), statsOf(b.stats())) << what;
        for (unsigned t = 0; t < block.numTiles(); ++t) {
            const Tile &x = block.tile(t);
            const Tile &y = slots.tile(t);
            for (unsigned r = 0; r < isa::NumDataRegs; ++r)
                EXPECT_EQ(x.reg(r), y.reg(r)) << what << " r" << r;
            EXPECT_EQ(x.cc(), y.cc()) << what;
            EXPECT_EQ(x.writeBuffer().valid(), y.writeBuffer().valid())
                << what;
            EXPECT_EQ(x.anyReadValid(), y.anyReadValid()) << what;
            EXPECT_EQ(statsOf(x.stats()), statsOf(y.stats())) << what;
        }
    }
};

/**
 * Branches both ways, a jump and two loop units sharing an end
 * address: r0 ends at 3 * 2 + 7 = 13 after six conditional branches.
 */
const char *const kControlProgram = R"(
        movi r0, 0
        movi r1, 4
        movi r3, 0
        lsetup lc0, e, 3
        lsetup lc1, e, 2
        addi r0, 1
        nop
    e:
    top:
        addi r1, -1
        cmpeq r1, r3
        jncc top
        cmpeq r1, r3
        jcc hit
        addi r0, 100
    hit:
        cmplt r1, r3
        jcc miss
        jump over
    miss:
        addi r0, 1000
    over:
        addi r0, 7
        halt
)";

} // namespace

TEST(CycleBlock, RunsBranchesJumpsAndLoopSetupsInPlace)
{
    // Unpaced and under two ZORM pacings, one block runs every slot
    // up to the halt, branch-stall slots and paced nops included.
    const std::pair<uint32_t, uint32_t> pacings[] = {
        {0, 0}, {1, 3}, {2, 5}};
    for (auto [nops, period] : pacings) {
        const std::string what = strprintf("zorm %u/%u", nops, period);
        ColumnPair p(kControlProgram, nops, period);
        const Tick k = p.step(100'000, 0);
        p.expectSame(what);
        EXPECT_GT(k, 30u) << what;
        EXPECT_FALSE(p.block.halted()) << what;
        EXPECT_EQ(p.block.controller().stats().value("branchStalls"), 6u)
            << what;
        // The halt is left to the per-slot path.
        EXPECT_EQ(p.step(100'000, 0), 0u) << what;
        p.block.clockEdge();
        p.slots.clockEdge();
        EXPECT_TRUE(p.block.halted()) << what;
        EXPECT_EQ(p.block.tile(0).reg(0), 13u) << what;
        p.expectSame(what);
    }
}

TEST(CycleBlock, ChunkedBlocksMatchSlotBySlot)
{
    // Blocks of 1-5 slots end anywhere: between a branch and its
    // stall slot, inside a loop body, on a paced nop.
    for (Tick chunk = 1; chunk <= 5; ++chunk) {
        ColumnPair p(kControlProgram, 2, 5);
        unsigned guard = 0;
        while (p.step(chunk, 0) > 0 && guard++ < 1000)
            p.expectSame(strprintf("chunk %llu", (unsigned long long)chunk));
        EXPECT_EQ(p.block.tile(0).reg(0), 13u);
        EXPECT_FALSE(p.block.halted());
    }
}

TEST(CycleBlock, IssuesCommOpsOnlyInsideItsCommSlots)
{
    // cwr at slot 1 and crd at slot 3: a comm op issues when its slot
    // is inside the first comm_slots (at or before the horizon) and
    // ends the block one slot after it.
    const char *src = R"(
        movi r7, 9
        cwr r7
        addi r0, 1
        crd r2
        addi r0, 1
        halt
    )";
    const Tick want[] = {1, 1, 3, 3, 5, 5, 5};
    for (Tick comm = 0; comm < 7; ++comm) {
        const std::string what =
            strprintf("comm_slots %llu", (unsigned long long)comm);
        ColumnPair p(src);
        p.deliver(42);
        EXPECT_EQ(p.step(100, comm), want[comm]) << what;
        p.expectSame(what);
        EXPECT_EQ(p.block.tile(0).writeBuffer().valid(), comm >= 2)
            << what;
        EXPECT_EQ(p.block.tile(1).reg(2), comm >= 4 ? 42u : 0u) << what;
    }
}

TEST(CycleBlock, IssuesACommOpBehindAZormNop)
{
    // Paced 1 nop in 2 slots: movi, nop, cwr, nop, addi, nop, halt.
    // The cwr's paced nop runs in the block whenever the nop slot is
    // a comm slot; the cwr itself needs its own slot to be one. The
    // halt's paced nop stays with the halt.
    const char *src = R"(
        movi r7, 3
        cwr r7
        addi r0, 1
        halt
    )";
    const Tick want[] = {1, 1, 2, 5, 5};
    for (Tick comm = 0; comm < 5; ++comm) {
        const std::string what =
            strprintf("comm_slots %llu", (unsigned long long)comm);
        ColumnPair p(src, 1, 2);
        EXPECT_EQ(p.step(100, comm), want[comm]) << what;
        p.expectSame(what);
    }

    // A full write buffer: the block ends before the paced nop, so
    // the sleep path credits it with the stall slots.
    ColumnPair p(src, 1, 2);
    for (Column *c : {&p.block, &p.slots}) {
        for (unsigned t = 0; t < c->numTiles(); ++t)
            c->tile(t).writeBuffer().push(1);
    }
    EXPECT_EQ(p.step(100, 100), 1u);
    p.expectSame("full write buffer");
    EXPECT_TRUE(p.block.commStalled());
}

TEST(CycleBlock, EndsWhereACommStallBeginsMidBlock)
{
    // A crd on an empty buffer after two compute slots and a taken
    // branch: the block ends at the crd with the column stalled; once
    // a word arrives the next block issues it.
    ColumnPair p(R"(
        movi r3, 1
        movi r4, 1
        cmpeq r3, r4
        jcc go
        halt
    go:
        crd r2
        addi r2, 5
        halt
    )");
    EXPECT_EQ(p.step(100, 100), 5u); // 3 ops, jcc and its stall slot
    p.expectSame("stalled");
    EXPECT_TRUE(p.block.commStalled());
    EXPECT_EQ(p.step(100, 100), 0u);
    p.deliver(37);
    EXPECT_EQ(p.step(100, 100), 2u);
    p.expectSame("delivered");
    EXPECT_EQ(p.block.tile(0).reg(2), 42u);
}

TEST(CycleBlock, NeverIssuesAHalt)
{
    // The halting slot decides when the chip halts, so it is always
    // slot-exact, even straight after a paced nop or a branch stall.
    for (auto [nops, period] : {std::pair<uint32_t, uint32_t>{0, 0},
                                std::pair<uint32_t, uint32_t>{1, 2}}) {
        ColumnPair p(R"(
            movi r0, 1
            cmpeq r0, r0
            jcc h
        h:
            halt
        )",
                     nops, period);
        EXPECT_GT(p.step(100, 100), 0u);
        EXPECT_FALSE(p.block.halted());
        EXPECT_EQ(p.step(100, 100), 0u);
        p.expectSame(strprintf("zorm %u/%u", nops, period));
    }
}

TEST(Chip, MultiColumnDividersRunIndependently)
{
    ChipConfig cfg;
    cfg.dividers = {1, 3};
    Chip chip(cfg);
    // Column 0 at full rate, column 1 at 1/3 rate; both count to 30.
    const char *count = R"(
        movi r0, 0
        lsetup lc0, e, 30
        addi r0, 1
    e:
        halt
    )";
    chip.column(0).controller().loadProgram(isa::assemble(count));
    chip.column(1).controller().loadProgram(isa::assemble(count));
    auto res = chip.run(1000);
    EXPECT_EQ(res.exit, RunExit::AllHalted);
    EXPECT_EQ(chip.column(0).tile(0).reg(0), 30u);
    EXPECT_EQ(chip.column(1).tile(0).reg(0), 30u);
    // Column 1's last issue happens ~3x later in ticks.
    EXPECT_EQ(chip.column(1).clock().frequencyMHz(), 200.0);
}

TEST(Chip, TickLimitReturnsWithoutHalt)
{
    auto chip = singleColumnChip(R"(
    spin:
        jump spin
    )");
    auto res = chip->run(100);
    EXPECT_EQ(res.exit, RunExit::TickLimit);
    EXPECT_FALSE(chip->allHalted());
}
