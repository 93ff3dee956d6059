/** @file Integration tests: DOU-scheduled communication over the
 * segmented bus, within and across columns and clock domains. */

#include <gtest/gtest.h>

#include "arch/chip.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "isa/assembler.hh"

using namespace synchro;
using namespace synchro::arch;
using synchro::isa::assemble;

namespace
{

/** DOU program: one repeating state with the given controls. */
DouProgram
steadyState(std::array<uint8_t, 4> seg, std::array<BufferCtl, 4> bufs)
{
    DouProgram p;
    DouState s;
    s.seg = seg;
    for (unsigned t = 0; t < 4; ++t)
        s.buf[t] = bufs[t].byte();
    p.states = {s};
    return p;
}

BufferCtl
driveOn(unsigned lane)
{
    BufferCtl c;
    c.drive = true;
    c.drive_lane = uint8_t(lane);
    return c;
}

BufferCtl
captureOn(unsigned lane)
{
    BufferCtl c;
    c.capture = true;
    c.capture_lane = uint8_t(lane);
    return c;
}

BufferCtl
driveAndCapture(unsigned lane)
{
    BufferCtl c = driveOn(lane);
    c.capture = true;
    c.capture_lane = uint8_t(lane);
    return c;
}

} // namespace

TEST(ChipComm, CrossColumnProducerConsumer)
{
    // Column 0 (1 tile) streams five values to column 1 (1 tile)
    // through the horizontal bus; the consumer accumulates them.
    ChipConfig cfg;
    cfg.dividers = {1, 1};
    cfg.tiles_per_column = 1;
    Chip chip(cfg);

    chip.column(0).controller().loadProgram(assemble(R"(
        movi r7, 0
        lsetup lc0, send_end, 5
        addi r7, 1       ; values 1..5
        cwr r7
    send_end:
        halt
    )"));
    chip.column(1).controller().loadProgram(assemble(R"(
        movi r1, 0
        lsetup lc0, recv_end, 5
        crd r0
        add r1, r1, r0
    recv_end:
        halt
    )"));

    // Producer drives lane 0 through its boundary switch onto the
    // horizontal bus; consumer captures lane 0 from it.
    auto seg_h = std::array<uint8_t, 4>{0, 0, 0, 0x1}; // seg[3] lane0/1
    chip.column(0).dou().load(
        steadyState(seg_h, {driveOn(0), {}, {}, {}}));
    chip.column(1).dou().load(
        steadyState(seg_h, {captureOn(0), {}, {}, {}}));

    auto res = chip.run(10'000);
    ASSERT_EQ(res.exit, RunExit::AllHalted);
    EXPECT_EQ(chip.column(1).tile(0).reg(1), 15u); // 1+2+3+4+5
    EXPECT_EQ(chip.fabric().stats().value("conflicts"), 0u);
    EXPECT_EQ(chip.fabric().stats().value("overruns"), 0u);
    EXPECT_EQ(chip.fabric().transfers(), 5u);
}

TEST(ChipComm, SegmentedBusCarriesParallelTransfers)
{
    // Paper Section 2.3: "two messages can pass between neighboring
    // tiles using the same wires in different segments". Tiles 0->1
    // and 2->3 exchange on lane 0 simultaneously; segment point 1
    // stays open so the groups are disjoint.
    ChipConfig cfg;
    cfg.dividers = {1};
    cfg.tiles_per_column = 4;
    Chip chip(cfg);

    chip.column(0).controller().loadProgram(assemble(R"(
        tid r7
        addi r7, 100     ; tile t sends 100 + t
        cwr r7
        crd r0
        halt
    )"));

    auto seg = std::array<uint8_t, 4>{0x1, 0x0, 0x1, 0x0};
    chip.column(0).dou().load(steadyState(
        seg, {driveAndCapture(0), captureOn(0), driveAndCapture(0),
              captureOn(0)}));

    auto res = chip.run(1'000);
    ASSERT_EQ(res.exit, RunExit::AllHalted);
    EXPECT_EQ(chip.column(0).tile(0).reg(0), 100u); // own value back
    EXPECT_EQ(chip.column(0).tile(1).reg(0), 100u); // from tile 0
    EXPECT_EQ(chip.column(0).tile(2).reg(0), 102u); // own value back
    EXPECT_EQ(chip.column(0).tile(3).reg(0), 102u); // from tile 2
    EXPECT_EQ(chip.fabric().stats().value("conflicts"), 0u);
    // Both transfers happened in the same bus cycle on the same lane.
    EXPECT_EQ(chip.fabric().transfers(), 2u);
}

TEST(ChipComm, BroadcastWhenAllSwitchesClosed)
{
    // "if all the controllers are turned on, the bus becomes a
    // low-latency broadcast bus".
    ChipConfig cfg;
    cfg.dividers = {1};
    cfg.tiles_per_column = 4;
    Chip chip(cfg);

    chip.column(0).controller().loadProgram(assemble(R"(
        tid r0
        movi r1, 0
        cmpeq r0, r1
        movi r7, 777
        jncc skip_send
        cwr r7          ; only reached by the column, but the DOU only
    skip_send:          ; drives tile 0's buffer anyway
        crd r2
        halt
    )"));

    // All tiles capture lane 3; only tile 0 drives it.
    auto seg = std::array<uint8_t, 4>{0xf, 0xf, 0xf, 0x0};
    chip.column(0).dou().load(steadyState(
        seg, {driveAndCapture(3), captureOn(3), captureOn(3),
              captureOn(3)}));

    auto res = chip.run(1'000);
    ASSERT_EQ(res.exit, RunExit::AllHalted);
    for (unsigned t = 0; t < 4; ++t)
        EXPECT_EQ(chip.column(0).tile(t).reg(2), 777u) << "tile " << t;
    EXPECT_EQ(chip.fabric().transfers(), 1u);
}

TEST(ChipComm, ConflictDetectedWhenSegmentsMerge)
{
    // Same two pairs as the parallel-transfer test, but with every
    // switch closed the two drivers collide in one group.
    ChipConfig cfg;
    cfg.dividers = {1};
    cfg.tiles_per_column = 4;
    Chip chip(cfg);

    chip.column(0).controller().loadProgram(assemble(R"(
        tid r7
        cwr r7
        halt
    )"));
    auto seg = std::array<uint8_t, 4>{0x1, 0x1, 0x1, 0x0};
    chip.column(0).dou().load(steadyState(
        seg, {driveOn(0), {}, driveOn(0), {}}));

    auto res = chip.run(1'000);
    ASSERT_EQ(res.exit, RunExit::AllHalted);
    EXPECT_EQ(chip.fabric().stats().value("conflicts"), 1u);
}

TEST(ChipComm, ConflictIsFatalInStrictMode)
{
    // In strict mode the schedule must be exact, so the DOU waits one
    // cycle (for the cwr to land) and then creates the collision.
    ChipConfig cfg;
    cfg.dividers = {1};
    cfg.tiles_per_column = 4;
    cfg.strict = true;
    Chip chip(cfg);
    chip.column(0).controller().loadProgram(assemble(R"(
        tid r7
        cwr r7
        halt
    )"));
    DouProgram p;
    DouState wait; // tick 0: tid executes, nothing on the bus
    wait.nxt0 = wait.nxt1 = 1;
    DouState clash; // tick 1: both drivers in one merged group
    clash.seg = {0x1, 0x1, 0x1, 0x0};
    clash.buf[0] = driveOn(0).byte();
    clash.buf[2] = driveOn(0).byte();
    clash.nxt0 = clash.nxt1 = 2;
    DouState done;
    done.nxt0 = done.nxt1 = 2;
    p.states = {wait, clash, done};
    chip.column(0).dou().load(p);
    EXPECT_THROW(chip.run(1'000), FatalError);
}

TEST(ChipComm, CrossClockDomainTransferWithStalls)
{
    // Producer at 600 MHz (divider 1), consumer at 200 MHz (divider
    // 3): the consumer is the bottleneck, so the *producer* stalls on
    // its write buffer. The data still arrives intact — this is the
    // cross-domain synchronization the buffers provide.
    ChipConfig cfg;
    cfg.dividers = {1, 3};
    cfg.tiles_per_column = 1;
    Chip chip(cfg);

    chip.column(0).controller().loadProgram(assemble(R"(
        movi r7, 0
        lsetup lc0, e, 8
        addi r7, 1
        cwr r7
    e:
        halt
    )"));
    chip.column(1).controller().loadProgram(assemble(R"(
        movi r1, 0
        lsetup lc0, e, 8
        crd r0
        add r1, r1, r0
    e:
        halt
    )"));

    // Rate-matched schedule: the consumer's 2-instruction loop at
    // divider 3 consumes one value every 6 bus cycles, so the
    // producer's DOU drives once per 6 bus cycles; write-buffer
    // backpressure throttles the faster producer in between.
    DouProgram prod;
    for (unsigned s = 0; s < 6; ++s) {
        DouState st;
        if (s == 0) {
            st.seg = {0, 0, 0, 0x1};
            st.buf[0] = driveOn(0).byte();
        }
        st.nxt0 = st.nxt1 = uint8_t((s + 1) % 6);
        prod.states.push_back(st);
    }
    chip.column(0).dou().load(prod);
    chip.column(1).dou().load(steadyState(
        {0, 0, 0, 0x1}, {captureOn(0), {}, {}, {}}));

    auto res = chip.run(10'000);
    ASSERT_EQ(res.exit, RunExit::AllHalted);
    EXPECT_EQ(chip.column(1).tile(0).reg(1), 36u); // 1+..+8
    EXPECT_EQ(chip.fabric().stats().value("overruns"), 0u);
    // The fast producer had to wait on its write buffer: these stalls
    // are the cross-domain synchronization nops of paper Section 4.5.
    EXPECT_GT(chip.column(0).controller().stats().value("commStalls"),
              0u);
}

TEST(ChipComm, WriteBufferBackpressureStallsProducer)
{
    // No consumer ever captures, and the DOU never drives: the second
    // cwr must stall the producer column forever.
    ChipConfig cfg;
    cfg.dividers = {1};
    cfg.tiles_per_column = 1;
    Chip chip(cfg);
    chip.column(0).controller().loadProgram(assemble(R"(
        movi r7, 1
        cwr r7
        cwr r7
        halt
    )"));
    auto res = chip.run(500);
    EXPECT_EQ(res.exit, RunExit::TickLimit);
    EXPECT_GT(chip.column(0).controller().stats().value("commStalls"),
              400u);
}

TEST(ChipComm, GatherOverHorizontalBus)
{
    // Three producer columns send their column id; a fourth column
    // gathers all three values in schedule order — the gather-scatter
    // pattern the single horizontal bus supports (Section 2.3).
    ChipConfig cfg;
    cfg.dividers = {1, 1, 1, 1};
    cfg.tiles_per_column = 1;
    Chip chip(cfg);

    for (unsigned c = 0; c < 3; ++c) {
        chip.column(c).controller().loadProgram(assemble(strprintf(R"(
            movi r7, %u
            cwr r7
            halt
        )", c + 10)));
    }
    chip.column(3).controller().loadProgram(assemble(R"(
        crd r1
        crd r2
        crd r3
        add r0, r1, r2
        add r0, r0, r3
        halt
    )"));

    // Gather DOU schedules: producer c drives the horizontal bus in
    // bus cycle c+1 (its cwr lands at tick 1; one producer per cycle
    // avoids conflicts); the consumer captures every cycle.
    for (unsigned c = 0; c < 3; ++c) {
        DouProgram p;
        // waiting states (seg open, no buffers)
        for (unsigned w = 0; w < c + 1; ++w) {
            DouState idle;
            idle.nxt0 = idle.nxt1 = uint8_t(w + 1);
            p.states.push_back(idle);
        }
        DouState send;
        send.seg = {0, 0, 0, 0x1};
        BufferCtl d = driveOn(0);
        send.buf[0] = d.byte();
        send.nxt0 = send.nxt1 = uint8_t(c + 1);
        p.states.push_back(send);
        DouState done;
        done.nxt0 = done.nxt1 = uint8_t(p.states.size());
        p.states.push_back(done);
        chip.column(c).dou().load(p);
    }
    chip.column(3).dou().load(steadyState(
        {0, 0, 0, 0x1}, {captureOn(0), {}, {}, {}}));

    auto res = chip.run(10'000);
    ASSERT_EQ(res.exit, RunExit::AllHalted);
    EXPECT_EQ(chip.column(3).tile(0).reg(0), 10u + 11u + 12u);
}

TEST(CommBuffer, FailedPushLeavesPendingWordUntouched)
{
    // Drop-new semantics: the unread word survives a refused push.
    CommBuffer buf;
    EXPECT_TRUE(buf.push(111));
    EXPECT_FALSE(buf.push(222));
    EXPECT_TRUE(buf.valid());
    EXPECT_EQ(buf.peek(), 111u);
    EXPECT_EQ(buf.pop(), 111u);
    EXPECT_FALSE(buf.valid());
    EXPECT_TRUE(buf.push(222));
    EXPECT_EQ(buf.pop(), 222u);
}

TEST(ChipComm, NonStrictOverrunDropsNewWordDeliversFirst)
{
    // The producer fires two values onto the bus in back-to-back
    // cycles while the consumer is still busy, forcing a read-buffer
    // overrun. The *first* word must survive (drop-new) and be the
    // one the consumer's crd eventually sees; overruns_ records that
    // the second word was the casualty.
    ChipConfig cfg;
    cfg.dividers = {1, 1};
    cfg.tiles_per_column = 1;
    Chip chip(cfg);

    chip.column(0).controller().loadProgram(assemble(R"(
        movi r7, 111
        cwr r7
        movi r7, 222
        cwr r7
        halt
    )"));
    chip.column(1).controller().loadProgram(assemble(R"(
        nop
        nop
        nop
        nop
        nop
        nop
        nop
        nop
        crd r0
        halt
    )"));

    auto seg_h = std::array<uint8_t, 4>{0, 0, 0, 0x1};
    chip.column(0).dou().load(
        steadyState(seg_h, {driveOn(0), {}, {}, {}}));
    chip.column(1).dou().load(
        steadyState(seg_h, {captureOn(0), {}, {}, {}}));

    auto res = chip.run(1'000);
    ASSERT_EQ(res.exit, RunExit::AllHalted);
    EXPECT_EQ(chip.column(1).tile(0).reg(0), 111u);
    EXPECT_EQ(chip.fabric().stats().value("overruns"), 1u);
}

TEST(ChipComm, SelfTimedBusDefersInsteadOfOverrunning)
{
    // The same back-to-back producer / busy consumer race as the
    // drop-new test above, but on the self-timed bus: the second
    // transfer defers (the producer keeps the word and its cwr
    // backpressure self-times the retry), so BOTH words arrive and
    // nothing overruns.
    ChipConfig cfg;
    cfg.dividers = {1, 1};
    cfg.tiles_per_column = 1;
    cfg.self_timed_bus = true;
    Chip chip(cfg);

    chip.column(0).controller().loadProgram(assemble(R"(
        movi r7, 111
        cwr r7
        movi r7, 222
        cwr r7
        halt
    )"));
    chip.column(1).controller().loadProgram(assemble(R"(
        nop
        nop
        nop
        nop
        nop
        nop
        nop
        nop
        crd r0
        crd r1
        halt
    )"));

    auto seg_h = std::array<uint8_t, 4>{0, 0, 0, 0x1};
    chip.column(0).dou().load(
        steadyState(seg_h, {driveOn(0), {}, {}, {}}));
    chip.column(1).dou().load(
        steadyState(seg_h, {captureOn(0), {}, {}, {}}));

    auto res = chip.run(1'000);
    ASSERT_EQ(res.exit, RunExit::AllHalted);
    EXPECT_EQ(chip.column(1).tile(0).reg(0), 111u);
    EXPECT_EQ(chip.column(1).tile(0).reg(1), 222u);
    EXPECT_EQ(chip.fabric().stats().value("overruns"), 0u);
    EXPECT_GT(chip.fabric().stats().value("deferrals"), 0u);
}

TEST(ChipComm, LaneTaggedWordsWaitForTheirDriveSlot)
{
    // A producer emits one word for lane 0 and one for lane 1; its
    // DOU alternates drive slots lane1-first. The lane-1 slot must
    // defer while the buffered word is tagged for lane 0, so each
    // word still departs on its own lane — the binding that lets one
    // producer feed two DAG edges through a single write buffer.
    ChipConfig cfg;
    cfg.dividers = {1, 1};
    cfg.tiles_per_column = 1;
    cfg.self_timed_bus = true;
    Chip chip(cfg);

    chip.column(0).controller().loadProgram(assemble(R"(
        movi r7, 1111
        cwr r7, 0
        movi r7, 2222
        cwr r7, 1
        halt
    )"));
    chip.column(1).controller().loadProgram(assemble(R"(
        crd r1, 1
        crd r0, 0
        halt
    )"));

    // Alternate lane-1 and lane-0 drive/capture slots every cycle.
    DouProgram prod;
    DouState d1, d0;
    d1.seg = {0, 0, 0, 0x3};
    d1.buf[0] = driveOn(1).byte();
    d0.seg = {0, 0, 0, 0x3};
    d0.buf[0] = driveOn(0).byte();
    d1.nxt0 = d1.nxt1 = 1;
    d0.nxt0 = d0.nxt1 = 0;
    prod.states = {d1, d0};
    chip.column(0).dou().load(prod);

    DouProgram cons;
    DouState c1 = d1, c0 = d0;
    c1.buf[0] = captureOn(1).byte();
    c0.buf[0] = captureOn(0).byte();
    cons.states = {c1, c0};
    chip.column(1).dou().load(cons);

    auto res = chip.run(1'000);
    ASSERT_EQ(res.exit, RunExit::AllHalted);
    // The consumer read lane 1's word into r1 and lane 0's into r0:
    // tags beat slot order.
    EXPECT_EQ(chip.column(1).tile(0).reg(0), 1111u);
    EXPECT_EQ(chip.column(1).tile(0).reg(1), 2222u);
    EXPECT_EQ(chip.fabric().stats().value("overruns"), 0u);
}

TEST(ChipComm, StrictModeOverrunIsFatal)
{
    ChipConfig cfg;
    cfg.dividers = {1, 1};
    cfg.tiles_per_column = 1;
    cfg.strict = true;
    Chip chip(cfg);

    chip.column(0).controller().loadProgram(assemble(R"(
        movi r7, 111
        cwr r7
        movi r7, 222
        cwr r7
        halt
    )"));
    // The consumer never reads, so the second capture must overrun.
    chip.column(1).controller().loadProgram(assemble(R"(
        nop
        nop
        nop
        nop
        nop
        nop
        halt
    )"));

    // Strict mode demands an exact schedule, so the DOUs touch the
    // bus only on the two cycles the cwr values are actually there
    // (ticks 1 and 3): state sequence idle, xfer, idle, xfer, park.
    auto timed = [](bool capture) {
        DouProgram p;
        for (unsigned s = 0; s < 5; ++s) {
            DouState st;
            if (s == 1 || s == 3) {
                st.seg = {0, 0, 0, 0x1};
                st.buf[0] =
                    capture ? captureOn(0).byte() : driveOn(0).byte();
            }
            st.nxt0 = st.nxt1 = uint8_t(std::min(s + 1, 4u));
            p.states.push_back(st);
        }
        return p;
    };
    chip.column(0).dou().load(timed(false));
    chip.column(1).dou().load(timed(true));

    EXPECT_THROW(chip.run(1'000), FatalError);
}

TEST(ChipComm, WireSpanShorterWithSegmentation)
{
    // Energy proxy: the same transfer touches fewer bus nodes when
    // the unused switches stay open.
    auto run_one = [](uint8_t seg0_all) -> uint64_t {
        ChipConfig cfg;
        cfg.dividers = {1};
        cfg.tiles_per_column = 4;
        Chip chip(cfg);
        chip.column(0).controller().loadProgram(assemble(R"(
            tid r7
            cwr r7
            halt
        )"));
        std::array<uint8_t, 4> seg{0x1, seg0_all, seg0_all, seg0_all};
        chip.column(0).dou().load(steadyState(
            seg, {driveOn(0), captureOn(0), {}, {}}));
        chip.run(1'000);
        return chip.fabric().wireSpanSum();
    };
    uint64_t segmented = run_one(0x0);
    uint64_t flat = run_one(0x1);
    EXPECT_LT(segmented, flat);
}

TEST(ChipComm, SlotsWithoutAWordCountUnderrunsAndDeferrals)
{
    // Tile 0 drives lane 0 and tile 1 captures it on every cycle, but
    // no word for lane 0 ever exists. With the write buffer empty,
    // each cycle counts two underruns (the drive and the capture);
    // with a word tagged for lane 1 pending, the drive defers instead
    // and the capture still underruns. Nothing moves either way.
    for (bool tagged : {false, true}) {
        ChipConfig cfg;
        cfg.dividers = {1};
        cfg.tiles_per_column = 2;
        Chip chip(cfg);
        chip.column(0).controller().loadProgram(assemble(R"(
            movi r0, 0
            lsetup lc0, e, 20
            addi r0, 1
        e:
            halt
        )"));
        chip.column(0).dou().load(steadyState(
            {0x1, 0, 0, 0}, {driveOn(0), captureOn(0), {}, {}}));
        if (tagged)
            chip.column(0).tile(0).writeBuffer().push(7, 1);
        ASSERT_EQ(chip.run(1'000).exit, RunExit::AllHalted);

        const uint64_t cycles =
            chip.column(0).dou().stats().value("steps");
        const StatGroup &bus = chip.fabric().stats();
        EXPECT_EQ(bus.value("underruns"), tagged ? cycles : 2 * cycles);
        EXPECT_EQ(bus.value("deferrals"), tagged ? cycles : 0u);
        EXPECT_EQ(bus.value("transfers"), 0u);
        EXPECT_EQ(bus.value("captures"), 0u);
        EXPECT_EQ(chip.column(0).tile(0).writeBuffer().valid(), tagged);
    }
}

namespace
{

/** A random buffer word: empty, untagged, or tagged for a lane. */
void
randomWord(Rng &rng, CommBuffer &buf, unsigned lane)
{
    buf.clear();
    switch (rng.below(4)) {
      case 0:
        return;
      case 1:
        buf.push(uint32_t(rng.next()), -1);
        return;
      case 2:
        buf.push(uint32_t(rng.next()), int(lane));
        return;
      default:
        buf.push(uint32_t(rng.next()), int(rng.below(BusLanes)));
    }
}

/** Every comm buffer of @p tiles: valid bit, word and tag. */
std::vector<int64_t>
bufferState(const std::vector<std::unique_ptr<Tile>> &tiles)
{
    std::vector<int64_t> out;
    auto add = [&out](const CommBuffer &b) {
        out.push_back(b.valid());
        out.push_back(b.peek());
        out.push_back(b.laneTag());
    };
    for (const auto &t : tiles) {
        add(t->writeBuffer());
        for (unsigned l = 0; l < BusLanes; ++l)
            add(t->readBuffer(l));
    }
    return out;
}

} // namespace

TEST(BusTransfer, MatchesRunPlanOnRandomBuffers)
{
    // The scalar transfer path against the general resolver, on two
    // columns of tiles with random write and read buffers: words with
    // matching, mismatched and no lane tags, full and empty capture
    // buffers, missing driver and capture tiles, self-timed and
    // legacy buses, strict and not. Counters, buffers, touched lists
    // and strict-mode fatal messages must all agree.
    Rng rng(0x7a11);
    unsigned singles = 0, split = 0, moved = 0, fatals = 0;
    for (unsigned mode = 0; mode < 4; ++mode) {
        const bool strict = mode & 1, self_timed = mode & 2;
        BusFabric ref(2, strict, self_timed), fast(2, strict, self_timed);
        std::vector<std::unique_ptr<Tile>> ref_tiles, fast_tiles;
        for (unsigned i = 0; i < 2 * TilesPerColumn; ++i) {
            ref_tiles.push_back(
                std::make_unique<Tile>(i / TilesPerColumn,
                                       i % TilesPerColumn));
            fast_tiles.push_back(
                std::make_unique<Tile>(i / TilesPerColumn,
                                       i % TilesPerColumn));
        }
        for (unsigned i = 0; i < 3000 && !HasFailure(); ++i) {
            // One drive and one capture on lane L, segment switches
            // mostly closed so that most plans are one group.
            const unsigned lane = unsigned(rng.below(BusLanes));
            const unsigned dcol = unsigned(rng.below(2));
            const unsigned dtile = unsigned(rng.below(TilesPerColumn));
            const unsigned ccol = unsigned(rng.below(2));
            const unsigned ctile = unsigned(rng.below(TilesPerColumn));
            DouState st[2];
            for (DouState &s : st) {
                for (uint8_t &seg : s.seg)
                    seg = rng.chance(0.85) ? 0xf : uint8_t(rng.below(16));
            }
            BufferCtl drive = driveOn(lane);
            st[dcol].buf[dtile] = drive.byte();
            BufferCtl cap = BufferCtl::fromByte(st[ccol].buf[ctile]);
            cap.capture = true;
            cap.capture_lane = uint8_t(lane);
            st[ccol].buf[ctile] = cap.byte();
            std::vector<ColumnBusView> views(2);
            for (unsigned c = 0; c < 2; ++c) {
                views[c].state = &st[c];
                for (unsigned t = 0; t < TilesPerColumn; ++t) {
                    if (!rng.chance(0.1))
                        views[c].tiles[t] =
                            ref_tiles[c * TilesPerColumn + t].get();
                }
            }
            const CyclePlan plan = planCycle(views);
            const std::optional<PointTransfer> single = pointTransfer(plan);
            if (!single) {
                // The drive and the capture sit in different groups.
                ASSERT_EQ(plan.size(), 1u);
                ASSERT_NE(plan[0].drivers[0].group,
                          plan[0].captures[0].group);
                ++split;
                continue;
            }
            ++singles;
            const PointTransfer &x = *single;
            ASSERT_EQ(x.lane, lane);
            ASSERT_EQ(x.driver.col, dcol);
            ASSERT_EQ(x.capture.tile, ctile);

            for (unsigned t = 0; t < ref_tiles.size(); ++t) {
                randomWord(rng, ref_tiles[t]->writeBuffer(), lane);
                for (unsigned l = 0; l < BusLanes; ++l)
                    randomWord(rng, ref_tiles[t]->readBuffer(l), l);
                fast_tiles[t]->copyStateFrom(*ref_tiles[t]);
            }
            auto fastTile = [&](unsigned col, unsigned tile) -> Tile * {
                return views[col].tiles[tile]
                           ? fast_tiles[col * TilesPerColumn + tile].get()
                           : nullptr;
            };
            std::string ref_fatal, fast_fatal;
            try {
                ref.runPlan(plan, views);
            } catch (const FatalError &e) {
                ref_fatal = e.what();
            }
            try {
                fast.runTransfer(x, fastTile(dcol, dtile),
                                 fastTile(ccol, ctile));
            } catch (const FatalError &e) {
                fast_fatal = e.what();
            }
            const std::string what = strprintf(
                "mode %u case %u lane %u (%u,%u)->(%u,%u)", mode, i, lane,
                dcol, dtile, ccol, ctile);
            fatals += !ref_fatal.empty();
            EXPECT_EQ(fast_fatal, ref_fatal) << what;
            EXPECT_EQ(bufferState(fast_tiles), bufferState(ref_tiles))
                << what;
            for (const auto &kv : ref.stats().all()) {
                EXPECT_EQ(fast.stats().value(kv.first), kv.second.value())
                    << what << " " << kv.first;
            }
            if (ref_fatal.empty()) {
                EXPECT_EQ(fast.touchedColumns(), ref.touchedColumns())
                    << what;
                moved += !ref.touchedColumns().empty();
            }
        }
    }
    // Enough of every outcome to mean something.
    EXPECT_GT(singles, 8000u);
    EXPECT_GT(split, 1000u);
    EXPECT_GT(moved, 1000u);
    EXPECT_GT(fatals, 500u);
}
