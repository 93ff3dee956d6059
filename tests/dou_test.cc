/** @file DOU state machine and state-word packing tests. */

#include <gtest/gtest.h>

#include "arch/dou.hh"
#include "common/log.hh"

using namespace synchro;
using namespace synchro::arch;

TEST(DouState, PackUnpackRoundTrip)
{
    DouState s;
    s.cntr = 3;
    s.seg = {0xf, 0x5, 0xa, 0x1};
    s.buf = {0x80, 0x7f, 0x08, 0xff};
    s.nxt0 = 127;
    s.nxt1 = 1;
    DouState back = DouState::unpack(s.pack());
    EXPECT_EQ(back, s);
    EXPECT_EQ(back.cntr, 3);
    EXPECT_EQ(back.seg[0], 0xf);
    EXPECT_EQ(back.buf[3], 0xff);
    EXPECT_EQ(back.nxt0, 127);
}

TEST(DouState, WordIs64BitsExactly)
{
    // CNTR(2) + 4xSEG(4) + 4xBUF(8) + NXT0(7) + NXT1(7) = 64 bits:
    // the all-ones state must use every bit and no more.
    DouState s;
    s.cntr = 3;
    s.seg = {0xf, 0xf, 0xf, 0xf};
    s.buf = {0xff, 0xff, 0xff, 0xff};
    s.nxt0 = 0x7f;
    s.nxt1 = 0x7f;
    EXPECT_EQ(s.pack(), ~uint64_t(0));
    DouState zero;
    EXPECT_EQ(zero.pack(), 0u);
}

TEST(BufferCtl, ByteLayout)
{
    BufferCtl c;
    c.drive = true;
    c.drive_lane = 5;
    c.capture = true;
    c.capture_lane = 3;
    EXPECT_EQ(c.byte(), 0x80 | (5 << 4) | 0x08 | 3);
    BufferCtl d = BufferCtl::fromByte(c.byte());
    EXPECT_TRUE(d.drive);
    EXPECT_EQ(d.drive_lane, 5);
    EXPECT_TRUE(d.capture);
    EXPECT_EQ(d.capture_lane, 3);
}

TEST(DouProgram, ValidationCatchesBadPrograms)
{
    DouProgram p;
    EXPECT_THROW(p.validate(), FatalError); // empty

    p = DouProgram::idle();
    EXPECT_NO_THROW(p.validate());

    p.states[0].nxt0 = 5; // out of range successor
    EXPECT_THROW(p.validate(), FatalError);

    p = DouProgram::idle();
    p.states.resize(DouMaxStates + 1);
    EXPECT_THROW(p.validate(), FatalError);
}

TEST(Dou, IdleLoopsForever)
{
    Dou dou;
    for (int i = 0; i < 10; ++i) {
        dou.step();
        EXPECT_EQ(dou.stateIndex(), 0u);
    }
}

TEST(Dou, CounterLoopSemantics)
{
    // Two states: state 0 repeats itself while counter 0 is nonzero
    // (NXTSTATE1), then falls to state 1 when it hits zero (NXTSTATE0,
    // which also reloads the counter). State 1 returns to 0.
    DouProgram p;
    DouState s0;
    s0.cntr = 0;
    s0.nxt0 = 1; // counter exhausted -> state 1
    s0.nxt1 = 0; // keep looping in state 0
    DouState s1;
    s1.cntr = 1; // counter 1 stays 0 -> always nxt0
    s1.nxt0 = 0;
    s1.nxt1 = 1;
    p.states = {s0, s1};
    p.counter_init = {3, 0, 0, 0};

    Dou dou;
    dou.load(p);

    // With init=3 the DOU stays in state 0 for 3 extra steps (counts
    // 3,2,1 decrementing), then transitions: period = 4 steps in s0.
    std::vector<unsigned> seen;
    for (int i = 0; i < 10; ++i) {
        seen.push_back(dou.stateIndex());
        dou.step();
    }
    EXPECT_EQ(seen, (std::vector<unsigned>{0, 0, 0, 0, 1,
                                           0, 0, 0, 0, 1}));
}

TEST(Dou, FourNestedCounters)
{
    // A chain imitating 2 nested loops: inner counter 0 (2 iters),
    // outer counter 1 (3 iters). Measure the period of the full nest.
    DouProgram p;
    DouState inner;
    inner.cntr = 0;
    inner.nxt1 = 0; // spin on inner
    inner.nxt0 = 1; // inner done -> outer check
    DouState outer;
    outer.cntr = 1;
    outer.nxt1 = 0; // outer not done -> restart inner
    outer.nxt0 = 2; // everything done -> idle
    DouState done;
    done.nxt0 = done.nxt1 = 2;
    p.states = {inner, outer, done};
    p.counter_init = {1, 2, 0, 0};

    Dou dou;
    dou.load(p);
    int steps = 0;
    while (dou.stateIndex() != 2 && steps < 100) {
        dou.step();
        ++steps;
    }
    // Inner takes 2 steps per pass (counts 1,0); passes = 3 (counter 1
    // counts 2,1,0); plus 3 outer-check steps: 2*3 + 3 = 9.
    EXPECT_EQ(steps, 9);
}

TEST(Dou, LoadResetsState)
{
    DouProgram p = DouProgram::idle();
    p.counter_init = {7, 0, 0, 0};
    Dou dou;
    dou.load(p);
    EXPECT_EQ(dou.counter(0), 7u);
    dou.step();
    dou.reset();
    EXPECT_EQ(dou.stateIndex(), 0u);
    EXPECT_EQ(dou.counter(0), 7u);
}
