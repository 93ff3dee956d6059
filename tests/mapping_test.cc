/** @file Mapping-layer tests: SDF analysis, rate matching, the
 * optimizer, and the DOU schedule compiler run on the simulator. */

#include <gtest/gtest.h>

#include "arch/chip.hh"
#include "common/log.hh"
#include "isa/assembler.hh"
#include "mapping/comm_schedule.hh"
#include "mapping/optimizer.hh"
#include "mapping/rate_match.hh"
#include "mapping/sdf.hh"

using namespace synchro;
using namespace synchro::mapping;

// ---------------------------------------------------------------
// SDF

TEST(Sdf, ChainRepetitionVector)
{
    // A --2:1--> B --1:3--> C : q = (3, 6, 2) normalized.
    SdfGraph g;
    unsigned a = g.addActor("A");
    unsigned b = g.addActor("B");
    unsigned c = g.addActor("C");
    g.addEdge(a, b, 2, 1);
    g.addEdge(b, c, 1, 3);
    auto q = g.repetitionVector();
    ASSERT_TRUE(q.has_value());
    // qA*2 = qB, qB = 3*qC -> minimal (3, 6, 2).
    EXPECT_EQ(*q, (std::vector<uint64_t>{3, 6, 2}));
}

TEST(Sdf, DdcChainIsConsistent)
{
    // The DDC: mixer (1:1) -> integrator (1:1) -> decimate 8 ->
    // comb (1:1) -> CFIR (1:1) -> PFIR (1:1).
    SdfGraph g;
    unsigned mixer = g.addActor("mixer", 15);
    unsigned integ = g.addActor("integrator", 25);
    unsigned comb = g.addActor("comb", 20);
    unsigned cfir = g.addActor("cfir", 70);
    unsigned pfir = g.addActor("pfir", 200);
    g.addEdge(mixer, integ, 1, 1);
    g.addEdge(integ, comb, 1, 8); // CIC decimation by 8
    g.addEdge(comb, cfir, 1, 1);
    g.addEdge(cfir, pfir, 1, 1);
    auto q = g.repetitionVector();
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(*q, (std::vector<uint64_t>{8, 8, 1, 1, 1}));
    EXPECT_TRUE(g.deadlockFree());
    // Iteration work = 8*(15+25) + 20 + 70 + 200.
    EXPECT_EQ(g.iterationWork().value(), 8u * 40 + 290);
}

TEST(Sdf, InconsistentGraphDetected)
{
    // A -2:1-> B and A -1:1-> B cannot balance.
    SdfGraph g;
    unsigned a = g.addActor("A");
    unsigned b = g.addActor("B");
    g.addEdge(a, b, 2, 1);
    g.addEdge(a, b, 1, 1);
    EXPECT_FALSE(g.repetitionVector().has_value());
    EXPECT_FALSE(g.deadlockFree());
}

TEST(Sdf, DeadlockWithoutInitialTokens)
{
    SdfGraph g;
    unsigned a = g.addActor("A");
    unsigned b = g.addActor("B");
    g.addEdge(a, b, 1, 1);
    g.addEdge(b, a, 1, 1); // cycle with no delay
    ASSERT_TRUE(g.repetitionVector().has_value());
    EXPECT_FALSE(g.deadlockFree());
    // One initial token breaks the deadlock.
    SdfGraph g2;
    a = g2.addActor("A");
    b = g2.addActor("B");
    g2.addEdge(a, b, 1, 1);
    g2.addEdge(b, a, 1, 1, 1);
    EXPECT_TRUE(g2.deadlockFree());
}

TEST(Sdf, BufferBoundsOfDecimationChain)
{
    SdfGraph g;
    unsigned src = g.addActor("src");
    unsigned dec = g.addActor("dec");
    g.addEdge(src, dec, 1, 8);
    auto bounds = g.bufferBounds();
    ASSERT_TRUE(bounds.has_value());
    EXPECT_EQ((*bounds)[0], 8u); // at most 8 tokens queue up
}

TEST(Sdf, BadEdgesRejected)
{
    SdfGraph g;
    unsigned a = g.addActor("A");
    EXPECT_THROW(g.addEdge(a, 5, 1, 1), FatalError);
    unsigned b = g.addActor("B");
    EXPECT_THROW(g.addEdge(a, b, 0, 1), FatalError);
}

// ---------------------------------------------------------------
// Rate matching

TEST(RateMatch, ExactFractionReduction)
{
    // Column at 200 MHz, work needs 150 M slots/s: insert 1 nop per
    // 4 slots.
    ZormSetting z = exactRateMatch(200'000'000, 150'000'000);
    EXPECT_EQ(z.nops, 1u);
    EXPECT_EQ(z.period, 4u);
    EXPECT_DOUBLE_EQ(z.usefulFraction(), 0.75);
}

TEST(RateMatch, NoThrottlingWhenMatched)
{
    ZormSetting z = exactRateMatch(120'000'000, 120'000'000);
    EXPECT_EQ(z.period, 0u);
    EXPECT_DOUBLE_EQ(z.usefulFraction(), 1.0);
}

TEST(RateMatch, TooSlowIsFatal)
{
    EXPECT_THROW(exactRateMatch(100, 101), FatalError);
}

TEST(RateMatch, BoundedNeverUndershoots)
{
    // Property over awkward fractions: the realized useful fraction
    // must be >= requested (the column may only run slightly fast).
    for (double f : {0.9999, 0.87654, 0.5001, 0.333, 0.0101}) {
        ZormSetting z = boundedRateMatch(f, 1000);
        EXPECT_GE(z.usefulFraction(), f - 1e-12) << f;
        EXPECT_LE(z.usefulFraction() - f, 0.01) << f;
        if (z.period) {
            EXPECT_LE(z.period, 1000u);
        }
    }
}

TEST(RateMatch, ZormBeatsLoopPadding)
{
    // The paper's motivation for ZORM: padding whole nops into a
    // short loop cannot hit awkward ratios; ZORM can. A 7-slot loop
    // throttled to 0.9 useful: padding gives 7/8 = 0.875 (wastes
    // 2.9%); ZORM with period <= 64 lands within 0.2%.
    double target = 0.9;
    double padded = loopPaddingFraction(7, target);
    ZormSetting z = boundedRateMatch(target, 64);
    EXPECT_LT(padded, target); // padding overshoots the slowdown
    EXPECT_GE(z.usefulFraction(), target - 1e-12);
    EXPECT_LT(std::abs(z.usefulFraction() - target), 0.002);
    EXPECT_GT(target - padded, 0.02);
}

// ---------------------------------------------------------------
// Optimizer

namespace
{

power::SystemPowerModel &
model()
{
    static power::SystemPowerModel m;
    return m;
}

power::VfModel &
vf()
{
    static power::VfModel v;
    return v;
}

power::SupplyLevels &
levels()
{
    static power::SupplyLevels l(vf());
    return l;
}

} // namespace

TEST(Optimizer, MapAlgoQuantizesVoltage)
{
    Optimizer opt(model(), levels());
    AlgoLoad algo{"fir", 960.0, 64e6, 8, 1, 64,
                  CommScaling::Constant};
    // 8 tiles -> 120 MHz -> 0.8 V (a paper operating point).
    auto load = opt.mapAlgo(algo, 8);
    ASSERT_TRUE(load.has_value());
    EXPECT_DOUBLE_EQ(load->f_mhz, 120.0);
    EXPECT_DOUBLE_EQ(load->v, 0.8);
    // 3 tiles -> 320 MHz -> next level up (330 MHz @ 1.2 V).
    load = opt.mapAlgo(algo, 3);
    ASSERT_TRUE(load.has_value());
    EXPECT_DOUBLE_EQ(load->v, 1.2);
}

TEST(Optimizer, InfeasibleWhenTooFast)
{
    Optimizer opt(model(), levels());
    AlgoLoad algo{"hot", 5000.0, 0.0, 8, 1, 2,
                  CommScaling::Constant};
    // 2 tiles -> 2500 MHz: no supply level reaches that.
    EXPECT_FALSE(opt.mapAlgo(algo, 2).has_value());
}

TEST(Optimizer, ParallelizingSavesPowerUntilFloor)
{
    // Voltage scaling: more tiles -> lower f -> lower V -> less
    // power, until the voltage floor flattens the curve (paper
    // Section 5.2's diminishing returns).
    Optimizer opt(model(), levels());
    AlgoLoad algo{"x", 1600.0, 0.0, 8, 1, 64,
                  CommScaling::Constant};
    double p4 = model().loadPower(*opt.mapAlgo(algo, 4)).total();
    double p8 = model().loadPower(*opt.mapAlgo(algo, 8)).total();
    double p16 = model().loadPower(*opt.mapAlgo(algo, 16)).total();
    EXPECT_GT(p4, p8);
    EXPECT_GT(p8, p16);
    // At the floor voltage, doubling tiles no longer halves power —
    // leakage starts to climb.
    unsigned best = opt.bestTiles(algo);
    auto at_best = opt.mapAlgo(algo, best);
    auto doubled = opt.mapAlgo(algo, std::min(64u, best * 2));
    if (doubled) {
        EXPECT_LE(model().loadPower(*at_best).total(),
                  model().loadPower(*doubled).total());
    }
}

TEST(Optimizer, CommunicationCreatesDiminishingReturns)
{
    // With linear comm scaling, enough tiles makes power rise again.
    Optimizer opt(model(), levels());
    AlgoLoad algo{"chatty", 960.0, 2e9, 8, 1, 64,
                  CommScaling::Linear};
    unsigned best = opt.bestTiles(algo);
    EXPECT_LT(best, 64u);
    double p_best =
        model().loadPower(*opt.mapAlgo(algo, best)).total();
    double p_64 = model().loadPower(*opt.mapAlgo(algo, 64)).total();
    EXPECT_LT(p_best, p_64);
}

TEST(Optimizer, BudgetDpMatchesExhaustive)
{
    Optimizer opt(model(), levels());
    AppWorkload app;
    app.name = "toy";
    app.sample_rate_hz = 1e6;
    app.algos = {
        {"a", 800.0, 1e8, 4, 1, 16, CommScaling::Constant},
        {"b", 1200.0, 2e8, 6, 1, 16, CommScaling::Linear},
    };
    auto best = opt.mapWithBudget(app, 12);
    ASSERT_TRUE(best.has_value());

    // Exhaustive check over all feasible splits within 12 tiles.
    double exhaustive = 1e300;
    for (unsigned na = 1; na <= 11; ++na) {
        for (unsigned nb = 1; na + nb <= 12; ++nb) {
            auto m = opt.mapWithTiles(app, {na, nb});
            if (m)
                exhaustive =
                    std::min(exhaustive, m->power.total());
        }
    }
    EXPECT_NEAR(best->power.total(), exhaustive, 1e-9);
}

TEST(Optimizer, BudgetBelowFloorIsEmpty)
{
    Optimizer opt(model(), levels());
    AppWorkload app;
    app.algos = {
        {"a", 3000.0, 0.0, 8, 1, 64, CommScaling::Constant},
        {"b", 3000.0, 0.0, 8, 1, 64, CommScaling::Constant},
    };
    // Each algorithm needs >= ceil(3000/top-frequency) tiles; a
    // 2-tile budget cannot host both.
    EXPECT_FALSE(opt.mapWithBudget(app, 2).has_value());
}

TEST(Optimizer, SingleVoltageBaselineNeverCheaper)
{
    Optimizer opt(model(), levels());
    AppWorkload app;
    app.algos = {
        {"slow", 200.0, 1e7, 4, 1, 16, CommScaling::Constant},
        {"fast", 3000.0, 1e8, 8, 1, 16, CommScaling::Constant},
    };
    auto m = opt.mapWithBudget(app, 24);
    ASSERT_TRUE(m.has_value());
    EXPECT_GE(m->single_voltage.total(), m->power.total());
    EXPECT_GE(m->savingsPercent(), 0.0);
}

// ---------------------------------------------------------------
// Comm-schedule compiler

TEST(CommSchedule, CompiledProgramMatchesReferenceTrace)
{
    // A period-12 schedule with transfers at offsets 2 and 7 and a
    // 5-cycle prologue: the compiled DOU must emit exactly the
    // reference outputs for 5 periods.
    CommSchedule sched;
    sched.period = 12;
    sched.prologue = 5;
    sched.transfers = {
        {2, 0, 0, {1}, false},
        {7, 3, 2, {3}, false},
    };
    arch::DouProgram prog = compileSchedule(sched);
    EXPECT_LE(prog.states.size(), size_t(arch::DouMaxStates));

    arch::Dou dou;
    dou.load(prog);
    for (uint64_t cycle = 0; cycle < 5 + 12 * 5; ++cycle) {
        arch::DouState want = scheduleOutputAt(sched, cycle);
        const arch::DouState &got = dou.current();
        for (unsigned t = 0; t < arch::TilesPerColumn; ++t)
            EXPECT_EQ(got.buf[t], want.buf[t])
                << "cycle " << cycle << " tile " << t;
        for (unsigned s = 0; s < arch::SegPointsPerColumn; ++s)
            EXPECT_EQ(got.seg[s], want.seg[s])
                << "cycle " << cycle << " seg " << s;
        dou.step();
    }
}

TEST(CommSchedule, LongIdleGapsUseCounters)
{
    // A sparse schedule (1 transfer per 100 cycles) must compress
    // into a handful of states, not 100.
    CommSchedule sched;
    sched.period = 100;
    sched.transfers = {{0, 0, 0, {1}, false}};
    arch::DouProgram prog = compileSchedule(sched);
    EXPECT_LE(prog.states.size(), 4u);
}

TEST(CommSchedule, ConflictsRejected)
{
    CommSchedule sched;
    sched.period = 4;
    sched.transfers = {
        {1, 0, 0, {1}, false},
        {1, 0, 2, {3}, false}, // same lane, same offset
    };
    EXPECT_THROW(compileSchedule(sched), FatalError);
}

TEST(CommSchedule, OffsetsBeyondPeriodRejected)
{
    CommSchedule sched;
    sched.period = 4;
    sched.transfers = {{4, 0, 0, {1}, false}};
    EXPECT_THROW(compileSchedule(sched), FatalError);
}

TEST(CommSchedule, SegmentsSpanExactlyTheTransfer)
{
    CommSchedule sched;
    sched.period = 1;
    sched.transfers = {{0, 4, 1, {2}, false}}; // tiles 1 -> 2, lane 4
    arch::DouState st = scheduleOutputAt(sched, 0);
    // Lane 4 lives in pair bit 2; only segment point 1 (between
    // tiles 1 and 2) closes.
    EXPECT_EQ(st.seg[0], 0u);
    EXPECT_EQ(st.seg[1], 1u << 2);
    EXPECT_EQ(st.seg[2], 0u);
    EXPECT_EQ(st.seg[3], 0u);
}

TEST(CommSchedule, EndToEndOnChip)
{
    // Compile a producer->consumer schedule and run real programs
    // under it: column 0 tile 0 sends 8 values to column 0 tile 3
    // every 6 cycles (matching the producer's 6-slot loop).
    arch::ChipConfig cfg;
    cfg.dividers = {1};
    cfg.tiles_per_column = 4;
    arch::Chip chip(cfg);

    // All tiles run the same SIMD code; only tile 0's buffer is
    // drained and only tile 3's receive matters.
    chip.column(0).controller().loadProgram(isa::assemble(R"(
        movi r1, 0
        movi r7, 0
        lsetup lc0, e, 8
        addi r7, 1
        cwr r7
        crd r0
        add r1, r1, r0
        nop
        nop
    e:
        halt
    )"));

    CommSchedule sched;
    sched.period = 6;
    // First cwr issues at cycle 4 (movi, movi, lsetup, addi, cwr):
    // transfer offset 4 mod 6.
    sched.transfers = {
        {4, 0, 0, {0, 1, 2, 3}, false}, // broadcast so every tile's
                                        // crd is satisfied
        {4, 1, 1, {}, false},           // drain the other tiles
        {4, 2, 2, {}, false},
        {4, 3, 3, {}, false},
    };
    chip.column(0).dou().load(compileSchedule(sched));

    auto res = chip.run(10'000);
    ASSERT_EQ(res.exit, arch::RunExit::AllHalted);
    // Tile 3 accumulated 1+2+..+8 = 36 via the segmented bus.
    EXPECT_EQ(chip.column(0).tile(3).reg(1), 36u);
    EXPECT_EQ(chip.fabric().stats().value("overruns"), 0u);
    EXPECT_EQ(chip.fabric().stats().value("conflicts"), 0u);
}
