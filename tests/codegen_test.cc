/** @file Pipeline code generation: lowering linear actor chains and
 * fork/join DAGs onto planned columns and running them bit-exactly
 * against the SDF reference firing order. */

#include <gtest/gtest.h>

#include "arch/chip.hh"
#include "common/log.hh"
#include "mapping/codegen.hh"
#include "sim/scheduler.hh"

using namespace synchro;
using namespace synchro::mapping;

namespace
{

/** A hand-built plan: one actor per column with the given dividers
 * and ZORM settings (what AutoMapper would emit, minus the search). */
ChipPlan
makePlan(const std::vector<std::string> &actors,
         const std::vector<unsigned> &dividers,
         const std::vector<ZormSetting> &zorm)
{
    ChipPlan plan;
    plan.ref_freq_mhz = 600.0;
    for (size_t i = 0; i < actors.size(); ++i) {
        ActorPlacement p;
        p.actor = actors[i];
        p.tiles = 1;
        p.first_column = unsigned(i);
        p.columns = 1;
        p.divider = dividers[i];
        p.f_column_mhz = plan.ref_freq_mhz / dividers[i];
        p.zorm = zorm[i];
        plan.placements.push_back(p);
        ++plan.total_tiles;
    }
    plan.total_columns = unsigned(actors.size());
    return plan;
}

constexpr uint32_t OutBase = 0x1000;

/**
 * Two-actor pipeline: a source streams the sequence n*3 + 1 and the
 * sink keeps a running sum it stores to SRAM — small enough that the
 * SDF reference (fire the source, then the sink, once per iteration)
 * is a five-line loop in C++.
 */
std::vector<PipelineStage>
twoActorStages(unsigned firings)
{
    PipelineStage src;
    src.actor = "source";
    src.prologue = "        movi r1, 0\n";
    src.body = R"(
        addi r1, 3
        mov r7, r1
        addi r7, -2
        cwr r7
    )";
    src.firings = firings;
    src.writes_per_firing = 1;

    PipelineStage sink;
    sink.actor = "sink";
    sink.prologue = strprintf("        movi r2, 0\n"
                              "        movpi p0, %u\n",
                              OutBase);
    sink.body = R"(
        crd r0
        add r2, r2, r0
        st.w r2, [p0]+4
    )";
    sink.firings = firings;
    sink.reads_per_firing = 1;
    return {src, sink};
}

/** The SDF reference: source then sink, in firing order. */
std::vector<int32_t>
twoActorReference(unsigned firings)
{
    std::vector<int32_t> out;
    int32_t v = 0, sum = 0;
    for (unsigned n = 0; n < firings; ++n) {
        v += 3;           // source firing n
        sum += v - 2;     // sink firing n
        out.push_back(sum);
    }
    return out;
}

} // namespace

TEST(Codegen, TwoActorPipelineBitExactOnBothBackends)
{
    const unsigned firings = 200;
    // The sink column is ZORM-throttled to 3 useful slots in 4 — the
    // generated pipeline must still deliver every token in order.
    ChipPlan plan = makePlan({"source", "sink"}, {2, 3},
                             {ZormSetting{}, ZormSetting{1, 4}});
    auto prog = lowerDag(linearDagSpec(twoActorStages(firings)), plan,
                         /*iterations_per_sec=*/20e6);
    ASSERT_EQ(prog.columns.size(), 2u);
    EXPECT_EQ(prog.columns[0].column, 0u);
    EXPECT_EQ(prog.columns[1].column, 1u);

    std::vector<int32_t> expect = twoActorReference(firings);

    for (auto kind :
         {SchedulerKind::FastEdge, SchedulerKind::EventQueue}) {
        auto built = buildChip(plan, prog, kind);
        arch::Chip &chip = *built;

        auto res = chip.run(10'000'000);
        ASSERT_EQ(res.exit, arch::RunExit::AllHalted)
            << schedulerName(kind);
        auto got = chip.column(1).tile(0).readMemWords(OutBase,
                                                       firings);
        EXPECT_EQ(got, expect) << schedulerName(kind);
        // The static schedule must never destroy data.
        EXPECT_EQ(chip.fabric().stats().value("overruns"), 0u)
            << schedulerName(kind);
        EXPECT_EQ(chip.fabric().stats().value("conflicts"), 0u)
            << schedulerName(kind);
        EXPECT_EQ(chip.fabric().transfers(), firings);
        // The ZORM throttle was actually applied to the sink column.
        EXPECT_GT(
            chip.column(1).controller().stats().value("zormNops"),
            0u);
    }
}

TEST(Codegen, MultiRateChainDecimatesCorrectly)
{
    // source fires 4x per iteration, the decimator consumes 4 tokens
    // per firing and forwards their sum: a rate change like the DDC's
    // CIC, checked against the same C++ reference.
    const unsigned iters = 64;
    PipelineStage src;
    src.actor = "source";
    src.prologue = "        movi r1, 0\n";
    src.body = R"(
        addi r1, 1
        mov r7, r1
        cwr r7
    )";
    src.firings = iters * 4;
    src.per_iteration = 4;
    src.writes_per_firing = 1;

    PipelineStage dec;
    dec.actor = "decim";
    dec.prologue = strprintf("        movpi p0, %u\n", OutBase);
    dec.body = R"(
        movi r2, 0
        lsetup lc1, __acc, 4
        crd r0
        add r2, r2, r0
    __acc:
        st.w r2, [p0]+4
    )";
    dec.firings = iters;
    dec.reads_per_firing = 4;

    ChipPlan plan = makePlan({"source", "decim"}, {1, 4},
                             {ZormSetting{}, ZormSetting{}});
    auto prog = lowerDag(linearDagSpec({src, dec}), plan,
                         /*iterations_per_sec=*/5e6);

    auto built = buildChip(plan, prog, defaultSchedulerKind());
    arch::Chip &chip = *built;
    auto res = chip.run(10'000'000);
    ASSERT_EQ(res.exit, arch::RunExit::AllHalted);

    std::vector<int32_t> expect;
    int32_t v = 0;
    for (unsigned n = 0; n < iters; ++n) {
        int32_t sum = 0;
        for (unsigned k = 0; k < 4; ++k)
            sum += ++v;
        expect.push_back(sum);
    }
    EXPECT_EQ(chip.column(1).tile(0).readMemWords(OutBase, iters),
              expect);
    EXPECT_EQ(chip.fabric().stats().value("overruns"), 0u);
}

namespace
{

/**
 * Diamond fork/join DAG on the self-timed bus:
 *
 *   source -+-> double -+-> merge
 *           +-> triple -+
 *
 * The source streams n+1 and forks each value to both workers on
 * separate lanes; the join reads doubled then tripled per firing and
 * stores their sum — so word k of the output must be 5*(k+1), easy
 * to check without modelling any timing.
 */
DagSpec
diamondSpec(unsigned firings)
{
    DagStage src;
    src.actor = "source";
    src.prologue = "        movi r1, 0\n";
    src.body = R"(
        addi r1, 1
        cwr r1, 0
        cwr r1, 1
    )";
    src.firings = firings;

    DagStage dbl;
    dbl.actor = "double";
    dbl.body = R"(
        crd r0, 0
        add r0, r0, r0
        cwr r0, 2
    )";
    dbl.firings = firings;

    DagStage tpl;
    tpl.actor = "triple";
    tpl.body = R"(
        crd r0, 1
        add r2, r0, r0
        add r0, r2, r0
        cwr r0, 3
    )";
    tpl.firings = firings;

    DagStage merge;
    merge.actor = "merge";
    merge.prologue = strprintf("        movpi p0, %u\n", OutBase);
    merge.body = R"(
        crd r0, 2
        crd r1, 3
        add r0, r0, r1
        st.w r0, [p0]+4
    )";
    merge.firings = firings;

    DagSpec spec;
    spec.stages = {src, dbl, tpl, merge};
    spec.edges = {
        {"source", "double", 1, 1},
        {"source", "triple", 1, 1},
        {"double", "merge", 1, 1},
        {"triple", "merge", 1, 1},
    };
    return spec;
}

} // namespace

TEST(Codegen, ForkJoinDiamondBitExactOnBothBackends)
{
    const unsigned firings = 150;
    // Mismatched dividers plus a ZORM throttle on one fork leg: the
    // self-timed delivery must still bind every token to its edge.
    ChipPlan plan =
        makePlan({"source", "double", "triple", "merge"},
                 {2, 1, 3, 2},
                 {ZormSetting{}, ZormSetting{}, ZormSetting{1, 5},
                  ZormSetting{}});
    auto prog = lowerDag(diamondSpec(firings), plan,
                         /*iterations_per_sec=*/10e6);
    ASSERT_EQ(prog.columns.size(), 4u);
    ASSERT_EQ(prog.lanes.size(), 4u);

    std::vector<int32_t> expect;
    for (unsigned n = 1; n <= firings; ++n)
        expect.push_back(int32_t(5 * n));

    for (auto kind :
         {SchedulerKind::FastEdge, SchedulerKind::EventQueue}) {
        auto built = buildChip(plan, prog, kind);
        arch::Chip &chip = *built;

        auto res = chip.run(10'000'000);
        ASSERT_EQ(res.exit, arch::RunExit::AllHalted)
            << schedulerName(kind);
        auto got = chip.column(3).tile(0).readMemWords(OutBase,
                                                       firings);
        EXPECT_EQ(got, expect) << schedulerName(kind);
        // Deferral, not data loss, is the flow-control mechanism.
        EXPECT_EQ(chip.fabric().stats().value("overruns"), 0u)
            << schedulerName(kind);
        EXPECT_EQ(chip.fabric().stats().value("conflicts"), 0u)
            << schedulerName(kind);
        // Every token crossed the bus exactly once: two fork copies
        // and two join inputs per firing.
        EXPECT_EQ(chip.fabric().transfers(), 4u * firings);
    }
}

TEST(Codegen, RejectsBadDags)
{
    ChipPlan plan =
        makePlan({"source", "double", "triple", "merge"},
                 {1, 1, 1, 1},
                 {ZormSetting{}, ZormSetting{}, ZormSetting{},
                  ZormSetting{}});
    DagSpec good = diamondSpec(16);
    // The baseline spec itself must lower.
    lowerDag(good, plan, 1e6);

    {
        // Cyclic graph: feed the merge output back into the source.
        DagSpec bad = good;
        bad.edges.push_back({"merge", "source", 1, 1});
        bad.stages[0].body += "        crd r2, 4\n";
        EXPECT_THROW(lowerDag(bad, plan, 1e6), FatalError);
    }
    {
        // Self-loop is the smallest cycle.
        DagSpec bad = good;
        bad.edges.push_back({"double", "double", 1, 1});
        EXPECT_THROW(lowerDag(bad, plan, 1e6), FatalError);
    }
    {
        // Fan-out exceeding the 8 bus lanes.
        DagSpec bad = good;
        for (unsigned e = 0; e < 6; ++e)
            bad.edges.push_back({"source", "merge", 1, 1});
        EXPECT_THROW(lowerDag(bad, plan, 1e6), FatalError);
    }
    {
        // Join with mismatched rates: merge consumes two words per
        // firing on a lane the producer feeds with one.
        DagSpec bad = good;
        bad.edges[3].dst_words_per_firing = 2;
        EXPECT_THROW(lowerDag(bad, plan, 1e6), FatalError);
    }
    {
        // Unknown actor in an edge.
        DagSpec bad = good;
        bad.edges[0].dst = "nobody";
        EXPECT_THROW(lowerDag(bad, plan, 1e6), FatalError);
    }
    {
        // Disconnected stage: drop both of triple's edges.
        DagSpec bad = good;
        bad.edges.erase(bad.edges.begin() + 3);
        bad.edges.erase(bad.edges.begin() + 1);
        EXPECT_THROW(lowerDag(bad, plan, 1e6), FatalError);
    }
    {
        // An edge that carries no data.
        DagSpec bad = good;
        bad.edges[1].src_words_per_firing = 0;
        bad.edges[1].dst_words_per_firing = 0;
        EXPECT_THROW(lowerDag(bad, plan, 1e6), FatalError);
    }
}

TEST(Codegen, RejectsInconsistentPipelines)
{
    ChipPlan plan = makePlan({"source", "sink"}, {1, 1},
                             {ZormSetting{}, ZormSetting{}});
    auto stages = twoActorStages(16);

    {
        auto bad = stages;
        bad[1].actor = "nobody";
        EXPECT_THROW(lowerDag(linearDagSpec(bad), plan, 1e6), FatalError);
    }
    {
        auto bad = stages;
        bad[1].reads_per_firing = 2; // token-rate imbalance
        EXPECT_THROW(lowerDag(linearDagSpec(bad), plan, 1e6), FatalError);
    }
    {
        auto bad = stages;
        bad[1].firings = 8; // different iteration count
        EXPECT_THROW(lowerDag(linearDagSpec(bad), plan, 1e6), FatalError);
    }
    {
        auto bad = stages;
        bad[0].firings = bad[1].firings = 5000; // beyond lsetup
        EXPECT_THROW(lowerDag(linearDagSpec(bad), plan, 1e6), FatalError);
    }
    {
        auto bad = stages;
        bad[0].per_iteration = 0; // would divide by zero
        EXPECT_THROW(lowerDag(linearDagSpec(bad), plan, 1e6), FatalError);
    }
    {
        // Plans that provisioned parallel columns are rejected: the
        // kernels are sequential single-column programs.
        ChipPlan wide = plan;
        wide.placements[0].columns = 2;
        EXPECT_THROW(lowerDag(linearDagSpec(stages), wide, 1e6), FatalError);
    }
}
