/** @file End-to-end mapped stereo vision: the prefilter ->
 * fork(SAD x4) -> min-SAD join DAG planned by the AutoMapper, lowered
 * by the DAG codegen, run cycle-accurately and checked bit-exactly
 * against dsp::stereoBlockDisparities — on every scheduler backend,
 * with the measured power priced against the paper's Table 4 SV row. */

#include <gtest/gtest.h>

#include "test_util.hh"

#include "apps/paper_workloads.hh"
#include "apps/stereo_runner.hh"
#include "common/rng.hh"
#include "dsp/stereo.hh"

using namespace synchro;
using namespace synchro::apps;
using namespace synchro::dsp;

namespace
{

StereoPipelineParams
smallRun(SchedulerKind kind)
{
    StereoPipelineParams p;
    p.scheduler = kind;
    return p;
}

} // namespace

TEST(StereoGolden, PrefilterMatchesHandComputedRow)
{
    Image img(4, 1);
    img(0, 0) = 10;
    img(1, 0) = 20;
    img(2, 0) = 100;
    img(3, 0) = 200;
    Image f = prefilter3(img);
    // (at(x-1) + 2 at(x) + at(x+1) + 2) >> 2, edges clamped.
    EXPECT_EQ(f(0, 0), (10 + 2 * 10 + 20 + 2) >> 2);
    EXPECT_EQ(f(1, 0), (10 + 2 * 20 + 100 + 2) >> 2);
    EXPECT_EQ(f(2, 0), (20 + 2 * 100 + 200 + 2) >> 2);
    EXPECT_EQ(f(3, 0), (100 + 2 * 200 + 200 + 2) >> 2);
}

TEST(StereoGolden, PadReplicateReadsClampedColumns)
{
    Image img(2, 2);
    img(0, 0) = 7;
    img(1, 0) = 9;
    img(0, 1) = 3;
    img(1, 1) = 5;
    Image p = padLeftReplicate(img, 3);
    ASSERT_EQ(p.width(), 5u);
    // Columns 0..3 all read the clamped first column.
    for (unsigned x = 0; x <= 3; ++x) {
        EXPECT_EQ(p(x, 0), 7);
        EXPECT_EQ(p(x, 1), 3);
    }
    EXPECT_EQ(p(4, 0), 9);
    EXPECT_EQ(p(4, 1), 5);
}

TEST(StereoGolden, UniformShiftRecoversItsDisparity)
{
    // right(x) = left(x + 6) everywhere: every interior block's best
    // disparity is 6 under the sadKey ordering.
    Image left(32, 16), right(32, 16);
    Rng rng(99);
    for (unsigned y = 0; y < 16; ++y)
        for (unsigned x = 0; x < 32; ++x)
            left(x, y) = uint8_t(rng.below(256));
    for (unsigned y = 0; y < 16; ++y)
        for (unsigned x = 0; x < 32; ++x)
            right(x, y) = left.at(int(x) + 6, int(y));
    auto disp = stereoBlockDisparities(left, right, 8, 16);
    ASSERT_EQ(disp.size(), 8u);
    // The rightmost block column folds into the clamped edge; all
    // others must recover the shift exactly.
    for (unsigned by = 0; by < 2; ++by)
        for (unsigned bx = 0; bx + 1 < 4; ++bx)
            EXPECT_EQ(disp[by * 4 + bx], 6) << "block " << bx;
}

TEST(StereoPipeline, MappedStereoMatchesGoldenOnEveryBackend)
{
    MappedStereoRun evq =
        runMappedStereo(smallRun(SchedulerKind::EventQueue));

    ASSERT_EQ(evq.output.size(), StereoBlocks);
    EXPECT_TRUE(evq.bit_exact);
    EXPECT_EQ(evq.output, evq.golden);

    // The disparity map must recover the scene's two depth bands.
    EXPECT_GE(evq.truth_hit_rate, 0.8);

    // The self-timed schedule must never destroy data; deferral (not
    // overrun) is the flow-control mechanism.
    EXPECT_EQ(evq.overruns, 0u);
    EXPECT_EQ(evq.conflicts, 0u);
    EXPECT_GT(evq.bus_transfers, 0u);

    for (SchedulerKind kind : synchro::test::AllSchedulerKinds) {
        if (kind == SchedulerKind::EventQueue)
            continue;
        MappedStereoRun run = runMappedStereo(smallRun(kind));
        const char *name = schedulerName(kind);

        // Backend equivalence: same exit, same final tick, same
        // disparity map, every statistic of the chip identical.
        EXPECT_TRUE(run.bit_exact) << name;
        EXPECT_EQ(run.output, evq.output) << name;
        EXPECT_EQ(run.result.exit, evq.result.exit) << name;
        EXPECT_EQ(run.ticks, evq.ticks) << name;
        EXPECT_EQ(run.stats, evq.stats) << name;
    }
}

TEST(StereoPipeline, CompiledSteppedItemMatchesOneBigRunAndEventQueue)
{
    // Stereo is the comm-heavy item: its columns sleep on crd/cwr
    // stalls across most bus phases. Run it in odd-sized chunks, so
    // the budget keeps cutting through sleeps, and hold it to one big
    // run and to the reference backend.
    const AppSpec spec = stereoSpec(smallRun(SchedulerKind::Compiled));
    constexpr Tick Budget = 10'000'000;

    MappedApp ref(spec, SchedulerKind::EventQueue, 0);
    ASSERT_EQ(ref.chip().run(Budget).exit, arch::RunExit::AllHalted);
    MappedApp batch(spec, SchedulerKind::Compiled, 0);
    ASSERT_EQ(batch.chip().run(Budget).exit, arch::RunExit::AllHalted);

    MappedApp stepped(spec, SchedulerKind::Compiled, 0);
    unsigned chunks = 0;
    while (!stepped.chip().allHalted() && chunks++ < Budget / 97)
        stepped.chip().run(97);
    ASSERT_TRUE(stepped.chip().allHalted());

    const auto out = spec.read_output(ref.chip(), ref.program());
    EXPECT_EQ(out, spec.golden(spec.seed));
    for (MappedApp *app : {&batch, &stepped}) {
        EXPECT_EQ(app->chip().curTick(), ref.chip().curTick());
        EXPECT_EQ(synchro::test::allStats(app->chip()),
                  synchro::test::allStats(ref.chip()));
        EXPECT_EQ(spec.read_output(app->chip(), app->program()), out);
    }
}

TEST(StereoPipeline, PlanMapsTheDagToSixColumns)
{
    StereoPipelineParams p;
    auto plan = planStereo(p);
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->placements.size(), 2u + StereoSadColumns);
    EXPECT_EQ(plan->total_columns, 2u + StereoSadColumns);
    // The paper's SV shape emerges: the serial prefilter column
    // needs the top supply while the four SAD columns idle down.
    double vmin = 10, vmax = 0;
    for (const auto &pl : plan->placements) {
        vmin = std::min(vmin, pl.v);
        vmax = std::max(vmax, pl.v);
    }
    EXPECT_LT(vmin, vmax);
    EXPECT_EQ(plan->placements[0].actor, "prefilter");
    EXPECT_EQ(plan->placements[0].divider, 1u);
    for (unsigned i = 1; i <= StereoSadColumns; ++i)
        EXPECT_GT(plan->placements[i].divider, 1u);
}

TEST(StereoPipeline, MeasuredPowerComparisonIsTable4Consistent)
{
    MappedStereoRun run =
        runMappedStereo(smallRun(SchedulerKind::FastEdge));

    // Table 4's SV row: 32% saved by multiple voltage domains (the
    // serial stage pins the single-voltage baseline at the top
    // supply while the parallel correlation farm runs far below it).
    int paper_pct = 0;
    for (const auto &row : paperAppTotals()) {
        if (row.app == "SV")
            paper_pct = row.savings_pct;
    }
    EXPECT_EQ(paper_pct, 32);
    EXPECT_GT(run.power.single_v.total(), run.power.multi_v.total());
    EXPECT_NEAR(run.power.savingsPct(), double(paper_pct), 10.0);

    for (const auto &load : run.power.loads)
        EXPECT_LE(load.v, run.power.vmax);
    EXPECT_GT(run.achieved_block_rate_hz, 0);
}
