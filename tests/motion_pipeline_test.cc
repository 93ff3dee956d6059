/** @file End-to-end mapped MPEG-4 motion estimation: two
 * macroblock-sharded SAA search columns and a best-vector join,
 * planned by the AutoMapper, lowered by the DAG codegen, run
 * cycle-accurately and checked bit-exactly against dsp::fullSearch —
 * on every scheduler backend, with the measured power priced against
 * the paper's Table 4 MPEG4-QCIF row. */

#include <cstdlib>

#include <gtest/gtest.h>

#include "test_util.hh"

#include "apps/motion_runner.hh"
#include "apps/paper_workloads.hh"

using namespace synchro;
using namespace synchro::apps;

namespace
{

MotionPipelineParams
smallRun(SchedulerKind kind)
{
    MotionPipelineParams p;
    p.scheduler = kind;
    return p;
}

} // namespace

TEST(MotionPipeline, CandidateOrderMatchesFullSearchTieBreak)
{
    auto cands = motionCandidates();
    ASSERT_EQ(cands.size(), MotionCands);
    // (0,0) first — a zero-residual macroblock must prefer the null
    // vector — then strictly non-decreasing |v|1 with (dy, dx) as
    // the within-norm order, exactly dsp::fullSearch's better().
    EXPECT_EQ(cands[0].first, 0);
    EXPECT_EQ(cands[0].second, 0);
    for (size_t i = 1; i < cands.size(); ++i) {
        int na = std::abs(cands[i - 1].first) +
                 std::abs(cands[i - 1].second);
        int nb =
            std::abs(cands[i].first) + std::abs(cands[i].second);
        bool ordered =
            na < nb ||
            (na == nb &&
             (cands[i - 1].second < cands[i].second ||
              (cands[i - 1].second == cands[i].second &&
               cands[i - 1].first < cands[i].first)));
        EXPECT_TRUE(ordered) << "candidate " << i;
    }
}

TEST(MotionPipeline, MappedSearchMatchesFullSearchOnEveryBackend)
{
    MappedMotionRun evq =
        runMappedMotion(smallRun(SchedulerKind::EventQueue));

    ASSERT_EQ(evq.output_keys.size(), MotionMbs);
    EXPECT_TRUE(evq.bit_exact);
    EXPECT_EQ(apps::bytesOfWords(evq.output_keys), evq.golden);

    // Most macroblocks must recover the true camera pan (edge
    // blocks may lock onto the clamped border instead).
    EXPECT_GE(evq.pan_hit_rate, 0.75);

    // The self-timed schedule must never destroy data.
    EXPECT_EQ(evq.overruns, 0u);
    EXPECT_EQ(evq.conflicts, 0u);
    EXPECT_GT(evq.bus_transfers, 0u);

    for (SchedulerKind kind : synchro::test::AllSchedulerKinds) {
        if (kind == SchedulerKind::EventQueue)
            continue;
        MappedMotionRun run = runMappedMotion(smallRun(kind));
        const char *name = schedulerName(kind);

        // Backend equivalence: same exit, same final tick, same
        // motion vectors, every statistic of the chip identical.
        EXPECT_TRUE(run.bit_exact) << name;
        EXPECT_EQ(run.output_keys, evq.output_keys) << name;
        EXPECT_EQ(run.result.exit, evq.result.exit) << name;
        EXPECT_EQ(run.ticks, evq.ticks) << name;
        EXPECT_EQ(run.stats, evq.stats) << name;
    }
}

TEST(MotionPipeline, PlanMapsTheDagToThreeColumns)
{
    MotionPipelineParams p;
    auto plan = planMotion(p);
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->placements.size(), 3u);
    EXPECT_EQ(plan->total_columns, 3u);
    // The two search shards are symmetric — same divider, same
    // voltage — which is exactly why Table 4 reports ~no multi-V
    // win for this workload.
    EXPECT_EQ(plan->placements[0].divider,
              plan->placements[1].divider);
    EXPECT_EQ(plan->placements[0].v, plan->placements[1].v);
    EXPECT_LE(plan->placements[2].v, plan->placements[0].v);
}

TEST(MotionPipeline, ShardWidthVariantsStayBitExact)
{
    // The kernel generator regenerates the whole DAG for any farm
    // width that divides the macroblock count: the serial 1-column
    // search and the 4-wide farm must reproduce dsp::fullSearch bit
    // for bit on both backends, like the paper-shaped 2-wide does.
    for (unsigned cols : {1u, 4u}) {
        for (auto kind :
             {SchedulerKind::FastEdge, SchedulerKind::EventQueue}) {
            MotionPipelineParams p = smallRun(kind);
            p.columns = cols;
            // A single serial column cannot sustain the default
            // rate (its demand exceeds the 600 MHz reference), so
            // map it at a rate one column can carry.
            if (cols == 1)
                p.mb_rate_hz = 20000;
            MappedMotionRun run = runMappedMotion(p);
            EXPECT_TRUE(run.bit_exact)
                << cols << " columns on " << schedulerName(kind);
            EXPECT_EQ(run.overruns, 0u);
            EXPECT_EQ(run.conflicts, 0u);
        }
    }

    // Unsupported widths are rejected up front.
    MotionPipelineParams bad;
    bad.columns = 5; // does not divide 12 macroblocks
    EXPECT_THROW(runMappedMotion(bad), FatalError);
}

TEST(MotionPipeline, MeasuredPowerComparisonIsTable4Consistent)
{
    MappedMotionRun run =
        runMappedMotion(smallRun(SchedulerKind::FastEdge));

    // Table 4's MPEG4-QCIF row: 0% saved — the symmetric search
    // columns dominate at the top supply in both pricings.
    int paper_pct = -1;
    for (const auto &row : paperAppTotals()) {
        if (row.app == "MPEG4-QCIF")
            paper_pct = row.savings_pct;
    }
    EXPECT_EQ(paper_pct, 0);
    EXPECT_GE(run.power.single_v.total(), run.power.multi_v.total());
    EXPECT_NEAR(run.power.savingsPct(), double(paper_pct), 10.0);

    for (const auto &load : run.power.loads)
        EXPECT_LE(load.v, run.power.vmax);
    EXPECT_GT(run.achieved_mb_rate_hz, 0);
}
