/** @file The shared mapped-app harness: reject paths (empty graphs,
 * unset run budgets), golden-mismatch reporting, and a regression
 * pin that the refactored runners still produce exactly the
 * pre-refactor cycle traces. */

#include <gtest/gtest.h>

#include "apps/app_harness.hh"
#include "apps/motion_runner.hh"
#include "apps/pipeline_runner.hh"
#include "apps/stereo_runner.hh"
#include "apps/wifi_runner.hh"
#include "common/log.hh"

using namespace synchro;
using namespace synchro::apps;

TEST(AppHarness, RejectsAnEmptyGraph)
{
    mapping::SdfGraph empty;
    EXPECT_THROW(planApp(empty, {}, 1e6), FatalError);
}

TEST(AppHarness, RejectsANonPositiveRate)
{
    mapping::SdfGraph g;
    g.addActor("lonely", 10);
    EXPECT_THROW(planApp(g, {}, 0.0), FatalError);
    EXPECT_THROW(planApp(g, {}, -5.0), FatalError);
}

TEST(AppHarness, RejectsUnsetRunBudgets)
{
    // A real plan and program, but a spec that forgot the items/tick
    // budget: both must fail loudly, not misprice.
    DdcPipelineParams p;
    p.samples = 64;

    AppSpec no_items = ddcSpec(p);
    no_items.priced_items = 0;
    EXPECT_THROW(MappedApp(no_items, p.scheduler, 0), FatalError);

    AppSpec no_limit = ddcSpec(p);
    no_limit.tick_limit = [](const mapping::ChipPlan &,
                             const mapping::PipelineProgram &) {
        return Tick(0);
    };
    EXPECT_THROW(MappedApp(no_limit, p.scheduler, 0), FatalError);
}

TEST(AppHarness, DescribesGoldenMismatches)
{
    std::vector<int16_t> got = {1, 2, 3}, want = {1, 9, 3};
    EXPECT_EQ(describeMismatch("out", got, got), "");

    std::string diff = describeMismatch("out", got, want);
    EXPECT_NE(diff.find("index 1"), std::string::npos) << diff;
    EXPECT_NE(diff.find("got 2"), std::string::npos) << diff;
    EXPECT_NE(diff.find("want 9"), std::string::npos) << diff;

    std::vector<int16_t> shorter = {1, 2};
    std::string size_diff = describeMismatch("out", shorter, want);
    EXPECT_NE(size_diff.find("size mismatch"), std::string::npos)
        << size_diff;

    std::vector<uint8_t> b0 = {0, 1}, b1 = {0, 2};
    EXPECT_NE(describeMismatch("bytes", b0, b1).find("index 1"),
              std::string::npos);

    // Byte images of wider elements report element indices and the
    // signed element values.
    std::string halves = describeMismatch(
        "halves", bytesOfHalves({1, -2}), bytesOfHalves({1, -3}), 2);
    EXPECT_NE(halves.find("index 1 (got -2, want -3)"),
              std::string::npos)
        << halves;
    std::string words = describeMismatch(
        "words", bytesOfWords({-70000}), bytesOfWords({5}), 4);
    EXPECT_NE(words.find("index 0 (got -70000, want 5)"),
              std::string::npos)
        << words;
}

/**
 * The harness refactors must be pure extractions: the mapped runs
 * are deterministic, so their final tick counts and bus transfer
 * (and deferral) totals must equal the values the pre-refactor
 * runners produced at these exact parameters (DDC and 802.11a from
 * before the harness existed, stereo and motion from before the
 * AppSpec rewrite).
 * A change here means the rebuilt runners are NOT behaviorally
 * identical — investigate before touching these constants.
 */
TEST(AppHarness, RefactoredRunnersKeepPreRefactorTraces)
{
    DdcPipelineParams dp;
    dp.samples = 512;
    MappedDdcRun ddc = runMappedDdc(dp);
    EXPECT_TRUE(ddc.bit_exact);
    EXPECT_EQ(ddc.ticks, 80712u);
    EXPECT_EQ(ddc.bus_transfers, 704u);

    WifiPipelineParams wp;
    wp.symbols = 8;
    MappedWifiRun wifi = runMappedWifi(wp);
    EXPECT_TRUE(wifi.bit_exact);
    EXPECT_EQ(wifi.ticks, 462960u);
    EXPECT_EQ(wifi.bus_transfers, 1536u);

    MappedStereoRun stereo = runMappedStereo(StereoPipelineParams{});
    EXPECT_TRUE(stereo.bit_exact);
    EXPECT_EQ(stereo.ticks, 287045u);
    EXPECT_EQ(stereo.bus_transfers, 4736u);
    EXPECT_EQ(stereo.deferrals, 15358u);

    MappedMotionRun motion = runMappedMotion(MotionPipelineParams{});
    EXPECT_TRUE(motion.bit_exact);
    EXPECT_EQ(motion.ticks, 135983u);
    EXPECT_EQ(motion.bus_transfers, 12u);
    EXPECT_EQ(motion.deferrals, 0u);
}
