/** @file The shared mapped-app harness: reject paths (empty graphs,
 * unset run budgets), golden-mismatch reporting, the serving feed
 * against a fresh build of each item, the seeded-draw cache, and a
 * regression pin that the refactored runners still produce exactly
 * the pre-refactor cycle traces. */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "apps/app_harness.hh"
#include "apps/app_registry.hh"
#include "apps/motion_runner.hh"
#include "apps/pipeline_runner.hh"
#include "apps/stereo_runner.hh"
#include "apps/wifi_runner.hh"
#include "common/log.hh"
#include "test_util.hh"

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

namespace
{

/** Every tile's whole SRAM, column by column. */
std::vector<uint8_t>
allSram(const arch::Chip &chip)
{
    std::vector<uint8_t> out;
    for (unsigned c = 0; c < chip.numColumns(); ++c) {
        for (unsigned t = 0; t < chip.column(c).numTiles(); ++t) {
            std::vector<uint8_t> mem(arch::Tile::MemBytes);
            chip.column(c).tile(t).readMem(0, mem.data(),
                                           arch::Tile::MemBytes);
            out.insert(out.end(), mem.begin(), mem.end());
        }
    }
    return out;
}

} // namespace

TEST(AppHarness, FeedOnACloneEqualsAFreshBuildOfTheItem)
{
    // The serving path's claim: a clone of the committed template,
    // fed item k (constant images cached at setup plus item k's
    // inputs), is the chip a fresh lowering of item k's whole DAG
    // would build — SRAM and registers before the run; ticks,
    // statistics, outputs and SRAM after it.
    DdcPipelineParams dp;
    dp.samples = 64;
    WifiPipelineParams wp;
    wp.symbols = 2;
    const AppRegistry &reg = AppRegistry::instance();
    const std::vector<AppSpec> specs = {
        reg.at("ddc").spec(dp), reg.at("wifi").spec(wp),
        reg.at("stereo").spec({}), reg.at("motion").spec({})};

    for (const AppSpec &spec : specs) {
        sim::FleetWorkload wl = fleetWorkload(spec);
        auto tmpl = wl.build(defaultSchedulerKind());
        // Item 0 again after item 2 checks that a live chip's refeed
        // leaves no residue of the previous item.
        auto live = tmpl->clone();
        for (uint64_t item : {0, 1, 2, 0, 5}) {
            SCOPED_TRACE(spec.name + " item " + std::to_string(item));
            mapping::PipelineProgram prog = mapping::lowerDag(
                appDag(spec, sim::fleetItemSeed(spec.seed, item),
                       spec.plan),
                spec.plan, spec.iterations_per_sec, spec.slack);
            auto fresh = mapping::buildChip(spec.plan, prog,
                                            defaultSchedulerKind());
            auto clone = tmpl->clone();
            for (arch::Chip *fed : {clone.get(), live.get()}) {
                wl.feed(*fed, item);
                EXPECT_EQ(allSram(*fed), allSram(*fresh));
                EXPECT_EQ(test::allRegs(*fed), test::allRegs(*fresh));
            }

            const arch::RunResult rf = fresh->run(wl.tick_limit);
            const arch::RunResult rc = clone->run(wl.tick_limit);
            EXPECT_EQ(int(rf.exit), int(arch::RunExit::AllHalted));
            EXPECT_EQ(int(rc.exit), int(rf.exit));
            EXPECT_EQ(rc.ticks, rf.ticks);
            EXPECT_EQ(test::allStats(*clone), test::allStats(*fresh));
            EXPECT_EQ(wl.read_output(*clone), wl.read_output(*fresh));
            EXPECT_EQ(wl.read_output(*fresh), wl.golden(item));
            EXPECT_EQ(allSram(*clone), allSram(*fresh));
            EXPECT_EQ(test::allRegs(*clone), test::allRegs(*fresh));

            EXPECT_EQ(live->run(wl.tick_limit).ticks, rf.ticks);
            EXPECT_EQ(wl.read_output(*live), wl.read_output(*fresh));
        }
    }
}

TEST(DrawCached, ReusesTheOwnSeedAndTheLatestDraws)
{
    // A golden after its feed reuses the feed's draw; the own seed
    // stays; anything older than RecentDraws other seeds is drawn
    // again, so the memory stays bounded.
    std::atomic<unsigned> draws{0};
    auto draw = drawCached(7, [&draws](uint32_t seed) {
        ++draws;
        return std::vector<uint32_t>(4, seed * 3);
    });
    EXPECT_EQ(draws, 1u);
    EXPECT_EQ(*draw(7), std::vector<uint32_t>(4, 21));
    const auto first = draw(100);
    EXPECT_EQ(draw(100), first);
    EXPECT_EQ(draws, 2u);
    for (uint32_t s = 0; s < RecentDraws; ++s)
        draw(200 + s);
    EXPECT_EQ(draws, 2u + RecentDraws);
    EXPECT_EQ(*draw(100), *first);
    EXPECT_EQ(draws, 3u + RecentDraws);
    EXPECT_EQ(*draw(7), std::vector<uint32_t>(4, 21));
    EXPECT_EQ(draws, 3u + RecentDraws);

    // A second cache of the same draw shares nothing with the first.
    auto other = drawCached(7, [](uint32_t seed) {
        return std::vector<uint32_t>(4, seed * 5);
    });
    EXPECT_EQ(*other(100), std::vector<uint32_t>(4, 500));
    EXPECT_EQ(*draw(100), std::vector<uint32_t>(4, 300));
}

TEST(DrawCached, ConcurrentWorkersGetTheirOwnSeedsDraw)
{
    // Fleet workers feed and check items of one spec at once: each
    // call returns its own seed's draw, whichever worker filled the
    // entry or pushed it out.
    auto draw = drawCached(0, [](uint32_t seed) {
        return std::vector<uint32_t>(64, seed ^ 0x5a5a);
    });
    std::atomic<unsigned> wrong{0};
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < 4; ++t) {
        pool.emplace_back([&, t] {
            for (uint32_t i = 0; i < 400; ++i) {
                const uint32_t seed = (i * 7 + t) % 23;
                auto in = draw(seed);
                auto again = draw(seed);
                if (*in != std::vector<uint32_t>(64, seed ^ 0x5a5a) ||
                    *again != *in)
                    ++wrong;
            }
        });
    }
    for (auto &th : pool)
        th.join();
    EXPECT_EQ(wrong, 0u);
}
