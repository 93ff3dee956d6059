/** @file Design-space explorer: variant enumeration feasibility,
 * measured Pareto frontiers over fleet-served candidate batches,
 * optimizer agreement, determinism across pool widths, candidates
 * that lower but then fail, and an EventQueue cross-check that
 * diverges. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/app_registry.hh"
#include "apps/motion_runner.hh"
#include "apps/pipeline_runner.hh"
#include "common/log.hh"
#include "mapping/explorer.hh"

using namespace synchro;
using namespace synchro::mapping;

namespace
{

/** A small, fast DDC instance for exploration tests. */
apps::DdcPipelineParams
smallDdc()
{
    apps::DdcPipelineParams p;
    p.samples = 512;
    return p;
}

ExploreOptions
quickOptions()
{
    ExploreOptions opt;
    opt.rate_factors = {0.8, 1.2};
    opt.divider_steps = 1;
    return opt;
}

/**
 * The dividers of a measured, off-frontier, non-baseline point of
 * @p res that no other point shares — a candidate a test can pick out
 * by its chip's clocks and break without moving the frontier.
 */
std::vector<unsigned>
offFrontierVictim(const ExplorationResult &res, std::string &label)
{
    for (size_t i = 0; i < res.points.size(); ++i) {
        const MeasuredPoint &pt = res.points[i];
        if (i == res.baseline_index || !pt.ran || pt.on_frontier)
            continue;
        const std::vector<unsigned> d = pt.plan.dividers();
        if (std::count_if(res.points.begin(), res.points.end(),
                          [&d](const MeasuredPoint &o) {
                              return o.plan.dividers() == d;
                          }) == 1) {
            label = pt.label;
            return d;
        }
    }
    ADD_FAILURE() << "no off-frontier point with unique dividers";
    return {};
}

/** Everything but @p skip matches between two explorations. */
void
expectSamePointsExcept(const ExplorationResult &a,
                       const ExplorationResult &b,
                       const std::string &skip)
{
    ASSERT_EQ(a.points.size(), b.points.size());
    for (size_t i = 0; i < a.points.size(); ++i) {
        const MeasuredPoint &pa = a.points[i];
        const MeasuredPoint &pb = b.points[i];
        EXPECT_EQ(pa.label, pb.label);
        if (pa.label == skip)
            continue;
        EXPECT_EQ(pa.ran, pb.ran) << pa.label;
        EXPECT_EQ(pa.failure, pb.failure) << pa.label;
        EXPECT_EQ(pa.bit_exact, pb.bit_exact) << pa.label;
        EXPECT_EQ(pa.crosschecked, pb.crosschecked) << pa.label;
        EXPECT_EQ(pa.ticks, pb.ticks) << pa.label;
        EXPECT_EQ(pa.deferrals, pb.deferrals) << pa.label;
        EXPECT_DOUBLE_EQ(pa.total_mw, pb.total_mw) << pa.label;
        EXPECT_EQ(pa.on_frontier, pb.on_frontier) << pa.label;
    }
    EXPECT_EQ(a.frontier, b.frontier);
    EXPECT_DOUBLE_EQ(a.baseline_gap_pct, b.baseline_gap_pct);
    EXPECT_EQ(a.agreement, b.agreement);
}

} // namespace

TEST(Explorer, EnumeratesFeasibleVariantsAroundBaseline)
{
    auto app =
        apps::AppRegistry::instance().at("ddc").explorable(
            smallDdc());
    power::VfModel vf;
    power::SupplyLevels levels(vf);
    auto variants = enumeratePlanVariants(
        app.baseline, app.iterations_per_sec, levels, {});

    ASSERT_FALSE(variants.empty());
    EXPECT_EQ(variants[0].label, "baseline");
    EXPECT_EQ(variants[0].plan.placements.size(),
              app.baseline.placements.size());

    // More than the baseline alone, and every variant feasible by
    // construction: the divided clock covers the demand and the
    // ZORM's useful fraction closes the gap exactly.
    EXPECT_GT(variants.size(), 1u);
    for (const auto &v : variants) {
        EXPECT_GT(v.iterations_per_sec, 0.0) << v.label;
        for (const auto &p : v.plan.placements) {
            EXPECT_GE(p.f_column_mhz + 1e-9, p.f_needed_mhz)
                << v.label << " " << p.actor;
            EXPECT_GT(p.v, 0.0) << v.label << " " << p.actor;
            EXPECT_NEAR(p.f_column_mhz * p.zorm.usefulFraction(),
                        p.f_needed_mhz, 1e-3)
                << v.label << " " << p.actor;
            EXPECT_DOUBLE_EQ(p.f_column_mhz,
                             v.plan.ref_freq_mhz / p.divider)
                << v.label << " " << p.actor;
        }
    }
}

TEST(Explorer, DividerVariantsRaiseOnePlacementsClock)
{
    auto app =
        apps::AppRegistry::instance().at("ddc").explorable(
            smallDdc());
    power::VfModel vf;
    power::SupplyLevels levels(vf);
    ExploreOptions opt;
    opt.rate_factors = {}; // divider axis only
    opt.divider_steps = 2;
    auto variants = enumeratePlanVariants(
        app.baseline, app.iterations_per_sec, levels, opt);

    ASSERT_GT(variants.size(), 1u);
    for (size_t i = 1; i < variants.size(); ++i) {
        const auto &v = variants[i];
        unsigned changed = 0;
        for (size_t j = 0; j < v.plan.placements.size(); ++j) {
            const auto &vp = v.plan.placements[j];
            const auto &bp = app.baseline.placements[j];
            EXPECT_DOUBLE_EQ(vp.f_needed_mhz, bp.f_needed_mhz)
                << v.label;
            if (vp.divider != bp.divider) {
                ++changed;
                EXPECT_LT(vp.divider, bp.divider) << v.label;
                EXPECT_GE(vp.v, bp.v) << v.label;
            }
        }
        EXPECT_EQ(changed, 1u) << v.label;
    }
}

TEST(Explorer, MeasuredFrontierIsBitExactAndAgrees)
{
    auto res = explorePlans(
        apps::AppRegistry::instance().at("ddc").explorable(
            smallDdc()),
        quickOptions());

    EXPECT_EQ(res.app, "ddc");
    ASSERT_FALSE(res.points.empty());
    ASSERT_FALSE(res.frontier.empty());
    EXPECT_TRUE(res.all_bit_exact);
    EXPECT_TRUE(res.agreement);
    EXPECT_LE(res.baseline_gap_pct, 10.0);

    // Every measured point matched its golden; every frontier point
    // survived the EventQueue cross-check.
    for (const auto &pt : res.points) {
        if (pt.ran) {
            EXPECT_TRUE(pt.bit_exact) << pt.label << ": "
                                      << pt.failure;
        }
        if (pt.on_frontier) {
            EXPECT_TRUE(pt.crosschecked) << pt.label;
        }
    }

    // The frontier is a proper Pareto set: ascending achieved rate,
    // ascending power, and nothing dominated inside it.
    for (size_t k = 1; k < res.frontier.size(); ++k) {
        const auto &lo = res.points[res.frontier[k - 1]];
        const auto &hi = res.points[res.frontier[k]];
        EXPECT_LT(lo.achieved_items_per_sec,
                  hi.achieved_items_per_sec);
        EXPECT_LT(lo.total_mw, hi.total_mw);
    }

    // The baseline is the first point and measurable.
    const auto &base = res.points[res.baseline_index];
    EXPECT_EQ(base.label, "baseline");
    EXPECT_TRUE(base.ran);
    EXPECT_GT(base.total_mw, 0.0);

    // No point with at least the baseline's rate undercuts it by
    // more than the agreement gap reports.
    for (size_t i : res.frontier) {
        const auto &pt = res.points[i];
        if (pt.achieved_items_per_sec >=
            base.achieved_items_per_sec) {
            EXPECT_GE(pt.total_mw * (1 + res.baseline_gap_pct / 100 +
                                     1e-9),
                      base.total_mw);
        }
    }
}

TEST(Explorer, DeterministicAcrossPoolWidths)
{
    ExploreOptions serial = quickOptions();
    serial.threads = 1;
    ExploreOptions parallel = quickOptions();
    parallel.threads = 4;

    const apps::AppDescriptor &ddc =
        apps::AppRegistry::instance().at("ddc");
    auto a = explorePlans(ddc.explorable(smallDdc()), serial);
    auto b = explorePlans(ddc.explorable(smallDdc()), parallel);

    ASSERT_EQ(a.points.size(), b.points.size());
    for (size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_EQ(a.points[i].label, b.points[i].label);
        EXPECT_EQ(a.points[i].ticks, b.points[i].ticks) << i;
        EXPECT_EQ(a.points[i].on_frontier, b.points[i].on_frontier)
            << i;
        EXPECT_DOUBLE_EQ(a.points[i].total_mw, b.points[i].total_mw)
            << i;
    }
    EXPECT_EQ(a.frontier, b.frontier);
    EXPECT_DOUBLE_EQ(a.baseline_gap_pct, b.baseline_gap_pct);
}

TEST(Explorer, MotionShardVariantsWidenTheSearch)
{
    apps::MotionPipelineParams p;
    auto app =
        apps::AppRegistry::instance().at("motion").explorable(p);

    // The runner offers the other feasible farm widths as variants.
    ASSERT_FALSE(app.shard_variants.empty());
    for (const auto &sv : app.shard_variants) {
        unsigned me = 0;
        for (const auto &pl : sv.plan.placements)
            me += pl.actor.rfind("me-", 0) == 0;
        EXPECT_NE(me, p.columns) << sv.label;
        EXPECT_GT(me, 0u) << sv.label;
        EXPECT_NEAR(sv.iterations_per_sec * me, p.mb_rate_hz, 1e-6)
            << sv.label;
    }

    ExploreOptions opt;
    opt.rate_factors = {};
    opt.divider_steps = 0;
    auto res = explorePlans(app, opt);
    EXPECT_TRUE(res.all_bit_exact);
    EXPECT_TRUE(res.agreement);

    // At least one shard variant must have measured successfully.
    unsigned measured_shards = 0;
    for (const auto &pt : res.points) {
        if (pt.label.rfind("shards=", 0) == 0 && pt.ran)
            ++measured_shards;
    }
    EXPECT_GT(measured_shards, 0u);
}

TEST(Explorer, StarvedCandidateFailsAloneOffTheFrontier)
{
    const apps::AppDescriptor &ddc =
        apps::AppRegistry::instance().at("ddc");
    const ExplorationResult clean =
        explorePlans(ddc.explorable(smallDdc()), quickOptions());
    std::string victim;
    const std::vector<unsigned> dividers =
        offFrontierVictim(clean, victim);
    ASSERT_FALSE(dividers.empty());

    // One candidate's budget is far too short to drain.
    ExplorableApp app = ddc.explorable(smallDdc());
    app.tick_limit = [inner = app.tick_limit, dividers](
                         const ChipPlan &plan,
                         const PipelineProgram &prog) {
        return plan.dividers() == dividers ? Tick(100)
                                           : inner(plan, prog);
    };
    const ExplorationResult res = explorePlans(app, quickOptions());

    for (const MeasuredPoint &pt : res.points) {
        if (pt.label != victim)
            continue;
        EXPECT_FALSE(pt.ran);
        EXPECT_EQ(pt.failure, "tick budget exhausted");
        EXPECT_FALSE(pt.on_frontier);
    }
    expectSamePointsExcept(clean, res, victim);
    EXPECT_TRUE(res.all_bit_exact);
}

TEST(Explorer, ThrowingVerifyIsRecordedOnItsPoint)
{
    const apps::AppDescriptor &ddc =
        apps::AppRegistry::instance().at("ddc");
    const ExplorationResult clean =
        explorePlans(ddc.explorable(smallDdc()), quickOptions());
    std::string victim;
    const std::vector<unsigned> dividers =
        offFrontierVictim(clean, victim);
    ASSERT_FALSE(dividers.empty());

    // The verify hook runs on the fleet worker that ran the point; a
    // throw there becomes that point's failure, not the caller's.
    ExplorableApp app = ddc.explorable(smallDdc());
    app.verify = [inner = app.verify, dividers](
                     arch::Chip &chip, const PipelineProgram &prog) {
        if (chip.config().dividers == dividers)
            throw std::runtime_error("verify hook failed");
        return inner(chip, prog);
    };
    const ExplorationResult res = explorePlans(app, quickOptions());

    for (const MeasuredPoint &pt : res.points) {
        if (pt.label != victim)
            continue;
        EXPECT_TRUE(pt.ran); // it drained; its output went unchecked
        EXPECT_FALSE(pt.bit_exact);
        EXPECT_FALSE(pt.on_frontier);
        EXPECT_NE(pt.failure.find("verify hook failed"),
                  std::string::npos)
            << pt.failure;
    }
    expectSamePointsExcept(clean, res, victim);
    EXPECT_FALSE(res.all_bit_exact);
}

TEST(Explorer, CrossCheckDivergenceFailsThePoint)
{
    // Measure on Compiled whatever $SYNCHRO_SCHEDULER says, so the
    // mismatch below reaches the EventQueue cross-check runs only.
    ExploreOptions opt = quickOptions();
    opt.scheduler = SchedulerKind::Compiled;
    const apps::AppDescriptor &ddc =
        apps::AppRegistry::instance().at("ddc");
    const ExplorationResult clean =
        explorePlans(ddc.explorable(smallDdc()), opt);
    ASSERT_TRUE(clean.all_bit_exact);

    ExplorableApp app = ddc.explorable(smallDdc());
    app.verify = [inner = app.verify](arch::Chip &chip,
                                      const PipelineProgram &prog) {
        if (chip.schedulerKind() == SchedulerKind::EventQueue)
            return std::string("diverged on EventQueue");
        return inner(chip, prog);
    };
    const ExplorationResult res = explorePlans(app, opt);

    EXPECT_FALSE(res.all_bit_exact);
    EXPECT_EQ(res.frontier, clean.frontier);
    ASSERT_EQ(res.points.size(), clean.points.size());
    size_t checked = 0;
    for (size_t i = 0; i < res.points.size(); ++i) {
        const MeasuredPoint &pt = res.points[i];
        const MeasuredPoint &ref = clean.points[i];
        EXPECT_EQ(pt.ran, ref.ran) << pt.label;
        EXPECT_EQ(pt.bit_exact, ref.bit_exact) << pt.label;
        EXPECT_EQ(pt.ticks, ref.ticks) << pt.label;
        EXPECT_DOUBLE_EQ(pt.total_mw, ref.total_mw) << pt.label;
        EXPECT_EQ(pt.on_frontier, ref.on_frontier) << pt.label;
        EXPECT_FALSE(pt.crosschecked) << pt.label;
        if (ref.crosschecked) {
            // A point the clean run checked (frontier or baseline)
            // now fails its check.
            ++checked;
            EXPECT_EQ(pt.failure, "EventQueue cross-check diverged")
                << pt.label;
        } else {
            EXPECT_EQ(pt.failure, ref.failure) << pt.label;
        }
    }
    const bool base_checked =
        !clean.points[clean.baseline_index].on_frontier;
    EXPECT_TRUE(clean.points[clean.baseline_index].crosschecked);
    EXPECT_EQ(checked, clean.frontier.size() + (base_checked ? 1 : 0));
}
