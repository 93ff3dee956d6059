/** @file Online DVFS governor: safe-transition table proofs,
 * planted-unsafe rejection, steady-phase convergence to the measured
 * oracle, backend and fleet worker-count determinism, and the
 * epoch-faithful power attribution under mid-run rate steps. */

#include <gtest/gtest.h>

#include <any>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/app_registry.hh"
#include "apps/pipeline_runner.hh"
#include "common/log.hh"
#include "power/dvfs.hh"
#include "sim/fleet.hh"
#include "sim/traffic.hh"

using namespace synchro;
using namespace synchro::power;

namespace
{

using apps::DdcPipelineParams;

/** The small DDC shape every test here governs. */
DdcPipelineParams
testParams()
{
    DdcPipelineParams p;
    p.samples = 128;
    return p;
}

/** The registry's DVFS view of the small DDC shape. */
DvfsAppHooks
ddcHooks()
{
    return apps::AppRegistry::instance().at("ddc").dvfs(testParams());
}

GovernedRunResult
runPolicy(const DvfsAppHooks &app, const sim::TrafficScenario &sc,
          DvfsPolicy pol,
          SchedulerKind backend = SchedulerKind::FastEdge)
{
    GovernedRunOptions opt;
    opt.policy = pol;
    opt.scheduler = backend;
    opt.keep_outputs = true;
    return runGoverned(app, sc, opt);
}

} // namespace

// ---------------------------------------------------------------
// The unified per-app capability registry.

TEST(AppRegistry, AllFourAppsExposeEveryCapability)
{
    const apps::AppRegistry &reg = apps::AppRegistry::instance();
    EXPECT_EQ(reg.names(),
              (std::vector<std::string>{"ddc", "motion", "stereo",
                                        "wifi"}));
    for (const auto &kv : reg.apps()) {
        const apps::AppDescriptor &d = kv.second;
        EXPECT_EQ(d.explorable().name, d.name);
        EXPECT_EQ(d.verifiable().name, d.name);
        EXPECT_EQ(d.fleet().name, d.name);
        DvfsAppHooks h = d.dvfs();
        EXPECT_EQ(h.name, d.name);
        EXPECT_GT(h.iterations_per_item, 0u) << d.name;
        EXPECT_FALSE(h.traffic.phases.empty()) << d.name;
    }
}

TEST(AppRegistry, WrongTypedParamsAreFatalInEveryView)
{
    // The registry's one std::any boundary: every view of every app
    // rejects a payload that is not the app's own params struct.
    const std::any wrong = 42;
    for (const auto &kv : apps::AppRegistry::instance().apps()) {
        const apps::AppDescriptor &d = kv.second;
        EXPECT_THROW(d.explorable(wrong), FatalError) << d.name;
        EXPECT_THROW(d.verifiable(wrong), FatalError) << d.name;
        EXPECT_THROW(d.fleet(wrong), FatalError) << d.name;
        EXPECT_THROW(d.dvfs(wrong), FatalError) << d.name;
    }
    // Another app's params are just as wrong.
    EXPECT_THROW(apps::AppRegistry::instance().at("wifi").fleet(
                     testParams()),
                 FatalError);
}

// ---------------------------------------------------------------
// Traffic scenarios: deterministic, seed-sensitive.

TEST(Traffic, ScenarioIsAPureFunctionOfItsSpec)
{
    sim::TrafficSpec spec = sim::TrafficSpec::bursty(7);
    sim::TrafficScenario a(spec), b(spec);
    ASSERT_EQ(a.events().size(), b.events().size());
    for (size_t i = 0; i < a.events().size(); ++i) {
        EXPECT_EQ(a.events()[i].item, b.events()[i].item);
        EXPECT_EQ(a.events()[i].idle, b.events()[i].idle);
        EXPECT_DOUBLE_EQ(a.events()[i].windows,
                         b.events()[i].windows);
    }
    EXPECT_DOUBLE_EQ(a.totalWindows(), b.totalWindows());

    // A different seed jitters differently but keeps the shape.
    sim::TrafficScenario c(sim::TrafficSpec::bursty(8));
    ASSERT_EQ(a.events().size(), c.events().size());
    EXPECT_NE(a.totalWindows(), c.totalWindows());
}

// ---------------------------------------------------------------
// The safe-transition table.

TEST(SafeTransitionTable, EveryPointCarriesItsOwnStaticProof)
{
    DvfsAppHooks app = ddcHooks();
    VfModel vf;
    SupplyLevels levels(vf);
    DvfsGovernorConfig cfg;
    SafeTransitionTable table = SafeTransitionTable::build(
        app.artifact, cfg.rate_scales, levels);

    ASSERT_GE(table.points().size(), 2u);
    EXPECT_EQ(
        table.points()[table.baselineIndex()].rate_scale, 1.0);
    EXPECT_EQ(table.points()[table.baselineIndex()].dividers,
              app.artifact.plan.dividers());

    double prev = 0;
    for (const DvfsOperatingPoint &pt : table.points()) {
        EXPECT_GT(pt.rate_scale, prev); // sorted, ascending
        prev = pt.rate_scale;
        // Re-run the gate each point already passed at build time.
        EXPECT_TRUE(SafeTransitionTable::candidateVerifies(
            app.artifact, pt.plan, pt.zorms));
        EXPECT_TRUE(table.contains(pt.dividers));
    }
}

TEST(SafeTransitionTable, PlantedUnsafeCandidateFailsItsProof)
{
    DvfsAppHooks app = ddcHooks();
    VfModel vf;
    SupplyLevels levels(vf);
    SafeTransitionTable table = SafeTransitionTable::build(
        app.artifact, DvfsGovernorConfig{}.rate_scales, levels);

    // Tamper the baseline's ZORM so the column pads nearly every
    // slot: the compute can no longer fit the delivery grid and the
    // static proof must reject it.
    const DvfsOperatingPoint &base =
        table.points()[table.baselineIndex()];
    std::vector<mapping::ZormSetting> bad = base.zorms;
    ASSERT_FALSE(bad.empty());
    bad[0].period = bad[0].period ? bad[0].period : 16;
    bad[0].nops = bad[0].period - 1;
    EXPECT_FALSE(SafeTransitionTable::candidateVerifies(
        app.artifact, base.plan, bad));

    // A mismatched vector length is rejected outright.
    std::vector<mapping::ZormSetting> short_vec(
        base.zorms.begin(), base.zorms.end() - 1);
    if (base.zorms.size() > 1) {
        EXPECT_FALSE(SafeTransitionTable::candidateVerifies(
            app.artifact, base.plan, short_vec));
    }
}

TEST(DvfsGovernor, UnprovenDividerVectorIsRejectedNotApplied)
{
    DvfsAppHooks app = ddcHooks();
    VfModel vf;
    SupplyLevels levels(vf);
    SafeTransitionTable table = SafeTransitionTable::build(
        app.artifact, DvfsGovernorConfig{}.rate_scales, levels);

    auto chip = app.workload.build(SchedulerKind::FastEdge);
    DvfsGovernor gov(table, 1e6);

    // Plant a transition with no precomputed proof: the baseline
    // vector with one column's divider nudged.
    std::vector<unsigned> unsafe = app.artifact.plan.dividers();
    unsafe[0] += 1;
    ASSERT_FALSE(table.contains(unsafe));
    EXPECT_FALSE(gov.applyDividers(*chip, unsafe));
    EXPECT_TRUE(gov.applied().empty());

    // The same call through the table's own points succeeds, and
    // every applied transition is a table index.
    EXPECT_TRUE(
        gov.applyDividers(*chip, table.points().front().dividers));
    ASSERT_EQ(gov.applied().size(), 1u);
    EXPECT_LT(gov.applied()[0], table.points().size());
    EXPECT_EQ(gov.applied()[0], 0u);
}

// ---------------------------------------------------------------
// Governed serving.

TEST(DvfsGovernor, ConvergesToTheOracleOnASteadySlowPhase)
{
    DvfsAppHooks app = ddcHooks();
    // A steady trickle at a tenth of the mapped rate: windows are so
    // wide that even the headroom-inflated estimate of the slowest
    // point fits, so the governor must settle exactly where the
    // measured oracle sits.
    sim::TrafficScenario sc(sim::TrafficSpec::steady(11, 0.1, 6));

    GovernedRunResult gov =
        runPolicy(app, sc, DvfsPolicy::Governed);
    GovernedRunResult orc = runPolicy(app, sc, DvfsPolicy::Oracle);

    ASSERT_TRUE(gov.bit_exact) << gov.first_failure;
    ASSERT_TRUE(orc.bit_exact) << orc.first_failure;
    ASSERT_EQ(gov.trajectory.size(), 6u);
    EXPECT_EQ(gov.deadline_misses, 0u);

    // Item 0 calibrates at the baseline; every later item runs at
    // the oracle's point.
    EXPECT_EQ(gov.trajectory[0],
              size_t(gov.table_points - 1)); // baseline is last
    for (size_t i = 1; i < gov.trajectory.size(); ++i)
        EXPECT_EQ(gov.trajectory[i], orc.trajectory[i])
            << "item " << i;

    // Same delivered bytes under every policy.
    EXPECT_EQ(gov.outputs, orc.outputs);
}

TEST(DvfsGovernor, BurstyRunIsDeterministicAcrossBackends)
{
    DvfsAppHooks app = ddcHooks();
    sim::TrafficScenario sc(sim::TrafficSpec::bursty(2004, 2));

    const SchedulerKind backends[] = {
        SchedulerKind::EventQueue, SchedulerKind::FastEdge,
        SchedulerKind::Compiled, SchedulerKind::ParallelColumns};

    GovernedRunResult ref =
        runPolicy(app, sc, DvfsPolicy::Governed, backends[0]);
    ASSERT_TRUE(ref.bit_exact) << ref.first_failure;
    ASSERT_GT(ref.items, 0u);
    for (size_t t : ref.trajectory)
        EXPECT_LT(t, ref.table_points);

    for (size_t b = 1; b < 4; ++b) {
        GovernedRunResult r =
            runPolicy(app, sc, DvfsPolicy::Governed, backends[b]);
        EXPECT_TRUE(r.bit_exact) << r.first_failure;
        EXPECT_EQ(r.trajectory, ref.trajectory);
        EXPECT_EQ(r.busy_ticks, ref.busy_ticks);
        EXPECT_EQ(r.deadline_misses, ref.deadline_misses);
        EXPECT_EQ(r.outputs, ref.outputs);
    }
}

TEST(DvfsGovernor, GovernedBeatsStaticAtEqualOutputOnBurstyTraffic)
{
    DvfsAppHooks app = ddcHooks();
    sim::TrafficScenario sc(sim::TrafficSpec::bursty(2004));

    GovernedRunResult st = runPolicy(app, sc, DvfsPolicy::Static);
    GovernedRunResult gov =
        runPolicy(app, sc, DvfsPolicy::Governed);

    ASSERT_TRUE(st.bit_exact) << st.first_failure;
    ASSERT_TRUE(gov.bit_exact) << gov.first_failure;
    EXPECT_EQ(st.outputs, gov.outputs); // equal delivered output
    EXPECT_LT(gov.power.multi_v.total(), st.power.multi_v.total());

    // The static run never reconfigures; the governed one must have.
    EXPECT_EQ(st.epochs.size(), 1u);
    EXPECT_GT(gov.epochs.size(), 1u);
}

// ---------------------------------------------------------------
// Epoch-faithful power attribution.

TEST(ActivityEpochs, IdenticalEpochsPriceLikeOneEpoch)
{
    DvfsAppHooks app = ddcHooks();
    sim::TrafficScenario sc(sim::TrafficSpec::steady(3, 1.0, 2));
    GovernedRunResult st = runPolicy(app, sc, DvfsPolicy::Static);
    ASSERT_EQ(st.epochs.size(), 1u);

    VfModel vf;
    SupplyLevels levels(vf);
    SystemPowerModel model;
    unsigned cols = unsigned(st.epochs[0].activity.columns.size());

    // Splitting one epoch into two identical halves (same loads,
    // same voltages) must not change the priced power.
    ActivityEpoch half = st.epochs[0];
    half.seconds /= 2;
    for (auto &c : half.activity.columns) {
        c.compute_slots /= 2;
        c.branch_stalls /= 2;
        c.comm_stall_slots /= 2;
        c.zorm_nops /= 2;
        c.issue_slots = c.compute_slots + c.branch_stalls +
                        c.comm_stall_slots + c.zorm_nops;
    }
    half.activity.bus_transfers /= 2;
    half.activity.wire_span_sum /= 2;

    MeasuredComparison one =
        priceActivityEpochs({half}, cols, levels, model);
    MeasuredComparison two =
        priceActivityEpochs({half, half}, cols, levels, model);
    EXPECT_NEAR(two.multi_v.total(), one.multi_v.total(),
                1e-6 * one.multi_v.total());
    EXPECT_NEAR(two.single_v.total(), one.single_v.total(),
                1e-6 * one.single_v.total());
    EXPECT_DOUBLE_EQ(two.vmax, one.vmax);
}

TEST(ActivityEpochs, MidRunRateStepIsPricedPerEpochNotAggregated)
{
    DvfsAppHooks app = ddcHooks();
    // Full-rate burst, then a long slow trickle: the governed run
    // retunes mid-stream, so its activity spans two very different
    // V/f regimes.
    sim::TrafficSpec spec;
    spec.seed = 5;
    spec.jitter = 0;
    spec.phases = {{1.0, 3, 0.0}, {0.1, 5, 0.0}};
    sim::TrafficScenario sc(spec);

    GovernedRunResult gov =
        runPolicy(app, sc, DvfsPolicy::Governed);
    ASSERT_TRUE(gov.bit_exact) << gov.first_failure;
    ASSERT_GT(gov.epochs.size(), 1u);

    VfModel vf;
    SupplyLevels levels(vf);
    SystemPowerModel model;
    unsigned cols =
        unsigned(gov.epochs[0].activity.columns.size());

    // The naive attribution this PR fixes: squash every epoch into
    // one and price the whole stream at one averaged V/f point.
    ActivityEpoch merged = gov.epochs[0];
    for (size_t i = 1; i < gov.epochs.size(); ++i) {
        const ActivityEpoch &e = gov.epochs[i];
        merged.seconds += e.seconds;
        for (size_t c = 0; c < merged.activity.columns.size(); ++c) {
            auto &a = merged.activity.columns[c];
            const auto &b = e.activity.columns[c];
            a.compute_slots += b.compute_slots;
            a.branch_stalls += b.branch_stalls;
            a.comm_stall_slots += b.comm_stall_slots;
            a.zorm_nops += b.zorm_nops;
            a.issue_slots += b.issue_slots;
        }
        merged.activity.bus_transfers += e.activity.bus_transfers;
        merged.activity.wire_span_sum += e.activity.wire_span_sum;
    }
    MeasuredComparison naive =
        priceActivityEpochs({merged}, cols, levels, model);

    // Averaging the slow-phase slots across the whole stream melts
    // the full-rate burst's supply requirement into a mid V/f point:
    // the epoch-faithful price must differ measurably, and the
    // per-epoch vmax (the burst's real supply) must survive.
    double faithful = gov.power.multi_v.total();
    EXPECT_GT(std::abs(naive.multi_v.total() - faithful),
              0.005 * faithful);
    EXPECT_GE(gov.power.vmax, naive.vmax);
}

// ---------------------------------------------------------------
// Governed fleet serving.

TEST(GovernedFleet, DecisionsAreIdenticalUnderAnyWorkerCount)
{
    DvfsAppHooks app = ddcHooks();
    sim::TrafficSpec traffic = sim::TrafficSpec::bursty(2004, 2);

    std::map<uint64_t, size_t> ref_decisions;
    uint64_t ref_slices = 0;
    for (unsigned workers : {1u, 2u, 4u}) {
        auto state = makeGovernedFleetState(app, traffic);
        sim::FleetWorkload wl = governedFleetWorkload(app, state);
        ASSERT_GT(wl.run_chunk, 0u);

        sim::FleetConfig fc;
        fc.workers = workers;
        fc.scheduler = SchedulerKind::FastEdge;
        sim::FleetExecutor fleet(fc);
        unsigned id = fleet.addWorkload(wl);
        // Four streams with disjoint, contiguous item ranges.
        for (unsigned s = 0; s < 4; ++s)
            fleet.admitStream(id, 4, uint64_t(s) * 4);
        sim::FleetReport rep = fleet.drain();

        EXPECT_TRUE(rep.all_verified);
        EXPECT_EQ(rep.items, 16u);
        EXPECT_GT(state->slices, 0u);
        for (const auto &kv : state->decision_by_item)
            EXPECT_LT(kv.second, state->table.points().size());

        if (ref_decisions.empty()) {
            ref_decisions = state->decision_by_item;
            ref_slices = state->slices;
        } else {
            EXPECT_EQ(state->decision_by_item, ref_decisions)
                << workers << " workers diverged";
            EXPECT_EQ(state->slices, ref_slices);
        }
    }
    EXPECT_EQ(ref_decisions.size(), 16u);
}
