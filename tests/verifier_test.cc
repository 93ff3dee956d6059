/** @file Static plan/program verifier: planted safety violations are
 * each rejected with a specific finding, the four committed app
 * lowerings verify clean, the explorer filters
 * provably-broken candidates before simulation, the findings on a
 * seeded corpus match pinned digests, and the closed-form comm walk
 * matches a slot-stepped reference walk on random loop nests. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/app_registry.hh"
#include "arch/chip.hh"
#include "apps/motion_runner.hh"
#include "apps/pipeline_runner.hh"
#include "apps/stereo_runner.hh"
#include "apps/wifi_runner.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "isa/uop.hh"
#include "mapping/codegen.hh"
#include "mapping/comm_schedule.hh"
#include "mapping/explorer.hh"
#include "mapping/verifier.hh"
#include "power/dvfs.hh"
#include "verifier_corpus.hh"

using namespace synchro;
using namespace synchro::mapping;

namespace
{

constexpr uint32_t OutBase = 0x1000;

/** A hand-built plan: one actor per column (codegen_test idiom). */
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

/** The codegen_test two-actor chain: n*3+1 stream into a running
 * sum. Every register it touches is initialized. */
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

/** The codegen_test diamond fork/join DAG (lane-tagged kernels). */
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

ChipPlan
diamondPlan()
{
    return makePlan({"source", "double", "triple", "merge"},
                    {2, 1, 3, 2},
                    {ZormSetting{}, ZormSetting{}, ZormSetting{1, 5},
                     ZormSetting{}});
}

/** Expect @p fn to be statically rejected with @p needle in the
 * fatal message (which carries VerifyReport::errorSummary()). */
template <typename Fn>
void
expectRejected(Fn &&fn, const std::string &needle)
{
    try {
        fn();
        FAIL() << "expected a 'statically rejected' FatalError "
                  "mentioning \""
               << needle << "\"";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("statically rejected"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
}

} // namespace

TEST(Verifier, CleanLinearLoweringVerifies)
{
    ChipPlan plan = makePlan({"source", "sink"}, {2, 3},
                             {ZormSetting{}, ZormSetting{1, 4}});
    const DagSpec spec = linearDagSpec(twoActorStages(200));
    auto prog = lowerDag(spec, plan, 20e6);

    VerifyReport rep = verifyLowered(spec, plan, prog, 20e6, 1.4);
    EXPECT_TRUE(rep.ok()) << rep.render();
    for (const std::string &check : VerifyReport::checkNames())
        EXPECT_TRUE(rep.checkPassed(check)) << check;
    EXPECT_NE(rep.render().find("PASS"), std::string::npos);
    EXPECT_TRUE(rep.errorSummary().empty());
}

TEST(Verifier, UninitializedRegisterReadRejected)
{
    // The sink folds r3 into its sum, but nothing ever writes r3 —
    // it would observe the architectural reset value.
    auto stages = twoActorStages(50);
    stages[1].prologue = strprintf("        movpi p0, %u\n", OutBase);
    stages[1].body = R"(
        crd r0
        add r2, r0, r3
        st.w r2, [p0]+4
    )";
    ChipPlan plan = makePlan({"source", "sink"}, {1, 1},
                             {ZormSetting{}, ZormSetting{}});
    expectRejected(
        [&] { lowerDag(linearDagSpec(stages), plan, 20e6); },
        "uninitialized");
}

TEST(Verifier, MismatchedJoinLaneTagRejected)
{
    // The join reads lane 5, which is not one of its input edges
    // (lanes 2 and 3) — the tagged pop would wait forever.
    DagSpec spec = diamondSpec(50);
    spec.stages[3].body = R"(
        crd r0, 5
        crd r1, 3
        add r0, r0, r1
        st.w r0, [p0]+4
    )";
    expectRejected(
        [&] { lowerDag(spec, diamondPlan(), 10e6); },
        "mismatched lane tag");
}

TEST(Verifier, ConflictingSlotAssignmentRejected)
{
    DagSpec spec = diamondSpec(50);
    ChipPlan plan = diamondPlan();
    auto prog = lowerDag(spec, plan, 10e6);

    // Plant a second drive on a bus cycle the source already owns:
    // copy one of the source's drive slots into the 'double' column
    // and recompile that column's DOU so the machine itself is
    // internally consistent — only the *global* schedule is broken.
    const Transfer *drive = nullptr;
    for (const Transfer &t : prog.columns[0].schedule.transfers) {
        if (t.src_tile >= 0)
            drive = &t;
    }
    ASSERT_NE(drive, nullptr);
    prog.columns[1].schedule.transfers.push_back(*drive);
    prog.columns[1].dou =
        compileSchedule(prog.columns[1].schedule);

    VerifyReport rep = verifyLowered(spec, plan, prog, 10e6, 1.4);
    EXPECT_FALSE(rep.ok());
    EXPECT_FALSE(rep.checkPassed("slots"));
    EXPECT_NE(rep.errorSummary().find("conflicting slot"),
              std::string::npos)
        << rep.errorSummary();
}

TEST(Verifier, SlowConsumerDefersInsteadOfOverrunning)
{
    // A consumer that computes ~200 slots per firing against a
    // delivery grid of ~42 ticks still holds word k when word k+1
    // arrives. The self-timed bus defers that delivery instead of
    // dropping a word, so the lowering verifies clean and the run
    // loses nothing.
    const unsigned firings = 50;
    auto stages = twoActorStages(firings);
    stages[1].prologue = strprintf("        movi r2, 0\n"
                                   "        movi r3, 0\n"
                                   "        movpi p0, %u\n",
                                   OutBase);
    stages[1].body = R"(
        crd r0
        add r2, r2, r0
        lsetup lc1, __burn, 200
        addi r3, 1
    __burn:
        st.w r2, [p0]+4
    )";
    ChipPlan plan = makePlan({"source", "sink"}, {1, 1},
                             {ZormSetting{}, ZormSetting{}});
    const DagSpec spec = linearDagSpec(stages);
    auto prog = lowerDag(spec, plan, 20e6);
    VerifyReport rep = verifyLowered(spec, plan, prog, 20e6, 1.4);
    EXPECT_TRUE(rep.ok()) << rep.render();

    std::vector<int32_t> expect;
    int32_t v = 0, sum = 0;
    for (unsigned n = 0; n < firings; ++n) {
        v += 3;
        sum += v - 2;
        expect.push_back(sum);
    }
    for (auto kind :
         {SchedulerKind::EventQueue, SchedulerKind::Compiled}) {
        auto chip = buildChip(plan, prog, kind);
        ASSERT_EQ(chip->run(10'000'000).exit,
                  arch::RunExit::AllHalted)
            << schedulerName(kind);
        EXPECT_EQ(chip->column(1).tile(0).readMemWords(OutBase,
                                                       firings),
                  expect)
            << schedulerName(kind);
        EXPECT_EQ(chip->fabric().stats().value("overruns"), 0u)
            << schedulerName(kind);
        EXPECT_GT(chip->fabric().stats().value("deferrals"), 0u)
            << schedulerName(kind);
    }
}

TEST(Verifier, ZormMismatchRejected)
{
    ChipPlan plan = makePlan({"source", "sink"}, {2, 3},
                             {ZormSetting{}, ZormSetting{1, 4}});
    const DagSpec spec = linearDagSpec(twoActorStages(100));
    auto prog = lowerDag(spec, plan, 20e6);

    // A column loaded with a different ZORM pacing than its
    // placement planned runs at the wrong rate.
    prog.columns[1].zorm.nops += 1;

    VerifyReport rep = verifyLowered(spec, plan, prog, 20e6, 1.4);
    EXPECT_FALSE(rep.ok());
    EXPECT_FALSE(rep.checkPassed("zorm"));
    EXPECT_NE(rep.errorSummary().find("ZORM"), std::string::npos)
        << rep.errorSummary();
}

TEST(Verifier, CommittedAppLoweringsVerifyClean)
{
    // Every registered app's committed lowering, straight from the
    // registry at default params, on the one (self-timed) bus.
    const apps::AppRegistry &reg = apps::AppRegistry::instance();
    EXPECT_EQ(reg.names().size(), 4u);
    for (const std::string &name : reg.names()) {
        const LoweredArtifact art = reg.at(name).verifiable();
        const VerifyReport rep = art.verify();
        EXPECT_TRUE(rep.ok()) << art.name << "\n" << rep.render();
        EXPECT_TRUE(rep.checkPassed("tokens")) << art.name;
    }
}

TEST(Verifier, RateScaledExplorerVariantsVerifyClean)
{
    // Regression: exactRateMatch() reduces the fraction of the two
    // rates rounded to integer Hz, so a rate-scaled plan's loaded
    // ZORM fraction can differ from the unrounded MHz ratio by the
    // Hz quantization. The verifier must tolerate what the mapper
    // itself emits — the 0.75/0.90 wifi rate variants are exactly
    // the settings a tighter zorm tolerance falsely rejects.
    mapping::ExplorableApp app =
        apps::AppRegistry::instance().at("wifi").explorable();
    ExploreOptions opt;
    opt.rate_factors = {0.75, 0.90};
    opt.divider_steps = 0;
    opt.crosscheck_frontier = false;
    opt.threads = 1;
    ExplorationResult res = explorePlans(app, opt);
    EXPECT_EQ(res.statically_rejected, 0u);
    for (const MeasuredPoint &pt : res.points)
        EXPECT_TRUE(pt.ran) << pt.label << ": " << pt.failure;
}

TEST(Verifier, ExplorerFiltersBrokenCandidateBeforeSimulation)
{
    apps::DdcPipelineParams p;
    p.samples = 512;
    mapping::ExplorableApp app =
        apps::AppRegistry::instance().at("ddc").explorable(p);

    // A candidate whose placement claims a column frequency that is
    // not ref/divider — nothing a simulation would ever notice (the
    // chip is built from the dividers alone), but provably an
    // inconsistent plan. The verifier gate must reject it at
    // lowering time, before any chip is staged.
    PlanVariant broken;
    broken.label = "broken";
    broken.plan = app.baseline;
    broken.plan.placements[0].f_column_mhz += 17.0;
    broken.iterations_per_sec = app.iterations_per_sec;
    app.shard_variants.push_back(broken);

    ExploreOptions opt;
    opt.rate_factors = {};
    opt.divider_steps = 0;
    opt.crosscheck_frontier = false;
    opt.threads = 1;

    ExplorationResult res = explorePlans(app, opt);
    EXPECT_EQ(res.statically_rejected, 1u);

    bool found = false;
    for (const MeasuredPoint &pt : res.points) {
        if (pt.label != "broken")
            continue;
        found = true;
        EXPECT_FALSE(pt.ran);
        EXPECT_NE(pt.failure.find("statically rejected"),
                  std::string::npos)
            << pt.failure;
    }
    EXPECT_TRUE(found);
    // The baseline still simulated and measured bit-exactly.
    ASSERT_FALSE(res.points.empty());
    EXPECT_TRUE(res.points[0].ran) << res.points[0].failure;
    EXPECT_TRUE(res.points[0].bit_exact);
    EXPECT_NE(res.report().find("statically rejected"),
              std::string::npos);
}

TEST(Verifier, MalformedColumnScheduleReportedNotThrown)
{
    // A column schedule the DOU compiler would refuse — a lane past
    // the bus, or two transfers on one (lane, offset) — comes back
    // as a "slots" finding; the DOU replay stops at the malformed
    // cycle instead of fatal()ing.
    for (const std::string &name :
         apps::AppRegistry::instance().names()) {
        const LoweredArtifact base =
            apps::AppRegistry::instance().at(name).verifiable();
        auto expectReported = [&](const LoweredArtifact &art,
                                  const char *what) {
            VerifyReport rep;
            EXPECT_NO_THROW(rep = art.verify()) << name << ": " << what;
            EXPECT_FALSE(rep.checkPassed("slots"))
                << name << ": " << what << "\n" << rep.render();
            EXPECT_NE(rep.render().find("schedule is malformed"),
                      std::string::npos)
                << name << ": " << what << "\n" << rep.render();
        };

        LoweredArtifact lane = base;
        lane.prog.columns[0].schedule.transfers[0].lane =
            arch::BusLanes;
        expectReported(lane, "out-of-range lane");

        LoweredArtifact dup = base;
        std::vector<Transfer> &ts = dup.prog.columns[0].schedule.transfers;
        ts.push_back(ts[0]);
        expectReported(dup, "two transfers on one lane and offset");
    }
}

TEST(Verifier, UnclosedBusTimelineReportedNotThrown)
{
    // The coprime schedules of bus_timeline_test (periods 97 and 89,
    // a slot every other cycle) as a chain's DOU programs: their
    // joint period holds far more active phases than the timeline
    // keeps, so a chip would step these DOUs literally. The verifier
    // reports the bound instead of walking a schedule it cannot hold.
    ChipPlan plan = makePlan({"source", "sink"}, {2, 3},
                             {ZormSetting{}, ZormSetting{1, 4}});
    const DagSpec spec = linearDagSpec(twoActorStages(200));
    PipelineProgram prog = lowerDag(spec, plan, 20e6);
    for (unsigned c = 0; c < 2; ++c) {
        Transfer t;
        t.lane = c;
        t.src_tile = c == 0 ? 0 : -1;
        t.to_horizontal = c == 0;
        if (c == 1)
            t.dst_tiles = {0};
        CommSchedule sched;
        sched.period = c == 0 ? 97 : 89;
        for (t.offset = 0; t.offset < sched.period; t.offset += 2)
            sched.transfers.push_back(t);
        prog.columns[c].dou = compileSchedule(sched);
    }
    EXPECT_FALSE(detail::douTimeline(prog).ready());

    VerifyReport rep;
    EXPECT_NO_THROW(rep = verifyLowered(spec, plan, prog, 20e6, 1.4));
    EXPECT_FALSE(rep.checkPassed("slots"));
    EXPECT_NE(rep.errorSummary().find(strprintf(
                  "[slots] the joint DOU schedule does not close "
                  "within the bus timeline's bounds (%zu nodes",
                  arch::BusTimeline::MaxNodes)),
              std::string::npos)
        << rep.render();
    EXPECT_EQ(rep.render().find("DOU output diverges"), std::string::npos)
        << rep.render();
}

TEST(Verifier, MalformedDouProgramReportedNotThrown)
{
    // A DOU program Dou::load() would refuse — a successor past its
    // states, or no states at all — is a "slots" finding. The
    // timeline idles that column, so no walk reads past its states,
    // and the other column is still checked against its schedule.
    ChipPlan plan = makePlan({"source", "sink"}, {2, 3},
                             {ZormSetting{}, ZormSetting{1, 4}});
    const DagSpec spec = linearDagSpec(twoActorStages(200));
    const PipelineProgram clean = lowerDag(spec, plan, 20e6);
    ASSERT_EQ(clean.columns[1].actor, "sink");

    PipelineProgram succ = clean;
    arch::DouProgram &dou = succ.columns[1].dou;
    dou.states[0].nxt1 = uint8_t(dou.states.size());
    EXPECT_TRUE(detail::douTimeline(succ).ready());
    VerifyReport rep;
    EXPECT_NO_THROW(rep = verifyLowered(spec, plan, succ, 20e6, 1.4));
    EXPECT_FALSE(rep.checkPassed("slots"));
    EXPECT_NE(rep.errorSummary().find(
                  "[slots] actor 'sink': DOU state 0: successor out of "
                  "range"),
              std::string::npos)
        << rep.render();
    EXPECT_EQ(rep.render().find("actor 'source': DOU"), std::string::npos)
        << rep.render();

    PipelineProgram empty = clean;
    empty.columns[0].dou.states.clear();
    EXPECT_TRUE(detail::douTimeline(empty).ready());
    EXPECT_NO_THROW(rep = verifyLowered(spec, plan, empty, 20e6, 1.4));
    EXPECT_FALSE(rep.checkPassed("slots"));
    EXPECT_NE(rep.errorSummary().find(
                  "[slots] actor 'source': DOU program has no states"),
              std::string::npos)
        << rep.render();
    EXPECT_EQ(rep.render().find("actor 'sink': DOU"), std::string::npos)
        << rep.render();
}

TEST(Verifier, ColumnOutsideThePlanIsAShapeError)
{
    // The DOU walk reads each column's position by chip column, so a
    // column index past total_columns, or one two actors share, stops
    // the analysis as an artifact-shape error.
    ChipPlan plan = makePlan({"source", "sink"}, {2, 3},
                             {ZormSetting{}, ZormSetting{1, 4}});
    const DagSpec spec = linearDagSpec(twoActorStages(200));
    const PipelineProgram clean = lowerDag(spec, plan, 20e6);
    ASSERT_EQ(clean.total_columns, 2u);

    PipelineProgram past = clean;
    past.columns[1].column = 2;
    EXPECT_EQ(verifyLowered(spec, plan, past, 20e6, 1.4).errorSummary(),
              "[slots] artifact shape: actor 'sink' on column 2 of 2");

    PipelineProgram shared = clean;
    shared.columns[1].column = shared.columns[0].column;
    EXPECT_EQ(verifyLowered(spec, plan, shared, 20e6, 1.4).errorSummary(),
              strprintf("[slots] artifact shape: two actors on column %u",
                        shared.columns[0].column));
}

TEST(Verifier, DouAwayFromResetAfterOnePeriodRejected)
{
    // The sink's DOU wraps into a copy of its first state instead of
    // the state itself: it outputs its schedule cycle for cycle
    // forever, but one period does not end at the reset position, so
    // the one-period proof does not extend to the next period.
    ChipPlan plan = makePlan({"source", "sink"}, {2, 3},
                             {ZormSetting{}, ZormSetting{1, 4}});
    const DagSpec spec = linearDagSpec(twoActorStages(200));
    PipelineProgram prog = lowerDag(spec, plan, 20e6);
    ASSERT_EQ(prog.columns[1].actor, "sink");
    arch::DouProgram &dou = prog.columns[1].dou;
    const uint8_t copy = uint8_t(dou.states.size());
    dou.states.push_back(dou.states[0]);
    for (arch::DouState *st : {&dou.states[copy - 1], &dou.states[copy]}) {
        for (uint8_t *nxt : {&st->nxt0, &st->nxt1}) {
            if (*nxt == 0)
                *nxt = copy;
        }
    }

    const VerifyReport rep = verifyLowered(spec, plan, prog, 20e6, 1.4);
    EXPECT_EQ(rep.errorSummary(),
              "[slots] actor 'sink': DOU machine does not return to its "
              "initial state after one period, so later periods "
              "diverge from the schedule")
        << rep.render();
}

TEST(Verifier, VerifiedChipsRunTheTimelineTheVerifierWalked)
{
    // A chip built from a verified artifact, for every app at every
    // safe-table point, holds a closed bus timeline before its first
    // tick, so no fast backend falls back to stepping its DOUs, and
    // its nodes are the ones the "slots" check walked.
    power::VfModel vf;
    power::SupplyLevels levels(vf);
    for (const std::string &name :
         apps::AppRegistry::instance().names()) {
        const LoweredArtifact art =
            apps::AppRegistry::instance().at(name).verifiable();
        const arch::BusTimeline walked = detail::douTimeline(art.prog);
        ASSERT_TRUE(walked.ready()) << name;
        const power::SafeTransitionTable table =
            power::SafeTransitionTable::build(
                art, power::DvfsGovernorConfig{}.rate_scales, levels);
        ASSERT_GT(table.points().size(), 1u) << name;
        for (const power::DvfsOperatingPoint &pt : table.points()) {
            PipelineProgram prog = art.prog;
            for (size_t i = 0; i < prog.columns.size(); ++i)
                prog.columns[i].zorm = pt.zorms[i];
            auto chip = buildChip(pt.plan, prog, SchedulerKind::Compiled);
            const auto timeline = chip->busTimeline();
            ASSERT_TRUE(timeline->ready())
                << name << " scale " << pt.rate_scale;
            ASSERT_EQ(timeline->numNodes(), walked.numNodes()) << name;
            for (uint32_t i = 0; i < walked.numNodes(); ++i) {
                EXPECT_EQ(timeline->node(i).gap, walked.node(i).gap)
                    << name << " node " << i;
                EXPECT_EQ(timeline->node(i).next, walked.node(i).next)
                    << name << " node " << i;
            }
        }
    }
}

TEST(Verifier, PlantedDeadlockRejected)
{
    // The source's firing loop runs one firing short of what its
    // consumer reads. Each column's token count matches its own
    // (edited) spec, so only the token-network replay can see the
    // sink wait forever for its last word.
    LoweredArtifact art =
        corpus::plantedChain("        crd r0\n"
                             "        add r2, r2, r0\n"
                             "        st.w r2, [p0]+4\n",
                             true);
    VerifyReport rep = art.verify();
    EXPECT_TRUE(rep.checkPassed("tags")) << rep.render();
    EXPECT_EQ(rep.errorSummary(),
              "[tokens] deadlock: the token network cannot complete "
              "under any timing — actor 'sink' blocked at comm op 59 "
              "(crd lane 0)");
}

TEST(Verifier, SeededCorpusFindingsMatchPinnedDigests)
{
    // Digests of VerifyReport::render() over every item of each
    // group (tests/verifier_corpus.hh). A mismatch means a finding
    // changed: diff the group's renders against the last commit
    // before updating a digest.
    struct Pin
    {
        const char *group;
        size_t items;
        uint64_t digest;
    };
    const Pin pins[] = {
        {"ddc/candidates", 13, 0xc88c112cf70569c2ull},
        {"ddc/safe-table", 6, 0x2d18450502c85d27ull},
        {"ddc/mutations", 16, 0xeb6d60382801f5a7ull},
        {"motion/candidates", 8, 0x06b45142dff7a7ebull},
        {"motion/safe-table", 6, 0x2d18450502c85d27ull},
        {"motion/mutations", 16, 0xa0be41d199e56f96ull},
        {"stereo/candidates", 13, 0xacb9f8cbfc59a08eull},
        {"stereo/safe-table", 6, 0x91b7273d5c5998e3ull},
        {"stereo/mutations", 16, 0x2bf39d815148f24aull},
        {"wifi/candidates", 10, 0x41a8298b20f0da69ull},
        {"wifi/safe-table", 6, 0x2d18450502c85d27ull},
        {"wifi/mutations", 16, 0xc573e3a9c72e93aeull},
        {"planted", 2, 0x3c57ff05cabc5668ull},
    };

    const std::vector<corpus::Item> items = corpus::verifierCorpus();
    std::string all;
    for (const Pin &pin : pins) {
        std::vector<corpus::Item> group;
        for (const corpus::Item &it : items) {
            if (it.group == pin.group)
                group.push_back(it);
        }
        EXPECT_EQ(group.size(), pin.items) << pin.group;
        EXPECT_EQ(corpus::digest(group), pin.digest)
            << pin.group << ": findings changed";
    }
    for (const corpus::Item &it : items) {
        EXPECT_EQ(it.report.find("threw:"), std::string::npos)
            << it.group << " " << it.label << ": " << it.report;
        all += it.report;
    }
    // The corpus reaches every finding class it is meant to pin.
    for (const char *needle :
         {"deadlock: the token network", "DOU output diverges",
          "lane membership only", "re-armed at pc", "schedule is malformed"}) {
        EXPECT_NE(all.find(needle), std::string::npos) << needle;
    }
}

namespace
{

using isa::MicroOp;
using isa::UopKind;

/**
 * The comm walk as it ran before loops were charged in closed form:
 * one issue slot per step. Kept here as the reference the walk's
 * fast-forward must reproduce exactly.
 */
detail::WalkResult
steppedWalk(const std::vector<MicroOp> &uops, uint64_t budget)
{
    detail::WalkResult w;
    for (const MicroOp &u : uops) {
        if (u.kind == UopKind::CommRead)
            w.read_lanes.insert(u.imm);
        else if (u.kind == UopKind::CommWrite)
            w.write_lanes.insert(u.imm);
    }
    const size_t n = uops.size();
    auto plainRegion = [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi && i < n; ++i) {
            switch (uops[i].kind) {
              case UopKind::Halt:
              case UopKind::Jump:
              case UopKind::Jcc:
              case UopKind::Jncc:
              case UopKind::CommRead:
              case UopKind::CommWrite:
                return false;
              case UopKind::Lsetup:
                if (uops[i].end > hi)
                    return false;
                break;
              default:
                break;
            }
        }
        return true;
    };
    struct Loop
    {
        uint32_t start, end, remaining;
        uint8_t unit;
    };
    std::vector<Loop> stack;
    auto advance = [&](uint32_t from) {
        uint32_t next = from + 1;
        while (!stack.empty() && next == stack.back().end) {
            if (--stack.back().remaining > 0) {
                next = stack.back().start;
                break;
            }
            stack.pop_back();
        }
        return next;
    };
    auto inexact = [&](std::string why) {
        w.sequence_exact = false;
        w.timing_exact = false;
        if (w.inexact_why.empty())
            w.inexact_why = std::move(why);
        w.events.clear();
    };
    uint32_t pc = 0;
    while (true) {
        if (pc >= n) {
            inexact("pc fell off the program end");
            return w;
        }
        if (w.total_slots >= budget) {
            inexact("walk budget exceeded");
            return w;
        }
        const MicroOp &u = uops[pc];
        ++w.total_slots;
        switch (u.kind) {
          case UopKind::Halt:
            return w;
          case UopKind::Jump:
            if (u.imm < 0 || uint32_t(u.imm) >= n) {
                inexact("jump target out of range");
                return w;
            }
            pc = uint32_t(u.imm);
            continue;
          case UopKind::Jcc:
          case UopKind::Jncc: {
            w.timing_exact = false;
            if (u.imm < 0 || uint32_t(u.imm) >= n) {
                inexact("branch target out of range");
                return w;
            }
            const uint32_t tgt = uint32_t(u.imm);
            bool armed_end = false;
            for (const Loop &l : stack)
                armed_end = armed_end || l.end == tgt;
            if ((tgt > pc && plainRegion(pc + 1, tgt) && !armed_end) ||
                (tgt <= pc && plainRegion(tgt, pc))) {
                pc = advance(pc);
            } else {
                inexact(strprintf("data-dependent branch at pc %u "
                                  "spans communication",
                                  pc));
                return w;
            }
            continue;
          }
          case UopKind::Lsetup: {
            if (u.imm <= 0 || u.end <= pc + 1 || u.end > n) {
                inexact(strprintf("malformed lsetup at pc %u", pc));
                return w;
            }
            for (const Loop &l : stack) {
                if (l.unit == u.acc) {
                    inexact(strprintf("loop unit lc%u re-armed at pc "
                                      "%u while active",
                                      unsigned(u.acc), pc));
                    return w;
                }
            }
            stack.push_back({pc + 1, u.end, uint32_t(u.imm), u.acc});
            pc = advance(pc);
            continue;
          }
          case UopKind::CommRead:
          case UopKind::CommWrite: {
            detail::CommEvent e;
            e.is_read = u.kind == UopKind::CommRead;
            e.lane = u.imm;
            w.events.push_back(e);
            pc = advance(pc);
            continue;
          }
          default:
            pc = advance(pc);
            continue;
        }
    }
}

/** Seeded random loop nests over the walk's control vocabulary. */
class NestGen
{
  public:
    explicit NestGen(uint64_t seed) : rng_(seed) {}

    std::vector<MicroOp>
    program()
    {
        p_.clear();
        block(0, true);
        op(UopKind::Halt);
        return p_;
    }

  private:
    void
    op(UopKind k, int32_t imm = 0)
    {
        MicroOp u;
        u.kind = k;
        u.imm = imm;
        p_.push_back(u);
    }

    /** 1-4 statements at nesting @p depth; comm only if @p comm. */
    void
    block(unsigned depth, bool comm)
    {
        const uint64_t items = 1 + rng_.below(4);
        for (uint64_t i = 0; i < items; ++i) {
            switch (rng_.below(depth < 3 ? 8 : 2)) {
              case 0:
                for (uint64_t k = 1 + rng_.below(3); k > 0; --k)
                    op(UopKind::Add);
                break;
              case 1:
                if (comm) {
                    op(rng_.below(2) ? UopKind::CommRead
                                     : UopKind::CommWrite,
                       int32_t(rng_.below(5)) - 1);
                } else {
                    op(UopKind::Mul);
                }
                break;
              case 2: {
                // Forward branch over a region, comm-free or not; as
                // a loop body's last statement it targets the end.
                const size_t at = p_.size();
                op(rng_.below(2) ? UopKind::Jcc : UopKind::Jncc);
                block(depth + 1, comm && rng_.below(6) == 0);
                p_[at].imm = int32_t(p_.size());
                break;
              }
              case 3: {
                // Backward data-dependent loop.
                const size_t start = p_.size();
                block(depth + 1, comm && rng_.below(8) == 0);
                op(UopKind::Jcc, int32_t(start));
                break;
              }
              default: {
                // A counted loop: plain or comm-bearing body, unit
                // drawn from four so nests both re-arm and share
                // ends (a nested loop as the body's last statement).
                const size_t at = p_.size();
                op(UopKind::Lsetup,
                   rng_.below(6) == 0 ? int32_t(1 + rng_.below(300))
                                      : int32_t(1 + rng_.below(5)));
                p_[at].acc = uint8_t(rng_.below(4));
                block(depth + 1, comm && rng_.below(2) == 0);
                p_[at].end = uint16_t(p_.size());
                break;
              }
            }
        }
    }

    Rng rng_;
    std::vector<MicroOp> p_;
};

void
expectSameWalk(const detail::WalkResult &got,
               const detail::WalkResult &want, const std::string &what)
{
    EXPECT_EQ(got.sequence_exact, want.sequence_exact) << what;
    EXPECT_EQ(got.timing_exact, want.timing_exact) << what;
    EXPECT_EQ(got.inexact_why, want.inexact_why) << what;
    EXPECT_EQ(got.total_slots, want.total_slots) << what;
    EXPECT_EQ(got.read_lanes, want.read_lanes) << what;
    EXPECT_EQ(got.write_lanes, want.write_lanes) << what;
    ASSERT_EQ(got.events.size(), want.events.size()) << what;
    for (size_t i = 0; i < got.events.size(); ++i) {
        EXPECT_EQ(got.events[i].is_read, want.events[i].is_read)
            << what << " event " << i;
        EXPECT_EQ(got.events[i].lane, want.events[i].lane)
            << what << " event " << i;
    }
}

} // namespace

TEST(VerifierWalk, ClosedFormLoopsMatchSlotSteppedWalk)
{
    NestGen gen(0x3a1c0ffeeull);
    Rng budgets(17);
    unsigned exact = 0, inexact = 0, exhausted = 0, rearmed = 0;
    for (unsigned i = 0; i < 3000; ++i) {
        const std::vector<MicroOp> prog = gen.program();
        // Mostly the production budget; every fourth program a small
        // one, so exhaustion lands inside closed-form loops too.
        const uint64_t budget = i % 4 == 3 ? 1 + budgets.below(400)
                                           : detail::WalkBudget;
        const detail::WalkResult want = steppedWalk(prog, budget);
        const detail::WalkResult got = detail::walkComm(prog, budget);
        expectSameWalk(got, want, strprintf("program %u", i));
        if (::testing::Test::HasFailure())
            return;
        (want.sequence_exact ? exact : inexact) += 1;
        exhausted += want.inexact_why == "walk budget exceeded";
        rearmed += want.inexact_why.find("re-armed") !=
                   std::string::npos;
    }
    // The generator reaches every outcome the walk distinguishes.
    EXPECT_GT(exact, 300u);
    EXPECT_GT(inexact, 300u);
    EXPECT_GT(exhausted, 50u);
    EXPECT_GT(rearmed, 300u);
}

TEST(VerifierWalk, BudgetBoundaryInsideAClosedFormLoop)
{
    // k plain slots, one comm-free loop of trip x body slots, halt:
    // the budget lands one slot before, on, and one slot after the
    // loop's last slot.
    for (uint64_t extra : {0, 1, 2}) {
        std::vector<MicroOp> p(3);
        p[0].kind = p[1].kind = p[2].kind = UopKind::Add;
        MicroOp l;
        l.kind = UopKind::Lsetup;
        l.imm = 7;
        l.end = uint16_t(p.size() + 1 + 5);
        p.push_back(l);
        for (int k = 0; k < 5; ++k)
            p.push_back(MicroOp{});
        MicroOp halt;
        halt.kind = UopKind::Halt;
        p.push_back(halt);
        const uint64_t budget = 3 + 1 + 7 * 5 - 1 + extra;
        expectSameWalk(detail::walkComm(p, budget),
                       steppedWalk(p, budget),
                       strprintf("budget %llu",
                                 (unsigned long long)budget));
    }
}
