/** @file Scheduler-backend seams: ClockDomain edge-iteration
 * equivalence, fast-path vs reference bit-identical execution, DOU
 * fast-forward arithmetic, which backends take the issue-slot batch
 * hooks, resume/tick-limit semantics, and the default backend. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "arch/chip.hh"
#include "common/log.hh"
#include "isa/assembler.hh"
#include "mapping/comm_schedule.hh"
#include "sim/scheduler.hh"
#include "test_util.hh"

using namespace synchro;
using namespace synchro::arch;
using synchro::isa::assemble;

// ---------------------------------------------------------------
// ClockDomain edge iteration: every edge the fast scheduler would
// visit (walking nextEdgeAfter) is an edge the reference stepper
// would run (onEdge scan), and vice versa.

TEST(ClockEdges, IterationMatchesScanForAllDividersAndPhases)
{
    constexpr Tick Horizon = 400;
    for (unsigned div = 1; div <= 16; ++div) {
        for (Tick phase : {Tick(0), Tick(1), Tick(div - 1)}) {
            if (phase >= div)
                continue;
            ClockDomain dom(600e6, div, phase);

            std::vector<Tick> scanned;
            for (Tick t = 0; t <= Horizon; ++t) {
                if (dom.onEdge(t))
                    scanned.push_back(t);
            }

            std::vector<Tick> walked;
            Tick t = dom.onEdge(0) ? 0 : dom.nextEdgeAfter(0);
            while (t <= Horizon) {
                walked.push_back(t);
                t = dom.nextEdgeAfter(t);
            }

            EXPECT_EQ(walked, scanned)
                << "divider " << div << " phase " << phase;
        }
    }
}

TEST(ClockEdges, NextEdgeIsStrictlyAfterAndOnEdge)
{
    for (unsigned div : {1u, 2u, 3u, 5u, 8u, 13u, 16u}) {
        ClockDomain dom(600e6, div, div / 2);
        for (Tick t = 0; t < 100; ++t) {
            Tick n = dom.nextEdgeAfter(t);
            EXPECT_GT(n, t);
            EXPECT_TRUE(dom.onEdge(n));
            // No edge strictly between t and n.
            for (Tick m = t + 1; m < n; ++m)
                EXPECT_FALSE(dom.onEdge(m));
        }
    }
}

// ---------------------------------------------------------------
// DouProgram::walkCommFree must be arithmetically identical to n
// step() calls, including through an inert self-loop's counter wrap.

TEST(DouSkip, MatchesSteppedExecutionAcrossCounterWrap)
{
    for (uint32_t init : {0u, 1u, 2u, 7u}) {
        for (uint64_t n : {1ull, 2ull, 3ull, 7ull, 8ull, 100ull}) {
            DouProgram p = DouProgram::idle();
            p.counter_init[0] = init;

            Dou stepped;
            stepped.load(p);
            for (uint64_t i = 0; i < n; ++i)
                stepped.step();

            DouPosition walked = p.resetPosition();
            uint64_t budget = 0; // a self-loop costs no budget
            EXPECT_EQ(p.walkCommFree(walked, n, budget), n);
            EXPECT_EQ(walked, stepped.position())
                << "init " << init << " n " << n;
        }
    }
}

TEST(DouSkip, StopsAtDrivingState)
{
    // One comm-free cycle, then a state that drives tile 0: the walk
    // stops on the non-zero buffer control, where step() would
    // output it.
    DouProgram p;
    DouState s0;
    s0.nxt0 = s0.nxt1 = 1;
    DouState s1;
    s1.buf[0] = 1;
    s1.nxt0 = s1.nxt1 = 1;
    p.states = {s0, s1};
    DouPosition pos = p.resetPosition();
    uint64_t budget = 8;
    EXPECT_EQ(p.walkCommFree(pos, 3, budget), 1u);
    EXPECT_EQ(pos.state, 1u);
    EXPECT_EQ(budget, 7u);
}

TEST(DouSkip, StopsWhenTheBudgetRunsOut)
{
    // A two-state comm-free cycle never parks: each transition costs
    // one unit of budget, so the walk ends when the budget does, at
    // exactly the position that many steps reach.
    DouProgram p;
    DouState a, b;
    a.cntr = b.cntr = 3;
    a.nxt0 = a.nxt1 = 1;
    b.nxt0 = b.nxt1 = 0;
    p.states = {a, b};
    DouPosition pos = p.resetPosition();
    uint64_t budget = 5;
    EXPECT_EQ(p.walkCommFree(pos, 1000, budget), 5u);
    EXPECT_EQ(budget, 0u);
    EXPECT_EQ(pos.state, 1u);
}

// ---------------------------------------------------------------
// FastEdge is the slot-exact walk: it must never take the issue-slot
// batch hook or put a stalled domain to sleep — the two things that
// make Compiled what it is.

namespace
{

/**
 * Counts every batch- and sleep-hook call. Each domain blocks itself
 * after every 10th productive edge (a stand-in for a stalled comm
 * op); every 25th reference phase releases the blocked domains and
 * reports them touched. Each domain halts after a quota of
 * productive edges.
 */
class HookCountingModel : public SchedModel
{
  public:
    unsigned numDomains() const override { return 2; }
    const ClockDomain &
    domainClock(unsigned d) const override
    {
        return clocks_[d];
    }
    bool domainHalted(unsigned d) const override
    {
        return edges[d] >= kQuota;
    }
    bool allHalted() const override
    {
        return domainHalted(0) && domainHalted(1);
    }
    void
    domainEdge(unsigned d) override
    {
        if (blocked_[d]) {
            ++stalls[d];
        } else if (++edges[d] % 10 == 0) {
            blocked_[d] = true;
        }
    }
    void
    refPhase() override
    {
        touched_.clear();
        if (++phases % 25 != 0)
            return;
        for (unsigned d = 0; d < 2; ++d) {
            if (blocked_[d]) {
                blocked_[d] = false;
                touched_.push_back(d);
            }
        }
    }

    Tick
    domainEdgeBlock(unsigned, Tick) override
    {
        ++edge_blocks;
        return 0;
    }
    bool
    domainCommStalled(unsigned d) const override
    {
        if (!blocked_[d])
            return false;
        ++sleeps;
        return true;
    }
    void
    domainStallCredit(unsigned d, Tick slots) override
    {
        ++credits;
        stalls[d] += slots;
    }
    const std::vector<unsigned> &
    refPhaseTouched() const override
    {
        return touched_;
    }

    uint64_t phases = 0;
    uint64_t edges[2] = {};
    uint64_t stalls[2] = {};
    uint64_t edge_blocks = 0;
    mutable uint64_t sleeps = 0; //!< probes that found a stall
    uint64_t credits = 0;

  private:
    static constexpr uint64_t kQuota = 50;
    std::vector<ClockDomain> clocks_ = {ClockDomain(600e6, 2, 0),
                                        ClockDomain(600e6, 3, 1)};
    bool blocked_[2] = {};
    std::vector<unsigned> touched_;
};

} // namespace

TEST(SchedulerHooks, OnlyCompiledTakesIssueSlotBlocks)
{
    HookCountingModel ref;
    auto rs = makeScheduler(SchedulerKind::EventQueue);
    ASSERT_EQ(int(rs->run(ref, 1'000'000)), int(SchedStop::AllHalted));
    EXPECT_EQ(ref.edge_blocks, 0u);
    EXPECT_EQ(ref.sleeps, 0u);
    EXPECT_EQ(ref.credits, 0u);
    EXPECT_GT(ref.stalls[0] + ref.stalls[1], 0u);

    for (SchedulerKind kind :
         {SchedulerKind::FastEdge, SchedulerKind::Compiled}) {
        HookCountingModel m;
        auto s = makeScheduler(kind);
        ASSERT_EQ(int(s->run(m, 1'000'000)), int(SchedStop::AllHalted));
        const char *name = schedulerName(kind);
        if (kind == SchedulerKind::Compiled) {
            EXPECT_GT(m.edge_blocks, 0u);
            EXPECT_GT(m.sleeps, 0u);
            EXPECT_GT(m.credits, 0u);
        } else {
            EXPECT_EQ(m.edge_blocks, 0u);
            EXPECT_EQ(m.sleeps, 0u);
            EXPECT_EQ(m.credits, 0u);
        }
        // Sleeping changes how stall edges are counted, never how
        // many: every walk sees the reference's edges and phases.
        EXPECT_EQ(m.stalls[0], ref.stalls[0]) << name;
        EXPECT_EQ(m.stalls[1], ref.stalls[1]) << name;
        EXPECT_EQ(m.phases, ref.phases) << name;
        EXPECT_EQ(s->curTick(), rs->curTick()) << name;
    }
}

namespace
{

/** One slow domain with a quota of edges; counts executed phases. */
class SparseEdgeModel : public SchedModel
{
  public:
    static constexpr uint64_t kEdges = 20;
    static constexpr Tick kDivider = 1000;

    unsigned numDomains() const override { return 1; }
    const ClockDomain &domainClock(unsigned) const override
    {
        return clock_;
    }
    bool domainHalted(unsigned) const override { return edges >= kEdges; }
    bool allHalted() const override { return edges >= kEdges; }
    void domainEdge(unsigned) override { ++edges; }
    void
    refPhase() override
    {
        ++phases;
        ++executed;
    }
    Tick
    commFreeAdvance(Tick max) override
    {
        phases += max;
        return max;
    }

    uint64_t edges = 0;
    uint64_t phases = 0;   //!< executed and batched
    uint64_t executed = 0; //!< refPhase() calls

  private:
    ClockDomain clock_{600e6, unsigned(kDivider), 0};
};

} // namespace

TEST(SchedulerHooks, RunMaxTickStillBatchesQuietPhases)
{
    // The end of a run(MaxTick) budget must not wrap: a fresh walk
    // executes one reference phase per edge and batches the rest,
    // instead of running every phase one at a time.
    for (SchedulerKind kind :
         {SchedulerKind::FastEdge, SchedulerKind::Compiled}) {
        SparseEdgeModel m;
        auto s = makeScheduler(kind);
        ASSERT_EQ(int(s->run(m, MaxTick)), int(SchedStop::AllHalted));
        const Tick last = (SparseEdgeModel::kEdges - 1) *
                          SparseEdgeModel::kDivider;
        EXPECT_EQ(s->curTick(), last) << schedulerName(kind);
        EXPECT_EQ(m.phases, last + 1) << schedulerName(kind);
        EXPECT_EQ(m.executed, SparseEdgeModel::kEdges)
            << schedulerName(kind);
    }
}

// ---------------------------------------------------------------
// The reference stepper's contract (the EventQueue kind), on a model
// that logs every call with the tick being serviced.

namespace
{

/** Dividers {1, 2, 3} on phases {0, 1, 2}. */
std::vector<ClockDomain>
loggedClocks()
{
    return {ClockDomain(600e6, 1, 0), ClockDomain(600e6, 2, 1),
            ClockDomain(600e6, 3, 2)};
}

/** Each domain halts after this many edges. */
const std::vector<uint64_t> kLogQuota = {16, 9, 5};

class CallLogModel : public SchedModel
{
  public:
    explicit CallLogModel(const Scheduler &sched,
                          std::vector<uint64_t> quota = kLogQuota)
        : sched_(sched), quota_(std::move(quota))
    {
    }

    unsigned numDomains() const override { return 3; }
    const ClockDomain &
    domainClock(unsigned d) const override
    {
        return clocks_[d];
    }
    bool domainHalted(unsigned d) const override
    {
        return edges_[d] >= quota_[d];
    }
    bool allHalted() const override
    {
        return domainHalted(0) && domainHalted(1) && domainHalted(2);
    }
    void
    domainEdge(unsigned d) override
    {
        ++edges_[d];
        log += strprintf("%llu:e%u ",
                         (unsigned long long)sched_.curTick(), d);
    }
    void
    refPhase() override
    {
        log += strprintf("%llu:r ", (unsigned long long)sched_.curTick());
    }

    /** Replace domain @p d's clock (between runs). */
    void setClock(unsigned d, const ClockDomain &clk) { clocks_[d] = clk; }

    std::string log;

  private:
    const Scheduler &sched_;
    std::vector<ClockDomain> clocks_ = loggedClocks();
    std::vector<uint64_t> quota_;
    uint64_t edges_[3] = {};
};

/** The ticks of each domain's edges, from its clock and quota. */
std::vector<std::vector<Tick>>
clockEdges(const std::vector<ClockDomain> &clocks,
           const std::vector<uint64_t> &quota)
{
    std::vector<std::vector<Tick>> edges(clocks.size());
    for (unsigned d = 0; d < clocks.size(); ++d) {
        for (uint64_t k = 0; k < quota[d]; ++k)
            edges[d].push_back(clocks[d].cycleToTick(k));
    }
    return edges;
}

/**
 * The log the contract prescribes for domains edging at @p edges:
 * every tick from 0, the due edges in index order, then the
 * reference phase, through the tick of the last edge (returned in
 * @p last).
 */
std::string
contractLog(const std::vector<std::vector<Tick>> &edges, Tick &last)
{
    last = 0;
    for (const auto &e : edges) {
        if (!e.empty())
            last = std::max(last, e.back());
    }
    std::string log;
    for (Tick t = 0; t <= last; ++t) {
        for (unsigned d = 0; d < edges.size(); ++d) {
            if (std::count(edges[d].begin(), edges[d].end(), t))
                log += strprintf("%llu:e%u ", (unsigned long long)t, d);
        }
        log += strprintf("%llu:r ", (unsigned long long)t);
    }
    return log;
}

/** contractLog() for the logged clocks and quotas. */
std::string
contractLog(Tick &last)
{
    return contractLog(clockEdges(loggedClocks(), kLogQuota), last);
}

} // namespace

TEST(ReferenceStepper, EachTickRunsDueEdgesThenTheRefPhase)
{
    Tick last = 0;
    const std::string want = contractLog(last);
    auto s = makeScheduler(SchedulerKind::EventQueue);
    CallLogModel m(*s);
    ASSERT_EQ(int(s->run(m, MaxTick)), int(SchedStop::AllHalted));
    EXPECT_EQ(m.log, want);
    EXPECT_EQ(s->curTick(), last);
}

TEST(ReferenceStepper, ChunkedRunsMatchOneRun)
{
    Tick last = 0;
    const std::string want = contractLog(last);
    for (Tick k : {Tick(1), Tick(2), Tick(3), Tick(5), Tick(7)}) {
        auto s = makeScheduler(SchedulerKind::EventQueue);
        CallLogModel m(*s);
        SchedStop stop = SchedStop::TickLimit;
        unsigned runs = 0;
        while (stop == SchedStop::TickLimit && runs++ < 1000)
            stop = s->run(m, k);
        EXPECT_EQ(int(stop), int(SchedStop::AllHalted)) << "chunk " << k;
        EXPECT_EQ(m.log, want) << "chunk " << k;
        EXPECT_EQ(s->curTick(), last) << "chunk " << k;
    }

    // A run(MaxTick) that resumes a partial run must not wrap its
    // budget.
    auto s = makeScheduler(SchedulerKind::EventQueue);
    CallLogModel m(*s);
    ASSERT_EQ(int(s->run(m, 4)), int(SchedStop::TickLimit));
    ASSERT_EQ(int(s->run(m, MaxTick)), int(SchedStop::AllHalted));
    EXPECT_EQ(m.log, want);
    EXPECT_EQ(s->curTick(), last);
}

TEST(ReferenceStepper, TickLimitStopsAfterTheLastTickInBudget)
{
    Tick last = 0;
    const std::string want = contractLog(last);
    auto s = makeScheduler(SchedulerKind::EventQueue);
    CallLogModel m(*s);
    ASSERT_GT(last, 10u);
    ASSERT_EQ(int(s->run(m, 10)), int(SchedStop::TickLimit));
    EXPECT_EQ(s->curTick(), 10u);
    // Everything through tick 10 ran, nothing after it.
    const std::string upto = want.substr(0, want.find("11:"));
    EXPECT_EQ(m.log, upto);

    // A zero-tick run services nothing; run(1) services tick 11.
    ASSERT_EQ(int(s->run(m, 0)), int(SchedStop::TickLimit));
    EXPECT_EQ(m.log, upto);
    ASSERT_EQ(int(s->run(m, 1)), int(SchedStop::TickLimit));
    EXPECT_EQ(s->curTick(), 11u);
    EXPECT_EQ(m.log, want.substr(0, want.find("12:")));
}

TEST(ReferenceStepper, DividerChangedBetweenRunsRulesTheNextRun)
{
    // Domain 2 (divider 3, phase 2) edges at 2 and 5, and its edge
    // at 8 is pending when the first run ends at tick 6. Moved to
    // divider 4, it keeps that pending edge and then edges every 4
    // ticks: a divider read once per run, not once per scheduler.
    std::vector<std::vector<Tick>> edges =
        clockEdges(loggedClocks(), kLogQuota);
    edges[2] = {2, 5, 8, 12, 16};
    Tick last = 0;
    const std::string want = contractLog(edges, last);

    auto s = makeScheduler(SchedulerKind::EventQueue);
    CallLogModel m(*s);
    ASSERT_EQ(int(s->run(m, 6)), int(SchedStop::TickLimit));
    m.setClock(2, ClockDomain(600e6, 4, 2));
    ASSERT_EQ(int(s->run(m, MaxTick)), int(SchedStop::AllHalted));
    EXPECT_EQ(m.log, want);
    EXPECT_EQ(s->curTick(), last);
}

TEST(ReferenceStepper, HaltedDomainsNeverEdgeAndTheLastLiveOneEnds)
{
    // A domain halted before the run never edges; the reference
    // phase still recurs every tick until the last live domain
    // halts, and the run ends AllHalted on that tick — whichever
    // domain it is.
    for (const std::vector<uint64_t> &quota :
         {std::vector<uint64_t>{16, 0, 5}, std::vector<uint64_t>{0, 9, 5},
          std::vector<uint64_t>{3, 0, 6}}) {
        Tick last = 0;
        const std::string want =
            contractLog(clockEdges(loggedClocks(), quota), last);
        for (Tick chunk : {Tick(1), Tick(4), Tick(1000)}) {
            auto s = makeScheduler(SchedulerKind::EventQueue);
            CallLogModel m(*s, quota);
            SchedStop stop = SchedStop::TickLimit;
            unsigned runs = 0;
            while (stop == SchedStop::TickLimit && runs++ < 1000)
                stop = s->run(m, chunk);
            const std::string what =
                strprintf("quota %llu/%llu/%llu chunk %llu",
                          (unsigned long long)quota[0],
                          (unsigned long long)quota[1],
                          (unsigned long long)quota[2],
                          (unsigned long long)chunk);
            EXPECT_EQ(int(stop), int(SchedStop::AllHalted)) << what;
            EXPECT_EQ(m.log, want) << what;
            EXPECT_EQ(s->curTick(), last) << what;
        }
    }
}

// ---------------------------------------------------------------
// Whole-chip cross-checks: every backend must agree bit-for-bit with
// the EventQueue reference on architectural state, statistics, final
// tick, and exit reason. The comparison itself lives in test_util.hh
// (crossCheckBackends) so the mapped-app suites hold their pipelines
// to the same contract.

using synchro::test::allStats;
using synchro::test::AllSchedulerKinds;
using synchro::test::crossCheckBackends;

namespace
{

/** Run @p configure on a chip of each backend; compare everything. */
void
crossCheck(ChipConfig cfg, const std::function<void(Chip &)> &configure,
           Tick max_ticks = 1'000'000)
{
    crossCheckBackends(cfg, configure, max_ticks);
}

} // namespace

TEST(SchedulerEquivalence, MultiDividerComputeLoops)
{
    ChipConfig cfg;
    cfg.dividers = {8, 8, 4, 2};
    crossCheck(cfg, [](Chip &chip) {
        for (unsigned c = 0; c < chip.numColumns(); ++c) {
            chip.column(c).controller().loadProgram(assemble(R"(
                movi r0, 0
                lsetup lc0, e, 500
                addi r0, 1
            e:
                halt
            )"));
        }
    });
}

TEST(SchedulerEquivalence, PhasedColumns)
{
    ChipConfig cfg;
    cfg.dividers = {5, 3, 7};
    cfg.phases = {2, 0, 6};
    crossCheck(cfg, [](Chip &chip) {
        for (unsigned c = 0; c < chip.numColumns(); ++c) {
            chip.column(c).controller().loadProgram(assemble(R"(
                movi r0, 0
                lsetup lc0, e, 100
                addi r0, 3
            e:
                halt
            )"));
        }
    });
}

TEST(SchedulerEquivalence, ZormAndBranches)
{
    ChipConfig cfg;
    cfg.dividers = {4};
    crossCheck(cfg, [](Chip &chip) {
        chip.column(0).controller().loadProgram(assemble(R"(
            movi r0, 0
            movi r1, 40
            movi r2, 0
        top:
            addi r0, 2
            addi r1, -1
            cmpeq r1, r2
            jncc top
            halt
        )"));
        chip.column(0).controller().setRateMatch(3, 7);
    });
}

TEST(SchedulerEquivalence, CrossDomainCommunication)
{
    // Producer at divider 1 streams into a divider-3 consumer through
    // DOU schedules — exercises bus cycles, backpressure stalls, and
    // the active DOU path where phases between edges cannot all be
    // skipped.
    ChipConfig cfg;
    cfg.dividers = {1, 3};
    cfg.tiles_per_column = 1;
    crossCheck(cfg, [](Chip &chip) {
        chip.column(0).controller().loadProgram(assemble(R"(
            movi r7, 0
            lsetup lc0, e, 40
            addi r7, 1
            cwr r7
        e:
            halt
        )"));
        chip.column(1).controller().loadProgram(assemble(R"(
            movi r1, 0
            lsetup lc0, e, 40
            crd r0
            add r1, r1, r0
        e:
            halt
        )"));
        mapping::CommSchedule prod;
        prod.period = 6;
        prod.transfers = {{0, 0, 0, {}, true}};
        chip.column(0).dou().load(mapping::compileSchedule(prod));
        mapping::CommSchedule cons;
        cons.period = 1;
        cons.transfers = {{0, 0, -1, {0}, false}};
        chip.column(1).dou().load(mapping::compileSchedule(cons));
    });
}

TEST(SchedulerEquivalence, ConsumerThatNeverReadsHitsTheTickLimit)
{
    // The consumer spins without ever issuing crd: its read buffer
    // fills with the first word, every later drive slot defers on the
    // self-timed bus, and the rate-matched producer stalls on a full
    // write buffer for the rest of the budget. Nothing halts, so every
    // backend must stop at the tick limit having counted the same
    // stalls, rate-match nops and deferrals — the Compiled walk's
    // sleeping producer included, credited through the limit.
    ChipConfig cfg;
    cfg.dividers = {2, 3};
    cfg.tiles_per_column = 1;
    cfg.self_timed_bus = true;
    auto configure = [](Chip &chip) {
        chip.column(0).controller().loadProgram(assemble(R"(
            movi r7, 0
            lsetup lc0, e, 1000
            addi r7, 1
            cwr r7
        e:
            halt
        )"));
        chip.column(0).controller().setRateMatch(2, 5);
        chip.column(1).controller().loadProgram(assemble(R"(
        spin:
            addi r0, 1
            jump spin
        )"));
        mapping::CommSchedule prod;
        prod.period = 4;
        prod.transfers = {{0, 0, 0, {}, true}};
        chip.column(0).dou().load(mapping::compileSchedule(prod));
        mapping::CommSchedule cons;
        cons.period = 4;
        cons.transfers = {{0, 0, -1, {0}, false}};
        chip.column(1).dou().load(mapping::compileSchedule(cons));
    };
    constexpr Tick Limit = 20'003;
    crossCheck(cfg, configure, Limit);

    cfg.scheduler = SchedulerKind::EventQueue;
    Chip ref(cfg);
    configure(ref);
    EXPECT_EQ(int(ref.run(Limit).exit), int(RunExit::TickLimit));
    auto stats = allStats(ref);
    EXPECT_GT(stats["col0.ctrl.commStalls"], Limit / 4);
    EXPECT_GT(stats["col0.ctrl.zormNops"], 0u);
    EXPECT_GT(stats["bus.deferrals"], 0u);
}

TEST(SchedulerEquivalence, WakesSleepersBeyondSixtyFourColumns)
{
    // The touched-column report must name any column, not a bit of a
    // 64-wide mask: a producer and a sleeping consumer sit at columns
    // 68 and 69 of a 70-column chip, so a truncated report would wake
    // the wrong column and leave the consumer asleep.
    ChipConfig cfg;
    cfg.dividers.assign(70, 1);
    cfg.dividers[69] = 3;
    cfg.tiles_per_column = 1;
    crossCheck(cfg, [](Chip &chip) {
        chip.column(68).controller().loadProgram(assemble(R"(
            movi r7, 0
            lsetup lc0, e, 30
            addi r7, 1
            cwr r7
        e:
            halt
        )"));
        chip.column(69).controller().loadProgram(assemble(R"(
            movi r1, 0
            lsetup lc0, e, 30
            crd r0
            add r1, r1, r0
        e:
            halt
        )"));
        mapping::CommSchedule prod;
        prod.period = 7;
        prod.transfers = {{0, 0, 0, {}, true}};
        chip.column(68).dou().load(mapping::compileSchedule(prod));
        mapping::CommSchedule cons;
        cons.period = 7;
        cons.transfers = {{0, 0, -1, {0}, false}};
        chip.column(69).dou().load(mapping::compileSchedule(cons));
    });
}

TEST(SchedulerEquivalence, SleeperWhoseHazardClearedBetweenRunsRejoins)
{
    // A column stalls on crd with no bus schedule that could ever
    // fill its buffer — on Compiled it sleeps. Between two run()
    // calls the test delivers the word itself: the column must rejoin
    // at its pending edge and read it, on every backend at the same
    // tick with the same stall count.
    auto build = [](SchedulerKind kind) {
        ChipConfig cfg;
        cfg.dividers = {3, 2};
        cfg.phases = {1, 0};
        cfg.tiles_per_column = 1;
        cfg.scheduler = kind;
        auto chip = std::make_unique<Chip>(cfg);
        chip->column(0).controller().loadProgram(assemble(R"(
            movi r1, 5
            crd r0
            add r1, r1, r0
            halt
        )"));
        chip->column(0).controller().setRateMatch(1, 4);
        chip->column(1).controller().loadProgram(assemble(R"(
            movi r0, 0
            lsetup lc0, e, 400
            addi r0, 1
        e:
            halt
        )"));
        return chip;
    };
    auto ref = build(SchedulerKind::EventQueue);
    ASSERT_EQ(int(ref->run(101).exit), int(RunExit::TickLimit));
    ref->column(0).tile(0).readBuffer(0).push(37);
    ASSERT_EQ(int(ref->run(10'000).exit), int(RunExit::AllHalted));
    EXPECT_EQ(ref->column(0).tile(0).reg(1), 42u);

    for (SchedulerKind kind : AllSchedulerKinds) {
        if (kind == SchedulerKind::EventQueue)
            continue;
        auto chip = build(kind);
        const char *name = schedulerName(kind);
        ASSERT_EQ(int(chip->run(101).exit), int(RunExit::TickLimit))
            << name;
        chip->column(0).tile(0).readBuffer(0).push(37);
        auto res = chip->run(10'000);
        EXPECT_EQ(int(res.exit), int(RunExit::AllHalted)) << name;
        EXPECT_EQ(res.ticks, ref->curTick()) << name;
        EXPECT_EQ(allStats(*chip), allStats(*ref)) << name;
        EXPECT_EQ(chip->column(0).tile(0).reg(1), 42u) << name;
    }
}

TEST(SchedulerEquivalence, TickLimitAndResume)
{
    // A spinning column: both backends must stop at the same tick,
    // then resume identically across repeated small run() calls.
    auto build = [](SchedulerKind kind) {
        ChipConfig cfg;
        cfg.dividers = {3};
        cfg.scheduler = kind;
        auto chip = std::make_unique<Chip>(cfg);
        chip->column(0).controller().loadProgram(assemble(R"(
        spin:
            jump spin
        )"));
        return chip;
    };
    auto ref = build(SchedulerKind::EventQueue);
    auto rr = ref->run(100);
    EXPECT_EQ(int(rr.exit), int(RunExit::TickLimit));

    for (SchedulerKind kind : AllSchedulerKinds) {
        if (kind == SchedulerKind::EventQueue)
            continue;
        auto ref2 = build(SchedulerKind::EventQueue);
        auto chip = build(kind);
        auto r2 = ref2->run(100);
        auto rc = chip->run(100);
        EXPECT_EQ(int(rc.exit), int(RunExit::TickLimit))
            << schedulerName(kind);
        EXPECT_EQ(rc.ticks, r2.ticks) << schedulerName(kind);

        for (int i = 0; i < 5; ++i) {
            r2 = ref2->run(7);
            rc = chip->run(7);
            EXPECT_EQ(rc.ticks, r2.ticks)
                << schedulerName(kind) << " resume step " << i;
            EXPECT_EQ(allStats(*chip), allStats(*ref2))
                << schedulerName(kind);
        }
    }
}

TEST(SchedulerEquivalence, RunMaxTickRunsToHaltFreshAndResumed)
{
    // run(MaxTick) means "until the model halts" from any tick: the
    // end of the budget saturates instead of wrapping past MaxTick,
    // which on a resumed chip used to stop the run where it began.
    auto build = [](SchedulerKind kind) {
        ChipConfig cfg;
        cfg.dividers = {3, 5};
        cfg.scheduler = kind;
        auto chip = std::make_unique<Chip>(cfg);
        for (unsigned c = 0; c < 2; ++c) {
            chip->column(c).controller().loadProgram(assemble(R"(
                movi r0, 0
                lsetup lc0, e, 300
                addi r0, 1
            e:
                halt
            )"));
        }
        return chip;
    };
    auto ref = build(SchedulerKind::EventQueue);
    ASSERT_EQ(int(ref->run(100).exit), int(RunExit::TickLimit));
    ASSERT_EQ(int(ref->run(MaxTick).exit), int(RunExit::AllHalted));

    for (SchedulerKind kind : AllSchedulerKinds) {
        for (bool resumed : {false, true}) {
            auto chip = build(kind);
            const std::string what = std::string(schedulerName(kind)) +
                                     (resumed ? " resumed" : " fresh");
            if (resumed) {
                ASSERT_EQ(int(chip->run(100).exit),
                          int(RunExit::TickLimit))
                    << what;
            }
            auto res = chip->run(MaxTick);
            EXPECT_EQ(int(res.exit), int(RunExit::AllHalted)) << what;
            EXPECT_EQ(res.ticks, ref->curTick()) << what;
            EXPECT_EQ(allStats(*chip), allStats(*ref)) << what;
        }
    }
}

TEST(SchedulerEquivalence, SteppedRunMatchesBatchOnFastPaths)
{
    auto build = [](SchedulerKind kind) {
        ChipConfig cfg;
        cfg.dividers = {2, 5};
        cfg.scheduler = kind;
        auto chip = std::make_unique<Chip>(cfg);
        for (unsigned c = 0; c < 2; ++c) {
            chip->column(c).controller().loadProgram(assemble(R"(
                movi r0, 0
                lsetup lc0, e, 60
                addi r0, 1
            e:
                halt
            )"));
        }
        return chip;
    };
    for (SchedulerKind kind : AllSchedulerKinds) {
        auto batch = build(kind);
        auto batch_res = batch->run(100'000);
        ASSERT_EQ(int(batch_res.exit), int(RunExit::AllHalted))
            << schedulerName(kind);

        auto stepped = build(kind);
        Tick guard = 0;
        while (!stepped->allHalted() && guard++ < 100'000)
            stepped->run(1);
        EXPECT_EQ(stepped->curTick(), batch->curTick())
            << schedulerName(kind);
        EXPECT_EQ(allStats(*stepped), allStats(*batch))
            << schedulerName(kind);
    }
}

TEST(SchedulerEquivalence, FastPathSkipsWork)
{
    // Sanity that the fast path actually exploits the edge pattern:
    // with dividers {8,8,4,2} and idle DOUs, the per-tick DOU step
    // stats must still match the reference exactly (the skipped
    // ticks are credited arithmetically).
    ChipConfig cfg;
    cfg.dividers = {8, 8, 4, 2};
    crossCheck(cfg, [](Chip &chip) {
        for (unsigned c = 0; c < chip.numColumns(); ++c) {
            chip.column(c).controller().loadProgram(assemble(R"(
                movi r0, 0
                lsetup lc0, e, 1000
                addi r0, 1
            e:
                halt
            )"));
        }
    });
}

TEST(SchedulerFactory, NamesAndKinds)
{
    const char *names[] = {"eventq", "fastedge", "compiled",
                           "parallel"};
    int i = 0;
    for (SchedulerKind kind : AllSchedulerKinds) {
        auto sched = makeScheduler(kind);
        EXPECT_EQ(std::string(sched->name()), names[i++]);
        EXPECT_EQ(int(sched->kind()), int(kind));
        EXPECT_EQ(sched->curTick(), 0u);
    }

    SchedulerKind parsed;
    for (SchedulerKind kind : AllSchedulerKinds) {
        ASSERT_TRUE(parseSchedulerKind(schedulerName(kind), parsed));
        EXPECT_EQ(int(parsed), int(kind));
    }
    EXPECT_FALSE(parseSchedulerKind("warp-drive", parsed));
}

TEST(DefaultBackend, IsCompiledWhenUnset)
{
    const char *env = std::getenv("SYNCHRO_SCHEDULER");
    if (env && *env)
        GTEST_SKIP() << "SYNCHRO_SCHEDULER overrides the default";
    EXPECT_EQ(int(defaultSchedulerKind()), int(SchedulerKind::Compiled));
}
