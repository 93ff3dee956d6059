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
    domainEdgeBlock(unsigned, Tick, Tick) override
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
    refPhaseRun(Tick max) override
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

namespace
{

/**
 * One domain (divider 3) whose every block consumes one slot, with a
 * horizon that cycles through kHorizons. Records what each block was
 * offered and how many reference phases had run by then.
 */
class HorizonModel : public SchedModel
{
  public:
    static constexpr Tick kDivider = 3;
    static constexpr uint64_t kEdges = 40;
    static constexpr Tick kHorizons[] = {0, 1, 2, 3, 4, 5, 6, 7, 9,
                                         MaxTick};

    struct Offer
    {
        uint64_t edge, phases_done;
        Tick max_slots, comm_slots, horizon;
    };

    unsigned numDomains() const override { return 1; }
    const ClockDomain &domainClock(unsigned) const override
    {
        return clock_;
    }
    bool domainHalted(unsigned) const override { return edges >= kEdges; }
    bool allHalted() const override { return edges >= kEdges; }
    void domainEdge(unsigned) override { ++edges; }
    void refPhase() override { ++phases; }
    Tick
    refPhaseRun(Tick max) override
    {
        phases += max;
        return max;
    }
    Tick
    domainCommHorizon(unsigned) const override
    {
        return kHorizons[asked_++ % std::size(kHorizons)];
    }
    Tick
    domainEdgeBlock(unsigned, Tick max_slots, Tick comm_slots) override
    {
        offers.push_back({edges, phases, max_slots, comm_slots,
                          kHorizons[(asked_ - 1) % std::size(kHorizons)]});
        ++edges;
        return 1;
    }

    uint64_t edges = 0;
    uint64_t phases = 0;
    std::vector<Offer> offers;

  private:
    ClockDomain clock_{600e6, unsigned(kDivider), 0};
    mutable uint64_t asked_ = 0;
};

} // namespace

TEST(SchedulerHooks, CompiledOffersCommSlotsUpToTheHorizon)
{
    // A horizon of h phases from the pending one lets comm ops issue
    // at ticks t .. t + h - 1: ceil(h / divider) slots, capped at the
    // budget's slots; MaxTick means all of them and 0 none. The
    // horizon is asked with exactly t phases run, the one of t
    // pending. Stepped runs cap the budget at 1-3 slots.
    for (Tick chunk : {MaxTick, Tick(7)}) {
        HorizonModel m;
        auto s = makeScheduler(SchedulerKind::Compiled);
        SchedStop stop = SchedStop::TickLimit;
        unsigned runs = 0;
        while (stop == SchedStop::TickLimit && runs++ < 1000)
            stop = s->run(m, chunk);
        ASSERT_EQ(int(stop), int(SchedStop::AllHalted));
        ASSERT_EQ(m.offers.size(), HorizonModel::kEdges);
        for (const HorizonModel::Offer &o : m.offers) {
            const std::string what = strprintf(
                "chunk %llu edge %llu horizon %llu",
                (unsigned long long)chunk, (unsigned long long)o.edge,
                (unsigned long long)o.horizon);
            EXPECT_EQ(o.phases_done, o.edge * HorizonModel::kDivider)
                << what;
            const Tick want =
                o.horizon == MaxTick
                    ? o.max_slots
                    : std::min(o.max_slots,
                               (o.horizon + HorizonModel::kDivider - 1) /
                                   HorizonModel::kDivider);
            EXPECT_EQ(o.comm_slots, want) << what;
        }
        if (chunk != MaxTick) {
            EXPECT_TRUE(std::any_of(
                m.offers.begin(), m.offers.end(),
                [](const auto &o) { return o.max_slots == 1; }));
        }
    }
}

namespace
{

/**
 * Domain 0 (divider 10) edges on ticks 0, 10, 20, ...; domain 1
 * (divider 1) blocks on its 1st, 5th, 9th ... productive edge. The
 * reference phase of every tick 10k + 9 releases it: the last phase
 * before domain 0's next edge, so on Compiled the last phase of a
 * run wakes the sleeper. Logs whether any run ended on a waking
 * phase.
 */
class LastPhaseWakeModel : public SchedModel
{
  public:
    unsigned numDomains() const override { return 2; }
    const ClockDomain &
    domainClock(unsigned d) const override
    {
        return clocks_[d];
    }
    bool
    domainHalted(unsigned d) const override
    {
        return edges[d] >= kQuota[d];
    }
    bool allHalted() const override
    {
        return domainHalted(0) && domainHalted(1);
    }
    void
    domainEdge(unsigned d) override
    {
        if (d == 1 && blocked_)
            ++stalls;
        else if (++edges[d] % 4 == 1 && d == 1)
            blocked_ = true;
    }
    void
    refPhase() override
    {
        touched_.clear();
        if (phases++ % 10 == 9 && blocked_) {
            blocked_ = false;
            touched_.push_back(1);
        }
    }
    Tick
    refPhaseRun(Tick max) override
    {
        const Tick k = SchedModel::refPhaseRun(max);
        woke_last += k == max && !touched_.empty();
        return k;
    }
    bool
    domainCommStalled(unsigned d) const override
    {
        return d == 1 && blocked_;
    }
    void
    domainStallCredit(unsigned, Tick slots) override
    {
        stalls += slots;
    }
    const std::vector<unsigned> &
    refPhaseTouched() const override
    {
        return touched_;
    }

    uint64_t phases = 0;
    uint64_t edges[2] = {};
    uint64_t stalls = 0;
    uint64_t woke_last = 0; //!< runs whose last phase touched

  private:
    static constexpr uint64_t kQuota[2] = {8, 12};
    std::vector<ClockDomain> clocks_ = {ClockDomain(600e6, 10, 0),
                                        ClockDomain(600e6, 1, 0)};
    bool blocked_ = false;
    std::vector<unsigned> touched_;
};

} // namespace

TEST(SchedulerHooks, SleeperWokenByTheLastPhaseOfARunIsCredited)
{
    // A run that ends on the phase waking a sleeper returns all the
    // phases it was asked for; the walk must still credit the
    // sleeper's stall slots through that phase and let it rejoin at
    // its next edge. Stepped runs also end runs at the budget.
    LastPhaseWakeModel ref;
    auto rs = makeScheduler(SchedulerKind::EventQueue);
    ASSERT_EQ(int(rs->run(ref, 1'000)), int(SchedStop::AllHalted));
    ASSERT_GT(ref.stalls, 0u);

    for (SchedulerKind kind :
         {SchedulerKind::FastEdge, SchedulerKind::Compiled}) {
        for (Tick chunk : {Tick(0), Tick(1), Tick(2), Tick(3), Tick(5),
                           Tick(7)}) {
            const std::string what = strprintf(
                "%s chunk %llu", schedulerName(kind),
                (unsigned long long)chunk);
            LastPhaseWakeModel m;
            auto s = makeScheduler(kind);
            SchedStop stop = SchedStop::TickLimit;
            for (unsigned runs = 0;
                 stop == SchedStop::TickLimit && runs < 1'000; ++runs)
                stop = s->run(m, chunk ? chunk : 1'000);
            EXPECT_EQ(int(stop), int(SchedStop::AllHalted)) << what;
            EXPECT_EQ(s->curTick(), rs->curTick()) << what;
            EXPECT_EQ(m.phases, ref.phases) << what;
            EXPECT_EQ(m.edges[0], ref.edges[0]) << what;
            EXPECT_EQ(m.edges[1], ref.edges[1]) << what;
            EXPECT_EQ(m.stalls, ref.stalls) << what;
            if (kind == SchedulerKind::Compiled && chunk == 0) {
                EXPECT_GT(m.woke_last, 0u) << what;
            }
        }
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

// ---------------------------------------------------------------
// Compiled blocks run control slots in place and comm ops up to the
// column's bus horizon. Planted programs put those slots where a
// wrong horizon, a comm op past it or a halt inside a block would
// show: each must match EventQueue in one run and in run(1) chunks.

namespace
{

/** Every tile's SRAM, read through Tile::readMem. */
std::vector<int32_t>
allSram(const Chip &chip)
{
    std::vector<int32_t> out;
    for (unsigned c = 0; c < chip.numColumns(); ++c) {
        for (unsigned t = 0; t < chip.column(c).numTiles(); ++t) {
            auto w = chip.column(c).tile(t).readMemWords(
                0, Tile::MemBytes / 4);
            out.insert(out.end(), w.begin(), w.end());
        }
    }
    return out;
}

/**
 * Each of @p kinds against the EventQueue reference on the chip
 * @p configure builds: one run and run(k) chunks for every k in
 * @p chunks give the same exit, ticks, statistics, registers and
 * SRAM.
 */
void
expectMatchesReference(
    ChipConfig cfg, const std::function<void(Chip &)> &configure,
    Tick limit, const std::string &what,
    std::initializer_list<SchedulerKind> kinds = {SchedulerKind::Compiled},
    std::initializer_list<Tick> chunks = {1})
{
    cfg.scheduler = SchedulerKind::EventQueue;
    Chip ref(cfg);
    configure(ref);
    const RunResult rr = ref.run(limit);
    const auto ref_stats = allStats(ref);
    const auto ref_regs = synchro::test::allRegs(ref);
    const auto ref_sram = allSram(ref);

    std::vector<Tick> runs = {0}; // 0: one run
    runs.insert(runs.end(), chunks.begin(), chunks.end());
    for (SchedulerKind kind : kinds) {
        cfg.scheduler = kind;
        for (Tick chunk : runs) {
            const std::string how =
                what + " " + schedulerName(kind) +
                (chunk ? strprintf(" run(%llu)", (unsigned long long)chunk)
                       : std::string(" run"));
            Chip chip(cfg);
            configure(chip);
            RunResult rc{};
            if (chunk) {
                do {
                    rc = chip.run(std::min(chunk, limit - rc.ticks));
                } while (rc.exit == RunExit::TickLimit && rc.ticks < limit);
            } else {
                rc = chip.run(limit);
            }
            EXPECT_EQ(int(rc.exit), int(rr.exit)) << how;
            EXPECT_EQ(rc.ticks, rr.ticks) << how;
            EXPECT_EQ(allStats(chip), ref_stats) << how;
            EXPECT_EQ(synchro::test::allRegs(chip), ref_regs) << how;
            EXPECT_EQ(allSram(chip), ref_sram) << how;
        }
    }
}

/** @p n copies of @p line. */
std::string
repeatLine(const char *line, unsigned n)
{
    std::string out;
    for (unsigned i = 0; i < n; ++i)
        out += line;
    return out;
}

} // namespace

TEST(CompiledBlocks, CommOpsAroundTheBusHorizon)
{
    // Column 0 writes two words, column 1 reads them, over a drive
    // and capture slot at offset 3 of every 8 bus cycles. The leads
    // sweep each cwr and crd across its horizon phase: one slot
    // before it, at it and after it, on both sides of the bus, with
    // the producer's second cwr and the consumer's crds stalling
    // mid-block, and behind ZORM nops on odd sweeps. A cwr issued
    // early past its horizon is driven a period too soon; a crd
    // issued early past its horizon makes room for a capture that
    // should overrun or defer.
    const std::pair<unsigned, unsigned> dividers[] = {
        {1, 1}, {2, 3}, {3, 1}};
    mapping::CommSchedule prod;
    prod.period = 8;
    prod.transfers = {{3, 0, 0, {}, true}};
    const DouProgram prod_dou = mapping::compileSchedule(prod);
    mapping::CommSchedule cons;
    cons.period = 8;
    cons.transfers = {{3, 0, -1, {0}, false}};
    const DouProgram cons_dou = mapping::compileSchedule(cons);
    for (unsigned lp = 0; lp < 9; ++lp) {
        const isa::Program producer =
            assemble("movi r7, 5\n" + repeatLine("addi r1, 1\n", lp) +
                     "cwr r7\naddi r7, 1\ncwr r7\nhalt\n");
        for (unsigned lc = 0; lc < 9; ++lc) {
            const isa::Program consumer =
                assemble("movi r2, 0\n" + repeatLine("addi r3, 1\n", lc) +
                         "crd r0\ncrd r2\nadd r0, r0, r2\nhalt\n");
            const bool paced = (lp + lc) % 2 == 1;
            auto configure = [&](Chip &chip) {
                chip.column(0).controller().loadProgram(producer);
                chip.column(1).controller().loadProgram(consumer);
                if (paced)
                    chip.column(0).controller().setRateMatch(1, 3);
                chip.column(0).dou().load(prod_dou);
                chip.column(1).dou().load(cons_dou);
            };
            for (auto [dp, dc] : dividers) {
                for (bool self_timed : {false, true}) {
                    ChipConfig cfg;
                    cfg.dividers = {dp, dc};
                    cfg.tiles_per_column = 1;
                    cfg.self_timed_bus = self_timed;
                    expectMatchesReference(
                        cfg, configure, 300,
                        strprintf("div %u/%u %s lead %u/%u%s", dp, dc,
                                  self_timed ? "self-timed" : "legacy",
                                  lp, lc, paced ? " paced" : ""));
                    if (HasFailure())
                        return;
                }
            }
        }
    }
}

TEST(CompiledBlocks, BranchesAndSharedLoopEndsUnderZormWithComm)
{
    // The producer sends six words from two loop units sharing an end
    // address and a seventh behind an untaken jncc; the consumer
    // loops with jncc (six times taken, once not), leaves with a
    // taken jcc and stores a running sum to SRAM. Both are paced.
    for (auto [dp, dc] : {std::pair<unsigned, unsigned>{2, 3},
                          std::pair<unsigned, unsigned>{1, 2},
                          std::pair<unsigned, unsigned>{3, 3}}) {
        ChipConfig cfg;
        cfg.dividers = {dp, dc};
        cfg.tiles_per_column = 1;
        cfg.self_timed_bus = true;
        auto configure = [](Chip &chip) {
            chip.column(0).controller().loadProgram(assemble(R"(
                movi r7, 0
                movi r1, 2
                movi r3, 0
                lsetup lc0, e, 2
                lsetup lc1, e, 3
                addi r7, 1
                cwr r7
            e:
                cmplt r3, r1
                jncc skip
                addi r7, 10
                cwr r7
            skip:
                halt
            )"));
            chip.column(0).controller().setRateMatch(2, 5);
            chip.column(1).controller().loadProgram(assemble(R"(
                movi r1, 7
                movi r3, 0
                movi r4, 0
                movpi p1, 0x100
            top:
                crd r0
                add r4, r4, r0
                st.w r4, [p1]+4
                addi r1, -1
                cmpeq r1, r3
                jncc top
                cmpeq r1, r3
                jcc done
                addi r4, 1000
            done:
                halt
            )"));
            chip.column(1).controller().setRateMatch(1, 4);
            mapping::CommSchedule prod;
            prod.period = 6;
            prod.transfers = {{1, 0, 0, {}, true}};
            chip.column(0).dou().load(mapping::compileSchedule(prod));
            mapping::CommSchedule cons;
            cons.period = 6;
            cons.transfers = {{1, 0, -1, {0}, false}};
            chip.column(1).dou().load(mapping::compileSchedule(cons));
        };
        const std::string what = strprintf("div %u/%u", dp, dc);
        expectMatchesReference(cfg, configure, 5'000, what);

        cfg.scheduler = SchedulerKind::Compiled;
        Chip chip(cfg);
        configure(chip);
        EXPECT_EQ(int(chip.run(5'000).exit), int(RunExit::AllHalted))
            << what;
        // 1+2+...+6 + 16, stored after every word.
        EXPECT_EQ(chip.column(1).tile(0).reg(4), 37u) << what;
        EXPECT_EQ(chip.column(1).tile(0).readMemWords(0x100 + 6 * 4, 1),
                  std::vector<int32_t>{37})
            << what;
    }
}

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

namespace
{

/** Two one-tile columns on a self-timed bus. */
ChipConfig
streamConfig(unsigned dp, unsigned dc)
{
    ChipConfig cfg;
    cfg.dividers = {dp, dc};
    cfg.tiles_per_column = 1;
    cfg.self_timed_bus = true;
    return cfg;
}

/**
 * Column 0 sends @p words words to column 1 over lane 0 of the
 * horizontal bus: its DOU drives at every even offset of a period of
 * @p prod_period cycles, and column 1's captures at every
 * @p cons_stride-th offset of @p cons_period. Equal schedules give
 * point-to-point active phases only; a capture on every cycle also
 * gives captures with no drive, and coprime periods a joint period
 * too long for a timeline.
 */
std::function<void(Chip &)>
streamChip(unsigned words, unsigned prod_period, unsigned cons_period,
           unsigned cons_stride)
{
    return [=](Chip &chip) {
        chip.column(0).controller().loadProgram(assemble(strprintf(R"(
            movi r7, 0
            lsetup lc0, e, %u
            addi r7, 3
            cwr r7, 0
        e:
            halt
        )", words)));
        chip.column(1).controller().loadProgram(assemble(strprintf(R"(
            movi r1, 0
            lsetup lc0, e, %u
            crd r0, 0
            add r1, r1, r0
        e:
            halt
        )", words)));
        chip.column(1).controller().setRateMatch(1, 5);
        for (unsigned c = 0; c < 2; ++c) {
            mapping::Transfer t;
            t.lane = 0;
            t.src_tile = c == 0 ? 0 : -1;
            t.to_horizontal = c == 0;
            if (c == 1)
                t.dst_tiles = {0};
            mapping::CommSchedule sched;
            sched.period = c == 0 ? prod_period : cons_period;
            for (t.offset = 0; t.offset < sched.period;
                 t.offset += c == 0 ? 2 : cons_stride)
                sched.transfers.push_back(t);
            chip.column(c).dou().load(mapping::compileSchedule(sched));
        }
    };
}

} // namespace

TEST(SchedulerEquivalence, ChunksEndingInsidePhaseRunsMatchOneRun)
{
    // Slow columns and a bus slot every other cycle: every stretch
    // between edges is a run of reference phases with transfers,
    // deferrals and underruns in it, and the consumer sleeps on its
    // crd. Budgets of 1, 2, 3, 5 and 7 ticks end chunks inside those
    // runs; each chunked run equals one run and the reference.
    auto configure = streamChip(40, 6, 6, 2);
    Chip probe(streamConfig(5, 7));
    configure(probe);
    ASSERT_TRUE(probe.busTimeline()->ready());
    ASSERT_EQ(int(probe.run(50'000).exit), int(RunExit::AllHalted));
    EXPECT_EQ(probe.column(1).tile(0).reg(1), 3u * 40 * 41 / 2);
    EXPECT_EQ(probe.fabric().transfers(), 40u);
    EXPECT_GT(probe.fabric().stats().value("deferrals"), 0u);
    EXPECT_GT(probe.fabric().stats().value("underruns"), 0u);
    expectMatchesReference(
        streamConfig(5, 7), configure, 50'000, "5/7",
        {SchedulerKind::FastEdge, SchedulerKind::Compiled,
         SchedulerKind::ParallelColumns},
        {1, 2, 3, 5, 7});
    expectMatchesReference(
        streamConfig(3, 11), streamChip(40, 6, 3, 1), 50'000, "3/11",
        {SchedulerKind::FastEdge, SchedulerKind::Compiled}, {1, 2, 3, 5, 7});
}

TEST(SchedulerEquivalence, LiteralSteppingFallbackMatchesEventQueue)
{
    // Coprime DOU periods of 97 and 89 cycles: the joint schedule
    // holds more than BusTimeline::MaxNodes active phases, so the
    // chip steps its DOUs literally and each phase of a run goes
    // through refPhase(). FastEdge and Compiled still match the
    // reference, in one run and in chunks.
    auto configure = streamChip(60, 97, 89, 1);
    Chip probe(streamConfig(2, 3));
    configure(probe);
    ASSERT_FALSE(probe.busTimeline()->ready());
    ASSERT_EQ(int(probe.run(200'000).exit), int(RunExit::AllHalted));
    EXPECT_EQ(probe.column(1).tile(0).reg(1), 3u * 60 * 61 / 2);
    expectMatchesReference(
        streamConfig(2, 3), configure, 200'000, "97/89",
        {SchedulerKind::FastEdge, SchedulerKind::Compiled}, {1, 3, 7});
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
