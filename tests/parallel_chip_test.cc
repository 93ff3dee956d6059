/** @file The parallel-columns backend held to the project invariant:
 * bit-identical state, stats, ticks and outputs vs the single-threaded
 * backends on every mapped app, for every tested team size — plus a
 * deterministic skewed-load stress that forces a real barrier wait on
 * a known slot. */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <future>
#include <vector>

#include "apps/motion_runner.hh"
#include "apps/pipeline_runner.hh"
#include "apps/stereo_runner.hh"
#include "apps/wifi_runner.hh"
#include "sim/clock.hh"
#include "sim/scheduler.hh"
#include "test_util.hh"

using namespace synchro;
using namespace synchro::apps;

namespace
{

/**
 * The team sizes every mapped app is cross-checked at: serial, two
 * real threads, four, and "all columns" (64 clamps to the column
 * count inside the scheduler — every app here has fewer columns).
 */
constexpr unsigned TeamSizes[] = {1, 2, 4, 64};

/**
 * Run @p runApp on the two serial fast paths, then on the
 * parallel-columns backend at every team size, and EXPECT the whole
 * observable surface — golden bit-exactness, exit reason, final
 * tick, every chip statistic, and the app output extracted by
 * @p outOf — identical to the FastEdge reference.
 */
template <typename Params, typename RunFn, typename OutFn>
void
crossCheckParallelTeams(RunFn runApp, Params base, OutFn outOf)
{
    base.scheduler = SchedulerKind::FastEdge;
    base.parallel_team = 0;
    auto fe = runApp(base);
    EXPECT_TRUE(fe.bit_exact);

    base.scheduler = SchedulerKind::Compiled;
    auto co = runApp(base);
    EXPECT_TRUE(co.bit_exact);
    EXPECT_EQ(co.ticks, fe.ticks);
    EXPECT_EQ(co.stats, fe.stats);
    EXPECT_EQ(outOf(co), outOf(fe));

    for (unsigned team : TeamSizes) {
        base.scheduler = SchedulerKind::ParallelColumns;
        base.parallel_team = team;
        auto run = runApp(base);
        EXPECT_TRUE(run.bit_exact) << "team " << team;
        EXPECT_EQ(int(run.result.exit), int(fe.result.exit))
            << "team " << team;
        EXPECT_EQ(run.ticks, fe.ticks) << "team " << team;
        EXPECT_EQ(run.stats, fe.stats) << "team " << team;
        EXPECT_EQ(outOf(run), outOf(fe)) << "team " << team;
    }
}

} // namespace

TEST(ParallelChip, DdcBitExactAtEveryTeamSize)
{
    DdcPipelineParams p;
    p.samples = 256; // keep the TSan legs fast
    crossCheckParallelTeams(runMappedDdc, p,
                            [](const MappedDdcRun &r) {
                                return r.output;
                            });
}

TEST(ParallelChip, WifiBitExactAtEveryTeamSize)
{
    WifiPipelineParams p;
    p.symbols = 8;
    crossCheckParallelTeams(runMappedWifi, p,
                            [](const MappedWifiRun &r) {
                                return r.output;
                            });
}

TEST(ParallelChip, StereoBitExactAtEveryTeamSize)
{
    StereoPipelineParams p;
    crossCheckParallelTeams(runMappedStereo, p,
                            [](const MappedStereoRun &r) {
                                return r.output;
                            });
}

TEST(ParallelChip, MotionBitExactAtEveryTeamSize)
{
    MotionPipelineParams p;
    crossCheckParallelTeams(runMappedMotion, p,
                            [](const MappedMotionRun &r) {
                                return r.output_keys;
                            });
}

namespace
{

/**
 * A synthetic SchedModel for deterministic stress: four domains on
 * dividers 1/2/3/4 with skewed edge quotas (domain 0 is the slow
 * column — it issues by far the most slots), reference phases that
 * only count (so any comm-quiet claim is truthful), and a
 * commQuiet() that replays a fixed jitter sequence — every window
 * boundary lands exactly where the sequence says, on every run and
 * every team size.
 *
 * When @p gated, the slow column's second slot (tick 1, the first
 * slot inside the first window) blocks on a promise that is only
 * released by the LAST window slot of domains 1 and 3 — the whole
 * share of the other member of a two-thread team. That member must
 * then sit at the epoch barrier while the leader is still
 * free-running the slow column: a forced barrier wait on a known
 * slot, mirroring fleet_test's forced-steal setup. The gate moves
 * wall-clock timing only, never simulated state, so the gated
 * parallel run must stay bit-identical to an ungated serial one.
 */
class SkewStressModel : public SchedModel
{
  public:
    static constexpr unsigned kDomains = 4;
    static constexpr uint64_t kQuota[kDomains] = {97, 40, 10, 20};
    static constexpr uint64_t kGateEdge = 2;

    SkewStressModel(bool gated, std::vector<Tick> jitter)
        : gated_(gated), jitter_(std::move(jitter))
    {
        static constexpr unsigned divs[kDomains] = {1, 2, 3, 4};
        for (unsigned d = 0; d < kDomains; ++d)
            clocks_.emplace_back(600e6, divs[d], 0);
        if (gated_)
            release_ = gate_.get_future().share();
    }

    unsigned numDomains() const override { return kDomains; }

    const ClockDomain &
    domainClock(unsigned d) const override
    {
        return clocks_[d];
    }

    bool
    domainHalted(unsigned d) const override
    {
        return edges_[d].load(std::memory_order_relaxed) >=
               kQuota[d];
    }

    bool
    allHalted() const override
    {
        for (unsigned d = 0; d < kDomains; ++d) {
            if (!domainHalted(d))
                return false;
        }
        return true;
    }

    void
    domainEdge(unsigned d) override
    {
        const uint64_t n =
            edges_[d].load(std::memory_order_relaxed) + 1;
        if (gated_ && d == 0 && n == kGateEdge) {
            release_.wait_for(std::chrono::seconds(30));
            // The promise fires only after domains 1 and 3 drained
            // their full quotas; the promise/future pair orders
            // those (relaxed) counter writes before these reads.
            gate_order_ok_ =
                edges_[1].load(std::memory_order_relaxed) >=
                    kQuota[1] &&
                edges_[3].load(std::memory_order_relaxed) >=
                    kQuota[3];
        }
        edges_[d].store(n, std::memory_order_relaxed);
        if (gated_ && d == 3 && n == kQuota[3])
            gate_.set_value();
    }

    void
    refPhase() override
    {
        for (auto &p : phases_)
            ++p;
    }

    bool domainsIndependent() const override { return true; }

    Tick
    refPhaseRun(Tick max) override
    {
        for (auto &p : phases_)
            p += max;
        return max;
    }

    Tick
    commQuiet(Tick max) const override
    {
        if (jitter_.empty())
            return 0;
        Tick q = jitter_[probe_++ % jitter_.size()];
        return std::min(q, max);
    }

    std::array<uint64_t, kDomains>
    edgesSnapshot() const
    {
        std::array<uint64_t, kDomains> out{};
        for (unsigned d = 0; d < kDomains; ++d)
            out[d] = edges_[d].load(std::memory_order_relaxed);
        return out;
    }

    std::array<uint64_t, kDomains>
    phasesSnapshot() const
    {
        return phases_;
    }

    bool gateOrderOk() const { return gate_order_ok_; }

  private:
    const bool gated_;
    const std::vector<Tick> jitter_;
    mutable size_t probe_ = 0;
    std::vector<ClockDomain> clocks_;
    std::array<std::atomic<uint64_t>, kDomains> edges_{};
    std::array<uint64_t, kDomains> phases_{};
    std::promise<void> gate_;
    std::shared_future<void> release_;
    bool gate_order_ok_ = false;
};

} // namespace

TEST(ParallelStress, JitteredWindowsMatchSerialBitExactly)
{
    // Window widths deliberately straddle the scheduler's inline
    // threshold, so both the barrier path and the leader-inline
    // path run, with boundaries jittered across the whole run.
    const std::vector<Tick> jitter = {7, 31, 3, 17, 1, 61, 11, 5};

    SkewStressModel ref(false, jitter);
    auto fe = makeScheduler(SchedulerKind::FastEdge);
    SchedStop ss = fe->run(ref, 1'000'000);
    ASSERT_EQ(int(ss), int(SchedStop::AllHalted));

    for (unsigned team : {2u, 4u}) {
        SkewStressModel par(false, jitter);
        auto ps =
            makeScheduler(SchedulerKind::ParallelColumns, team);
        SchedStop sp = ps->run(par, 1'000'000);
        EXPECT_EQ(int(sp), int(ss)) << "team " << team;
        EXPECT_EQ(ps->curTick(), fe->curTick()) << "team " << team;
        EXPECT_EQ(par.edgesSnapshot(), ref.edgesSnapshot())
            << "team " << team;
        EXPECT_EQ(par.phasesSnapshot(), ref.phasesSnapshot())
            << "team " << team;
    }
}

TEST(ParallelStress, ForcedBarrierWaitOnKnownSlot)
{
    // One huge window swallows the whole run, so the first window's
    // rendezvous is the only barrier — and the gate guarantees the
    // fast member reaches it while the slow column is still issuing.
    const std::vector<Tick> one_window = {500};

    SkewStressModel ref(false, one_window);
    auto fe = makeScheduler(SchedulerKind::FastEdge);
    SchedStop ss = fe->run(ref, 1'000'000);
    ASSERT_EQ(int(ss), int(SchedStop::AllHalted));

    SkewStressModel par(true, one_window);
    auto ps = makeScheduler(SchedulerKind::ParallelColumns, 2);
    SchedStop sp = ps->run(par, 1'000'000);
    EXPECT_EQ(int(sp), int(ss));
    // The known slot: domain 0's tick-1 issue slot saw domains 1
    // and 3 fully drained before it executed.
    EXPECT_TRUE(par.gateOrderOk());
    EXPECT_EQ(ps->curTick(), fe->curTick());
    EXPECT_EQ(par.edgesSnapshot(), ref.edgesSnapshot());
    EXPECT_EQ(par.phasesSnapshot(), ref.phasesSnapshot());
}

TEST(ParallelStress, SteppedRunsMatchOneBigRun)
{
    // run(1) in a loop must land on exactly the same state as one
    // large run — the window logic caps at the tick budget, so a
    // stepped run decomposes windows differently but credits
    // identically.
    const std::vector<Tick> jitter = {7, 31, 3, 17, 1, 61, 11, 5};

    SkewStressModel big(false, jitter);
    auto sb = makeScheduler(SchedulerKind::ParallelColumns, 2);
    ASSERT_EQ(int(sb->run(big, 1'000'000)),
              int(SchedStop::AllHalted));

    SkewStressModel stepped(false, jitter);
    auto st = makeScheduler(SchedulerKind::ParallelColumns, 2);
    SchedStop last = SchedStop::TickLimit;
    for (unsigned i = 0; i < 100'000 && last != SchedStop::AllHalted;
         ++i)
        last = st->run(stepped, 1);
    EXPECT_EQ(int(last), int(SchedStop::AllHalted));
    EXPECT_EQ(st->curTick(), sb->curTick());
    EXPECT_EQ(stepped.edgesSnapshot(), big.edgesSnapshot());
    EXPECT_EQ(stepped.phasesSnapshot(), big.phasesSnapshot());
}
