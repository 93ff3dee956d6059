/** @file FleetExecutor: streaming chip fleets — solo bit-exactness,
 * worker-count determinism, work stealing, serve-to-completion
 * order, snapshot/clone warm-start equivalence on every scheduler
 * backend, and the isolation of clones' copy-on-write tile SRAM. */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "apps/app_harness.hh"
#include "apps/app_registry.hh"
#include "apps/pipeline_runner.hh"
#include "apps/wifi_runner.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "sim/fleet.hh"
#include "test_util.hh"

using namespace synchro;
using namespace synchro::arch;
using synchro::isa::assemble;
using synchro::test::allStats;

namespace
{

constexpr unsigned SumInputs = 16;
constexpr uint32_t SumInBase = 0x0000;
constexpr uint32_t SumOutBase = 0x0100;

/** The synthetic item input: SumInputs small positive halves. */
std::vector<int16_t>
sumInput(uint32_t base_seed, uint64_t item)
{
    Rng rng(sim::fleetItemSeed(base_seed, item));
    std::vector<int16_t> h(SumInputs);
    for (auto &v : h)
        v = int16_t(rng.below(100));
    return h;
}

/**
 * A minimal single-column workload — sum SumInputs halves from SRAM
 * into one output half — whose data path still exercises the full
 * fleet contract: restart, SRAM wipe, per-item refeed, golden
 * verification.
 */
sim::FleetWorkload
sumWorkload(uint32_t base_seed)
{
    sim::FleetWorkload wl;
    wl.name = "sum";
    wl.tick_limit = 100'000;
    wl.build = [](SchedulerKind kind) {
        ChipConfig cfg;
        cfg.dividers = {1};
        cfg.tiles_per_column = 1;
        cfg.scheduler = kind;
        auto chip = std::make_unique<Chip>(cfg);
        chip->column(0).controller().loadProgram(
            assemble(strprintf(R"(
            movpi p0, %u
            movpi p1, %u
            movi r0, 0
            lsetup lc0, e, %u
            ld.h r1, [p0]+2
            add r0, r0, r1
        e:
            st.h r0, [p1]+2
            halt
        )",
                               SumInBase, SumOutBase, SumInputs)));
        return chip;
    };
    wl.feed = [base_seed](Chip &chip, uint64_t item) {
        chip.restart();
        Tile &tile = chip.column(0).tile(0);
        tile.clearMem();
        tile.writeMemHalves(SumInBase, sumInput(base_seed, item));
    };
    wl.read_output = [](Chip &chip) {
        return apps::bytesOfHalves(
            chip.column(0).tile(0).readMemHalves(SumOutBase, 1));
    };
    wl.golden = [base_seed](uint64_t item) {
        int16_t sum = 0;
        for (int16_t v : sumInput(base_seed, item))
            sum = int16_t(sum + v);
        return apps::bytesOfHalves({sum});
    };
    return wl;
}

/**
 * A three-column variant of sumWorkload on mixed dividers, with the
 * parallel-columns team size pinned to 2 in the build — so a fleet
 * serving it on the ParallelColumns backend runs nested pools (fleet
 * workers outside, column teams inside). The serial backends ignore
 * the knob, which keeps the same workload usable as the reference.
 */
sim::FleetWorkload
parSumWorkload(uint32_t base_seed)
{
    sim::FleetWorkload wl;
    wl.name = "parsum";
    wl.tick_limit = 100'000;
    wl.build = [](SchedulerKind kind) {
        ChipConfig cfg;
        cfg.dividers = {1, 2, 3};
        cfg.tiles_per_column = 1;
        cfg.scheduler = kind;
        cfg.parallel_columns = 2;
        auto chip = std::make_unique<Chip>(cfg);
        for (unsigned c = 0; c < 3; ++c) {
            chip->column(c).controller().loadProgram(
                assemble(strprintf(R"(
                movpi p0, %u
                movpi p1, %u
                movi r0, 0
                lsetup lc0, e, %u
                ld.h r1, [p0]+2
                add r0, r0, r1
            e:
                st.h r0, [p1]+2
                halt
            )",
                                   SumInBase, SumOutBase,
                                   SumInputs)));
        }
        return chip;
    };
    wl.feed = [base_seed](Chip &chip, uint64_t item) {
        chip.restart();
        for (unsigned c = 0; c < 3; ++c) {
            Tile &tile = chip.column(c).tile(0);
            tile.clearMem();
            tile.writeMemHalves(
                SumInBase, sumInput(base_seed + 31 * c, item));
        }
    };
    wl.read_output = [](Chip &chip) {
        std::vector<int16_t> sums;
        for (unsigned c = 0; c < 3; ++c) {
            auto h =
                chip.column(c).tile(0).readMemHalves(SumOutBase, 1);
            sums.push_back(h[0]);
        }
        return apps::bytesOfHalves(sums);
    };
    wl.golden = [base_seed](uint64_t item) {
        std::vector<int16_t> sums;
        for (unsigned c = 0; c < 3; ++c) {
            int16_t sum = 0;
            for (int16_t v : sumInput(base_seed + 31 * c, item))
                sum = int16_t(sum + v);
            sums.push_back(sum);
        }
        return apps::bytesOfHalves(sums);
    };
    return wl;
}

} // namespace

TEST(Fleet, StreamsMatchSoloRunsBitExactly)
{
    // Every item served through the fleet must equal a solo run of
    // the same item on a fresh chip — the golden hook *is* that
    // solo-derived truth, and all_verified asserts it item by item.
    sim::FleetConfig fc;
    fc.workers = 3;
    fc.keep_outputs = true;
    sim::FleetExecutor fleet(fc);
    unsigned w = fleet.addWorkload(sumWorkload(7));

    fleet.admitStream(w, 4, 0);
    fleet.admitStream(w, 1, 4);
    fleet.admitStream(w, 3, 5);
    sim::FleetReport rep = fleet.drain();

    EXPECT_TRUE(rep.all_verified);
    EXPECT_EQ(rep.streams, 3u);
    EXPECT_EQ(rep.items, 8u);
    EXPECT_EQ(rep.clones, 3u);
    EXPECT_EQ(rep.totals.halted, 8u);
    ASSERT_EQ(rep.stream_results.size(), 3u);

    // And independently: each kept output equals a from-scratch chip
    // run of that item, outside the fleet entirely.
    sim::FleetWorkload wl = sumWorkload(7);
    for (const auto &s : rep.stream_results) {
        ASSERT_EQ(s.outputs.size(), s.items);
        EXPECT_EQ(s.first_failure, "");
        for (uint64_t i = 0; i < s.items; ++i) {
            auto solo = wl.build(defaultSchedulerKind());
            wl.feed(*solo, s.item_base + i);
            ASSERT_EQ(int(solo->run(wl.tick_limit).exit),
                      int(RunExit::AllHalted));
            EXPECT_EQ(s.outputs[i], wl.read_output(*solo))
                << "stream item " << s.item_base + i;
        }
    }
}

TEST(Fleet, DeterministicAcrossWorkerCounts)
{
    // The same streams served by 1 worker and by 4 must produce
    // identical per-stream outputs and identical merged counters —
    // scheduling freedom must never leak into results.
    auto serve = [](unsigned workers) {
        sim::FleetConfig fc;
        fc.workers = workers;
        fc.keep_outputs = true;
        sim::FleetExecutor fleet(fc);
        unsigned w = fleet.addWorkload(sumWorkload(21));
        for (unsigned s = 0; s < 6; ++s)
            fleet.admitStream(w, 1 + s % 3, 10 * s);
        return fleet.drain();
    };

    sim::FleetReport serial = serve(1);
    sim::FleetReport wide = serve(4);
    EXPECT_TRUE(serial.all_verified);
    EXPECT_TRUE(wide.all_verified);
    ASSERT_EQ(wide.stream_results.size(),
              serial.stream_results.size());
    for (size_t i = 0; i < serial.stream_results.size(); ++i) {
        EXPECT_EQ(wide.stream_results[i].outputs,
                  serial.stream_results[i].outputs)
            << i;
        EXPECT_EQ(wide.stream_results[i].ticks,
                  serial.stream_results[i].ticks)
            << i;
    }
    EXPECT_EQ(wide.totals.counters, serial.totals.counters);
    EXPECT_EQ(wide.totals.total_ticks, serial.totals.total_ticks);
}

TEST(Fleet, SixtyFourStreamSmoke)
{
    // The CI sanitize/TSan smoke: a 64-stream fleet across many
    // workers, every stream verified.
    sim::FleetConfig fc;
    fc.workers = 8;
    sim::FleetExecutor fleet(fc);
    unsigned w = fleet.addWorkload(sumWorkload(64));
    for (unsigned s = 0; s < 64; ++s)
        fleet.admitStream(w, 2, 2 * s);
    sim::FleetReport rep = fleet.drain();
    EXPECT_TRUE(rep.all_verified);
    EXPECT_EQ(rep.streams, 64u);
    EXPECT_EQ(rep.items, 128u);
    EXPECT_GT(rep.chips_per_sec, 0.0);
    EXPECT_GT(rep.ticks_per_sec, 0.0);
    EXPECT_EQ(rep.items_by_worker.size(), 8u);
}

TEST(Fleet, WorkStealingDrainsSkewedStreams)
{
    // Deterministic steal setup: gate both workers inside a blocked
    // feed, queue real work behind them, then release one worker —
    // it must finish its gated item and STEAL the queued streams
    // while the other worker is still blocked.
    std::promise<void> release_first, release_second;
    std::shared_future<void> first(release_first.get_future());
    std::shared_future<void> second(release_second.get_future());

    sim::FleetConfig fc;
    fc.workers = 2;
    fc.keep_outputs = true;
    sim::FleetExecutor fleet(fc);

    sim::FleetWorkload gated = sumWorkload(3);
    auto inner_feed = gated.feed;
    gated.feed = [inner_feed, first, second](Chip &chip,
                                             uint64_t item) {
        (item == 0 ? first : second)
            .wait_for(std::chrono::seconds(30));
        inner_feed(chip, item);
    };
    unsigned g = fleet.addWorkload(gated);
    unsigned w = fleet.addWorkload(sumWorkload(5));

    // Two 1-item gated streams occupy both workers...
    fleet.admitStream(g, 1, 0);
    fleet.admitStream(g, 1, 1);
    // ...then real work queues up behind them.
    fleet.admitStream(w, 3, 0);
    fleet.admitStream(w, 1, 3);

    // Release only the second gate: exactly one worker wakes and
    // must cross deques for at least one of the queued streams.
    release_second.set_value();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    release_first.set_value();

    sim::FleetReport rep = fleet.drain();
    EXPECT_TRUE(rep.all_verified);
    EXPECT_EQ(rep.items, 6u);
    EXPECT_GE(rep.steals, 1u);
}

TEST(Fleet, OneWorkerServesEachStreamToCompletion)
{
    // One worker and three 3-item streams admitted together: the
    // worker serves each stream to completion on its live chip before
    // it clones the next, so items are fed stream by stream and at
    // most one chip is ever live. The first feed waits until all
    // three streams are queued, so the order cannot depend on how
    // fast the worker wakes. One worker: the hooks never race.
    std::promise<void> admitted;
    std::shared_future<void> all_queued(admitted.get_future());
    struct Probe
    {
        std::vector<uint64_t> fed;
        std::map<const Chip *, unsigned> reads; //!< per live chip
        unsigned live = 0, peak = 0;
    };
    auto probe = std::make_shared<Probe>();

    sim::FleetWorkload wl = sumWorkload(9);
    wl.feed = [inner = wl.feed, all_queued, probe](Chip &chip, uint64_t item) {
        all_queued.wait_for(std::chrono::seconds(30));
        probe->fed.push_back(item);
        if (item % 10 == 0) { // a stream's first item: a new chip
            probe->reads[&chip] = 0;
            probe->peak = std::max(probe->peak, ++probe->live);
        }
        inner(chip, item);
    };
    wl.read_output = [inner = wl.read_output, probe](Chip &chip) {
        if (++probe->reads[&chip] == 3) // the stream's last item
            --probe->live;
        return inner(chip);
    };

    sim::FleetConfig fc;
    fc.workers = 1;
    sim::FleetExecutor fleet(fc);
    unsigned w = fleet.addWorkload(wl);
    for (unsigned s = 0; s < 3; ++s)
        fleet.admitStream(w, 3, 10 * s);
    admitted.set_value();
    sim::FleetReport rep = fleet.drain();

    EXPECT_TRUE(rep.all_verified);
    EXPECT_EQ(rep.clones, 3u);
    EXPECT_EQ(probe->fed,
              (std::vector<uint64_t>{0, 1, 2, 10, 11, 12, 20, 21, 22}));
    EXPECT_EQ(probe->peak, 1u);
    EXPECT_EQ(probe->live, 0u);
}

TEST(Fleet, FailuresAreRecordedNotThrown)
{
    sim::FleetConfig fc;
    fc.workers = 2;
    sim::FleetExecutor fleet(fc);

    sim::FleetWorkload bad = sumWorkload(9);
    bad.name = "bad";
    bad.golden = [](uint64_t) {
        return std::vector<uint8_t>{0xde, 0xad};
    };
    sim::FleetWorkload starved = sumWorkload(9);
    starved.name = "starved";
    starved.tick_limit = 5;
    unsigned b = fleet.addWorkload(bad);
    unsigned ok = fleet.addWorkload(sumWorkload(9));
    unsigned st = fleet.addWorkload(starved);
    fleet.admitStream(b, 2, 0);
    fleet.admitStream(ok, 2, 0);
    fleet.admitStream(st, 2, 0);

    sim::FleetReport rep = fleet.drain();
    EXPECT_FALSE(rep.all_verified);
    ASSERT_EQ(rep.stream_results.size(), 3u);
    EXPECT_GT(rep.stream_results[0].mismatches, 0u);
    EXPECT_NE(rep.stream_results[0].first_failure, "");
    EXPECT_EQ(rep.stream_results[1].mismatches, 0u);
    EXPECT_EQ(rep.stream_results[1].first_failure, "");
    EXPECT_EQ(int(rep.stream_results[1].last_exit),
              int(RunExit::AllHalted));

    // A run that hits its budget is a recorded failure too, and the
    // stream remembers how its last run ended.
    EXPECT_EQ(rep.stream_results[2].mismatches, 2u);
    EXPECT_EQ(int(rep.stream_results[2].last_exit),
              int(RunExit::TickLimit));
    EXPECT_NE(rep.stream_results[2].first_failure.find("tick limit"),
              std::string::npos);
    EXPECT_EQ(rep.totals.halted, 4u);
    EXPECT_EQ(rep.totals.tick_limited, 2u);
}

TEST(Fleet, AddWorkloadWhileServingIsSafe)
{
    // Workload registration must be safe while workers are already
    // serving earlier streams: workload storage is
    // reallocation-stable, so the references/pointers serving
    // workers hold survive every push_back. Register-admit in a
    // tight loop so serving overlaps registration (TSan covers the
    // race in CI).
    sim::FleetConfig fc;
    fc.workers = 4;
    sim::FleetExecutor fleet(fc);

    constexpr unsigned Rounds = 12;
    for (unsigned r = 0; r < Rounds; ++r) {
        unsigned w = fleet.addWorkload(sumWorkload(100 + r));
        fleet.admitStream(w, 3, 7 * r);
        // References handed out before later registrations must
        // remain valid afterwards.
        EXPECT_EQ(fleet.workload(w).name, "sum");
        EXPECT_EQ(fleet.templateChip(w)->curTick(), 0u);
    }

    sim::FleetReport rep = fleet.drain();
    EXPECT_TRUE(rep.all_verified);
    EXPECT_EQ(rep.streams, Rounds);
    EXPECT_EQ(rep.items, 3u * Rounds);
    EXPECT_EQ(rep.clones, Rounds);
}

TEST(Fleet, RetiredWorkloadAdmitsNothingAndFreesItsTemplate)
{
    sim::FleetConfig fc;
    fc.workers = 2;
    sim::FleetExecutor fleet(fc);

    const unsigned w = fleet.addWorkload(sumWorkload(17));
    std::weak_ptr<const Chip> tmpl = fleet.templateChip(w);
    fleet.admitStream(w, 3);
    fleet.admitStream(w, 2, 3);
    fleet.retireWorkload(w);
    EXPECT_THROW(fleet.admitStream(w, 1), FatalError);
    EXPECT_THROW(fleet.templateChip(w), FatalError);
    EXPECT_THROW(fleet.retireWorkload(w + 1), FatalError);

    // Streams admitted before the retirement still clone and serve.
    sim::FleetReport rep = fleet.drain();
    EXPECT_TRUE(rep.all_verified);
    EXPECT_EQ(rep.streams, 2u);
    EXPECT_EQ(rep.items, 5u);
    EXPECT_EQ(rep.clones, 2u);
    EXPECT_TRUE(tmpl.expired());
    EXPECT_EQ(fleet.workload(w).name, "sum");
}

TEST(Fleet, ThrowingFeedAbandonsStreamWithoutDeadlockingDrain)
{
    // A hook that throws mid-stream abandons the rest of that stream;
    // the skipped items must still be credited or drain() waits
    // forever for work no worker will ever pick up. Cover both the
    // worst case (throw on item 0, nothing served) and a mid-stream
    // throw, with a healthy stream riding alongside.
    sim::FleetConfig fc;
    fc.workers = 2;
    sim::FleetExecutor fleet(fc);

    sim::FleetWorkload first = sumWorkload(17);
    first.name = "throws-first";
    auto inner = first.feed;
    first.feed = [inner](Chip &chip, uint64_t item) {
        if (item < 100)
            throw std::runtime_error("feed rejected item");
        inner(chip, item);
    };
    sim::FleetWorkload mid = sumWorkload(17);
    mid.name = "throws-mid";
    mid.feed = [inner](Chip &chip, uint64_t item) {
        if (item == 1)
            throw std::runtime_error("feed rejected item");
        inner(chip, item);
    };
    unsigned f = fleet.addWorkload(first);
    unsigned m = fleet.addWorkload(mid);
    unsigned ok = fleet.addWorkload(sumWorkload(17));
    fleet.admitStream(f, 3, 0);  // throws on its first item
    fleet.admitStream(m, 4, 0);  // serves item 0, throws on item 1
    fleet.admitStream(ok, 2, 0); // unaffected

    sim::FleetReport rep = fleet.drain();
    EXPECT_FALSE(rep.all_verified);
    // Items 'served' = pickups that ran (including the two throwing
    // ones); the rest of each broken stream was abandoned.
    EXPECT_EQ(rep.items, 5u);
    EXPECT_EQ(rep.items_abandoned, 4u);
    ASSERT_EQ(rep.stream_results.size(), 3u);

    EXPECT_EQ(rep.stream_results[0].items_done, 0u);
    EXPECT_NE(rep.stream_results[0].first_failure.find(
                  "feed rejected item"),
              std::string::npos);
    EXPECT_EQ(rep.stream_results[1].items_done, 1u);
    EXPECT_NE(rep.stream_results[1].first_failure, "");
    EXPECT_EQ(rep.stream_results[2].items_done, 2u);
    EXPECT_EQ(rep.stream_results[2].mismatches, 0u);
    EXPECT_EQ(rep.stream_results[2].first_failure, "");

    // The fleet is still serviceable after the failures: a fresh
    // healthy stream admitted post-drain drains clean.
    fleet.admitStream(ok, 1, 50);
    sim::FleetReport rep2 = fleet.drain();
    EXPECT_EQ(rep2.items, 6u);
    EXPECT_EQ(rep2.stream_results[3].items_done, 1u);
    EXPECT_EQ(rep2.stream_results[3].first_failure, "");
}

TEST(Fleet, EarlierReportsOutliveLaterDrainsAndTheExecutor)
{
    // Reports share the executor's append-only stream history: a
    // report keeps exactly what it saw while later streams, past
    // several history chunks, are served and drained, and after the
    // executor is gone.
    sim::FleetReport first, second;
    {
        sim::FleetConfig cfg;
        cfg.workers = 2;
        cfg.keep_outputs = true;
        sim::FleetExecutor fleet(cfg);
        const unsigned id = fleet.addWorkload(sumWorkload(17));
        for (uint64_t s = 0; s < 200; ++s)
            fleet.admitStream(id, 1, s);
        first = fleet.drain();
        for (uint64_t s = 200; s < 600; ++s)
            fleet.admitStream(id, 1, s);
        second = fleet.drain();
    }
    ASSERT_EQ(first.stream_results.size(), 200u);
    ASSERT_EQ(second.stream_results.size(), 600u);
    EXPECT_TRUE(second.all_verified);
    uint64_t n = 0;
    for (const sim::FleetStreamResult &r : second.stream_results) {
        EXPECT_EQ(r.item_base, n);
        EXPECT_EQ(r.items_done, 1u);
        ASSERT_EQ(r.outputs.size(), 1u);
        if (n < 200) {
            EXPECT_EQ(first.stream_results[n].item_base, n);
            EXPECT_EQ(first.stream_results[n].outputs, r.outputs);
        }
        ++n;
    }
    EXPECT_EQ(n, 600u);
}

TEST(Fleet, MappedDdcStreamsMatchSoloRuns)
{
    // The tentpole end-to-end: a mapped DDC fleet, each stream's
    // items golden-verified inside the fleet, then re-checked against
    // solo runs of warm-start clones on the calling thread.
    apps::DdcPipelineParams p;
    p.samples = 64;
    sim::FleetConfig fc;
    fc.workers = 4;
    fc.keep_outputs = true;
    sim::FleetExecutor fleet(fc);
    unsigned w = fleet.addWorkload(
        apps::AppRegistry::instance().at("ddc").fleet(p));

    fleet.admitStream(w, 2, 0);
    fleet.admitStream(w, 1, 2);
    fleet.admitStream(w, 2, 3);
    sim::FleetReport rep = fleet.drain();
    EXPECT_TRUE(rep.all_verified);
    EXPECT_EQ(rep.items, 5u);

    const sim::FleetWorkload &wl = fleet.workload(w);
    for (const auto &s : rep.stream_results) {
        for (uint64_t i = 0; i < s.items; ++i) {
            auto chip = fleet.templateChip(w)->clone();
            wl.feed(*chip, s.item_base + i);
            EXPECT_EQ(int(chip->run(wl.tick_limit).exit),
                      int(RunExit::AllHalted));
            EXPECT_EQ(wl.read_output(*chip), s.outputs[i])
                << "item " << s.item_base + i;
        }
    }
}

TEST(Fleet, CloneMatchesFreshBuildOnEveryBackend)
{
    // Chip::clone of a programmed chip must be indistinguishable
    // from a fresh chip build + program load, on all three
    // scheduler backends: same outputs, same final tick, same
    // statistics — both straight from the template images and after
    // a per-item refeed.
    apps::DdcPipelineParams dp;
    dp.samples = 64;
    apps::WifiPipelineParams wp;
    wp.symbols = 2;
    const apps::AppRegistry &reg = apps::AppRegistry::instance();
    std::vector<sim::FleetWorkload> workloads = {
        reg.at("ddc").fleet(dp), reg.at("wifi").fleet(wp)};

    for (const sim::FleetWorkload &wl : workloads) {
        for (SchedulerKind kind : synchro::test::AllSchedulerKinds) {
            SCOPED_TRACE(std::string(wl.name) + " on " +
                         schedulerName(kind));
            auto fresh = wl.build(kind);
            auto donor = wl.build(kind);
            auto cloned = donor->clone();

            auto rf = fresh->run(wl.tick_limit);
            auto rc = cloned->run(wl.tick_limit);
            EXPECT_EQ(int(rc.exit), int(rf.exit));
            EXPECT_EQ(rc.ticks, rf.ticks);
            EXPECT_EQ(wl.read_output(*cloned),
                      wl.read_output(*fresh));
            EXPECT_EQ(allStats(*cloned), allStats(*fresh));

            // Warm path: refeed an item into a clone vs a fresh
            // build fed the same item.
            auto fresh2 = wl.build(kind);
            auto cloned2 = donor->clone();
            wl.feed(*fresh2, 3);
            wl.feed(*cloned2, 3);
            auto rf2 = fresh2->run(wl.tick_limit);
            auto rc2 = cloned2->run(wl.tick_limit);
            EXPECT_EQ(int(rc2.exit), int(rf2.exit));
            EXPECT_EQ(rc2.ticks, rf2.ticks);
            EXPECT_EQ(wl.read_output(*cloned2),
                      wl.read_output(*fresh2));
            EXPECT_EQ(allStats(*cloned2), allStats(*fresh2));
        }
    }
}

TEST(Fleet, CloneCanRehomeAcrossBackends)
{
    // clone(kind) re-homes the snapshot on a different scheduler
    // backend; results must still match the original backend.
    sim::FleetWorkload wl = sumWorkload(11);
    auto donor = wl.build(SchedulerKind::EventQueue);
    auto moved = donor->clone(SchedulerKind::Compiled);
    EXPECT_EQ(int(moved->schedulerKind()),
              int(SchedulerKind::Compiled));

    auto ref = donor->clone();
    wl.feed(*ref, 1);
    wl.feed(*moved, 1);
    auto rr = ref->run(wl.tick_limit);
    auto rm = moved->run(wl.tick_limit);
    EXPECT_EQ(int(rm.exit), int(rr.exit));
    EXPECT_EQ(rm.ticks, rr.ticks);
    EXPECT_EQ(wl.read_output(*moved), wl.read_output(*ref));
}

TEST(Fleet, ParallelColumnsComposeWithFleetPool)
{
    // Nested pools: fleet workers outside, per-chip column teams
    // inside (the workload pins the team to 2, overriding the
    // degrade-on-pool-workers automatic policy). The composed fleet
    // must produce exactly what a serial-backend fleet does on the
    // same streams.
    auto serve = [](SchedulerKind kind) {
        sim::FleetConfig fc;
        fc.workers = 2;
        fc.scheduler = kind;
        fc.keep_outputs = true;
        sim::FleetExecutor fleet(fc);
        unsigned w = fleet.addWorkload(parSumWorkload(41));
        for (unsigned s = 0; s < 4; ++s)
            fleet.admitStream(w, 2, 3 * s);
        return fleet.drain();
    };

    sim::FleetReport par = serve(SchedulerKind::ParallelColumns);
    sim::FleetReport ser = serve(SchedulerKind::FastEdge);
    EXPECT_TRUE(par.all_verified);
    EXPECT_TRUE(ser.all_verified);
    ASSERT_EQ(par.stream_results.size(), ser.stream_results.size());
    for (size_t i = 0; i < ser.stream_results.size(); ++i) {
        EXPECT_EQ(par.stream_results[i].outputs,
                  ser.stream_results[i].outputs)
            << i;
        EXPECT_EQ(par.stream_results[i].ticks,
                  ser.stream_results[i].ticks)
            << i;
    }
    EXPECT_EQ(par.totals.counters, ser.totals.counters);
    EXPECT_EQ(par.totals.total_ticks, ser.totals.total_ticks);
}

TEST(Fleet, ParallelCloneRehomesToSerialBitExactly)
{
    // A clone of a parallel-columns chip re-homed onto a serial
    // backend must be bit-identical to a clone that kept the team —
    // the snapshot carries no backend-specific state.
    sim::FleetWorkload wl = parSumWorkload(23);
    auto donor = wl.build(SchedulerKind::ParallelColumns);
    auto moved = donor->clone(SchedulerKind::FastEdge);
    EXPECT_EQ(int(moved->schedulerKind()),
              int(SchedulerKind::FastEdge));

    auto kept = donor->clone();
    EXPECT_EQ(int(kept->schedulerKind()),
              int(SchedulerKind::ParallelColumns));
    wl.feed(*kept, 1);
    wl.feed(*moved, 1);
    auto rk = kept->run(wl.tick_limit);
    auto rm = moved->run(wl.tick_limit);
    EXPECT_EQ(int(rm.exit), int(rk.exit));
    EXPECT_EQ(rm.ticks, rk.ticks);
    EXPECT_EQ(wl.read_output(*moved), wl.read_output(*kept));
    EXPECT_EQ(allStats(*moved), allStats(*kept));
}

TEST(Fleet, CloneAfterRunningIsRejected)
{
    sim::FleetWorkload wl = sumWorkload(13);
    auto chip = wl.build(defaultSchedulerKind());
    ASSERT_EQ(int(chip->run(wl.tick_limit).exit),
              int(RunExit::AllHalted));
    EXPECT_THROW(chip->clone(), FatalError);

    // restart() rewinds to tick 0, after which snapshots are legal
    // again.
    chip->restart();
    wl.feed(*chip, 0);
    auto again = chip->clone();
    EXPECT_EQ(int(again->run(wl.tick_limit).exit),
              int(RunExit::AllHalted));
}

namespace
{

/** Every tile's whole SRAM, column by column. */
std::vector<uint8_t>
allSram(const Chip &chip)
{
    std::vector<uint8_t> out;
    for (unsigned c = 0; c < chip.numColumns(); ++c) {
        for (unsigned t = 0; t < chip.column(c).numTiles(); ++t) {
            std::vector<uint8_t> mem(Tile::MemBytes);
            chip.column(c).tile(t).readMem(0, mem.data(),
                                           Tile::MemBytes);
            out.insert(out.end(), mem.begin(), mem.end());
        }
    }
    return out;
}

} // namespace

TEST(Fleet, ServingStreamsLeavesTheTemplateSramUntouched)
{
    // Every clone starts out reading its template's SRAM; serving
    // (feeds, kernel stores, concurrent clones on several workers)
    // must never write through to it.
    apps::DdcPipelineParams p;
    p.samples = 64;
    sim::FleetConfig fc;
    fc.workers = 4;
    sim::FleetExecutor fleet(fc);
    const sim::FleetWorkload wl =
        apps::AppRegistry::instance().at("ddc").fleet(p);
    unsigned w = fleet.addWorkload(wl);
    const std::vector<uint8_t> before =
        allSram(*fleet.templateChip(w));
    EXPECT_EQ(before, allSram(*wl.build(defaultSchedulerKind())));

    for (unsigned s = 0; s < 16; ++s)
        fleet.admitStream(w, 1 + s % 3, 7 * s);
    EXPECT_TRUE(fleet.drain().all_verified);
    EXPECT_EQ(allSram(*fleet.templateChip(w)), before);
}

TEST(Fleet, SiblingClonesNeverSeeEachOthersStores)
{
    // The template holds item 0's input, so its clones share a real
    // buffer. Clones (and clones of clones) are then fed, run, or run
    // straight from the shared input; none may see a sibling's or an
    // ancestor's stores, and the template must see none of theirs.
    const sim::FleetWorkload wl = sumWorkload(17);
    std::unique_ptr<Chip> built = wl.build(defaultSchedulerKind());
    wl.feed(*built, 0);
    const std::shared_ptr<const Chip> tmpl = std::move(built);
    const std::vector<uint8_t> tmpl_sram = allSram(*tmpl);

    auto a = tmpl->clone();
    auto b = tmpl->clone();
    wl.feed(*a, 1);
    // a's SRAM is now its own; a clone of it shares that, and a's
    // run must not write into it.
    auto a_copy = a->clone();
    const std::vector<uint8_t> a_fed = allSram(*a);
    ASSERT_EQ(int(a->run(wl.tick_limit).exit), int(RunExit::AllHalted));
    EXPECT_EQ(wl.read_output(*a), wl.golden(1));
    EXPECT_EQ(allSram(*a_copy), a_fed);
    EXPECT_EQ(allSram(*b), tmpl_sram);

    auto c = b->clone();
    wl.feed(*b, 2);
    ASSERT_EQ(int(b->run(wl.tick_limit).exit), int(RunExit::AllHalted));
    EXPECT_EQ(wl.read_output(*b), wl.golden(2));
    EXPECT_EQ(allSram(*c), tmpl_sram);
    // Unfed, c runs item 0 from the shared input; its output store
    // is its first, and copies the buffer first.
    ASSERT_EQ(int(c->run(wl.tick_limit).exit), int(RunExit::AllHalted));
    EXPECT_EQ(wl.read_output(*c), wl.golden(0));
    EXPECT_EQ(wl.read_output(*a), wl.golden(1));
    EXPECT_EQ(allSram(*tmpl), tmpl_sram);

    // The same on threads: clones made, copied and written
    // concurrently from one template.
    std::vector<std::future<bool>> runs;
    for (uint64_t item = 0; item < 8; ++item) {
        runs.push_back(std::async(std::launch::async, [&, item] {
            auto chip = tmpl->clone();
            const uint64_t served = item % 2 ? item : 0;
            if (served != 0)
                wl.feed(*chip, served);
            return chip->run(wl.tick_limit).exit ==
                       RunExit::AllHalted &&
                   wl.read_output(*chip) == wl.golden(served);
        }));
    }
    for (auto &r : runs)
        EXPECT_TRUE(r.get());
    EXPECT_EQ(allSram(*tmpl), tmpl_sram);
}

TEST(Fleet, StandaloneTileStoresStayInThatTile)
{
    namespace b = synchro::isa::build;
    Tile a(0, 0);
    EXPECT_EQ(a.readMemWords(0x10, 3), std::vector<int32_t>(3, 0));
    a.writeMemWords(0x10, {1, 2, 3});

    // Whichever of the two writes first, the other never sees it.
    Tile copy(0, 1);
    copy.copyStateFrom(a);
    EXPECT_EQ(copy.readMemWords(0x10, 3),
              (std::vector<int32_t>{1, 2, 3}));
    a.writeMemWords(0x14, {9});
    EXPECT_EQ(copy.readMemWords(0x10, 3),
              (std::vector<int32_t>{1, 2, 3}));
    Tile copy2(0, 1);
    copy2.copyStateFrom(a);
    copy2.writeMemWords(0x10, {7});
    EXPECT_EQ(a.readMemWords(0x10, 3),
              (std::vector<int32_t>{1, 9, 3}));

    // A store op executed on a copy, and a cleared copy.
    Tile st(0, 2);
    st.copyStateFrom(a);
    st.setReg(0, 0x55);
    st.setPreg(0, 0x10);
    st.execute(b::store(isa::Opcode::STW, 0, 0, isa::MemMode::Offset,
                        0));
    EXPECT_EQ(st.readMemWords(0x10, 1)[0], 0x55);
    Tile cleared(0, 3);
    cleared.copyStateFrom(a);
    cleared.clearMem();
    EXPECT_EQ(cleared.readMemWords(0x10, 2),
              std::vector<int32_t>(2, 0));
    EXPECT_EQ(a.readMemWords(0x10, 3),
              (std::vector<int32_t>{1, 9, 3}));
}
