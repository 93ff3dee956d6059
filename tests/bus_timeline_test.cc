/** @file The bus timeline: FastEdge, Compiled and ParallelColumns
 * follow each chip's DOU schedule resolved once, while EventQueue
 * steps the DOUs literally. Seeded differential fuzz of the two
 * against each other (one run, run(97) loops, restart() reuse, DOU
 * reloads, the node-bound fallback, strict-mode fatals), the bus
 * horizons Compiled reads against literal stepping, and the
 * timeline's sharing across concurrent clones. */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arch/chip.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/strutil.hh"
#include "isa/assembler.hh"
#include "mapping/comm_schedule.hh"
#include "test_util.hh"

using namespace synchro;
using namespace synchro::arch;
using synchro::test::allRegs;
using synchro::test::allStats;

namespace
{

constexpr SchedulerKind FastKinds[] = {
    SchedulerKind::FastEdge,
    SchedulerKind::Compiled,
    SchedulerKind::ParallelColumns,
};

/** A generated chip: config plus each column's programs. */
struct Case
{
    ChipConfig cfg;
    // Per column: tile program, ZORM (nops, period) and DOU program.
    std::vector<std::string> asm_src;
    std::vector<std::pair<uint32_t, uint32_t>> zorm;
    std::vector<DouProgram> dous;
    Tick limit = 0;
};

std::unique_ptr<Chip>
build(const Case &k, SchedulerKind kind)
{
    ChipConfig cfg = k.cfg;
    cfg.scheduler = kind;
    // A real team even on small machines, so the barrier path runs.
    cfg.parallel_columns = kind == SchedulerKind::ParallelColumns ? 2 : 0;
    auto chip = std::make_unique<Chip>(cfg);
    for (unsigned c = 0; c < chip->numColumns(); ++c) {
        chip->column(c).controller().loadProgram(
            isa::assemble(k.asm_src[c]));
        chip->column(c).controller().setRateMatch(k.zorm[c].first,
                                                  k.zorm[c].second);
        chip->column(c).dou().load(k.dous[c]);
    }
    return chip;
}

/** Every DOU's state index and counters, flattened. */
std::vector<uint32_t>
douPositions(const Chip &chip)
{
    std::vector<uint32_t> out;
    for (unsigned c = 0; c < chip.numColumns(); ++c) {
        const DouPosition &p = chip.column(c).dou().position();
        out.push_back(p.state);
        out.insert(out.end(), p.counters.begin(), p.counters.end());
    }
    return out;
}

/** Exit, ticks, every stat, registers and DOU positions agree. */
void
expectSame(Chip &ref, RunResult rr, Chip &chip, RunResult rc,
           const std::string &what)
{
    EXPECT_EQ(int(rc.exit), int(rr.exit)) << what;
    EXPECT_EQ(rc.ticks, rr.ticks) << what;
    EXPECT_EQ(allStats(chip), allStats(ref)) << what;
    EXPECT_EQ(allRegs(chip), allRegs(ref)) << what;
    EXPECT_EQ(douPositions(chip), douPositions(ref)) << what;
}

/** Run both chips with run(@p step) in lockstep, comparing each. */
void
steppedCompare(Chip &ref, Chip &chip, Tick step, Tick limit,
               const std::string &what)
{
    while (true) {
        RunResult rr = ref.run(step);
        RunResult rc = chip.run(step);
        expectSame(ref, rr, chip, rc, what);
        if (::testing::Test::HasFailure() ||
            rr.exit != RunExit::TickLimit || ref.curTick() >= limit)
            return;
    }
}

void
randomClocks(Rng &rng, unsigned n, ChipConfig &cfg)
{
    const bool phased = rng.chance(0.5);
    cfg.dividers.clear();
    cfg.phases.clear();
    for (unsigned c = 0; c < n; ++c) {
        const unsigned div = unsigned(rng.range(1, 5));
        cfg.dividers.push_back(div);
        cfg.phases.push_back(phased ? rng.below(div) : 0);
    }
}

/**
 * A chip built to drain: a random tree of producer -> consumer edges
 * over the horizontal bus, each on its own lane and bus-cycle residue
 * modulo a shared grid P. Every column's schedule is compileSchedule
 * output with its own prologue and a period of 1-3 grids (so columns
 * differ in period, yet every slot of an edge lines up on both
 * ends), and every column reads and writes the same number of words
 * per edge. Self-timed buses drain; legacy ones may drop words and
 * run to the tick limit. Every schedule starts after @p lead idle
 * cycles.
 */
Case
drainingCase(Rng &rng, unsigned lead = 0)
{
    Case k;
    const unsigned n = unsigned(rng.range(2, 4));
    const unsigned grid = unsigned(rng.range(4, 12));
    const unsigned words = unsigned(rng.range(2, 24));
    k.cfg.tiles_per_column = 1;
    k.cfg.self_timed_bus = !rng.chance(0.25);
    randomClocks(rng, n, k.cfg);
    k.limit = 30'000;

    std::vector<unsigned> residues(grid);
    for (unsigned i = 0; i < grid; ++i)
        residues[i] = i;
    for (unsigned i = grid - 1; i > 0; --i)
        std::swap(residues[i], residues[rng.below(i + 1)]);

    // A producer's first drive slot must not come before its
    // consumer's capture schedule starts: prologues fall with the
    // column index, and every edge runs from a lower to a higher one.
    std::vector<mapping::CommSchedule> sched(n);
    std::vector<unsigned> prologue(n);
    for (unsigned c = 0; c < n; ++c)
        prologue[c] = lead + unsigned(rng.range(0, 9));
    std::sort(prologue.rbegin(), prologue.rend());
    for (unsigned c = 0; c < n; ++c) {
        sched[c].prologue = prologue[c];
        sched[c].period = grid * unsigned(rng.range(1, 3));
    }
    std::vector<std::vector<unsigned>> ins(n), outs(n);
    auto slots = [&](unsigned col, unsigned r, mapping::Transfer t) {
        const unsigned first = (r + grid * 16 - prologue[col]) % grid;
        for (unsigned o = first; o < sched[col].period; o += grid) {
            t.offset = o;
            sched[col].transfers.push_back(t);
        }
    };
    for (unsigned c = 1; c < n; ++c) {
        const unsigned src = unsigned(rng.below(c));
        const unsigned lane = c - 1;
        outs[src].push_back(lane);
        ins[c].push_back(lane);
        slots(src, residues[lane], {0, lane, 0, {}, true});
        slots(c, residues[lane], {0, lane, -1, {0}, false});
    }

    for (unsigned c = 0; c < n; ++c) {
        std::string body;
        for (unsigned lane : ins[c])
            body += strprintf("crd r0, %u\nadd r1, r1, r0\n", lane);
        for (uint64_t p = rng.below(3); p > 0; --p)
            body += "addi r2, 1\n";
        for (unsigned lane : outs[c])
            body += strprintf("addi r7, 1\ncwr r7, %u\n", lane);
        k.asm_src.push_back(strprintf("movi r7, %u\nmovi r1, 0\n"
                                      "lsetup lc0, e, %u\n%se:\nhalt\n",
                                      c * 1000, words, body.c_str()));
        k.zorm.emplace_back(0, 0);
        if (rng.chance(0.25))
            k.zorm.back() = {uint32_t(rng.range(1, 2)),
                             uint32_t(rng.range(4, 7))};
        k.dous.push_back(mapping::compileSchedule(sched[c]));
    }
    return k;
}

/**
 * A raw DOU machine: wait states, inert self-loops, generic states
 * on nested counters, and sparse drive/capture controls on lanes 0-1.
 */
DouProgram
rawDou(Rng &rng)
{
    DouProgram p;
    const unsigned n = unsigned(rng.range(1, 10));
    for (unsigned i = 0; i < n; ++i) {
        DouState s;
        s.cntr = uint8_t(rng.below(DouNumCounters));
        const uint64_t shape = rng.below(10);
        if (shape < 2) {
            s.nxt0 = s.nxt1 = uint8_t(i); // parked
        } else {
            s.nxt0 = uint8_t(rng.below(n));
            s.nxt1 = shape < 5 ? uint8_t(i) : uint8_t(rng.below(n));
            if (rng.chance(0.35)) {
                BufferCtl ctl;
                ctl.drive = rng.chance(0.5);
                ctl.drive_lane = uint8_t(rng.below(2));
                ctl.capture = !ctl.drive || rng.chance(0.3);
                ctl.capture_lane = uint8_t(rng.below(2));
                s.buf[rng.below(TilesPerColumn)] = ctl.byte();
            }
        }
        for (auto &seg : s.seg)
            seg = uint8_t(rng.below(16));
        p.states.push_back(s);
    }
    for (auto &init : p.counter_init)
        init = uint32_t(rng.below(6));
    return p;
}

/** A random periodic schedule compiled to a DOU program. */
DouProgram
randomSchedule(Rng &rng)
{
    mapping::CommSchedule sched;
    sched.period = unsigned(rng.range(2, 30));
    sched.prologue = unsigned(rng.range(0, 6));
    for (uint64_t i = rng.range(1, 3); i > 0; --i) {
        mapping::Transfer t;
        t.offset = unsigned(rng.below(sched.period));
        t.lane = unsigned(rng.below(2));
        t.src_tile = int(rng.below(4)) - 1;
        t.dst_tiles = {unsigned(rng.below(4))};
        t.to_horizontal = rng.chance(0.5);
        sched.transfers.push_back(t);
    }
    try {
        return mapping::compileSchedule(sched);
    } catch (const FatalError &) {
        return rawDou(rng); // a lane or tile conflict in the draw
    }
}

/**
 * Unstructured chips: raw machines and random schedules on random
 * tile populations, against compute loops, untagged producers and
 * consumers, and the odd column that spins forever.
 */
Case
rawCase(Rng &rng)
{
    Case k;
    const unsigned n = unsigned(rng.range(1, 4));
    k.cfg.tiles_per_column = unsigned(rng.range(1, 4));
    k.cfg.self_timed_bus = rng.chance(0.5);
    randomClocks(rng, n, k.cfg);
    k.limit = 4'000;
    for (unsigned c = 0; c < n; ++c) {
        const uint64_t count = rng.range(1, 12);
        switch (rng.below(7)) {
          case 0:
            k.asm_src.push_back("spin:\naddi r0, 1\njump spin\n");
            break;
          case 1:
          case 2:
            k.asm_src.push_back(strprintf(
                "movi r7, 0\nlsetup lc0, e, %llu\naddi r7, 1\ncwr r7\n"
                "e:\nhalt\n",
                (unsigned long long)count));
            break;
          case 3:
          case 4:
            k.asm_src.push_back(strprintf(
                "movi r1, 0\nlsetup lc0, e, %llu\ncrd r0\n"
                "add r1, r1, r0\ne:\nhalt\n",
                (unsigned long long)count));
            break;
          default:
            k.asm_src.push_back(strprintf(
                "movi r0, 0\nlsetup lc0, e, %llu\naddi r0, 1\ne:\nhalt\n",
                (unsigned long long)(count * 40)));
        }
        k.zorm.emplace_back(0, 0);
        k.dous.push_back(rng.chance(0.5) ? rawDou(rng)
                                         : randomSchedule(rng));
    }
    return k;
}

Case
fuzzCase(Rng &rng, unsigned i)
{
    return i % 3 == 2 ? rawCase(rng) : drainingCase(rng);
}

} // namespace

TEST(BusTimelineFuzz, OneRunMatchesEventQueue)
{
    Rng rng(0x7110);
    unsigned drained = 0, draining = 0;
    for (unsigned i = 0; i < 240 && !HasFailure(); ++i) {
        const Case k = fuzzCase(rng, i);
        auto ref = build(k, SchedulerKind::EventQueue);
        const RunResult rr = ref->run(k.limit);
        if (i % 3 != 2) {
            ++draining;
            drained += rr.exit == RunExit::AllHalted;
        }
        for (SchedulerKind kind : FastKinds) {
            auto chip = build(k, kind);
            const RunResult rc = chip->run(k.limit);
            expectSame(*ref, rr, *chip, rc,
                       strprintf("case %u %s", i, schedulerName(kind)));
        }
    }
    // The corpus must mostly run to completion, or it would test
    // little beyond the tick limit.
    EXPECT_GT(drained * 3, draining * 2)
        << drained << " of " << draining << " draining cases halted";
}

TEST(BusTimelineFuzz, SteppedRunsMatchEventQueue)
{
    Rng rng(0x7111);
    for (unsigned i = 0; i < 60 && !HasFailure(); ++i) {
        const Case k = fuzzCase(rng, i);
        for (SchedulerKind kind : FastKinds) {
            auto ref = build(k, SchedulerKind::EventQueue);
            auto chip = build(k, kind);
            steppedCompare(*ref, *chip, 97, k.limit,
                           strprintf("case %u %s run(97)", i,
                                     schedulerName(kind)));
        }
    }
}

TEST(BusTimelineFuzz, RestartReuseMatchesEventQueue)
{
    Rng rng(0x7112);
    for (unsigned i = 0; i < 60 && !HasFailure(); ++i) {
        const Case k = fuzzCase(rng, i);
        for (SchedulerKind kind : FastKinds) {
            auto ref = build(k, SchedulerKind::EventQueue);
            auto chip = build(k, kind);
            auto timeline = chip->busTimeline();
            for (unsigned item = 0; item < 3; ++item) {
                const RunResult rr = ref->run(k.limit);
                const RunResult rc = chip->run(k.limit);
                expectSame(*ref, rr, *chip, rc,
                           strprintf("case %u %s item %u", i,
                                     schedulerName(kind), item));
                ref->restart();
                chip->restart();
            }
            // restart() keeps the timeline: no DOU was loaded.
            EXPECT_EQ(chip->busTimeline(), timeline);
        }
    }
}

TEST(BusTimelineFuzz, DouReloadBetweenRunsMatchesEventQueue)
{
    Rng rng(0x7113);
    for (unsigned i = 0; i < 60 && !HasFailure(); ++i) {
        const Case k = fuzzCase(rng, i);
        const unsigned col = unsigned(rng.below(k.dous.size()));
        const DouProgram next =
            rng.chance(0.5) ? k.dous[col] : randomSchedule(rng);
        const Tick first = rng.range(1, 400);
        for (SchedulerKind kind : FastKinds) {
            const std::string what =
                strprintf("case %u %s", i, schedulerName(kind));
            auto ref = build(k, SchedulerKind::EventQueue);
            auto chip = build(k, kind);
            RunResult rr = ref->run(first);
            RunResult rc = chip->run(first);
            expectSame(*ref, rr, *chip, rc, what + " before reload");
            if (rr.exit != RunExit::TickLimit)
                continue;
            auto before = chip->busTimeline();
            ref->column(col).dou().load(next);
            chip->column(col).dou().load(next);
            // Even a reload of identical content is a new program.
            EXPECT_NE(chip->busTimeline(), before) << what;
            rr = ref->run(k.limit);
            rc = chip->run(k.limit);
            expectSame(*ref, rr, *chip, rc, what + " after reload");
        }
    }
}

TEST(BusTimelineFuzz, StrictModeFatalMatchesEventQueue)
{
    // Strict legacy buses: an empty drive slot, a driverless capture
    // or an overrun is fatal. Whenever the reference throws, every
    // fast backend throws at the same bus cycle, with every DOU where
    // stepping left it and the same bus and step counts. The
    // schedules start late, so most producers have written before
    // their first slot and the fatal comes mid-run.
    Rng rng(0x7114);
    unsigned fatals = 0, late = 0;
    for (unsigned i = 0; i < 90 && !HasFailure(); ++i) {
        Case k = i % 3 == 2 ? rawCase(rng) : drainingCase(rng, 40);
        k.cfg.strict = true;
        k.cfg.self_timed_bus = false;
        auto ref = build(k, SchedulerKind::EventQueue);
        bool ref_threw = false;
        try {
            ref->run(k.limit);
        } catch (const FatalError &) {
            ref_threw = true;
        }
        fatals += ref_threw;
        late += ref_threw && ref->fabric().transfers() > 0;
        for (SchedulerKind kind : FastKinds) {
            const std::string what =
                strprintf("case %u %s", i, schedulerName(kind));
            auto chip = build(k, kind);
            bool threw = false;
            try {
                chip->run(k.limit);
            } catch (const FatalError &) {
                threw = true;
            }
            EXPECT_EQ(threw, ref_threw) << what;
            EXPECT_EQ(douPositions(*chip), douPositions(*ref)) << what;
            for (unsigned c = 0; c < chip->numColumns(); ++c) {
                EXPECT_EQ(chip->column(c).dou().stats().value("steps"),
                          ref->column(c).dou().stats().value("steps"))
                    << what;
            }
            EXPECT_EQ(chip->fabric().stats().all().size(),
                      ref->fabric().stats().all().size());
            for (const auto &kv : ref->fabric().stats().all()) {
                EXPECT_EQ(chip->fabric().stats().value(kv.first),
                          kv.second.value())
                    << what << " bus." << kv.first;
            }
        }
    }
    EXPECT_GT(fatals, 30u);
    EXPECT_GT(late, 20u);
}

TEST(BusTimeline, FatalAfterQuietGapsLeavesDousWhereSteppingWould)
{
    // A producer writes three words and halts while a second column
    // computes on; the drive slot keeps coming every 8 cycles, so
    // the fourth finds an empty buffer — fatal on a strict legacy
    // bus at tick 28, after three transfers and a run of quiet gaps.
    Case k;
    k.cfg.dividers = {1, 1};
    k.cfg.tiles_per_column = 1;
    k.cfg.strict = true;
    k.asm_src = {"movi r7, 5\ncwr r7\naddi r7, 1\ncwr r7\naddi r7, 1\n"
                 "cwr r7\nhalt\n",
                 "movi r0, 0\nlsetup lc0, e, 500\naddi r0, 1\ne:\nhalt\n"};
    k.zorm = {{0, 0}, {0, 0}};
    mapping::CommSchedule sched;
    sched.period = 8;
    sched.transfers = {{4, 0, 0, {}, true}};
    k.dous = {mapping::compileSchedule(sched), DouProgram::idle()};

    auto ref = build(k, SchedulerKind::EventQueue);
    EXPECT_THROW(ref->run(1'000), FatalError);
    EXPECT_EQ(ref->fabric().transfers(), 3u);
    EXPECT_EQ(ref->column(0).dou().stats().value("steps"), 28u);
    for (SchedulerKind kind : FastKinds) {
        auto chip = build(k, kind);
        EXPECT_THROW(chip->run(1'000), FatalError) << schedulerName(kind);
        EXPECT_EQ(douPositions(*chip), douPositions(*ref))
            << schedulerName(kind);
        EXPECT_EQ(allStats(*chip)["col0.dou.steps"], 28u)
            << schedulerName(kind);
        EXPECT_EQ(chip->fabric().transfers(), 3u) << schedulerName(kind);
    }
}

TEST(BusTimeline, JointPeriodPastTheNodeBoundStepsDousLiterally)
{
    // Two dense schedules on coprime periods of 97 and 89 cycles:
    // their joint period holds far more than MaxNodes active phases,
    // so the timeline does not resolve and the fast backends step
    // the DOUs, still bit-identical to the reference.
    Case k;
    k.cfg.dividers = {2, 3};
    k.cfg.tiles_per_column = 1;
    k.cfg.self_timed_bus = true;
    k.limit = 20'000;
    for (unsigned c = 0; c < 2; ++c) {
        // Column 0 drives lane 0 onto the horizontal bus; column 1
        // captures lane 1 from it.
        mapping::Transfer t;
        t.lane = c;
        t.src_tile = c == 0 ? 0 : -1;
        t.to_horizontal = c == 0;
        if (c == 1)
            t.dst_tiles = {0};
        mapping::CommSchedule sched;
        sched.period = c == 0 ? 97 : 89;
        for (t.offset = 0; t.offset < sched.period; t.offset += 2)
            sched.transfers.push_back(t);
        k.dous.push_back(mapping::compileSchedule(sched));
        k.zorm.emplace_back(0, 0);
    }
    k.asm_src = {"movi r7, 0\nlsetup lc0, e, 300\naddi r7, 1\ncwr r7, 0\n"
                 "e:\nhalt\n",
                 "movi r1, 0\nlsetup lc0, e, 300\naddi r1, 1\ne:\nhalt\n"};

    auto ref = build(k, SchedulerKind::EventQueue);
    const RunResult rr = ref->run(k.limit);
    EXPECT_EQ(int(rr.exit), int(RunExit::AllHalted));
    EXPECT_GT(ref->fabric().transfers(), 0u);
    for (SchedulerKind kind : FastKinds) {
        auto chip = build(k, kind);
        auto timeline = chip->busTimeline();
        const RunResult rc = chip->run(k.limit);
        expectSame(*ref, rr, *chip, rc, schedulerName(kind));
        EXPECT_FALSE(timeline->ready());
        EXPECT_EQ(chip->busTimeline(), timeline);

        auto stepped_ref = build(k, SchedulerKind::EventQueue);
        auto stepped = build(k, kind);
        steppedCompare(*stepped_ref, *stepped, 97, k.limit,
                       strprintf("%s run(97)", schedulerName(kind)));
    }
}

TEST(BusTimeline, ParkedDousMakeOneEndlessGap)
{
    // A compute-only chip's DOUs idle in inert self-loops: one node
    // whose gap never ends, so every quiet stretch is O(1).
    ChipConfig cfg;
    cfg.dividers = {3, 7};
    Chip chip(cfg);
    for (unsigned c = 0; c < 2; ++c) {
        chip.column(c).controller().loadProgram(isa::assemble(
            "movi r0, 0\nlsetup lc0, e, 4000\naddi r0, 1\ne:\nhalt\n"));
    }
    EXPECT_EQ(int(chip.run().exit), int(RunExit::AllHalted));
    auto timeline = chip.busTimeline();
    ASSERT_TRUE(timeline->ready());
    ASSERT_EQ(timeline->numNodes(), 1u);
    EXPECT_EQ(timeline->node(0).gap, MaxTick);
    EXPECT_EQ(chip.column(1).dou().stats().value("steps"),
              chip.curTick() + 1);
}

TEST(BusTimelineHorizons, MatchLiteralSteppingOnRandomMachines)
{
    // From each node's first gap phase, step every DOU literally and
    // plan each phase: column c's horizon is the count of phases
    // through the first whose plan names c, or MaxTick when none in
    // two laps of the schedule does.
    Rng rng(0x7116);
    unsigned checked = 0, never = 0;
    for (unsigned i = 0; i < 150 && !HasFailure(); ++i) {
        const Case k = fuzzCase(rng, i);
        std::vector<std::shared_ptr<const DouProgram>> programs;
        for (const DouProgram &p : k.dous)
            programs.push_back(std::make_shared<const DouProgram>(p));
        const BusTimeline tl(programs);
        if (!tl.ready())
            continue;
        const size_t n = programs.size();
        Tick lap = 0;
        for (uint32_t node = 0; node < tl.numNodes(); ++node) {
            const Tick gap = tl.node(node).gap;
            lap = gap == MaxTick || lap > 100'000 ? MaxTick
                                                  : lap + gap + 1;
        }
        const Tick bound = lap == MaxTick ? 2'000 : 2 * lap;
        const Tick *horizons = tl.commHorizons();
        const uint32_t stride =
            std::max<uint32_t>(1, uint32_t(tl.numNodes() / 24));
        for (uint32_t node = 0; node < tl.numNodes(); node += stride) {
            std::vector<DouPosition> pos;
            tl.positionAt({node, 0}, pos);
            std::vector<Tick> want(n, MaxTick);
            std::vector<ColumnBusView> views(n);
            for (Tick phase = 0; phase < bound; ++phase) {
                for (size_t c = 0; c < n; ++c)
                    views[c].state = &programs[c]->step(pos[c]);
                for (const LanePlan &lp : planCycle(views)) {
                    for (const auto *slots : {&lp.drivers, &lp.captures}) {
                        for (const LanePlan::Slot &sl : *slots) {
                            if (want[sl.col] == MaxTick)
                                want[sl.col] = phase + 1;
                        }
                    }
                }
            }
            for (size_t c = 0; c < n; ++c) {
                EXPECT_EQ(horizons[node * n + c], want[c])
                    << "case " << i << " node " << node << " column "
                    << c;
                ++checked;
                never += want[c] == MaxTick;
            }
        }
    }
    // Enough horizons of both kinds, or the check proves little.
    EXPECT_GT(checked, 1000u);
    EXPECT_GT(never, 20u);
    EXPECT_GT(checked - never, 500u);
}

TEST(BusTimelineShare, ConcurrentClonesShareOneHorizonTable)
{
    // The template's timeline is already built, so the clones' first
    // Compiled runs race only to build its horizon table: every
    // result matches a sequential run, and all of them read the one
    // table the template's timeline holds.
    Rng rng(0x7117);
    Case k = drainingCase(rng);
    k.cfg.self_timed_bus = true;
    auto tmpl = build(k, SchedulerKind::Compiled);
    ASSERT_TRUE(tmpl->busTimeline()->ready());

    auto seq = build(k, SchedulerKind::Compiled);
    const RunResult want = seq->run(k.limit);
    ASSERT_EQ(int(want.exit), int(RunExit::AllHalted));
    const auto want_stats = allStats(*seq);
    const auto want_regs = allRegs(*seq);

    constexpr unsigned Threads = 4, PerThread = 3;
    std::vector<std::unique_ptr<Chip>> clones(Threads * PerThread);
    std::vector<RunResult> results(clones.size());
    std::vector<const Tick *> tables(clones.size());
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < Threads; ++t) {
        pool.emplace_back([&, t] {
            for (unsigned j = 0; j < PerThread; ++j) {
                const unsigned i = t * PerThread + j;
                clones[i] = tmpl->clone();
                results[i] = clones[i]->run(k.limit);
                tables[i] = clones[i]->busTimeline()->commHorizons();
            }
        });
    }
    for (auto &th : pool)
        th.join();

    const Tick *shared = tmpl->busTimeline()->commHorizons();
    for (unsigned i = 0; i < clones.size(); ++i) {
        EXPECT_EQ(int(results[i].exit), int(want.exit)) << i;
        EXPECT_EQ(results[i].ticks, want.ticks) << i;
        EXPECT_EQ(allStats(*clones[i]), want_stats) << i;
        EXPECT_EQ(allRegs(*clones[i]), want_regs) << i;
        EXPECT_EQ(tables[i], shared) << i;
    }
}

TEST(BusTimelineShare, ConcurrentClonesBuildOneTimeline)
{
    // Threads clone one never-run template and run the clones, so
    // the first runs race to build the timeline: each result is
    // bit-identical to a sequential run of a separately built chip,
    // and every clone follows the one timeline the template shares.
    Rng rng(0x7115);
    Case k = drainingCase(rng);
    k.cfg.self_timed_bus = true;
    auto tmpl = build(k, SchedulerKind::Compiled);

    auto seq = build(k, SchedulerKind::Compiled);
    const RunResult want = seq->run(k.limit);
    ASSERT_EQ(int(want.exit), int(RunExit::AllHalted));
    const auto want_stats = allStats(*seq);
    const auto want_regs = allRegs(*seq);
    const auto want_dous = douPositions(*seq);

    constexpr unsigned Threads = 4, PerThread = 3;
    std::vector<std::unique_ptr<Chip>> clones(Threads * PerThread);
    std::vector<RunResult> results(clones.size());
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < Threads; ++t) {
        pool.emplace_back([&, t] {
            for (unsigned j = 0; j < PerThread; ++j) {
                const unsigned i = t * PerThread + j;
                clones[i] = tmpl->clone();
                results[i] = clones[i]->run(k.limit);
            }
        });
    }
    for (auto &th : pool)
        th.join();

    const auto shared = tmpl->busTimeline();
    EXPECT_TRUE(shared->ready());
    for (unsigned i = 0; i < clones.size(); ++i) {
        EXPECT_EQ(int(results[i].exit), int(want.exit)) << i;
        EXPECT_EQ(results[i].ticks, want.ticks) << i;
        EXPECT_EQ(allStats(*clones[i]), want_stats) << i;
        EXPECT_EQ(allRegs(*clones[i]), want_regs) << i;
        EXPECT_EQ(douPositions(*clones[i]), want_dous) << i;
        EXPECT_EQ(clones[i]->busTimeline(), shared) << i;
    }
    EXPECT_NE(seq->busTimeline(), shared);
}
