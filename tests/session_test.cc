/** @file SimSession: multi-chip batches, thread-count-independent
 * determinism, and cross-chip stat aggregation. */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "common/log.hh"
#include "isa/assembler.hh"
#include "sim/session.hh"

using namespace synchro;
using namespace synchro::arch;
using synchro::isa::assemble;

namespace
{

/** A small heterogeneous fleet: varied dividers and loop counts. */
void
populate(sim::SimSession &session, unsigned n_chips)
{
    for (unsigned i = 0; i < n_chips; ++i) {
        ChipConfig cfg;
        cfg.dividers = {1u + i % 4, 2u + i % 3};
        cfg.tiles_per_column = 1 + i % 4;
        unsigned id = session.admit(sim::ChipSpec(cfg));
        EXPECT_EQ(id, i);
        for (unsigned c = 0; c < session.chip(id).numColumns(); ++c) {
            session.chip(id).column(c).controller().loadProgram(
                assemble(strprintf(R"(
                movi r0, 0
                lsetup lc0, e, %u
                addi r0, 1
            e:
                halt
            )", 50 + 13 * i)));
        }
    }
}

std::map<std::string, uint64_t>
chipStats(const Chip &chip)
{
    std::map<std::string, uint64_t> out;
    chip.forEachStat([&out](const std::string &name, uint64_t v) {
        out[name] = v;
    });
    return out;
}

} // namespace

TEST(SimSession, RunsEveryChipToCompletion)
{
    sim::SimSession session;
    populate(session, 6);
    auto results = session.runAll(1'000'000);
    ASSERT_EQ(results.size(), 6u);
    for (unsigned i = 0; i < 6; ++i) {
        EXPECT_EQ(int(results[i].exit), int(RunExit::AllHalted)) << i;
        EXPECT_EQ(session.chip(i).column(0).tile(0).reg(0),
                  50u + 13 * i);
    }
    EXPECT_EQ(session.results().size(), 6u);
}

TEST(SimSession, DeterministicAcrossThreadCounts)
{
    // Same fleet, 1 worker vs many workers: per-chip results and
    // every statistic must be identical.
    sim::SessionConfig one;
    one.threads = 1;
    sim::SimSession serial(one);
    populate(serial, 8);
    auto serial_results = serial.runAll(1'000'000);

    sim::SessionConfig many;
    many.threads = 4;
    sim::SimSession parallel(many);
    populate(parallel, 8);
    auto parallel_results = parallel.runAll(1'000'000);

    ASSERT_EQ(serial_results.size(), parallel_results.size());
    for (size_t i = 0; i < serial_results.size(); ++i) {
        EXPECT_EQ(int(parallel_results[i].exit),
                  int(serial_results[i].exit))
            << i;
        EXPECT_EQ(parallel_results[i].ticks, serial_results[i].ticks)
            << i;
        EXPECT_EQ(chipStats(parallel.chip(unsigned(i))),
                  chipStats(serial.chip(unsigned(i))))
            << i;
    }

    auto sa = serial.aggregate();
    auto pa = parallel.aggregate();
    EXPECT_EQ(pa.counters, sa.counters);
    EXPECT_EQ(pa.total_ticks, sa.total_ticks);
    EXPECT_EQ(pa.halted, sa.halted);
}

TEST(SimSession, AggregateCountsExitsAndSumsCounters)
{
    sim::SimSession session;
    // Chip 0 halts; chip 1 spins into its tick budget.
    ChipConfig cfg;
    cfg.dividers = {1};
    cfg.tiles_per_column = 1;
    session.admit(sim::ChipSpec(cfg));
    session.admit(sim::ChipSpec(cfg));
    session.chip(0).column(0).controller().loadProgram(assemble(R"(
        movi r0, 7
        halt
    )"));
    session.chip(1).column(0).controller().loadProgram(assemble(R"(
    spin:
        jump spin
    )"));

    auto results = session.runAll(500);
    EXPECT_EQ(int(results[0].exit), int(RunExit::AllHalted));
    EXPECT_EQ(int(results[1].exit), int(RunExit::TickLimit));

    auto agg = session.aggregate();
    EXPECT_EQ(agg.chips, 2u);
    EXPECT_EQ(agg.halted, 1u);
    EXPECT_EQ(agg.tick_limited, 1u);
    EXPECT_EQ(agg.deadlocked, 0u);
    EXPECT_EQ(agg.max_ticks_reached, 500u);

    // Summed counters equal the per-chip sums.
    uint64_t issued0 =
        session.chip(0).column(0).controller().stats().value("issued");
    uint64_t issued1 =
        session.chip(1).column(0).controller().stats().value("issued");
    EXPECT_EQ(agg.counters.at("col0.ctrl.issued"), issued0 + issued1);
    EXPECT_GT(agg.counters.at("col0.dou.steps"), 0u);
}

TEST(SimSession, RepeatedRunAllAccumulatesTime)
{
    sim::SimSession session;
    ChipConfig cfg;
    cfg.dividers = {1};
    cfg.tiles_per_column = 1;
    session.admit(sim::ChipSpec(cfg));
    session.chip(0).column(0).controller().loadProgram(assemble(R"(
    spin:
        jump spin
    )"));
    auto first = session.runAll(100);
    EXPECT_EQ(first[0].ticks, 100u);
    auto second = session.runAll(100);
    EXPECT_EQ(second[0].ticks, 200u);
}

TEST(SimSession, MixedSchedulerBackendsAgree)
{
    // A session may mix backends chip-by-chip; both halves of a
    // mirrored fleet must produce identical results.
    sim::SimSession session;
    for (auto kind :
         {SchedulerKind::EventQueue, SchedulerKind::FastEdge}) {
        ChipConfig cfg;
        cfg.dividers = {8, 8, 4, 2};
        cfg.scheduler = kind;
        unsigned id = session.admit(sim::ChipSpec(cfg));
        for (unsigned c = 0; c < 4; ++c) {
            session.chip(id).column(c).controller().loadProgram(
                assemble(R"(
                movi r0, 0
                lsetup lc0, e, 400
                addi r0, 1
            e:
                halt
            )"));
        }
    }
    auto results = session.runAll(1'000'000);
    EXPECT_EQ(results[0].ticks, results[1].ticks);
    EXPECT_EQ(chipStats(session.chip(0)), chipStats(session.chip(1)));
}

TEST(SimSession, HeterogeneousBatchMixesAddAdoptAttach)
{
    // One batch, three provenances: a session-built chip, an adopted
    // externally built chip with a different config, and an attached
    // caller-owned chip — each with its own program.
    sim::SimSession session;

    ChipConfig built;
    built.dividers = {2};
    built.tiles_per_column = 1;
    unsigned a = session.admit(sim::ChipSpec(built));
    session.chip(a).column(0).controller().loadProgram(assemble(R"(
        movi r0, 11
        halt
    )"));

    ChipConfig adopted_cfg;
    adopted_cfg.dividers = {1, 3};
    adopted_cfg.tiles_per_column = 2;
    adopted_cfg.scheduler = SchedulerKind::EventQueue;
    auto adopted = std::make_unique<Chip>(adopted_cfg);
    for (unsigned c = 0; c < 2; ++c) {
        adopted->column(c).controller().loadProgram(assemble(R"(
            movi r0, 22
            halt
        )"));
    }
    unsigned b = session.admit(sim::ChipSpec(std::move(adopted)));

    ChipConfig attached_cfg;
    attached_cfg.dividers = {4};
    attached_cfg.tiles_per_column = 1;
    Chip attached(attached_cfg);
    attached.column(0).controller().loadProgram(assemble(R"(
        movi r0, 33
        halt
    )"));
    unsigned c = session.admit(sim::ChipSpec(attached));

    auto results = session.runAll(1'000'000);
    ASSERT_EQ(results.size(), 3u);
    for (const auto &r : results)
        EXPECT_EQ(int(r.exit), int(RunExit::AllHalted));
    EXPECT_EQ(session.chip(a).column(0).tile(0).reg(0), 11u);
    EXPECT_EQ(session.chip(b).column(0).tile(0).reg(0), 22u);
    EXPECT_EQ(session.chip(c).column(0).tile(0).reg(0), 33u);
    EXPECT_EQ(&session.chip(c), &attached);

    // Per-chip stats isolation: the attached chip's statistics are
    // exactly what the same chip produces running solo.
    Chip solo(attached_cfg);
    solo.column(0).controller().loadProgram(assemble(R"(
        movi r0, 33
        halt
    )"));
    solo.run(1'000'000);
    EXPECT_EQ(chipStats(attached), chipStats(solo));

    // And the aggregate is the sum of all three distinct chips.
    auto agg = session.aggregate();
    EXPECT_EQ(agg.chips, 3u);
    EXPECT_EQ(agg.halted, 3u);
}

TEST(SimSession, PerChipTickLimitsGovern)
{
    sim::SimSession session;
    ChipConfig cfg;
    cfg.dividers = {1};
    cfg.tiles_per_column = 1;
    auto spinner = [&] {
        auto chip = std::make_unique<Chip>(cfg);
        chip->column(0).controller().loadProgram(assemble(R"(
        spin:
            jump spin
        )"));
        return chip;
    };
    session.admit(sim::ChipSpec(spinner()).tickLimit(100));
    session.admit(sim::ChipSpec(spinner())); // 0 = use runAll's budget
    unsigned third =
        session.admit(sim::ChipSpec(spinner()).tickLimit(1000));
    session.setTickLimit(third, 50);

    auto results = session.runAll(500);
    EXPECT_EQ(results[0].ticks, 100u);
    EXPECT_EQ(results[1].ticks, 500u);
    EXPECT_EQ(results[2].ticks, 50u);
}

TEST(SimSession, HeterogeneousBatchDeterministicAcrossThreadCounts)
{
    // The same heterogeneous batch — mixed dividers, schedulers and
    // per-chip budgets — run under different pool widths must
    // produce identical per-chip ticks and statistics.
    auto build = [](unsigned threads) {
        sim::SessionConfig scfg;
        scfg.threads = threads;
        auto session = std::make_unique<sim::SimSession>(scfg);
        for (unsigned i = 0; i < 9; ++i) {
            ChipConfig cfg;
            cfg.dividers = {1u + i % 5, 2u + i % 4};
            cfg.tiles_per_column = 1 + i % 4;
            cfg.scheduler = i % 2 ? SchedulerKind::EventQueue
                                  : SchedulerKind::FastEdge;
            auto chip = std::make_unique<Chip>(cfg);
            for (unsigned c = 0; c < chip->numColumns(); ++c) {
                chip->column(c).controller().loadProgram(
                    assemble(strprintf(R"(
                    movi r0, 0
                    lsetup lc0, e, %u
                    addi r0, 1
                e:
                    halt
                )", 40 + 17 * i)));
            }
            session->admit(sim::ChipSpec(std::move(chip))
                               .tickLimit(i % 3 == 0 ? 200 + 100 * i
                                                     : 0));
        }
        return session;
    };

    auto serial = build(1);
    auto parallel = build(4);
    auto rs = serial->runAll(1'000'000);
    auto rp = parallel->runAll(1'000'000);
    ASSERT_EQ(rs.size(), rp.size());
    for (size_t i = 0; i < rs.size(); ++i) {
        EXPECT_EQ(int(rp[i].exit), int(rs[i].exit)) << i;
        EXPECT_EQ(rp[i].ticks, rs[i].ticks) << i;
        EXPECT_EQ(chipStats(parallel->chip(unsigned(i))),
                  chipStats(serial->chip(unsigned(i))))
            << i;
    }
}

TEST(SimSession, EmptySessionIsHarmless)
{
    sim::SimSession session;
    EXPECT_EQ(session.numChips(), 0u);
    auto results = session.runAll(100);
    EXPECT_TRUE(results.empty());
    auto agg = session.aggregate();
    EXPECT_EQ(agg.chips, 0u);
    EXPECT_TRUE(agg.counters.empty());
}

TEST(SimSession, AdmitCoversEveryProvenanceAndKnob)
{
    // The one admission path: session-built from a config (with a
    // backend override folded in before construction), adopted with
    // a per-chip budget, and borrowed with a post-hoc re-home.
    sim::SimSession session;

    ChipConfig cfg;
    cfg.dividers = {1};
    cfg.tiles_per_column = 1;
    cfg.scheduler = SchedulerKind::FastEdge;
    unsigned a = session.admit(
        sim::ChipSpec(cfg).backend(SchedulerKind::EventQueue));
    EXPECT_EQ(int(session.chip(a).schedulerKind()),
              int(SchedulerKind::EventQueue));
    session.chip(a).column(0).controller().loadProgram(assemble(R"(
        movi r0, 5
        halt
    )"));

    auto spinner = std::make_unique<Chip>(cfg);
    spinner->column(0).controller().loadProgram(assemble(R"(
    spin:
        jump spin
    )"));
    unsigned b =
        session.admit(sim::ChipSpec(std::move(spinner)).tickLimit(70));

    Chip borrowed(cfg);
    borrowed.column(0).controller().loadProgram(assemble(R"(
        movi r0, 9
        halt
    )"));
    unsigned c = session.admit(
        sim::ChipSpec(borrowed).backend(SchedulerKind::EventQueue));
    EXPECT_EQ(int(borrowed.schedulerKind()),
              int(SchedulerKind::EventQueue));

    auto results = session.runAll(500);
    EXPECT_EQ(int(results[a].exit), int(RunExit::AllHalted));
    EXPECT_EQ(results[b].ticks, 70u);
    EXPECT_EQ(int(results[c].exit), int(RunExit::AllHalted));
    EXPECT_EQ(borrowed.column(0).tile(0).reg(0), 9u);
}

TEST(SimSession, AdmitRejectsAnEmptySpec)
{
    sim::SimSession session;
    EXPECT_THROW(
        session.admit(sim::ChipSpec(std::unique_ptr<Chip>())),
        FatalError);
}

TEST(SimSession, SingleChipRunsInline)
{
    // One chip (or a one-thread pool) must not cost a thread spawn:
    // the chip runs on the caller's thread, and errors surface
    // directly. Observable contract: the run works and a fatal()
    // from inside the chip still arrives as FatalError.
    sim::SimSession session;
    ChipConfig cfg;
    cfg.dividers = {1};
    cfg.tiles_per_column = 1;
    unsigned id = session.admit(sim::ChipSpec(cfg));
    EXPECT_EQ(session.effectiveThreads(), 1u);
    session.chip(id).column(0).controller().loadProgram(assemble(R"(
        movi r0, 3
        halt
    )"));
    auto results = session.runAll(1'000);
    EXPECT_EQ(int(results[0].exit), int(RunExit::AllHalted));
    EXPECT_EQ(session.chip(id).column(0).tile(0).reg(0), 3u);
}
