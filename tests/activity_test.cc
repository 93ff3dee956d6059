/** @file Activity-driven power: simulate, then price the run with
 * the Section 4.1 equations (methodology steps 6-9 end to end). */

#include <gtest/gtest.h>

#include "arch/chip.hh"
#include "common/log.hh"
#include "isa/assembler.hh"
#include "mapping/comm_schedule.hh"
#include "power/activity.hh"

using namespace synchro;
using namespace synchro::arch;
using namespace synchro::power;

namespace
{

VfModel &
vf()
{
    static VfModel v;
    return v;
}

SupplyLevels &
levels()
{
    static SupplyLevels l(vf());
    return l;
}

SystemPowerModel &
model()
{
    static SystemPowerModel m;
    return m;
}

/** A 2-column producer/consumer run processing @p n samples. */
std::unique_ptr<Chip>
runPipeline(unsigned n)
{
    ChipConfig cfg;
    cfg.dividers = {1, 1};
    cfg.tiles_per_column = 1;
    auto chip = std::make_unique<Chip>(cfg);
    chip->column(0).controller().loadProgram(
        isa::assemble(strprintf(R"(
        movi r7, 0
        lsetup lc0, e, %u
        addi r7, 1
        cwr r7
    e:
        halt
    )", n)));
    chip->column(1).controller().loadProgram(
        isa::assemble(strprintf(R"(
        movi r1, 0
        lsetup lc0, e, %u
        crd r0
        add r1, r1, r0
    e:
        halt
    )", n)));
    mapping::CommSchedule prod;
    prod.period = 2;
    prod.transfers = {{0, 0, 0, {}, true}};
    chip->column(0).dou().load(mapping::compileSchedule(prod));
    mapping::CommSchedule cons;
    cons.period = 1;
    cons.transfers = {{0, 0, -1, {0}, false}};
    chip->column(1).dou().load(mapping::compileSchedule(cons));
    auto res = chip->run(1'000'000);
    sync_assert(res.exit == RunExit::AllHalted, "pipeline stuck");
    return chip;
}

} // namespace

TEST(Activity, CollectsPerColumnSlots)
{
    auto chip = runPipeline(100);
    ActivityReport act = collectActivity(*chip);
    ASSERT_EQ(act.columns.size(), 2u);
    // Producer: movi + lsetup + 100 x (addi + cwr) + halt = 203
    // compute slots plus any cwr stalls.
    EXPECT_GE(act.columns[0].compute_slots, 203u);
    EXPECT_GE(act.columns[0].issue_slots,
              act.columns[0].compute_slots);
    EXPECT_EQ(act.columns[0].active_tiles, 1u);
    // Exactly one bus transaction per sample.
    EXPECT_EQ(act.bus_transfers, 100u);
    EXPECT_LE(act.columns[0].utilization, 1.0);
    EXPECT_GT(act.columns[0].utilization, 0.5);
}

TEST(Activity, PricedPowerScalesWithDataRate)
{
    auto chip = runPipeline(200);
    // The same run at 1 MS/s vs 4 MS/s: 4x the frequency demand,
    // so strictly more power (superlinear once voltage steps up).
    PowerBreakdown slow =
        priceSimulationComparison(*chip, 200, 1e6, levels(), model())
            .multi_v;
    PowerBreakdown fast =
        priceSimulationComparison(*chip, 200, 4e6, levels(), model())
            .multi_v;
    EXPECT_GT(fast.tile_mw, 2.0 * slow.tile_mw);
    EXPECT_GT(fast.bus_mw, slow.bus_mw);
    EXPECT_GT(slow.total(), 0.0);
}

TEST(Activity, MatchesHandComputation)
{
    const unsigned n = 250;
    auto chip = runPipeline(n);
    ActivityReport act = collectActivity(*chip);

    const double rate = 2e6; // samples/s
    double seconds = n / rate;
    PowerBreakdown p =
        priceSimulationComparison(*chip, n, rate, levels(), model())
            .multi_v;

    // Hand-evaluate column 0's share.
    double f0_mhz = double(act.columns[0].issue_slots) / seconds /
                    1e6;
    double v0 = levels().voltageFor(f0_mhz);
    double tile0 =
        model().tileModel().dynamicMw(f0_mhz, v0);
    EXPECT_GT(p.tile_mw, tile0 * 0.99); // plus column 1
    EXPECT_LT(p.tile_mw, tile0 * 3.0);

    // Bus: n transfers over the run at the measured span.
    EXPECT_GT(p.bus_mw, 0.0);
}

TEST(Activity, IdleColumnsContributeNothing)
{
    ChipConfig cfg;
    cfg.dividers = {1, 1};
    cfg.tiles_per_column = 1;
    Chip chip(cfg);
    chip.column(0).controller().loadProgram(isa::assemble(R"(
        movi r0, 1
        halt
    )"));
    chip.column(1).controller().loadProgram(
        isa::assemble("halt\n"));
    chip.run(1000);

    ActivityReport act = collectActivity(chip);
    // Column 1 issued only its halt; both are tiny but nonzero.
    EXPECT_GT(act.columns[0].compute_slots,
              act.columns[1].compute_slots);
    EXPECT_EQ(act.bus_transfers, 0u);
}

TEST(Activity, SegmentedTrafficPricedBelowFullSpan)
{
    // A neighbour transfer spans 2 of the 9 bus nodes; its priced
    // bus power must be well below a full-span broadcast of the
    // same volume.
    ChipConfig cfg;
    cfg.dividers = {1};
    cfg.tiles_per_column = 4;
    Chip chip(cfg);
    chip.column(0).controller().loadProgram(isa::assemble(R"(
        tid r7
        lsetup lc0, e, 100
        addi r7, 1
        cwr r7
        crd r0
    e:
        halt
    )"));
    mapping::CommSchedule sched;
    sched.period = 3;
    sched.transfers = {
        {0, 0, 0, {0, 1}, false},
        {0, 2, 1, {}, false},
        {0, 4, 2, {2, 3}, false},
        {0, 6, 3, {}, false},
    };
    chip.column(0).dou().load(mapping::compileSchedule(sched));
    auto res = chip.run(100'000);
    ASSERT_EQ(res.exit, RunExit::AllHalted);

    ActivityReport act = collectActivity(chip);
    unsigned nodes = chip.numColumns() * 4 + 1;
    EXPECT_LT(act.meanSpanFraction(nodes), 0.5);

    PowerBreakdown p =
        priceSimulationComparison(chip, 100, 1e6, levels(), model())
            .multi_v;
    // Same volume at full span for comparison.
    double full = model().busModel().powerMw(
        double(act.bus_transfers) / (100 / 1e6), 32, 0.7, 1.0);
    EXPECT_LT(p.bus_mw, 0.6 * full);
}
