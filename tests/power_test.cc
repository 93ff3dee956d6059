/** @file Power/area model tests, pinned to the paper's published
 * numbers (DESIGN.md Section 6 calibration points). */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "power/area.hh"
#include "power/interconnect.hh"
#include "power/leakage.hh"
#include "power/system_power.hh"
#include "power/tile_power.hh"
#include "power/vf_model.hh"

using namespace synchro;
using namespace synchro::power;

TEST(TechParams, Table1Values)
{
    const TechParams &t = defaultTech();
    EXPECT_DOUBLE_EQ(t.feature_nm, 130.0);
    EXPECT_DOUBLE_EQ(t.vdd_min, 0.7);
    EXPECT_DOUBLE_EQ(t.vth, 0.332);
    EXPECT_DOUBLE_EQ(t.tile_power_mw_per_mhz, 0.1);
    EXPECT_DOUBLE_EQ(t.tile_area_mm2, 1.82);
    EXPECT_DOUBLE_EQ(t.freq_max_mhz, 600.0);
    // 1.8 M transistors x 830 pA ~ 1.5 mA per tile (Section 4.4).
    EXPECT_NEAR(t.leakMaPerTile(), 1.494, 1e-3);
}

TEST(TilePowerChain, ReproducesSection42Arithmetic)
{
    TilePowerChain chain;
    // 0.03 + 0.11 + 1.75 = 1.89; + 0.25 = 2.14 mW/MHz at 2.5 V.
    EXPECT_NEAR(chain.synthesizedTotal(), 2.14, 1e-9);
    EXPECT_NEAR(chain.customTotalAt2v5(), 0.642, 1e-9);
    // 0.642 / 2.5^2 = 0.1027 -> "which reduces to 0.1mW/MHz at 1V".
    EXPECT_NEAR(chain.uAt1V(), 0.1, 0.005);
}

TEST(TilePower, QuadraticInVoltage)
{
    TilePowerModel m;
    EXPECT_DOUBLE_EQ(m.dynamicMw(100, 1.0), 10.0);
    EXPECT_DOUBLE_EQ(m.dynamicMw(100, 2.0), 40.0);
    EXPECT_DOUBLE_EQ(m.dynamicMw(200, 1.0), 20.0);
    EXPECT_NEAR(m.dynamicMw(120, 0.8), 0.1 * 120 * 0.64, 1e-9);
}

TEST(VfModel, HitsPaperOperatingPointsApproximately)
{
    VfModel m;
    // The fit should land within ~15% of each monotone Table 4 point.
    for (auto [f, v] : std::vector<std::pair<double, double>>{
             {100, 0.7}, {120, 0.8}, {200, 1.0}, {280, 1.1},
             {330, 1.2}, {380, 1.3}, {500, 1.5}}) {
        EXPECT_NEAR(m.frequencyMhz(v), f, 0.15 * f)
            << "at " << v << " V";
    }
}

TEST(VfModel, MonotoneIncreasing)
{
    VfModel m;
    double prev = 0;
    for (double v = 0.62; v <= 2.12; v += 0.05) {
        double f = m.frequencyMhz(v);
        EXPECT_GT(f, prev) << "at " << v;
        prev = f;
    }
}

TEST(VfModel, VoltageForInvertsFrequency)
{
    VfModel m;
    for (double f : {150.0, 250.0, 400.0, 550.0, 700.0}) {
        double v = m.voltageFor(f);
        EXPECT_GE(m.frequencyMhz(v), f * 0.999);
        // Just below v the frequency target must fail (tightness),
        // unless we are clamped at the floor.
        if (v > m.tech().vdd_min + 1e-6) {
            EXPECT_LT(m.frequencyMhz(v - 0.01), f);
        }
    }
}

TEST(VfModel, FloorsAndCeilings)
{
    VfModel m;
    // Anything at or below the floor frequency gets the floor voltage.
    EXPECT_DOUBLE_EQ(m.voltageFor(10.0), 0.7);
    EXPECT_DOUBLE_EQ(m.voltageFor(40.0), 0.7);
    // Far beyond the extended ceiling is unreachable.
    EXPECT_THROW(m.voltageFor(5000.0), FatalError);
    // Below threshold no switching at all.
    EXPECT_DOUBLE_EQ(m.frequencyMhz(0.3), 0.0);
}

TEST(VfModel, FifteenFo4IsFasterByDepthRatio)
{
    VfModel m20(defaultTech(), 20.0);
    VfModel m15(defaultTech(), 15.0);
    for (double v : {0.8, 1.2, 1.6, 2.0}) {
        EXPECT_NEAR(m15.frequencyMhz(v),
                    m20.frequencyMhz(v) * 20.0 / 15.0,
                    1e-6);
    }
}

TEST(SupplyLevels, QuantizesToPaperLevels)
{
    VfModel m;
    SupplyLevels levels(m);
    // Table 4's published pairs must be honoured exactly.
    EXPECT_DOUBLE_EQ(levels.voltageFor(40), 0.7);
    EXPECT_DOUBLE_EQ(levels.voltageFor(100), 0.7);
    EXPECT_DOUBLE_EQ(levels.voltageFor(120), 0.8);
    EXPECT_DOUBLE_EQ(levels.voltageFor(200), 1.0);
    EXPECT_DOUBLE_EQ(levels.voltageFor(280), 1.1);
    EXPECT_DOUBLE_EQ(levels.voltageFor(310), 1.2);
    EXPECT_DOUBLE_EQ(levels.voltageFor(330), 1.2);
    EXPECT_DOUBLE_EQ(levels.voltageFor(370), 1.3);
    EXPECT_DOUBLE_EQ(levels.voltageFor(380), 1.3);
    EXPECT_DOUBLE_EQ(levels.voltageFor(500), 1.5);
    EXPECT_DOUBLE_EQ(levels.voltageFor(540), 1.7);
    // Above 540 the extended (fitted) levels take over and must be
    // monotone.
    double prev_v = 0;
    for (auto [f, v] : levels.levels()) {
        EXPECT_GE(v, prev_v) << "level " << f;
        prev_v = v;
    }
    EXPECT_GE(levels.maxFrequencyMhz(), 600.0);
    EXPECT_THROW(levels.voltageFor(1e5), FatalError);
}

TEST(Interconnect, WireCapacitanceMatchesSection43)
{
    InterconnectModel ic;
    // 387 fF/mm x 10 mm = 3.87 pF per wire.
    EXPECT_NEAR(ic.wireCapF(), 3.87e-12, 1e-15);
    // One 32-bit transfer at 0.8 V: 32 * 3.87pF * 0.64 = 79.2 pJ.
    EXPECT_NEAR(ic.transferEnergyJ(32, 0.8), 79.26e-12, 0.1e-12);
}

TEST(Interconnect, PowerScalesLinearlyInRateAndQuadraticallyInV)
{
    InterconnectModel ic;
    double p1 = ic.powerMw(64e6, 32, 1.0);
    EXPECT_NEAR(ic.powerMw(128e6, 32, 1.0), 2 * p1, 1e-9);
    EXPECT_NEAR(ic.powerMw(64e6, 32, 2.0), 4 * p1, 1e-9);
    EXPECT_NEAR(ic.powerMw(64e6, 64, 1.0), 2 * p1, 1e-9);
    // Segmented transfers over half the bus cost half the energy.
    EXPECT_NEAR(ic.powerMw(64e6, 32, 1.0, 0.5), 0.5 * p1, 1e-9);
}

TEST(Leakage, CalibratedTo830pA)
{
    LeakageModel m;
    EXPECT_NEAR(m.currentPerTransistorA(), 830e-12, 40e-12);
    EXPECT_NEAR(m.currentPerTileMa(), 1.5, 0.08);
    // Sanity: inside Intel's published 130 nm band of 0.65..32.5 nA.
    EXPECT_GT(m.currentPerTransistorA(), 0.65e-9 * 0.5);
    EXPECT_LT(m.currentPerTransistorA(), 32.5e-9);
}

TEST(Leakage, GrowsWithTemperatureAndFallsWithVth)
{
    LeakageModel base;
    LeakageModel::Params hot;
    hot.temperature_c = 110.0;
    LeakageModel hotter(defaultTech(), hot);
    EXPECT_GT(hotter.currentPerTransistorA(),
              base.currentPerTransistorA());
    LeakageModel::Params hivt;
    hivt.vth = 0.45;
    LeakageModel high_vt(defaultTech(), hivt);
    EXPECT_LT(high_vt.currentPerTransistorA(),
              base.currentPerTransistorA());
}

TEST(Leakage, PowerLinearInTilesAndVoltage)
{
    EXPECT_DOUBLE_EQ(LeakageModel::powerMwAt(1.5, 8, 1.0), 12.0);
    EXPECT_DOUBLE_EQ(LeakageModel::powerMwAt(1.5, 16, 1.0), 24.0);
    EXPECT_DOUBLE_EQ(LeakageModel::powerMwAt(1.5, 8, 1.3), 15.6);
}

TEST(Area, Table2TileScalesToHeadlineArea)
{
    AreaModel a;
    // Tile components sum to 7.27 mm^2 at 0.25 um ...
    double um2 = 0;
    for (const auto &c : AreaModel::tileComponents())
        um2 += c.area_um2_250nm;
    EXPECT_NEAR(um2, 7'270'000.0, 10'000.0);
    // ... and land near the headline 1.82 mm^2 after (0.13/0.25)^2.
    EXPECT_NEAR(a.scaledTotalMm2(AreaModel::tileComponents()), 1.97,
                0.02);
    EXPECT_NEAR(a.tileAreaMm2(), 1.82, 1e-9);
}

TEST(Area, ControllerScalesToQuarterMm2)
{
    AreaModel a;
    // SIMD controller (0.25) + DOU (0.0875) = 0.3375 mm^2 headline;
    // the scaled Table 2 rows land close to that.
    EXPECT_NEAR(a.scaledTotalMm2(AreaModel::controllerComponents()),
                a.columnOverheadMm2(), 0.03);
}

TEST(Area, ChipAreaComposition)
{
    AreaModel a;
    double one_col = a.chipAreaMm2(4, 1, 256);
    double four_col = a.chipAreaMm2(16, 4, 256);
    EXPECT_GT(four_col, one_col);
    // Widening the bus grows area linearly in wires.
    double wide = a.chipAreaMm2(16, 4, 1024);
    EXPECT_NEAR(wide - four_col,
                InterconnectModel().busAreaMm2(1024 - 256) * 2, 1e-9);
}

// --- The DESIGN.md Section 6 closed-form calibration rows ---

TEST(SystemPower, DdcMixerRowMatchesTable4)
{
    // DDC digital mixer: 8 tiles, 120 MHz, 0.8 V, ~64e6 transfers/s
    // -> 76.29 mW in Table 4.
    SystemPowerModel m;
    DomainLoad mixer{"mixer", 8, 120.0, 0.8, 64e6};
    PowerBreakdown b = m.loadPower(mixer);
    EXPECT_NEAR(b.tile_mw, 61.44, 0.01);
    EXPECT_NEAR(b.leak_mw, 9.56, 0.05); // 1.494 mA x 8 x 0.8 V
    EXPECT_NEAR(b.total(), 76.29, 1.5);
}

TEST(SystemPower, DdcMixerSingleVoltageRowMatchesTable4)
{
    // Same mixer at the DDC's 1.3 V maximum: Table 4 says 191.83 mW.
    SystemPowerModel m;
    DomainLoad mixer{"mixer", 8, 120.0, 0.8, 64e6};
    PowerBreakdown b = m.loadPower(m.atVoltage(mixer, 1.3));
    EXPECT_NEAR(b.total(), 191.83, 3.0);
}

TEST(SystemPower, StereoVisionSvdRowMatchesTable4)
{
    // SVD: 1 tile, 500 MHz, 1.5 V, no bus traffic -> 114.27 mW.
    SystemPowerModel m;
    DomainLoad svd{"svd", 1, 500.0, 1.5, 0.0};
    EXPECT_NEAR(m.loadPower(svd).total(), 114.27, 1.0);
}

TEST(SystemPower, ViterbiAcsRowMatchesTable4)
{
    // Viterbi ACS: 16 tiles, 540 MHz, 1.7 V, heavy bus traffic
    // (~3.66e9 transfers/s calibrated) -> 3848.01 mW.
    SystemPowerModel m;
    DomainLoad acs{"viterbi-acs", 16, 540.0, 1.7, 3.662e9};
    EXPECT_NEAR(m.loadPower(acs).total(), 3848.01, 25.0);
}

TEST(SystemPower, SingleVoltageUsesMaxAndNeverWins)
{
    SystemPowerModel m;
    std::vector<DomainLoad> app = {
        {"a", 8, 120.0, 0.8, 64e6},
        {"b", 8, 200.0, 1.0, 561e6},
        {"c", 16, 380.0, 1.3, 60e6},
    };
    PowerBreakdown multi = m.designPower(app);
    PowerBreakdown single = m.singleVoltagePower(app);
    EXPECT_GT(single.total(), multi.total());
    // The highest-voltage load is unchanged between the two.
    PowerBreakdown c_multi = m.loadPower(app[2]);
    PowerBreakdown c_single = m.loadPower(m.atVoltage(app[2], 1.3));
    EXPECT_DOUBLE_EQ(c_multi.total(), c_single.total());
}

TEST(SystemPower, LeakageSweepIsLinear)
{
    SystemPowerModel m;
    DomainLoad l{"x", 12, 300.0, 1.2, 0.0};
    m.setLeakMaPerTile(1.5);
    double p1 = m.loadPower(l).total();
    m.setLeakMaPerTile(59.3);
    double p2 = m.loadPower(l).total();
    // Delta = (59.3 - 1.5) mA * 12 tiles * 1.2 V.
    EXPECT_NEAR(p2 - p1, (59.3 - 1.5) * 12 * 1.2, 1e-6);
}

TEST(SystemPower, MonotoneInEveryKnob)
{
    SystemPowerModel m;
    DomainLoad base{"x", 8, 200.0, 1.0, 1e8};
    double p0 = m.loadPower(base).total();
    auto bump = [&](auto mod) {
        DomainLoad l = base;
        mod(l);
        return m.loadPower(l).total();
    };
    EXPECT_GT(bump([](DomainLoad &l) { l.tiles = 9; }), p0);
    EXPECT_GT(bump([](DomainLoad &l) { l.f_mhz = 250; }), p0);
    EXPECT_GT(bump([](DomainLoad &l) { l.v = 1.1; }), p0);
    EXPECT_GT(bump([](DomainLoad &l) {
        l.bus_transfers_per_s = 2e8;
    }), p0);
}
