/** @file Paper-value regression tests: every headline claim of the
 * Synchroscalar paper asserted against the model with tolerances.
 * EXPERIMENTS.md catalogues the same numbers in prose. */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "apps/paper_workloads.hh"
#include "apps/platforms.hh"
#include "dsp/viterbi.hh"
#include "mapping/optimizer.hh"
#include "power/vf_model.hh"

using namespace synchro;
using namespace synchro::apps;
using namespace synchro::mapping;
using namespace synchro::power;

namespace
{

SystemPowerModel &
model()
{
    static SystemPowerModel m;
    return m;
}

/** Per-application (multi-V, single-V) totals over Table 4 rows. */
std::pair<double, double>
appTotals(const std::string &app)
{
    double vmax = 0;
    for (const auto &row : paperTable4()) {
        if (row.app == app)
            vmax = std::max(vmax, row.v);
    }
    double multi = 0, single = 0;
    for (const auto &row : paperTable4()) {
        if (row.app != app)
            continue;
        DomainLoad load{row.algo, row.tiles, row.f_mhz, row.v,
                        calibrateTransfers(row, model())};
        multi += model().loadPower(load).total();
        single += model()
                      .loadPower(model().atVoltage(load, vmax))
                      .total();
    }
    return {multi, single};
}

} // namespace

// --- Table 4 ---------------------------------------------------

class Table4Row : public ::testing::TestWithParam<size_t>
{
};

TEST_P(Table4Row, PowerWithinTolerance)
{
    const PaperAlgoRow &row = paperTable4()[GetParam()];
    DomainLoad load{row.algo, row.tiles, row.f_mhz, row.v,
                    calibrateTransfers(row, model())};
    double p = model().loadPower(load).total();
    // Rows whose published power sits below the tile+leakage floor
    // are internally inconsistent in the paper (MPEG4 DCT rows);
    // there the model must still be within 80% (and we document the
    // exact deltas in EXPERIMENTS.md).
    bool inconsistent = calibrateTransfers(row, model()) == 0.0 &&
                        p > row.paper_power_mw;
    double tol = inconsistent ? 0.8 : 0.02;
    EXPECT_NEAR(p, row.paper_power_mw, tol * row.paper_power_mw)
        << row.app << " / " << row.algo;
}

INSTANTIATE_TEST_SUITE_P(AllRows, Table4Row,
                         ::testing::Range<size_t>(
                             0, paperTable4().size()));

TEST(Table4, ConsistentAppTotalsMatchPaper)
{
    // DDC / SV / 802.11a / MPEG4 totals are self-consistent in the
    // paper; ours must land within a few percent.
    for (const auto &t : paperAppTotals()) {
        if (t.app == "802.11a+AES")
            continue; // the paper's total contradicts its own rows
        auto [multi, single] = appTotals(t.app);
        EXPECT_NEAR(multi, t.total_mw, 0.08 * t.total_mw) << t.app;
        EXPECT_NEAR(single, t.single_v_mw, 0.08 * t.single_v_mw)
            << t.app;
    }
}

TEST(Table4, SavingsRangeMatchesAbstract)
{
    // Abstract: "frequency-voltage scaling ... provides between
    // 3-32% power savings in our application suite" (MPEG4-QCIF's
    // 0% is the published floor in Table 4 itself).
    double max_savings = 0;
    for (const auto &name : paperAppNames()) {
        auto [multi, single] = appTotals(name);
        double savings = 100.0 * (single - multi) / single;
        EXPECT_GE(savings, -1e-9) << name;
        max_savings = std::max(max_savings, savings);
        if (name == "802.11a") {
            EXPECT_NEAR(savings, 3.0, 2.0); // the 3% endpoint
        }
        if (name == "SV") {
            EXPECT_NEAR(savings, 32.0, 2.0); // the 32% endpoint
        }
    }
    EXPECT_NEAR(max_savings, 32.0, 2.0);
}

TEST(Table4, ComponentSavingsUpTo81Percent)
{
    // Section 5.1: "Multiple voltages allow power savings of up to
    // 81% for application components" (the De-mod row: 83% in the
    // table; abstract says 81%).
    double best = 0;
    for (const auto &row : paperTable4()) {
        double vmax = 0;
        for (const auto &r2 : paperTable4()) {
            if (r2.app == row.app)
                vmax = std::max(vmax, r2.v);
        }
        DomainLoad load{row.algo, row.tiles, row.f_mhz, row.v,
                        calibrateTransfers(row, model())};
        double multi = model().loadPower(load).total();
        double single =
            model().loadPower(model().atVoltage(load, vmax)).total();
        best = std::max(best,
                        100.0 * (single - multi) / single);
    }
    EXPECT_GE(best, 75.0);
    EXPECT_LE(best, 90.0);
}

// --- Table 3 ---------------------------------------------------

TEST(Table3, AsicGapWithinPaperBand)
{
    // "power efficiencies within 8-30X of known ASIC
    // implementations" — checked on the full-rate ASIC comparators.
    std::map<std::string, double> sync_energy;
    for (const auto &row : paperTable4()) {
        DomainLoad load{row.algo, row.tiles, row.f_mhz, row.v,
                        calibrateTransfers(row, model())};
        sync_energy[row.app] +=
            model().loadPower(load).total() * 1e-3;
    }
    for (auto &[app, p] : sync_energy)
        p = p / appSampleRate(app) * 1e9; // nJ per unit

    // DDC vs Graychip: the paper's own arithmetic gives ~9.7x.
    double ddc_ratio = 0;
    for (const auto &p : paperTable3Platforms()) {
        if (p.platform == "Graychip GC4014")
            ddc_ratio = sync_energy["DDC"] / energyPerUnitNj(p);
    }
    EXPECT_GT(ddc_ratio, 8.0);
    EXPECT_LT(ddc_ratio, 12.0);

    // 802.11a vs the single-chip PHY ASICs (Atheros/IMEC/NEC/Su).
    for (const auto &p : paperTable3Platforms()) {
        if (p.app != "802.11a" || p.kind != PlatformKind::Asic)
            continue;
        double r = sync_energy["802.11a"] / energyPerUnitNj(p);
        EXPECT_GT(r, 5.0) << p.platform;
        EXPECT_LT(r, 35.0) << p.platform;
    }
}

TEST(Table3, BlackfinDdcFactorOf60)
{
    // Section 5.5: "38.0 nW/sample [vs] 2478 nW/sample - a factor
    // of 60 difference".
    double sync_mw = 0;
    for (const auto &row : paperTable4()) {
        if (row.app != "DDC")
            continue;
        DomainLoad load{row.algo, row.tiles, row.f_mhz, row.v,
                        calibrateTransfers(row, model())};
        sync_mw += model().loadPower(load).total();
    }
    double sync_nw_per_sample = sync_mw * 1e-3 / 64e6 * 1e9;
    EXPECT_NEAR(sync_nw_per_sample, 38.0, 1.5);
    for (const auto &p : paperTable3Platforms()) {
        if (p.app == "DDC" && p.platform == "Blackfin 600 MHz") {
            double factor =
                energyPerUnitNj(p) / sync_nw_per_sample;
            EXPECT_NEAR(factor, 60.0, 8.0);
        }
    }
}

// --- Figures 7-10 ----------------------------------------------

TEST(Fig7, DiminishingReturnsShape)
{
    VfModel vf;
    SupplyLevels levels(vf);
    Optimizer opt(model(), levels);
    // MPEG4-CIF has four feasible sweep points: power must fall
    // monotonically while the bus+leak fraction grows.
    AppWorkload app = appWorkload("MPEG4-CIF", model());
    double prev_power = 1e300, prev_dark_frac = 0;
    for (unsigned budget : {8u, 12u, 20u, 36u}) {
        auto m = opt.mapWithBudget(app, budget);
        ASSERT_TRUE(m.has_value()) << budget;
        double total = m->power.total();
        double dark = (m->power.bus_mw + m->power.leak_mw) / total;
        EXPECT_LT(total, prev_power) << budget;
        EXPECT_GE(dark, prev_dark_frac - 0.02) << budget;
        prev_power = total;
        prev_dark_frac = dark;
    }
}

TEST(Fig8, BusWidthKneeAt256)
{
    // The Figure 8 stage model: 16 tiles at 256 bits must land on
    // the paper's 540 MHz operating point and the knee must sit at
    // 256 bits (cf. bench_fig8_viterbi_bus).
    auto stage_cycles = [](unsigned tiles, unsigned bits) {
        double compute = 1.4 * (64.0 / tiles) + 4.4;
        double reuse = std::clamp(tiles / 8.0, 1.0, 4.0);
        double comm = double(dsp::acsCrossTileWords(tiles)) /
                      ((bits / 32.0) * reuse);
        return std::max(compute, comm);
    };
    EXPECT_NEAR(stage_cycles(16, 256) * 54e6 / 1e6, 540.0, 1.0);
    double gain_256 = stage_cycles(16, 128) - stage_cycles(16, 256);
    double gain_512 = stage_cycles(16, 256) - stage_cycles(16, 512);
    EXPECT_GT(gain_256, 4.0 * std::max(gain_512, 0.01));
}

TEST(Fig10, MpegCrossoverNearPaperValue)
{
    VfModel vf;
    SupplyLevels levels(vf);
    SystemPowerModel base;
    Optimizer opt(base, levels);
    AppWorkload app = appWorkload("MPEG4-CIF", base);
    auto m12 = opt.mapWithBudget(app, 12);
    auto m36 = opt.mapWithBudget(app, 36);
    ASSERT_TRUE(m12 && m36);
    std::vector<unsigned> a12, a36;
    for (const auto &l : m12->loads)
        a12.push_back(l.tiles);
    for (const auto &l : m36->loads)
        a36.push_back(l.tiles);

    auto power_at = [&](const std::vector<unsigned> &alloc,
                        double ma) {
        SystemPowerModel m;
        m.setLeakMaPerTile(ma);
        Optimizer o(m, levels);
        AppWorkload a = appWorkload("MPEG4-CIF", m);
        return o.mapWithTiles(a, alloc)->power.total();
    };
    // At the calibrated 1.5 mA the 36-tile structure wins; at the
    // all-low-Vt 59.3 mA the 12-tile structure wins; the cross-over
    // lies in between (paper: 14.8 mA; our model: same decade).
    EXPECT_LT(power_at(a36, 1.5), power_at(a12, 1.5));
    EXPECT_GT(power_at(a36, 59.3), power_at(a12, 59.3));
    double cross = -1;
    for (double ma = 1.5; ma <= 59.3; ma += 0.1) {
        if (power_at(a36, ma) > power_at(a12, ma)) {
            cross = ma;
            break;
        }
    }
    EXPECT_GT(cross, 5.0);
    EXPECT_LT(cross, 40.0);
}

TEST(LeakageSweep, ParallelStructuresDegradeFaster)
{
    // Figure 9/10's qualitative law: d(power)/d(leak) scales with
    // powered tiles x voltage.
    VfModel vf;
    SupplyLevels levels(vf);
    SystemPowerModel base;
    Optimizer opt(base, levels);
    AppWorkload app = appWorkload("802.11a", base);
    auto m20 = opt.mapWithBudget(app, 20);
    auto m36 = opt.mapWithBudget(app, 36);
    ASSERT_TRUE(m20 && m36);
    auto slope = [&](const AppMapping &m) {
        double s = 0;
        for (const auto &l : m.loads)
            s += double(l.tiles) * l.v;
        return s; // mW per mA of per-tile leakage
    };
    EXPECT_GT(slope(*m36), slope(*m20));
}

// --- Calibration sanity -----------------------------------------

TEST(Calibration, MixerTrafficIsOneWordPerSample)
{
    // The calibrated mixer bus rate should reconstruct ~64e6
    // transfers/s — one 32-bit bus word per input sample.
    for (const auto &row : paperTable4()) {
        if (row.app == "DDC" && row.algo == "Digital Mixer") {
            double t = calibrateTransfers(row, model());
            EXPECT_NEAR(t, 64e6, 8e6);
        }
        if (row.app == "802.11a" && row.algo == "Viterbi ACS") {
            double t = calibrateTransfers(row, model());
            EXPECT_NEAR(t, 3.66e9, 0.2e9);
        }
    }
}
