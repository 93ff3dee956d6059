/** @file Parameterized property sweeps across module configuration
 * spaces (TEST_P / INSTANTIATE_TEST_SUITE_P per the test plan). */

#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "common/rng.hh"
#include "dsp/cic.hh"
#include "dsp/fft.hh"
#include "dsp/fir.hh"
#include "mapping/rate_match.hh"
#include "power/vf_model.hh"
#include "test_util.hh"

using namespace synchro;
using namespace synchro::dsp;

// ---------------------------------------------------------------
// FFT across sizes

class FftSizes : public ::testing::TestWithParam<size_t>
{
};

TEST_P(FftSizes, RoundTripAndParseval)
{
    const size_t n = GetParam();
    Rng rng(n);
    std::vector<Cplx> x(n);
    for (auto &v : x)
        v = Cplx(rng.gauss(), rng.gauss());
    auto orig = x;

    double te = 0;
    for (const auto &v : x)
        te += std::norm(v);
    fft(x);
    double fe = 0;
    for (const auto &v : x)
        fe += std::norm(v);
    EXPECT_NEAR(fe, te * double(n), 1e-6 * fe);

    ifft(x);
    for (size_t i = 0; i < n; ++i)
        EXPECT_NEAR(std::abs(x[i] - orig[i]), 0.0, 1e-9);
}

TEST_P(FftSizes, LinearityOfFixedPoint)
{
    const size_t n = GetParam();
    if (n < 8)
        return; // quantization dominates tiny transforms
    Rng rng(n * 7);
    std::vector<CplxQ15> a(n), b(n), sum(n);
    for (size_t i = 0; i < n; ++i) {
        a[i] = {toQ15(0.2 * (rng.uniform() - 0.5)), 0};
        b[i] = {toQ15(0.2 * (rng.uniform() - 0.5)), 0};
        sum[i] = {int16_t(a[i].re + b[i].re), 0};
    }
    auto fa = a, fb = b, fs = sum;
    fftQ15(fa);
    fftQ15(fb);
    fftQ15(fs);
    for (size_t k = 0; k < n; ++k) {
        EXPECT_NEAR(fs[k].re, fa[k].re + fb[k].re, 8) << k;
        EXPECT_NEAR(fs[k].im, fa[k].im + fb[k].im, 8) << k;
    }
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftSizes,
                         ::testing::Values(4, 8, 16, 64, 256, 1024));

// ---------------------------------------------------------------
// CIC across configurations

class CicConfigs
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(CicConfigs, DcGainAndOutputRate)
{
    auto [stages, r] = GetParam();
    CicDecimator cic(stages, r);
    EXPECT_DOUBLE_EQ(cic.gain(), std::pow(double(r), stages));
    std::vector<int32_t> dc(r * 80, 2);
    auto y = cic.process(dc);
    ASSERT_EQ(y.size(), dc.size() / r);
    EXPECT_EQ(y.back(), int32_t(2 * cic.gain()));
}

TEST_P(CicConfigs, DecimatedImpulseSumsToGainOverR)
{
    // The full-rate impulse response sums to (R)^N, and the boxcar^N
    // kernel partitions across decimation phases (B-spline partition
    // of unity), so each decimated phase sums to gain / R exactly.
    auto [stages, r] = GetParam();
    CicDecimator cic(stages, r);
    std::vector<int32_t> impulse(r * 64, 0);
    impulse[0] = 1;
    auto y = cic.process(impulse);
    int64_t sum = 0;
    for (int32_t v : y)
        sum += v;
    EXPECT_EQ(sum, int64_t(cic.gain() / r));
}

INSTANTIATE_TEST_SUITE_P(
    StagesByRate, CicConfigs,
    ::testing::Values(std::pair{1u, 4u}, std::pair{2u, 4u},
                      std::pair{3u, 8u}, std::pair{5u, 8u},
                      std::pair{4u, 16u}));

// ---------------------------------------------------------------
// FIR across tap counts

class FirTaps : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FirTaps, ImpulseRecoversTapsAndDcIsUnity)
{
    unsigned taps = GetParam();
    auto h = designLowpassQ15(taps, 0.2);
    ASSERT_EQ(h.size(), taps);
    double dc = 0;
    for (int16_t t : h)
        dc += fromQ15(t);
    EXPECT_NEAR(dc, 1.0, 0.01);

    FirQ15 fir(h);
    std::vector<int16_t> x(taps + 4, 0);
    x[0] = toQ15(0.95);
    auto y = fir.process(x);
    for (unsigned k = 0; k < taps; ++k)
        EXPECT_NEAR(y[k], int(std::lround(h[k] * 0.95)), 2) << k;
}

INSTANTIATE_TEST_SUITE_P(Lengths, FirTaps,
                         ::testing::Values(3, 11, 21, 63, 101));

// ---------------------------------------------------------------
// ZORM on the real controller across (nops, period) pairs

class ZormPairs
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(ZormPairs, SimulatedRateIsExact)
{
    auto [nops, period] = GetParam();
    auto chip = test::singleColumnChip(R"(
        movi r0, 0
        lsetup lc0, e, 2000
        addi r0, 1
    e:
        halt
    )");
    chip->column(0).controller().setRateMatch(nops, period);
    test::runToHalt(*chip, 10'000'000);
    const auto &st = chip->column(0).controller().stats();
    uint64_t real = st.value("issued");
    uint64_t pad = st.value("zormNops");
    double useful = double(real) / double(real + pad);
    EXPECT_NEAR(useful, double(period - nops) / period,
                2.0 / double(real + pad));
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, ZormPairs,
    ::testing::Values(std::pair{1u, 2u}, std::pair{1u, 7u},
                      std::pair{3u, 7u}, std::pair{9u, 10u},
                      std::pair{1u, 1000u}, std::pair{499u, 500u}));


// ---------------------------------------------------------------
// Supply-level / V-f consistency over a frequency grid

TEST(SupplySweep, QuantizedAlwaysAtOrAboveContinuous)
{
    power::VfModel vf;
    power::SupplyLevels levels(vf);
    for (double f = 20; f <= levels.maxFrequencyMhz(); f += 13.7) {
        double vq = levels.voltageFor(f);
        double vc = vf.voltageFor(f);
        // Quantization rounds the voltage up, never down, except
        // inside the paper's own published points where the LUT is
        // authoritative (its points sit slightly below the fit for
        // 120-540 MHz).
        EXPECT_GT(vq, 0.0);
        EXPECT_GE(vq, vc - 0.15) << f;
        // The quantized level must actually be a supported level.
        bool found = false;
        for (auto [lf, lv] : levels.levels()) {
            if (std::abs(lv - vq) < 1e-12)
                found = true;
        }
        EXPECT_TRUE(found) << f;
    }
}

TEST(SupplySweep, RateMatchComposesWithDividers)
{
    // For every divider of a 600 MHz reference and a random demand
    // below the divided clock, exactRateMatch must land exactly.
    Rng rng(606);
    for (unsigned d = 1; d <= 10; ++d) {
        uint64_t f = 600'000'000 / d;
        uint64_t demand =
            uint64_t(rng.range(int64_t(f / 2), int64_t(f)));
        auto z = mapping::exactRateMatch(f, demand);
        double effective = double(f) * z.usefulFraction();
        EXPECT_NEAR(effective, double(demand), 1e-6);
    }
}
