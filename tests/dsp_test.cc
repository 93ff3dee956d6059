/** @file Golden-kernel tests: NCO, mixer, CIC, FIR, FFT, QAM,
 * interleaver — the DDC and 802.11a signal-chain primitives. */

#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "common/log.hh"
#include "common/rng.hh"
#include "dsp/cic.hh"
#include "dsp/fft.hh"
#include "dsp/fir.hh"
#include "dsp/image.hh"
#include "dsp/interleaver.hh"
#include "dsp/mixer.hh"
#include "dsp/motion.hh"
#include "dsp/nco.hh"
#include "dsp/qam.hh"

using namespace synchro;
using namespace synchro::dsp;

TEST(Nco, MatchesIdealOscillator)
{
    Nco nco(1e6, 64e6);
    for (int i = 0; i < 1000; ++i) {
        CplxQ15 s = nco.next();
        double phi = 2.0 * M_PI * 1e6 / 64e6 * i;
        EXPECT_NEAR(fromQ15(s.re), std::cos(phi), 0.01) << i;
        EXPECT_NEAR(fromQ15(s.im), -std::sin(phi), 0.01) << i;
    }
}

TEST(Nco, RejectsAliasedFrequency)
{
    EXPECT_THROW(Nco(40e6, 64e6), FatalError);
    EXPECT_THROW(Nco(1e6, 0.0), FatalError);
}

TEST(Nco, PhaseStepExact)
{
    // A quarter-rate NCO steps the 32-bit accumulator by 2^30.
    Nco nco(16e6, 64e6);
    EXPECT_EQ(nco.phaseStep(), 1u << 30);
}

TEST(Mixer, ShiftsToneToBaseband)
{
    // Mix a 5 MHz tone with a 5 MHz LO: the product has a DC
    // component of half the tone amplitude (image at 10 MHz).
    const double fs = 64e6, f0 = 5e6;
    const size_t n = 4096;
    std::vector<int16_t> x(n);
    for (size_t i = 0; i < n; ++i)
        x[i] = toQ15(0.5 * std::cos(2.0 * M_PI * f0 / fs * i));
    Nco nco(f0, fs);
    auto mixed = mixBlock(x, nco.generate(n));

    double dc_i = 0;
    for (const auto &s : mixed)
        dc_i += fromQ15(s.re);
    dc_i /= double(n);
    EXPECT_NEAR(dc_i, 0.25, 0.01); // cos*cos = 1/2 DC + image
}

TEST(Mixer, SizesMustAgree)
{
    std::vector<int16_t> x(8);
    Nco nco(1e6, 64e6);
    EXPECT_THROW(mixBlock(x, nco.generate(9)), FatalError);
}

TEST(CicIntegrator, CumulativeSums)
{
    CicIntegrator integ(1);
    std::vector<int32_t> x{1, 2, 3, 4};
    auto y = integ.process(x);
    EXPECT_EQ(y, (std::vector<int32_t>{1, 3, 6, 10}));
}

TEST(CicIntegrator, WrapsModularly)
{
    CicIntegrator integ(1);
    integ.step(INT32_MAX);
    // Adding 1 wraps to INT32_MIN: modular arithmetic by design.
    EXPECT_EQ(integ.step(1), INT32_MIN);
}

TEST(CicComb, FirstDifference)
{
    CicComb comb(1, 1);
    std::vector<int32_t> x{5, 7, 4, 4};
    auto y = comb.process(x);
    EXPECT_EQ(y, (std::vector<int32_t>{5, 2, -3, 0}));
}

TEST(CicDecimator, ImpulseResponseMatchesBoxcarCascade)
{
    // A 1-stage CIC with R=4 is a length-4 boxcar + decimate: the
    // impulse response decimated output is {1} then zeros, and a step
    // input converges to gain = R.
    CicDecimator cic(1, 4);
    std::vector<int32_t> step(64, 1);
    auto y = cic.process(step);
    ASSERT_EQ(y.size(), 16u);
    EXPECT_EQ(y.back(), 4);
    EXPECT_DOUBLE_EQ(cic.gain(), 4.0);
}

TEST(CicDecimator, GainIsRMtoN)
{
    CicDecimator cic(5, 8); // the GSM-ish 5-stage configuration
    EXPECT_DOUBLE_EQ(cic.gain(), std::pow(8.0, 5.0));
    // DC convergence: a constant input converges to gain * input.
    std::vector<int32_t> dc(8 * 64, 3);
    auto y = cic.process(dc);
    ASSERT_FALSE(y.empty());
    EXPECT_EQ(y.back(), int32_t(3 * std::pow(8.0, 5.0)));
}

TEST(CicDecimator, RejectsOverflowingConfigurations)
{
    // 8-stage R=64: growth 8*log2(64) = 48 bits > 24 allowed.
    EXPECT_THROW(CicDecimator(8, 64), FatalError);
}

TEST(CicDecimator, OutputCountIsFloorNOverR)
{
    CicDecimator cic(2, 5);
    EXPECT_EQ(cic.process(std::vector<int32_t>(23, 1)).size(), 4u);
}

TEST(Fir, ImpulseResponseIsTaps)
{
    std::vector<int16_t> taps{100, -200, 300};
    FirQ15 fir(taps);
    std::vector<int16_t> x{toQ15(0.99), 0, 0, 0};
    auto y = fir.process(x);
    // Impulse of ~1.0 recovers ~taps (Q15 x Q15 >> 15).
    EXPECT_NEAR(y[0], 99, 2);
    EXPECT_NEAR(y[1], -198, 3);
    EXPECT_NEAR(y[2], 297, 4);
    EXPECT_EQ(y[3], 0);
}

TEST(Fir, LinearityAndShift)
{
    Rng rng(5);
    std::vector<int16_t> taps = designLowpassQ15(21, 0.2);
    std::vector<int16_t> x(128);
    for (auto &v : x)
        v = int16_t(rng.range(-8000, 8000));

    // Shifted input gives shifted output (time invariance).
    FirQ15 f1(taps), f2(taps);
    auto y = f1.process(x);
    std::vector<int16_t> xs(x.size() + 5, 0);
    std::copy(x.begin(), x.end(), xs.begin() + 5);
    auto ys = f2.process(xs);
    for (size_t i = 0; i + 5 < y.size(); ++i)
        EXPECT_EQ(ys[i + 5], y[i]) << i;
}

TEST(Fir, LowpassAttenuatesHighFrequency)
{
    auto taps = designLowpassQ15(63, 0.1);
    const size_t n = 512;
    auto tone = [&](double f) {
        std::vector<int16_t> x(n);
        for (size_t i = 0; i < n; ++i)
            x[i] = toQ15(0.4 * std::cos(2.0 * M_PI * f * i));
        FirQ15 fir(taps);
        auto y = fir.process(x);
        double rms = 0;
        for (size_t i = n / 2; i < n; ++i) // skip transient
            rms += double(y[i]) * y[i];
        return std::sqrt(rms / (n / 2));
    };
    double low = tone(0.02);
    double high = tone(0.35);
    EXPECT_GT(low, 10 * high); // > 20 dB separation
}

TEST(Fir, CfirCompensatesCicDroop)
{
    // The CIC's sinc^N droop attenuates the passband edge; CFIR must
    // boost it: its response at the passband edge should exceed its
    // DC response ratio of a plain low-pass.
    auto cfir = designCfir21(5, 8);
    ASSERT_EQ(cfir.size(), 21u);
    auto mag_at = [&](const std::vector<int16_t> &taps, double f) {
        std::complex<double> acc = 0;
        for (size_t k = 0; k < taps.size(); ++k)
            acc += fromQ15(taps[k]) *
                   std::exp(std::complex<double>(
                       0, -2.0 * M_PI * f * double(k)));
        return std::abs(acc);
    };
    double dc = mag_at(cfir, 0.0);
    double edge = mag_at(cfir, 0.15);
    EXPECT_GT(edge / dc, 1.02); // rising response inside passband
    double stop = mag_at(cfir, 0.35);
    EXPECT_LT(stop / dc, 0.35); // still a low-pass
}

TEST(Fir, Pfir63IsUnitDcLowpass)
{
    auto taps = designPfir63();
    ASSERT_EQ(taps.size(), 63u);
    double dc = 0;
    for (auto t : taps)
        dc += fromQ15(t);
    EXPECT_NEAR(dc, 1.0, 0.01);
}

TEST(Fft, MatchesDftOnRandomInput)
{
    Rng rng(17);
    std::vector<Cplx> x(64);
    for (auto &v : x)
        v = Cplx(rng.uniform() - 0.5, rng.uniform() - 0.5);
    auto ref = x;
    fft(x);
    for (unsigned k = 0; k < 64; ++k) {
        Cplx acc = 0;
        for (unsigned n = 0; n < 64; ++n)
            acc += ref[n] * std::exp(Cplx(0, -2.0 * M_PI * k * n /
                                                 64.0));
        EXPECT_NEAR(std::abs(x[k] - acc), 0.0, 1e-9) << k;
    }
}

TEST(Fft, InverseRoundTrip)
{
    Rng rng(3);
    for (size_t n : {8, 64, 256}) {
        std::vector<Cplx> x(n);
        for (auto &v : x)
            v = Cplx(rng.gauss(), rng.gauss());
        auto orig = x;
        fft(x);
        ifft(x);
        for (size_t i = 0; i < n; ++i)
            EXPECT_NEAR(std::abs(x[i] - orig[i]), 0.0, 1e-9);
    }
}

TEST(Fft, ParsevalHolds)
{
    Rng rng(29);
    std::vector<Cplx> x(128);
    for (auto &v : x)
        v = Cplx(rng.gauss(), rng.gauss());
    double time_e = 0;
    for (const auto &v : x)
        time_e += std::norm(v);
    fft(x);
    double freq_e = 0;
    for (const auto &v : x)
        freq_e += std::norm(v);
    EXPECT_NEAR(freq_e, time_e * 128.0, 1e-6 * freq_e);
}

TEST(Fft, RejectsNonPowerOfTwo)
{
    std::vector<Cplx> x(48);
    EXPECT_THROW(fft(x), FatalError);
}

TEST(FftQ15, MatchesReferenceScaledByN)
{
    Rng rng(7);
    const size_t n = 64;
    std::vector<CplxQ15> xq(n);
    std::vector<Cplx> xd(n);
    for (size_t i = 0; i < n; ++i) {
        double re = 0.6 * (rng.uniform() - 0.5);
        double im = 0.6 * (rng.uniform() - 0.5);
        xq[i] = {toQ15(re), toQ15(im)};
        xd[i] = Cplx(fromQ15(xq[i].re), fromQ15(xq[i].im));
    }
    fftQ15(xq);
    fft(xd);
    for (size_t k = 0; k < n; ++k) {
        // Q15 FFT output = FFT/n; quantization noise ~ a few LSB
        // per stage.
        EXPECT_NEAR(fromQ15(xq[k].re), xd[k].real() / double(n),
                    0.01)
            << k;
        EXPECT_NEAR(fromQ15(xq[k].im), xd[k].imag() / double(n),
                    0.01)
            << k;
    }
}

TEST(FftQ15, NeverOverflows)
{
    // Worst-case full-scale input must not wrap (per-stage scaling).
    std::vector<CplxQ15> x(64, CplxQ15{INT16_MAX, INT16_MIN});
    EXPECT_NO_THROW(fftQ15(x));
    std::vector<CplxQ15> y(64, CplxQ15{INT16_MIN, INT16_MIN});
    EXPECT_NO_THROW(fftQ15(y));
}

TEST(BitReverse, KnownValues)
{
    EXPECT_EQ(bitReverse(1, 6), 32u);
    EXPECT_EQ(bitReverse(0b110, 6), 0b011000u);
    EXPECT_EQ(bitReverse(bitReverse(45, 6), 6), 45u);
}

class QamRoundTrip : public ::testing::TestWithParam<Modulation>
{
};

TEST_P(QamRoundTrip, MapDemapIdentity)
{
    Rng rng(11);
    Modulation m = GetParam();
    std::vector<uint8_t> bits(48 * bitsPerSymbol(m));
    for (auto &b : bits)
        b = uint8_t(rng.below(2));
    auto syms = qamMap(bits, m);
    EXPECT_EQ(syms.size(), 48u);
    auto back = qamDemap(syms, m);
    EXPECT_EQ(back, bits);
}

TEST_P(QamRoundTrip, UnitAveragePower)
{
    Rng rng(13);
    Modulation m = GetParam();
    std::vector<uint8_t> bits(6000 * bitsPerSymbol(m));
    for (auto &b : bits)
        b = uint8_t(rng.below(2));
    auto syms = qamMap(bits, m);
    double p = 0;
    for (const auto &s : syms)
        p += std::norm(s);
    EXPECT_NEAR(p / double(syms.size()), 1.0, 0.05);
}

INSTANTIATE_TEST_SUITE_P(AllModulations, QamRoundTrip,
                         ::testing::Values(Modulation::BPSK,
                                           Modulation::QPSK,
                                           Modulation::QAM16,
                                           Modulation::QAM64));

TEST_P(QamRoundTrip, SurvivesSmallNoise)
{
    Rng rng(19);
    Modulation m = GetParam();
    std::vector<uint8_t> bits(48 * bitsPerSymbol(m));
    for (auto &b : bits)
        b = uint8_t(rng.below(2));
    auto syms = qamMap(bits, m);
    // Perturb by less than half the minimum constellation distance.
    double half_min = modNorm(m) * 0.9;
    for (auto &s : syms)
        s += std::complex<double>(0.3 * half_min, -0.3 * half_min);
    EXPECT_EQ(qamDemap(syms, m), bits);
}

class InterleaverTest : public ::testing::TestWithParam<Modulation>
{
};

TEST_P(InterleaverTest, RoundTripIdentity)
{
    Rng rng(23);
    Interleaver il(GetParam());
    std::vector<uint8_t> bits(il.blockBits());
    for (auto &b : bits)
        b = uint8_t(rng.below(2));
    EXPECT_EQ(il.deinterleave(il.interleave(bits)), bits);
}

TEST_P(InterleaverTest, PermutationIsBijective)
{
    Interleaver il(GetParam());
    std::vector<bool> hit(il.blockBits(), false);
    for (unsigned p : il.permutation()) {
        ASSERT_LT(p, il.blockBits());
        EXPECT_FALSE(hit[p]);
        hit[p] = true;
    }
}

TEST_P(InterleaverTest, SpreadsAdjacentBits)
{
    // The point of the interleaver: adjacent coded bits must not land
    // on the same subcarrier.
    Interleaver il(GetParam());
    unsigned n_bpsc = bitsPerSymbol(GetParam());
    const auto &perm = il.permutation();
    for (unsigned k = 0; k + 1 < perm.size(); ++k) {
        unsigned carrier_a = perm[k] / n_bpsc;
        unsigned carrier_b = perm[k + 1] / n_bpsc;
        EXPECT_NE(carrier_a, carrier_b) << "bit " << k;
    }
}

INSTANTIATE_TEST_SUITE_P(AllModulations, InterleaverTest,
                         ::testing::Values(Modulation::BPSK,
                                           Modulation::QPSK,
                                           Modulation::QAM16,
                                           Modulation::QAM64));

TEST(Interleaver, RejectsWrongBlockSize)
{
    Interleaver il(Modulation::QPSK);
    EXPECT_THROW(il.interleave(std::vector<uint8_t>(5)), FatalError);
    EXPECT_THROW(il.deinterleave(std::vector<uint8_t>(95)),
                 FatalError);
}

namespace
{

/**
 * The exhaustive search fullSearch must reproduce: blockSad (every
 * pixel clamped through Image::at) per candidate, with the
 * documented tie-break — lower SAD, then smaller |v|1, then dy, then
 * dx.
 */
MotionVector
clampedFullSearch(const Image &cur, const Image &ref, unsigned x,
                  unsigned y, int range, unsigned bsize)
{
    MotionVector best;
    for (int dy = -range; dy <= range; ++dy) {
        for (int dx = -range; dx <= range; ++dx) {
            const uint32_t sad =
                blockSad(cur, ref, x, y, dx, dy, bsize);
            const int n = std::abs(dx) + std::abs(dy);
            const int nb = std::abs(best.dx) + std::abs(best.dy);
            if (sad < best.sad ||
                (sad == best.sad &&
                 (n < nb || (n == nb && (dy < best.dy ||
                                         (dy == best.dy &&
                                          dx < best.dx))))))
                best = {dx, dy, sad};
        }
    }
    return best;
}

} // namespace

TEST(Motion, FullSearchMatchesClampedReferenceOnRandomFrames)
{
    // Random frames (a few flat ones, so ties are common), every
    // macroblock including the border ones, plus blocks that hang
    // over the right and bottom edges.
    Rng rng(2024);
    for (unsigned trial = 0; trial < 6; ++trial) {
        const unsigned w = 48, h = 32;
        Image cur(w, h), ref(w, h);
        const unsigned levels = trial < 2 ? 2 : 256;
        for (auto &v : cur.pixels())
            v = uint8_t(rng.below(levels));
        for (auto &v : ref.pixels())
            v = uint8_t(rng.below(levels));
        const int range = int(1 + trial % 4);
        const unsigned bsize = trial % 2 ? 16 : 8;
        for (unsigned y = 0; y < h; y += bsize / 2) {
            for (unsigned x = 0; x < w; x += bsize / 2) {
                SCOPED_TRACE(strprintf("trial %u block (%u,%u)", trial,
                                       x, y));
                const MotionVector got =
                    fullSearch(cur, ref, x, y, range, bsize);
                const MotionVector want =
                    clampedFullSearch(cur, ref, x, y, range, bsize);
                EXPECT_EQ(got.dx, want.dx);
                EXPECT_EQ(got.dy, want.dy);
                EXPECT_EQ(got.sad, want.sad);
            }
        }
    }
}
