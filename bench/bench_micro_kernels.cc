/** @file Micro-kernel cycle costs measured on the cycle-accurate
 * simulator (methodology step 6: "Use the cycle-accurate simulator
 * to determine the number of clock cycles required per input data
 * sample"), compared with the per-tile cycles/sample implied by the
 * paper's Table 4 mappings. Uses google-benchmark to also report
 * simulator throughput. */

#include <benchmark/benchmark.h>

#include <chrono>

#include "apps/kernels.hh"
#include "apps/pipeline_runner.hh"
#include "arch/chip.hh"
#include "bench_json.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "dsp/fir.hh"
#include "dsp/nco.hh"
#include "isa/assembler.hh"

using namespace synchro;
using namespace synchro::apps::kernels;

namespace
{

std::vector<int16_t>
randomQ15(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<int16_t> x(n);
    for (auto &v : x)
        v = int16_t(rng.range(-30000, 30000));
    return x;
}

void
BM_Fir21(benchmark::State &state)
{
    auto taps = dsp::designLowpassQ15(21, 0.2);
    auto x = randomQ15(256, 1);
    KernelRun last;
    for (auto _ : state)
        last = runFir(taps, x);
    auto small = runFir(taps, randomQ15(64, 1));
    auto cost = marginalCost(small, 64, last, 256);
    state.counters["cycles_per_sample"] = cost.cycles_per_sample;
    // Paper-implied: CFIR on 16 tiles at 380 MHz for 64 MS/s.
    state.counters["paper_implied_cps"] = 380.0 * 16 / 64;
}

void
BM_Fir63(benchmark::State &state)
{
    auto taps = dsp::designPfir63();
    auto x = randomQ15(128, 2);
    KernelRun last;
    for (auto _ : state)
        last = runFir(taps, x);
    auto small = runFir(taps, randomQ15(32, 2));
    auto cost = marginalCost(small, 32, last, 128);
    state.counters["cycles_per_sample"] = cost.cycles_per_sample;
    state.counters["paper_implied_cps"] = 370.0 * 16 / 64;
}

void
BM_Mixer(benchmark::State &state)
{
    auto x = randomQ15(256, 3);
    dsp::Nco nco(5e6, 64e6);
    auto lo = nco.generate(x.size());
    KernelRun last;
    for (auto _ : state)
        last = runMixer(x, lo);
    nco.reset();
    auto small = runMixer(randomQ15(64, 3), nco.generate(64));
    auto cost = marginalCost(small, 64, last, 256);
    state.counters["cycles_per_sample"] = cost.cycles_per_sample;
    // Paper-implied: mixer on 8 tiles at 120 MHz for 64 MS/s.
    state.counters["paper_implied_cps"] = 120.0 * 8 / 64;
}

void
BM_CicIntegrator(benchmark::State &state)
{
    std::vector<int32_t> x(512, 7);
    KernelRun last;
    for (auto _ : state)
        last = runCicIntegrator(x);
    auto small = runCicIntegrator(std::vector<int32_t>(64, 7));
    auto cost = marginalCost(small, 64, last, 512);
    state.counters["cycles_per_sample"] = cost.cycles_per_sample;
    state.counters["paper_implied_cps"] = 200.0 * 8 / 64;
}

void
BM_Sad16(benchmark::State &state)
{
    Rng rng(4);
    std::vector<uint8_t> a(256), b(256);
    for (auto &v : a)
        v = uint8_t(rng.below(256));
    for (auto &v : b)
        v = uint8_t(rng.below(256));
    KernelRun last;
    for (auto _ : state)
        last = runSad16(a, b);
    state.counters["cycles_per_block"] = double(last.cycles);
}

void
BM_Dct8Rows(benchmark::State &state)
{
    auto x = randomQ15(64, 5);
    KernelRun last;
    for (auto _ : state)
        last = runDct8Rows(x, 8);
    state.counters["cycles_per_row"] = double(last.cycles) / 8.0;
}

void
BM_Acs4Distributed(benchmark::State &state)
{
    std::vector<int32_t> init(64, 1000);
    std::vector<std::vector<int32_t>> bm(
        8, std::vector<int32_t>(128, 1));
    KernelRun last;
    for (auto _ : state)
        last = runAcs4(init, bm);
    state.counters["cycles_per_stage"] = double(last.cycles) / 8.0;
    state.counters["bus_words_per_stage"] =
        double(last.bus_transfers) / 8.0;
    // Paper-implied whole-stage budget: 16 tiles at 540 MHz decode
    // 54 Mb/s -> 10 cycles/stage (with 4x our tile count and a
    // dual-MAC datapath).
    state.counters["paper_implied_16tile"] = 540.0 / 54.0;
}

// ---------------------------------------------------------------
// Core execution-engine throughput: every scheduler backend on a
// dividers={8,8,4,2} chip, recorded into BENCH_core.json so the
// perf trajectory is tracked across PRs.

double
coreTicksPerSec(SchedulerKind kind, Tick &ticks_out,
                unsigned team = 0)
{
    using clock = std::chrono::steady_clock;
    double best_tps = 0;
    for (int rep = 0; rep < 3; ++rep) {
        arch::ChipConfig cfg;
        cfg.dividers = {8, 8, 4, 2};
        cfg.scheduler = kind;
        cfg.parallel_columns = team;
        arch::Chip chip(cfg);
        for (unsigned c = 0; c < chip.numColumns(); ++c) {
            chip.column(c).controller().loadProgram(isa::assemble(R"(
                movi r0, 0
                lsetup lc0, oe, 2000
                lsetup lc1, ie, 100
                addi r0, 1
            ie:
                nop
            oe:
                halt
            )"));
        }
        auto t0 = clock::now();
        auto res = chip.run(1'000'000'000);
        auto t1 = clock::now();
        if (res.exit != arch::RunExit::AllHalted)
            fatal("core throughput chip did not halt");
        double secs =
            std::chrono::duration<double>(t1 - t0).count();
        ticks_out = res.ticks;
        best_tps = std::max(best_tps, double(res.ticks) / secs);
    }
    return best_tps;
}

/** Best-of-reps (minimum) wall time per call, in nanoseconds. */
template <typename Fn>
double
nsPerOp(Fn &&fn, int reps = 5)
{
    using clock = std::chrono::steady_clock;
    double best = 1e300;
    for (int rep = 0; rep < reps; ++rep) {
        auto t0 = clock::now();
        fn();
        auto t1 = clock::now();
        best = std::min(
            best,
            std::chrono::duration<double, std::nano>(t1 - t0)
                .count());
    }
    return best;
}

/**
 * Mapped-DDC throughput per backend (best of 3), in ticks/s — the
 * compiled backend's speedup over the EventQueue reference on a real
 * mapped application, not just the core loop.
 */
double
ddcTicksPerSec(SchedulerKind kind)
{
    double best_tps = 0;
    for (int rep = 0; rep < 3; ++rep) {
        apps::DdcPipelineParams params;
        params.samples = 2048;
        params.scheduler = kind;
        apps::MappedDdcRun run = apps::runMappedDdc(params);
        if (!run.bit_exact)
            fatal("mapped DDC lost bit-exactness on %s",
                  schedulerName(kind));
        best_tps = std::max(best_tps,
                            double(run.ticks) / run.sim_seconds);
    }
    return best_tps;
}

void
emitBenchJson()
{
    bench::JsonReport report;

    Tick ticks = 0;
    double fast_tps = coreTicksPerSec(SchedulerKind::FastEdge, ticks);
    double eq_tps =
        coreTicksPerSec(SchedulerKind::EventQueue, ticks);
    double comp_tps =
        coreTicksPerSec(SchedulerKind::Compiled, ticks);
    // Automatic team sizing: on a multi-core host the columns run
    // on a real thread team; parallel_speedup is measured against
    // the best serial backend (Compiled), so <1 means the team does
    // not pay for its barriers on this host.
    double par_tps =
        coreTicksPerSec(SchedulerKind::ParallelColumns, ticks);
    report.set("core", "fastpath_ticks_per_sec", fast_tps);
    report.set("core", "eventq_ticks_per_sec", eq_tps);
    report.set("core", "compiled_ticks_per_sec", comp_tps);
    report.set("core", "parallel_ticks_per_sec", par_tps);
    report.set("core", "fastpath_speedup", fast_tps / eq_tps);
    report.set("core", "compiled_speedup", comp_tps / eq_tps);
    report.set("core", "parallel_speedup", par_tps / comp_tps);
    report.set("core", "run_ticks", double(ticks));

    double ddc_fast = ddcTicksPerSec(SchedulerKind::FastEdge);
    double ddc_eq = ddcTicksPerSec(SchedulerKind::EventQueue);
    double ddc_comp = ddcTicksPerSec(SchedulerKind::Compiled);
    double ddc_par =
        ddcTicksPerSec(SchedulerKind::ParallelColumns);
    report.set("mapped_ddc", "fastpath_ticks_per_sec", ddc_fast);
    report.set("mapped_ddc", "eventq_ticks_per_sec", ddc_eq);
    report.set("mapped_ddc", "compiled_ticks_per_sec", ddc_comp);
    report.set("mapped_ddc", "parallel_ticks_per_sec", ddc_par);
    report.set("mapped_ddc", "fastpath_speedup", ddc_fast / ddc_eq);
    report.set("mapped_ddc", "compiled_speedup", ddc_comp / ddc_eq);
    report.set("mapped_ddc", "parallel_speedup",
               ddc_par / ddc_comp);

    auto taps = dsp::designLowpassQ15(21, 0.2);
    auto x = randomQ15(256, 1);
    report.set("micro_kernels", "fir21_ns_per_op",
               nsPerOp([&] { runFir(taps, x); }));
    dsp::Nco nco(5e6, 64e6);
    auto lo = nco.generate(x.size());
    report.set("micro_kernels", "mixer_ns_per_op",
               nsPerOp([&] { runMixer(x, lo); }));
    std::vector<int32_t> ci(512, 7);
    report.set("micro_kernels", "cic_integrator_ns_per_op",
               nsPerOp([&] { runCicIntegrator(ci); }));

    if (!report.write())
        std::fprintf(stderr, "warning: could not write "
                             "BENCH_core.json\n");
    std::printf("\nBENCH_core.json: core fast-path %.3g ticks/s, "
                "event-queue %.3g, compiled %.3g (%.2fx), parallel "
                "%.3g (%.2fx of compiled); mapped DDC compiled "
                "%.3g ticks/s = %.2fx event-queue, parallel %.2fx "
                "of compiled\n",
                fast_tps, eq_tps, comp_tps, comp_tps / eq_tps,
                par_tps, par_tps / comp_tps, ddc_comp,
                ddc_comp / ddc_eq, ddc_par / ddc_comp);
}

} // namespace

BENCHMARK(BM_Fir21)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fir63)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Mixer)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CicIntegrator)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Sad16)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Dct8Rows)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Acs4Distributed)->Unit(benchmark::kMillisecond);

int
main(int argc, char **argv)
{
    // --backend governs the BM_* kernel harnesses (their chips are
    // built with default configs); the JSON trajectory below always
    // measures all four backends regardless.
    setDefaultSchedulerKind(backendFromArgs(argc, argv));
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    emitBenchJson();
    return 0;
}
