#include "apps/pipeline_runner.hh"

#include <cmath>

#include "common/log.hh"
#include "common/rng.hh"
#include "dsp/cic.hh"
#include "dsp/fir.hh"
#include "dsp/mixer.hh"

namespace synchro::apps
{

using mapping::PipelineStage;

namespace
{

constexpr unsigned CicStages = 5;
constexpr unsigned Decim = 8;
constexpr unsigned LoPeriod = 8; //!< LO at fs/8: tone lands at DC

// Tile-SRAM layout per stage (tile memory starts zeroed, so the CIC
// state arrays need no images).
constexpr uint32_t MixXBase = 0x0000;  //!< input samples
constexpr uint32_t MixLoBase = 0x2000; //!< interleaved LO (re, im)
constexpr uint32_t CicStateBase = 0x0000; //!< 5 I + 5 Q words
constexpr uint32_t FirCoefBase = 0x0000;  //!< reversed taps
constexpr uint32_t FirHistIBase = 0x1000; //!< (taps-1) zeros + I
constexpr uint32_t FirHistQBase = 0x2000;
constexpr uint32_t DemodOutBase = 0x1000; //!< final output halves

/** The local oscillator table, one entry per input sample. */
std::vector<CplxQ15>
makeLo(unsigned n)
{
    std::vector<CplxQ15> lo(n);
    for (unsigned i = 0; i < n; ++i) {
        double ph = 2.0 * M_PI * double(i % LoPeriod) / LoPeriod;
        lo[i] = {toQ15(0.98 * std::cos(ph)),
                 toQ15(-0.98 * std::sin(ph))};
    }
    return lo;
}

/** Shared pack/unpack glue: Q in the high half, I in the low half. */
const char *UnpackIq = R"(
        lsli r1, r0, 16
        asri r1, r1, 16
        asri r2, r0, 16
)";
const char *PackIqCwr = R"(
        lsli r2, r2, 16
        lsli r1, r1, 16
        lsri r1, r1, 16
        or r7, r2, r1
        cwr r7
)";

/**
 * Per-firing issue-slot costs of the kernels below, counted
 * statically (straight-line slots plus loop bodies; the zero-overhead
 * loops and the outer firing loop cost nothing). These feed the SDF
 * graph so the AutoMapper's frequency demands match what the
 * simulator will actually execute.
 */
constexpr uint64_t MixerCost = 20;               //!< per sample
constexpr uint64_t IntegCost = 8 * 35 + 1 + 13;  //!< per 8 samples
constexpr uint64_t CombCost = 44;                //!< per output
uint64_t
firCost(unsigned taps)
{
    return 6 + 2 * (4 + 3 * uint64_t(taps) + 4) + 5;
}
constexpr uint64_t DemodCost = 12;

/** The demod output halves, read back from a finished chip. */
std::vector<int16_t>
readDdcOutput(arch::Chip &chip, const mapping::PipelineProgram &prog,
              unsigned outputs)
{
    const auto &demod_col = prog.columnFor("demod");
    return chip.column(demod_col.column)
        .tile(0)
        .readMemHalves(DemodOutBase, outputs);
}

} // namespace

std::vector<int16_t>
ddcInput(const DdcPipelineParams &p)
{
    if (p.samples == 0 || p.samples % Decim != 0 || p.samples > 4088)
        fatal("ddc: samples must be a positive multiple of %u "
              "within the 4095-firing lsetup range",
              Decim);
    Rng rng(p.seed);
    std::vector<int16_t> x(p.samples);
    for (unsigned i = 0; i < p.samples; ++i) {
        double t = double(i);
        // Tone of interest at fs/8 (lands at DC after the mixer),
        // interferer near the CIC's fs/4 null, a little noise.
        double v = 0.45 * std::cos(2.0 * M_PI * t / LoPeriod) +
                   0.22 * std::cos(2.0 * M_PI * 0.26 * t) +
                   0.02 * rng.gauss();
        x[i] = toQ15(v);
    }
    return x;
}

std::vector<int16_t>
ddcGolden(const DdcPipelineParams &p, const std::vector<int16_t> &x)
{
    auto lo = makeLo(unsigned(x.size()));
    auto mixed = dsp::mixBlock(x, lo);

    dsp::CicIntegrator integ_i(CicStages), integ_q(CicStages);
    dsp::CicComb comb_i(CicStages, 1), comb_q(CicStages, 1);
    dsp::FirQ15 fir_i(dsp::designPfir63(0.22)),
        fir_q(dsp::designPfir63(0.22));
    if (p.chan_taps != 63) {
        auto taps = dsp::designLowpassQ15(p.chan_taps, 0.22);
        fir_i = dsp::FirQ15(taps);
        fir_q = dsp::FirQ15(taps);
    }

    std::vector<int16_t> out;
    out.reserve(x.size() / Decim);
    for (size_t n = 0; n < x.size(); ++n) {
        int32_t ai = integ_i.step(mixed[n].re);
        int32_t aq = integ_q.step(mixed[n].im);
        if (n % Decim != Decim - 1)
            continue;
        int16_t si = dsp::cicScaleQ15(ai), sq = dsp::cicScaleQ15(aq);
        int16_t ci = sat16(comb_i.step(si));
        int16_t cq = sat16(comb_q.step(sq));
        int16_t fi = fir_i.step(ci);
        int16_t fq = fir_q.step(cq);
        out.push_back(dsp::powerDemodQ15({fi, fq}));
    }
    return out;
}

mapping::SdfGraph
ddcGraph(const DdcPipelineParams &p,
         std::vector<mapping::ActorCommSpec> *comm)
{
    mapping::SdfGraph g;
    unsigned mixer = g.addActor("mixer", MixerCost);
    unsigned integ = g.addActor("cic-integrator", IntegCost);
    unsigned comb = g.addActor("cic-comb", CombCost);
    unsigned fir = g.addActor("channel-fir", firCost(p.chan_taps));
    unsigned demod = g.addActor("demod", DemodCost);
    g.addEdge(mixer, integ, 1, Decim); // decimate by 8
    g.addEdge(integ, comb, 1, 1);
    g.addEdge(comb, fir, 1, 1);
    g.addEdge(fir, demod, 1, 1);

    if (comm) {
        comm->assign(g.numActors(), {});
        // One packed IQ word per firing; the sequential kernels keep
        // streaming state, so they do not parallelize.
        for (unsigned a : {mixer, integ, comb, fir})
            (*comm)[a].words_per_firing = 1;
        for (auto &spec : *comm)
            spec.max_parallel = 1;
    }
    return g;
}

std::optional<mapping::ChipPlan>
planDdc(const DdcPipelineParams &p)
{
    std::vector<mapping::ActorCommSpec> comm;
    mapping::SdfGraph g = ddcGraph(p, &comm);
    return planApp(g, comm, p.sample_rate_hz / Decim);
}

namespace
{

/**
 * The kernel stages, in dataflow order, with their constant images
 * (the LO table and the channel taps); the app lowers
 * mapping::linearDagSpec of them.
 */
std::vector<PipelineStage>
ddcStages(const DdcPipelineParams &p)
{
    const unsigned n = p.samples;
    const unsigned outputs = n / Decim;
    const unsigned taps = p.chan_taps;
    sync_assert(taps >= 2 && taps <= 255, "ddc: 2..255 channel taps");

    // ---- mixer: x * LO, packed IQ out --------------------------
    PipelineStage mixer;
    mixer.actor = "mixer";
    mixer.firings = n;
    mixer.per_iteration = Decim;
    mixer.writes_per_firing = 1;
    mixer.prologue = strprintf(R"(
        movpi p0, %u
        movpi p1, %u
        movi r5, 16384
        movi r6, 1
        movi r3, 32767
        movi r4, -32768
)",
                               MixXBase, MixLoBase);
    mixer.body = strprintf(R"(
        ld.h r0, [p0]+2
        ld.h r1, [p1]+2
        ld.h r2, [p1]+2
        aclr a0
        mac a0, r5, r6, ll
        mac a0, r0, r1, ll
        aclr a1
        mac a1, r5, r6, ll
        mac a1, r0, r2, ll
        aext r1, a0, 15
        min r1, r1, r3
        max r1, r1, r4
        aext r2, a1, 15
        min r2, r2, r3
        max r2, r2, r4
%s)",
                           PackIqCwr);
    std::vector<int16_t> lo_flat;
    lo_flat.reserve(2 * n);
    for (const auto &s : makeLo(n)) {
        lo_flat.push_back(s.re);
        lo_flat.push_back(s.im);
    }
    mixer.images.push_back({MixLoBase, bytesOfHalves(lo_flat)});

    // ---- CIC integrator + decimator ----------------------------
    // Five wrapping int32 integrator stages per channel, state in
    // SRAM; every 8th sample the last stage is scaled by 2^-15 with
    // rounding and shipped.
    std::string integ_chain;
    for (unsigned ch = 0; ch < 2; ++ch) {
        const char *acc = ch == 0 ? "r1" : "r2";
        for (unsigned s = 0; s < CicStages; ++s) {
            integ_chain += strprintf("        ld.w r0, [p0]\n"
                                     "        add %s, %s, r0\n"
                                     "        st.w %s, [p0]+4\n",
                                     acc, acc, acc);
        }
    }
    PipelineStage integ;
    integ.actor = "cic-integrator";
    integ.firings = outputs;
    integ.reads_per_firing = Decim;
    integ.writes_per_firing = 1;
    integ.prologue = R"(
        movi r3, 32767
        movi r4, -32768
)";
    integ.body = strprintf(R"(
        lsetup lc1, __integ8, %u
        crd r0
%s        movpi p0, %u
%s    __integ8:
        addi r1, 16384
        asri r1, r1, 15
        min r1, r1, r3
        max r1, r1, r4
        addi r2, 16384
        asri r2, r2, 15
        min r2, r2, r3
        max r2, r2, r4
%s)",
                           Decim, UnpackIq, CicStateBase,
                           integ_chain.c_str(), PackIqCwr);

    // ---- CIC comb ----------------------------------------------
    std::string comb_chain;
    for (unsigned ch = 0; ch < 2; ++ch) {
        const char *acc = ch == 0 ? "r1" : "r2";
        for (unsigned s = 0; s < CicStages; ++s) {
            comb_chain += strprintf("        ld.w r0, [p0]\n"
                                    "        st.w %s, [p0]+4\n"
                                    "        sub %s, %s, r0\n",
                                    acc, acc, acc);
        }
    }
    PipelineStage comb;
    comb.actor = "cic-comb";
    comb.firings = outputs;
    comb.reads_per_firing = 1;
    comb.writes_per_firing = 1;
    comb.prologue = R"(
        movi r3, 32767
        movi r4, -32768
)";
    comb.body = strprintf(R"(
        crd r0
%s        movpi p0, %u
%s        min r1, r1, r3
        max r1, r1, r4
        min r2, r2, r3
        max r2, r2, r4
%s)",
                          UnpackIq, CicStateBase, comb_chain.c_str(),
                          PackIqCwr);

    // ---- channel FIR -------------------------------------------
    // The runFir idiom per channel: reversed taps walked forward
    // over an append-only padded history window (net +2 per firing).
    auto fir_channel = [&](const char *win, const char *res,
                           const char *lbl) {
        return strprintf(R"(
        movpi p0, %u
        aclr a0
        mac a0, r5, r6, ll
        lsetup lc1, %s, %u
        ld.h r0, [p0]+2
        ld.h %s, [%s]+2
        mac a0, r0, %s, ll
    %s:
        paddi %s, %d
        aext %s, a0, 15
        min %s, %s, r3
        max %s, %s, r4
)",
                         FirCoefBase, lbl, taps, res, win, res, lbl,
                         win, -int(2 * taps - 2), res, res, res, res,
                         res);
    };
    PipelineStage fir;
    fir.actor = "channel-fir";
    fir.firings = outputs;
    fir.reads_per_firing = 1;
    fir.writes_per_firing = 1;
    fir.prologue = strprintf(R"(
        movi r5, 16384
        movi r6, 1
        movi r3, 32767
        movi r4, -32768
        movpi p1, %u
        movpi p2, %u
        movpi p3, %u
        movpi p4, %u
)",
                             FirHistIBase, FirHistQBase,
                             FirHistIBase + 2 * (taps - 1),
                             FirHistQBase + 2 * (taps - 1));
    fir.body = strprintf(R"(
        crd r0
%s        st.h r1, [p3]+2
        st.h r2, [p4]+2
%s%s%s)",
                         UnpackIq,
                         fir_channel("p1", "r1", "__fir_i").c_str(),
                         fir_channel("p2", "r2", "__fir_q").c_str(),
                         PackIqCwr);
    std::vector<int16_t> taps_fwd =
        taps == 63 ? dsp::designPfir63(0.22)
                   : dsp::designLowpassQ15(taps, 0.22);
    std::vector<int16_t> taps_rev(taps_fwd.rbegin(), taps_fwd.rend());
    fir.images.push_back({FirCoefBase, bytesOfHalves(taps_rev)});

    // ---- demod: I^2 + Q^2, rounded Q15 -------------------------
    PipelineStage demod;
    demod.actor = "demod";
    demod.firings = outputs;
    demod.reads_per_firing = 1;
    demod.prologue = strprintf(R"(
        movi r5, 16384
        movi r6, 1
        movi r3, 32767
        movi r4, -32768
        movpi p0, %u
)",
                               DemodOutBase);
    demod.body = strprintf(R"(
        crd r0
%s        aclr a0
        mac a0, r5, r6, ll
        mac a0, r1, r1, ll
        mac a0, r2, r2, ll
        aext r1, a0, 15
        min r1, r1, r3
        max r1, r1, r4
        st.h r1, [p0]+2
)",
                           UnpackIq);

    return {mixer, integ, comb, fir, demod};
}

} // namespace

AppSpec
ddcSpec(const DdcPipelineParams &p)
{
    auto plan = planDdc(p);
    if (!plan)
        fatal("ddc: no feasible mapping at %.1f MS/s",
              p.sample_rate_hz / 1e6);

    AppSpec s;
    s.name = "ddc";
    s.seed = p.seed;
    s.plan = *plan;
    s.iterations_per_sec = p.sample_rate_hz / Decim;
    s.slack = p.slack;
    s.priced_items = p.samples;
    // One work item = one p.samples-long channel block; the lowering
    // paces one SDF iteration per Decim input samples.
    s.iterations_per_item = p.samples / Decim;

    s.output_label = "ddc demod output";
    s.output_width = 2;

    auto input = drawCached(p.seed, [p](uint32_t seed) {
        return ddcInput(withSeed(p, seed));
    });
    s.stages = [p](const mapping::ChipPlan &) {
        return mapping::linearDagSpec(ddcStages(p));
    };
    s.inputs = [input](uint32_t seed, const mapping::ChipPlan &) {
        return std::vector<InputImage>{
            {"mixer", MixXBase, bytesOfHalves(*input(seed))}};
    };
    // Generous: the delivery grid paces one sample per slot_spacing
    // ticks, plus pipeline fill and drain.
    s.tick_limit = [p](const mapping::ChipPlan &,
                       const mapping::PipelineProgram &prog) {
        return Tick(p.samples) * prog.slot_spacing * 8 + 1'000'000;
    };
    s.read_output = [p](arch::Chip &chip,
                        const mapping::PipelineProgram &prog) {
        return bytesOfHalves(
            readDdcOutput(chip, prog, p.samples / Decim));
    };
    s.golden = [p, input](uint32_t seed) {
        return bytesOfHalves(ddcGolden(p, *input(seed)));
    };
    return s;
}

MappedDdcRun
runMappedDdc(const DdcPipelineParams &p)
{
    MappedDdcRun run;
    MappedApp app(ddcSpec(p), p.scheduler, p.parallel_team);
    static_cast<MappedAppRun &>(run) = app.run();
    run.achieved_sample_rate_hz = run.achieved_items_per_sec;

    run.output =
        readDdcOutput(app.chip(), app.program(), p.samples / Decim);
    return run;
}

} // namespace synchro::apps
