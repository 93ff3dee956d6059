#include "apps/wifi_runner.hh"

#include "common/log.hh"
#include "common/rng.hh"
#include "dsp/fft.hh"
#include "dsp/interleaver.hh"
#include "dsp/ofdm.hh"
#include "dsp/qam.hh"
#include "dsp/viterbi.hh"

namespace synchro::apps
{

using mapping::DagEdgeSpec;
using mapping::DagSpec;
using mapping::DagStage;

namespace
{

constexpr unsigned CodedPerSymbol = 96; //!< QPSK N_CBPS
constexpr dsp::Modulation Mod = dsp::Modulation::QPSK;

// Tile-SRAM layout per column.
constexpr uint32_t DemapIqBase = 0x0000; //!< 48 x (I,Q) per symbol
constexpr uint32_t DeintScr = 0x0000;    //!< 192 unpacked bit bytes
constexpr uint32_t DeintIdx = 0x0200;    //!< 192 address halfwords
constexpr uint32_t AcsMetA = 0x0000;     //!< 64 path metrics (ping)
constexpr uint32_t AcsMetB = 0x0100;     //!< 64 path metrics (pong)
constexpr uint32_t AcsEtab = 0x0200;     //!< 128 branch-label halves
constexpr uint32_t TbSurvA = 0x0000;     //!< 96 survivor words (A)
constexpr uint32_t TbSurvB = 0x0200;     //!< 96 survivor words (B)
constexpr uint32_t TbOut = 0x1000;       //!< decoded bit bytes

// DAG edge indices == bus lanes (the lowerer's contract).
constexpr unsigned LaneDemapDeint = 0;
constexpr unsigned LaneDeintAcs0 = 1;
constexpr unsigned LaneDeintAcs1 = 2;
constexpr unsigned LaneAcs0Tb = 3;
constexpr unsigned LaneAcs1Tb = 4;

/**
 * Static issue-slot costs per firing (straight-line slots plus loop
 * bodies; zero-overhead loops and the outer firing loop are free,
 * conditional branches pay their one stall). These feed the SDF
 * graph so the AutoMapper's frequency demands match what the
 * simulator will actually execute.
 */
constexpr uint64_t DemapCost = 1 + 48 * 9;
constexpr uint64_t DeintCost = (2 + 96 * 5) + (2 + 48 * 18);
constexpr uint64_t AcsStageCost = 5 + 2 + 2 * (1 + 32 * 21 + 1) + 7 +
                                  (5 + 64 + 3) / 16; //!< init amortized
constexpr uint64_t TbCost = (3 + 96 * 4) + 2 * (3 + 48 * 14 + 1);

/**
 * Demand margin for the latency-critical light columns: demap,
 * deinterleave and traceback run multi-phase firings whose *latency*
 * (consume a whole window, then produce) sits on the pipeline's
 * critical path, so clocking them at exactly their throughput demand
 * would stretch every iteration. The ACS columns are the throughput
 * bottleneck and are planned at their true demand.
 */
constexpr unsigned LightColumnMargin = 3;

void
checkParams(const WifiPipelineParams &p)
{
    if (p.symbols < 2 || p.symbols % 2 != 0 || p.symbols > 128)
        fatal("wifi: symbols must be even and within 2..128 (the "
              "decoders' lsetup range and the demap column's SRAM)");
}

/** Frame f's slice [f * n, (f+1) * n) of @p v. */
template <typename T>
std::vector<T>
frameSlice(const std::vector<T> &v, unsigned f, unsigned n)
{
    return std::vector<T>(v.begin() + size_t(f) * n,
                          v.begin() + size_t(f + 1) * n);
}

/**
 * The decoded payload bits, read back from a finished chip: the
 * traceback column wrote one byte per trellis stage; the first
 * WifiFrameBits of each frame are the payload (the rest are the
 * flushed tail).
 */
std::vector<uint8_t>
readWifiOutput(arch::Chip &chip,
               const mapping::PipelineProgram &prog,
               unsigned symbols)
{
    const auto &tb_col = prog.columnFor("traceback");
    arch::Tile &tb_tile = chip.column(tb_col.column).tile(0);
    std::vector<uint8_t> out;
    out.reserve(size_t(symbols) * WifiFrameBits);
    for (unsigned f = 0; f < symbols; ++f) {
        std::vector<uint8_t> frame(WifiFrameStages);
        tb_tile.readMem(TbOut + f * WifiFrameStages, frame.data(),
                        WifiFrameStages);
        out.insert(out.end(), frame.begin(),
                   frame.begin() + WifiFrameBits);
    }
    return out;
}

} // namespace

std::vector<uint8_t>
wifiPayload(const WifiPipelineParams &p)
{
    checkParams(p);
    Rng rng(p.seed);
    std::vector<uint8_t> bits(size_t(p.symbols) * WifiFrameBits);
    for (auto &b : bits)
        b = uint8_t(rng.below(2));
    return bits;
}

std::vector<CplxQ15>
wifiCarriers(const WifiPipelineParams &p,
             const std::vector<uint8_t> &bits)
{
    checkParams(p);
    sync_assert(bits.size() == size_t(p.symbols) * WifiFrameBits,
                "wifi: payload is %zu bits, want %u x %u",
                bits.size(), p.symbols, WifiFrameBits);
    const unsigned sym_len = dsp::OfdmFftSize + dsp::OfdmCpLen;

    // Each frame is transmitted independently (its tail bits
    // terminate the trellis) and fills exactly one OFDM symbol.
    std::vector<std::complex<double>> stream;
    stream.reserve(size_t(p.symbols) * sym_len);
    for (unsigned f = 0; f < p.symbols; ++f) {
        auto tx = dsp::ofdmTransmit(
            frameSlice(bits, f, WifiFrameBits), dsp::OfdmConfig{Mod});
        sync_assert(tx.size() == sym_len,
                    "wifi: frame %u transmitted as %zu samples", f,
                    tx.size());
        stream.insert(stream.end(), tx.begin(), tx.end());
    }
    if (p.snr_db > 0) {
        Rng noise(p.seed ^ 0xc0ffee);
        dsp::addAwgn(stream, p.snr_db, noise);
    }

    // Receiver front end (not mapped): FFT, data-carrier extraction,
    // Q15 quantization.
    std::vector<CplxQ15> carriers;
    carriers.reserve(size_t(p.symbols) * dsp::OfdmDataCarriers);
    const auto &bins = dsp::dataCarrierBins();
    for (unsigned s = 0; s < p.symbols; ++s) {
        std::vector<dsp::Cplx> freq(
            stream.begin() + size_t(s) * sym_len + dsp::OfdmCpLen,
            stream.begin() + size_t(s + 1) * sym_len);
        dsp::fft(freq);
        for (unsigned i = 0; i < dsp::OfdmDataCarriers; ++i) {
            const auto &v = freq[bins[i]];
            carriers.push_back(
                {toQ15(v.real()), toQ15(v.imag())});
        }
    }
    return carriers;
}

std::vector<uint8_t>
wifiGolden(const WifiPipelineParams &p,
           const std::vector<CplxQ15> &carriers)
{
    checkParams(p);
    std::vector<uint8_t> demapped = dsp::qamDemapHardQ15(carriers, Mod);
    dsp::Interleaver il(Mod);
    std::vector<uint8_t> out;
    out.reserve(size_t(p.symbols) * WifiFrameBits);
    for (unsigned f = 0; f < p.symbols; ++f) {
        auto deinter =
            il.deinterleave(frameSlice(demapped, f, CodedPerSymbol));
        auto bits = dsp::viterbiDecode(deinter, /*tailed=*/true);
        sync_assert(bits.size() == WifiFrameBits,
                    "wifi: frame %u decoded to %zu bits", f,
                    bits.size());
        out.insert(out.end(), bits.begin(), bits.end());
    }
    return out;
}

mapping::SdfGraph
wifiGraph(const WifiPipelineParams &p,
          std::vector<mapping::ActorCommSpec> *comm)
{
    checkParams(p);
    mapping::SdfGraph g;
    unsigned demap =
        g.addActor("demap", DemapCost * LightColumnMargin);
    unsigned deint =
        g.addActor("deinterleave", DeintCost * LightColumnMargin);
    unsigned acs0 = g.addActor("viterbi-acs-0", AcsStageCost);
    unsigned acs1 = g.addActor("viterbi-acs-1", AcsStageCost);
    unsigned tb = g.addActor("traceback", TbCost * LightColumnMargin);
    // One iteration = 2 frames: q = (2, 1, 48, 48, 1).
    g.addEdge(demap, deint, 48, CodedPerSymbol);
    g.addEdge(deint, acs0, WifiFrameStages, 1);
    g.addEdge(deint, acs1, WifiFrameStages, 1);
    g.addEdge(acs0, tb, 2, 2 * WifiFrameStages);
    g.addEdge(acs1, tb, 2, 2 * WifiFrameStages);

    if (comm) {
        comm->assign(g.numActors(), {});
        (*comm)[demap].words_per_firing = 48;
        (*comm)[deint].words_per_firing = 2 * WifiFrameStages;
        (*comm)[acs0].words_per_firing = 2;
        (*comm)[acs1].words_per_firing = 2;
        // The kernels keep streaming state (trellis metrics, the
        // traceback window), so none of them parallelize further.
        for (auto &spec : *comm)
            spec.max_parallel = 1;
    }
    return g;
}

std::optional<mapping::ChipPlan>
planWifi(const WifiPipelineParams &p)
{
    std::vector<mapping::ActorCommSpec> comm;
    mapping::SdfGraph g = wifiGraph(p, &comm);
    return planApp(g, comm, p.bit_rate_hz / (2 * WifiFrameBits));
}

namespace
{

DagStage
demapStage(const WifiPipelineParams &p,
           const std::vector<CplxQ15> &carriers)
{
    DagStage s;
    s.actor = "demap";
    s.firings = p.symbols;
    s.per_iteration = 2;
    s.prologue = strprintf("        movpi p0, %u\n", DemapIqBase);
    // Gray QPSK hard decision: bit = (component > 0), computed as
    // the sign bit of the negated Q15 sample; one packed word
    // (b0 | b1 << 1) per carrier onto the demap->deint lane.
    s.body = strprintf(R"(
        lsetup lc1, __dm_end, 48
        ld.h r0, [p0]+2
        ld.h r1, [p0]+2
        neg r2, r0
        lsri r2, r2, 31
        neg r3, r1
        lsri r3, r3, 31
        lsli r3, r3, 1
        or r2, r2, r3
        cwr r2, %u
    __dm_end:
)",
                       LaneDemapDeint);
    std::vector<int16_t> iq;
    iq.reserve(carriers.size() * 2);
    for (const auto &c : carriers) {
        iq.push_back(c.re);
        iq.push_back(c.im);
    }
    s.images.push_back({DemapIqBase, bytesOfHalves(iq)});
    return s;
}

DagStage
deintStage(const WifiPipelineParams &p)
{
    DagStage s;
    s.actor = "deinterleave";
    s.firings = p.symbols / 2;
    s.per_iteration = 1;
    s.prologue = "        movi r5, 1\n";
    // Unpack two symbols' carrier words into per-bit scratch bytes,
    // then emit decode-order pair words through the precomputed
    // inverse-permutation address table — symbol A to decoder 0's
    // lane and symbol B to decoder 1's, *interleaved pair by pair*
    // (the fork), so both decoder columns stream in parallel instead
    // of serializing behind this column's write buffer.
    auto pair_emit = [](unsigned lane) {
        return strprintf(R"(
        ld.h r1, [p1]+2
        movp p2, r1
        ld.bu r0, [p2]
        ld.h r1, [p1]+2
        movp p2, r1
        ld.bu r2, [p2]
        lsli r2, r2, 1
        or r0, r0, r2
        cwr r0, %u
)",
                         lane);
    };
    s.body = strprintf(R"(
        movpi p0, %u
        lsetup lc1, __un_end, %u
        crd r0, %u
        and r1, r0, r5
        st.b r1, [p0]+1
        lsri r1, r0, 1
        st.b r1, [p0]+1
    __un_end:
        movpi p1, %u
        lsetup lc1, __pp_end, %u
%s%s    __pp_end:
)",
                       DeintScr, CodedPerSymbol, LaneDemapDeint,
                       DeintIdx, WifiFrameStages,
                       pair_emit(LaneDeintAcs0).c_str(),
                       pair_emit(LaneDeintAcs1).c_str());

    // Address table, in emission order: decode-order bit j of symbol
    // A lives at scratch[perm[j]] (Interleaver::deinterleave reads
    // in[perm[k]]), symbol B at +96; pairs of A and B alternate.
    dsp::Interleaver il(Mod);
    const auto &perm = il.permutation();
    std::vector<int16_t> idx;
    idx.reserve(2 * CodedPerSymbol);
    for (unsigned i = 0; i < WifiFrameStages; ++i) {
        for (unsigned half = 0; half < 2; ++half) {
            unsigned base = DeintScr + half * CodedPerSymbol;
            idx.push_back(int16_t(base + perm[2 * i]));
            idx.push_back(int16_t(base + perm[2 * i + 1]));
        }
    }
    s.images.push_back({DeintIdx, bytesOfHalves(idx)});
    return s;
}

DagStage
acsStage(const WifiPipelineParams &p, unsigned which)
{
    DagStage s;
    s.actor = strprintf("viterbi-acs-%u", which);
    s.firings = uint64_t(WifiFrameStages) * (p.symbols / 2);
    s.per_iteration = WifiFrameStages;
    s.prologue = strprintf(R"(
        movpi p0, %u
        movpi p2, %u
        movpi p1, %u
        movi r5, 1
        movi r4, 0
        movi r7, 0
)",
                           AcsMetA, AcsMetB, AcsEtab);

    // One 32-state half of the trellis: predecessors of state s are
    // the consecutive old metrics 2*(s&31) and +1; branch metrics
    // come from the XOR of the preloaded expected code pair with the
    // received pair; the survivor bit (m1 < m0, matching the
    // golden's strict-less tie-break) is packed LSB-first into r7.
    const char *half_loop = R"(
        lsetup lc1, %s, 32
        ld.w r0, [p0]+4
        ld.w r1, [p0]+4
        ld.h r2, [p1]+2
        xor r2, r2, r3
        lsri r6, r2, 1
        and r2, r2, r5
        add r2, r2, r6
        add r0, r0, r2
        ld.h r2, [p1]+2
        xor r2, r2, r3
        lsri r6, r2, 1
        and r2, r2, r5
        add r2, r2, r6
        add r1, r1, r2
        sub r2, r1, r0
        lsri r2, r2, 31
        lsri r7, r7, 1
        lsli r2, r2, 31
        or r7, r7, r2
        min r0, r0, r1
        st.w r0, [p2]+4
    %s:
)";
    std::string body = strprintf(R"(
        crd r3, %u
        cmplt r4, r5
        jncc __acs_go
        movi r4, %u
        movi r0, 0
        movih r0, 16
        lsetup lc1, __acs_init, 64
        st.w r0, [p0]+4
    __acs_init:
        paddi p0, -256
        movi r0, 0
        st.w r0, [p0]
    __acs_go:
        addi r4, -1
)",
                                 which == 0 ? LaneDeintAcs0
                                            : LaneDeintAcs1,
                                 WifiFrameStages);
    body += strprintf(half_loop, "__acs_h0", "__acs_h0");
    body += strprintf("        cwr r7, %u\n        paddi p0, -256\n",
                      which == 0 ? LaneAcs0Tb : LaneAcs1Tb);
    body += strprintf(half_loop, "__acs_h1", "__acs_h1");
    body += strprintf(R"(        cwr r7, %u
        paddi p0, -256
        paddi p1, -256
        paddi p2, -256
        movrp r0, p0
        movrp r1, p2
        movp p0, r1
        movp p2, r0
)",
                      which == 0 ? LaneAcs0Tb : LaneAcs1Tb);
    s.body = std::move(body);

    // Branch-label table: expected code pair of the transition into
    // state s from predecessor 2*(s&31)+tail consuming bit s>>5.
    std::vector<int16_t> etab;
    etab.reserve(2 * dsp::ConvStates);
    for (unsigned st = 0; st < dsp::ConvStates; ++st) {
        unsigned b = st >> 5;
        for (unsigned tail = 0; tail < 2; ++tail) {
            unsigned pred = ((st & 31) << 1) | tail;
            etab.push_back(int16_t(dsp::convCodePair(pred, b)));
        }
    }
    s.images.push_back({AcsEtab, bytesOfHalves(etab)});
    return s;
}

DagStage
tracebackStage(const WifiPipelineParams &p)
{
    DagStage s;
    s.actor = "traceback";
    s.firings = p.symbols / 2;
    s.per_iteration = 1;
    s.prologue = strprintf(R"(
        movi r5, 1
        movi r6, 31
        movpi p2, %u
)",
                           TbOut + WifiFrameStages - 1);
    // The join: buffer both decoders' survivor streams word by word,
    // alternating between the two input lanes (each crd waits on its
    // own lane's buffer) so neither producer column ever backs up
    // behind the other; then walk each frame's trellis backwards
    // from state 0 — tailed frames terminate there — emitting the
    // consumed bit of every stage.
    auto walk = [](uint32_t surv, const char *lbl) {
        return strprintf(R"(
        movi r0, 0
        movi r4, %u
        lsetup lc1, %s, %u
        lsri r1, r0, 5
        lsli r1, r1, 2
        add r1, r1, r4
        movp p3, r1
        ld.w r1, [p3]
        and r2, r0, r6
        lsr r1, r1, r2
        and r1, r1, r5
        lsri r2, r0, 5
        st.b r2, [p2]--
        and r0, r0, r6
        lsli r0, r0, 1
        or r0, r0, r1
        addi r4, -8
    %s:
        paddi p2, %u
)",
                         surv + 8 * (WifiFrameStages - 1), lbl,
                         WifiFrameStages, lbl,
                         2 * WifiFrameStages);
    };
    s.body = strprintf(R"(
        movpi p0, %u
        movpi p1, %u
        lsetup lc1, __rd_end, %u
        crd r0, %u
        st.w r0, [p0]+4
        crd r0, %u
        st.w r0, [p1]+4
    __rd_end:
)",
                       TbSurvA, TbSurvB, 2 * WifiFrameStages,
                       LaneAcs0Tb, LaneAcs1Tb) +
             walk(TbSurvA, "__tba") + walk(TbSurvB, "__tbb");
    return s;
}

} // namespace

DagSpec
wifiDag(const WifiPipelineParams &p,
        const std::vector<CplxQ15> &carriers)
{
    checkParams(p);
    sync_assert(carriers.size() ==
                    size_t(p.symbols) * dsp::OfdmDataCarriers,
                "wifi: %zu carriers for %u symbols", carriers.size(),
                p.symbols);
    DagSpec spec;
    spec.stages = {demapStage(p, carriers), deintStage(p),
                   acsStage(p, 0), acsStage(p, 1),
                   tracebackStage(p)};
    // Edge order defines the bus lanes the kernels above tag. The
    // 96-word edges get two delivery slots per grid period: deint's
    // unpack phase and the survivor streams then overlap the rest of
    // the pipeline instead of stretching its critical path.
    spec.edges = {
        {"demap", "deinterleave", 48, CodedPerSymbol, 4},
        {"deinterleave", "viterbi-acs-0", WifiFrameStages, 1, 2},
        {"deinterleave", "viterbi-acs-1", WifiFrameStages, 1, 2},
        {"viterbi-acs-0", "traceback", 2, 2 * WifiFrameStages, 2},
        {"viterbi-acs-1", "traceback", 2, 2 * WifiFrameStages, 2},
    };
    return spec;
}

AppSpec
wifiSpec(const WifiPipelineParams &p)
{
    auto plan = planWifi(p);
    if (!plan)
        fatal("wifi: no feasible mapping at %.1f kbit/s",
              p.bit_rate_hz / 1e3);

    AppSpec s;
    s.name = "wifi";
    s.seed = p.seed;
    s.plan = *plan;
    s.iterations_per_sec = p.bit_rate_hz / (2 * WifiFrameBits);
    s.slack = p.slack;
    s.priced_items = uint64_t(p.symbols) * WifiFrameBits;
    // One SDF iteration decodes two frames; one item is p.symbols
    // frames.
    s.iterations_per_item = p.symbols / 2;
    s.output_label = "wifi decoded bits";

    auto carriers = ownSeedCached(p.seed, [p](uint32_t seed) {
        WifiPipelineParams q = withSeed(p, seed);
        return wifiCarriers(q, wifiPayload(q));
    });
    s.dag = [p, carriers](uint32_t seed, const mapping::ChipPlan &) {
        return wifiDag(p, carriers(seed));
    };
    // Generous: the delivery grid paces one token per lane per
    // slot_spacing ticks, 96 tokens per iteration on the widest lane,
    // plus pipeline fill and drain.
    s.tick_limit = [p](const mapping::ChipPlan &,
                       const mapping::PipelineProgram &prog) {
        return Tick(p.symbols / 2) * prog.slot_spacing * 96 * 6 +
               2'000'000;
    };
    s.read_output = [p](arch::Chip &chip,
                        const mapping::PipelineProgram &prog) {
        return readWifiOutput(chip, prog, p.symbols);
    };
    s.golden = [p, carriers](uint32_t seed) {
        return wifiGolden(p, carriers(seed));
    };
    return s;
}

MappedWifiRun
runMappedWifi(const WifiPipelineParams &p)
{
    checkParams(p);
    MappedWifiRun run;
    run.tx_bits = wifiPayload(p);
    auto carriers = wifiCarriers(p, run.tx_bits);
    run.golden = wifiGolden(p, carriers);
    run.golden_matches_tx = run.golden == run.tx_bits;

    // Cross-check the integer demap against the floating-point
    // dsp:: demap of the unquantized symbols (they agree whenever
    // quantization does not move a component across zero — always,
    // on a clean channel).
    {
        std::vector<std::complex<double>> sym;
        sym.reserve(carriers.size());
        for (const auto &c : carriers)
            sym.emplace_back(fromQ15(c.re), fromQ15(c.im));
        run.demap_matches_float =
            dsp::qamDemap(sym, Mod) ==
            dsp::qamDemapHardQ15(carriers, Mod);
    }

    MappedApp app(wifiSpec(p), p.scheduler, p.parallel_team);
    static_cast<MappedAppRun &>(run) = app.run();
    run.achieved_bit_rate_hz = run.achieved_items_per_sec;

    run.output = readWifiOutput(app.chip(), app.program(), p.symbols);
    return run;
}

} // namespace synchro::apps
