#include "apps/stereo_runner.hh"

#include <utility>

#include "common/log.hh"
#include "common/rng.hh"
#include "dsp/stereo.hh"

namespace synchro::apps
{

using mapping::DagEdgeSpec;
using mapping::DagSpec;
using mapping::DagStage;

namespace
{

constexpr unsigned W = StereoWidth;
constexpr unsigned H = StereoHeight;
constexpr unsigned B = StereoBlock;
constexpr unsigned D = StereoMaxDisp;
constexpr unsigned N = StereoSadColumns;
constexpr unsigned PadW = W + D; //!< padded right row stride

// Tile-SRAM layout, prefilter column: raw images preloaded by the
// host, one filtered row buffer per image (the right buffer has 3
// trailing pad bytes so byte-assembled emission at shifts 1..3 never
// reads past it).
constexpr uint32_t PfLeftRaw = 0x0000;  //!< W x H bytes
constexpr uint32_t PfRightRaw = 0x0800; //!< PadW x H bytes
constexpr uint32_t PfLeftRow = 0x2000;  //!< W filtered bytes
constexpr uint32_t PfRightRow = 0x2100; //!< PadW + 3 filtered bytes

// Tile-SRAM layout, sad columns: the streamed filtered strips.
constexpr uint32_t SadLeft = 0x0000;  //!< W x H bytes (stride W)
constexpr uint32_t SadRight = 0x0800; //!< PadW x H bytes (stride PadW)

// Tile-SRAM layout, select column.
constexpr uint32_t SelOut = 0x1000; //!< one disparity byte per block

// DAG edge indices == bus lanes (the lowerer's contract): edges
// 0..3 feed the sad columns, 4..7 carry their candidate keys.
constexpr unsigned LaneRows(unsigned i) { return i; }
constexpr unsigned LaneKeys(unsigned i) { return N + i; }

/** Right-row words streamed to each sad column per image row. */
constexpr unsigned RightWords = PadW / 4;
/** Left-row words streamed to each sad column per image row. */
constexpr unsigned LeftWords = W / 4;
/** Words per prefilter firing on each rows lane. */
constexpr unsigned RowWords = LeftWords + RightWords;

// The packed candidate key is dsp::sadKey = (SAD << 6 | d): the
// disparity must fit its 6-bit field and the worst-case SAD must
// leave the shifted key positive, because the kernels seed the
// reduction with INT32_MAX and fold through the signed `min`
// (dsp::blockMatchDisparities runtime-asserts the same bounds).
static_assert(D <= 63, "disparity overflows the 6-bit key field");
static_assert(uint64_t(B) * B * 255 < (uint64_t(1) << 25),
              "worst-case SAD overflows the packed key");

/**
 * Byte shift of sad column i: it searches the disparities d with
 * d = i (mod 4), whose right-image reads all start at global byte
 * offsets congruent to (4 - i) % 4 — storing the streamed row
 * shifted by that amount keeps every SAA word load 4-byte aligned.
 */
constexpr unsigned
shiftOf(unsigned i)
{
    return (4 - i) % 4;
}

/**
 * Static issue-slot costs per firing (straight-line slots plus loop
 * bodies; zero-overhead loops and the outer firing loop are free,
 * conditional branches pay their one stall). These feed the SDF
 * graph so the AutoMapper's frequency demands match what the
 * simulator will actually execute.
 */
constexpr uint64_t FilterCost(unsigned px) { return 4 + (px - 1) * 9 + 6; }
constexpr uint64_t EmitCost =
    N * (1 + LeftWords * 2 + 1 + RightWords * 11);
constexpr uint64_t PrefilterCost =
    FilterCost(W) + FilterCost(PadW) + EmitCost;
constexpr uint64_t SadReceiveCost =
    1 + B * (LeftWords * 2 + RightWords * 2 + 4);
constexpr uint64_t SadBlockCost =
    2 + (D / N) * (8 + B * 8 + 4) + 6;
constexpr uint64_t SadCost =
    SadReceiveCost + 1 + (W / B) * SadBlockCost + 2;
constexpr uint64_t SelectCost = 9;

/**
 * Demand margins. The sad columns must finish a block row a little
 * faster than the prefilter can stream the next one (they sit just
 * off the critical path, and clocking them at exactly their
 * throughput demand would stall the serial column on every write);
 * the tiny select join is latency-critical the same way the wifi
 * traceback is — without a margin the mapper would clock it so low
 * that draining four candidate lanes would become the bottleneck.
 */
constexpr unsigned SadMarginNum = 5, SadMarginDen = 4; //!< x1.25
constexpr unsigned SelectMargin = 16;

void
checkParams(const StereoPipelineParams &p)
{
    if (p.frame_rate_hz <= 0)
        fatal("stereo: need a positive frame rate");
}

/** The horizontal [1 2 1]/4 filter over @p px bytes at the cursor
 * pointer @p raw (post-advanced to the next row), storing filtered
 * bytes through p2 (caller positions it). Clamps both edges, exactly
 * like dsp::prefilter3. */
std::string
filterRowAsm(const char *raw, unsigned px, const char *lbl)
{
    return strprintf(R"(
        ld.bu r2, [%s]
        mov r3, r2
        paddi %s, 1
        lsetup lc1, %s, %u
        ld.bu r4, [%s]+1
        add r5, r2, r3
        add r5, r5, r3
        add r5, r5, r4
        addi r5, 2
        asri r5, r5, 2
        st.b r5, [p2]+1
        mov r2, r3
        mov r3, r4
    %s:
        add r5, r2, r3
        add r5, r5, r3
        add r5, r5, r3
        addi r5, 2
        asri r5, r5, 2
        st.b r5, [p2]+1
)",
                     raw, raw, lbl, px - 1, raw, lbl);
}

DagStage
prefilterStage()
{
    DagStage s;
    s.actor = "prefilter";
    s.firings = H;
    s.per_iteration = H;
    // p0/p1 walk the raw images row by row across firings.
    s.prologue = strprintf("        movpi p0, %u\n"
                           "        movpi p1, %u\n",
                           PfLeftRaw, PfRightRaw);

    std::string body;
    body += strprintf("        movpi p2, %u\n", PfLeftRow);
    body += filterRowAsm("p0", W, "__fl");
    body += strprintf("        movpi p2, %u\n", PfRightRow);
    body += filterRowAsm("p1", PadW, "__fr");

    // Fan the filtered row out to every sad column: aligned left
    // words, then the right row re-packed at the column's byte shift
    // (the corner-turn that keeps the SAA loops aligned).
    for (unsigned i = 0; i < N; ++i) {
        body += strprintf(R"(
        movpi p2, %u
        lsetup lc1, __el%u, %u
        ld.w r2, [p2]+4
        cwr r2, %u
    __el%u:
        movpi p3, %u
        lsetup lc1, __er%u, %u
        ld.bu r2, [p3]+1
        ld.bu r4, [p3]+1
        lsli r4, r4, 8
        or r2, r2, r4
        ld.bu r4, [p3]+1
        lsli r4, r4, 16
        or r2, r2, r4
        ld.bu r4, [p3]+1
        lsli r4, r4, 24
        or r2, r2, r4
        cwr r2, %u
    __er%u:
)",
                          PfLeftRow, i, LeftWords, LaneRows(i), i,
                          PfRightRow + shiftOf(i), i, RightWords,
                          LaneRows(i), i);
    }
    s.body = std::move(body);
    return s;
}

DagStage
sadStage(unsigned i)
{
    DagStage s;
    s.actor = strprintf("sad-%u", i);
    s.firings = H / B;
    s.per_iteration = H / B;
    // p0/p1: store cursors for the incoming rows; p4/p5: base of the
    // strip the current firing correlates.
    s.prologue = strprintf(R"(
        movpi p0, %u
        movpi p1, %u
        movpi p4, %u
        movpi p5, %u
        movi r5, 0
)",
                           SadLeft, SadRight, SadLeft, SadRight);

    // Phase 1: buffer one block row's worth of filtered rows.
    std::string body = strprintf(R"(
        movi r6, %u
    __rx:
        lsetup lc1, __rxl, %u
        crd r0, %u
        st.w r0, [p0]+4
    __rxl:
        lsetup lc1, __rxr, %u
        crd r0, %u
        st.w r0, [p1]+4
    __rxr:
        addi r6, -1
        cmplt r5, r6
        jcc __rx
        movi r4, 0
    __bx:
        movi r2, -1
        movih r2, 32767
)",
                                 B, LeftWords, LaneRows(i),
                                 RightWords, LaneRows(i));

    // Phase 2: for every block of the strip, SAD the column's D/N
    // disparities with the 4-byte SAA op and fold each into the
    // packed sadKey; the strict `min` keeps the lowest SAD and
    // breaks ties toward the smaller disparity.
    for (unsigned k = 0; k < D / N; ++k) {
        unsigned d = N * k + i;
        unsigned off = D - d - shiftOf(i);
        body += strprintf(R"(
        movrp r0, p4
        add r0, r0, r4
        movp p2, r0
        movrp r0, p5
        add r0, r0, r4
        addi r0, %u
        movp p3, r0
        aclr a0
        lsetup lc1, __sk%u, %u
        ld.w r0, [p2]+4
        ld.w r1, [p3]+4
        saa a0, r0, r1
        ld.w r0, [p2]+4
        ld.w r1, [p3]+4
        saa a0, r0, r1
        paddi p2, %u
        paddi p3, %u
    __sk%u:
        aext r0, a0, 0
        lsli r0, r0, 6
        addi r0, %u
        min r2, r2, r0
)",
                          off, k, B, W - B, PadW - B, k, d);
    }
    body += strprintf(R"(
        cwr r2, %u
        addi r4, %u
        movi r1, %u
        cmplt r4, r1
        jcc __bx
        paddi p4, %u
        paddi p5, %u
)",
                      LaneKeys(i), B, W, B * W, B * PadW);
    s.body = std::move(body);
    return s;
}

DagStage
selectStage()
{
    DagStage s;
    s.actor = "select";
    s.firings = StereoBlocks;
    s.per_iteration = StereoBlocks;
    s.prologue = strprintf("        movpi p0, %u\n"
                           "        movi r4, 63\n",
                           SelOut);
    // The min-SAD join: one candidate key per sad column, each crd
    // waiting on its own lane's buffer; the winning key's low bits
    // are the block's disparity.
    s.body = strprintf(R"(
        crd r0, %u
        crd r1, %u
        min r0, r0, r1
        crd r1, %u
        min r0, r0, r1
        crd r1, %u
        min r0, r0, r1
        and r0, r0, r4
        st.b r0, [p0]+1
)",
                       LaneKeys(0), LaneKeys(1), LaneKeys(2),
                       LaneKeys(3));
    return s;
}

/** The per-block disparity map, read back from a finished chip. */
std::vector<uint8_t>
readStereoOutput(arch::Chip &chip,
                 const mapping::PipelineProgram &prog)
{
    const auto &sel_col = prog.columnFor("select");
    arch::Tile &tile = chip.column(sel_col.column).tile(0);
    std::vector<uint8_t> out(StereoBlocks);
    tile.readMem(SelOut, out.data(), StereoBlocks);
    return out;
}

} // namespace

void
stereoScene(const StereoPipelineParams &p, dsp::Image &left,
            dsp::Image &right, std::vector<uint8_t> *truth)
{
    checkParams(p);
    // A random texture split into two depth bands: the left band at
    // disparity 5, the right at 12. Every right pixel is the left
    // pixel shifted by its band's disparity, so interior blocks have
    // exact ground truth; blocks whose support straddles the seam or
    // the clamped right edge are left out of the truth map (255).
    constexpr unsigned NearD = 5, FarD = 12, Seam = 20;
    Rng rng(p.seed);
    for (unsigned y = 0; y < H; ++y)
        for (unsigned x = 0; x < W; ++x)
            left(x, y) = uint8_t(rng.below(256));
    for (unsigned y = 0; y < H; ++y)
        for (unsigned x = 0; x < W; ++x)
            right(x, y) =
                left.at(int(x + (x < Seam ? NearD : FarD)), int(y));

    if (truth) {
        truth->assign(StereoBlocks, 255);
        for (unsigned by = 0; by < H / B; ++by) {
            for (unsigned bx = 0; bx < W / B; ++bx) {
                unsigned x0 = bx * B;
                // A block has exact truth when all the right-image
                // pixels it correlates against ([x0-d, x0+B-d)) lie
                // inside one band AND inside the image (the first
                // block column's support would read the replicate-
                // clamped left edge, where the shift identity
                // breaks).
                unsigned d = x0 >= Seam + FarD ? FarD
                             : (x0 >= NearD &&
                                x0 + B - NearD <= Seam)
                                 ? NearD
                                 : 255;
                (*truth)[by * (W / B) + bx] = uint8_t(d);
            }
        }
    }
}

mapping::SdfGraph
stereoGraph(const StereoPipelineParams &p,
            std::vector<mapping::ActorCommSpec> *comm)
{
    checkParams(p);
    mapping::SdfGraph g;
    unsigned pf = g.addActor("prefilter", PrefilterCost);
    unsigned sad[N];
    for (unsigned i = 0; i < N; ++i)
        sad[i] = g.addActor(strprintf("sad-%u", i),
                            SadCost * SadMarginNum / SadMarginDen);
    unsigned sel = g.addActor("select", SelectCost * SelectMargin);
    // The minimal SDF iteration is one BLOCK ROW: the balance
    // equations solve to q = (B, 1, 1, 1, 1, W/B) — B prefilter row
    // firings feed one firing of each sad column, which feeds W/B
    // select firings. planStereo scales the mapper rate by the H/B
    // block rows per frame accordingly.
    for (unsigned i = 0; i < N; ++i) {
        g.addEdge(pf, sad[i], RowWords, RowWords * B);
        g.addEdge(sad[i], sel, W / B, 1);
    }

    if (comm) {
        comm->assign(g.numActors(), {});
        (*comm)[pf].words_per_firing = N * RowWords;
        for (unsigned i = 0; i < N; ++i)
            (*comm)[sad[i]].words_per_firing = W / B;
        // The kernels keep streaming state (row cursors, strip
        // buffers), so none of them parallelize further.
        for (auto &spec : *comm)
            spec.max_parallel = 1;
    }
    return g;
}

std::optional<mapping::ChipPlan>
planStereo(const StereoPipelineParams &p)
{
    std::vector<mapping::ActorCommSpec> comm;
    mapping::SdfGraph g = stereoGraph(p, &comm);
    // The graph's minimal SDF iteration is one *block row* (the
    // repetition vector solves to q = (B, 1, 1, 1, 1, W/B)), so the
    // mapper's iteration rate is H/B of them per frame.
    return planApp(g, comm, p.frame_rate_hz * (H / B));
}

namespace
{

/** The pipeline's DAG; it has no constant images. */
DagSpec
stereoDag(const StereoPipelineParams &p)
{
    checkParams(p);
    DagSpec spec;
    spec.stages.push_back(prefilterStage());
    for (unsigned i = 0; i < N; ++i)
        spec.stages.push_back(sadStage(i));
    spec.stages.push_back(selectStage());
    // Edge order defines the bus lanes the kernels above tag. The
    // row lanes carry the bulk of the traffic and get two delivery
    // slots per grid period so the fan-out never throttles the
    // serial prefilter column.
    for (unsigned i = 0; i < N; ++i)
        spec.edges.push_back({"prefilter", strprintf("sad-%u", i),
                              RowWords, RowWords * B, 2});
    for (unsigned i = 0; i < N; ++i)
        spec.edges.push_back(
            {strprintf("sad-%u", i), "select", W / B, 1, 1});
    return spec;
}

/**
 * The prefilter column's inputs: the raw left image and the right
 * image padded on the left for the disparity search.
 */
std::vector<InputImage>
stereoInputs(const dsp::Image &left, const dsp::Image &right)
{
    sync_assert(left.width() == W && left.height() == H &&
                    right.width() == W && right.height() == H,
                "stereo: the mapped pipeline is fixed at %ux%u", W,
                H);
    return {{"prefilter", PfLeftRaw, left.pixels()},
            {"prefilter", PfRightRaw,
             dsp::padLeftReplicate(right, D).pixels()}};
}

} // namespace

AppSpec
stereoSpec(const StereoPipelineParams &p)
{
    auto plan = planStereo(p);
    if (!plan)
        fatal("stereo: no feasible mapping at %.0f frames/s",
              p.frame_rate_hz);

    AppSpec s;
    s.name = "stereo";
    s.seed = p.seed;
    s.plan = *plan;
    s.iterations_per_sec = p.frame_rate_hz;
    s.slack = p.slack;
    s.priced_items = StereoBlocks;
    // One SDF iteration correlates one whole frame pair, and one
    // item is one frame pair.
    s.iterations_per_item = 1;
    s.output_label = "stereo disparity map";

    using Pair = std::pair<dsp::Image, dsp::Image>; //!< (left, right)
    auto scene = drawCached(p.seed, [p](uint32_t seed) {
        Pair sc{dsp::Image(W, H), dsp::Image(W, H)};
        stereoScene(withSeed(p, seed), sc.first, sc.second);
        return sc;
    });
    s.stages = [p](const mapping::ChipPlan &) { return stereoDag(p); };
    s.inputs = [scene](uint32_t seed, const mapping::ChipPlan &) {
        const auto sc = scene(seed);
        return stereoInputs(sc->first, sc->second);
    };
    // Generous: the delivery grid paces RowWords tokens per row lane
    // per slot_spacing ticks, H rows, plus fill and drain.
    s.tick_limit = [](const mapping::ChipPlan &,
                      const mapping::PipelineProgram &prog) {
        return Tick(H) * RowWords * prog.slot_spacing * 4 + 1'000'000;
    };
    s.read_output = readStereoOutput;
    s.golden = [scene](uint32_t seed) {
        const auto sc = scene(seed);
        return dsp::stereoBlockDisparities(sc->first, sc->second, B, D);
    };
    return s;
}

MappedStereoRun
runMappedStereo(const StereoPipelineParams &p)
{
    checkParams(p);
    MappedStereoRun run;
    dsp::Image left(W, H), right(W, H);
    std::vector<uint8_t> truth;
    stereoScene(p, left, right, &truth);

    MappedApp app(stereoSpec(p), p.scheduler, p.parallel_team);
    static_cast<MappedAppRun &>(run) = app.run();
    run.achieved_block_rate_hz = run.achieved_items_per_sec;

    run.output = readStereoOutput(app.chip(), app.program());

    unsigned scored = 0, hits = 0;
    for (unsigned b = 0; b < StereoBlocks; ++b) {
        if (truth[b] == 255)
            continue;
        ++scored;
        hits += run.output[b] == truth[b];
    }
    run.truth_hit_rate = scored ? double(hits) / scored : 0.0;
    return run;
}

} // namespace synchro::apps
