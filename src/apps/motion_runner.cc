#include "apps/motion_runner.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/log.hh"
#include "common/rng.hh"

namespace synchro::apps
{

using mapping::DagEdgeSpec;
using mapping::DagSpec;
using mapping::DagStage;

namespace
{

constexpr unsigned W = MotionWidth;
constexpr unsigned H = MotionHeight;
constexpr unsigned Mb = MotionMb;
constexpr int R = MotionRange;
constexpr unsigned PadW = W + 2 * R; //!< padded reference stride
constexpr unsigned PadH = H + 2 * R;
constexpr unsigned RefBytes = PadW * PadH;

/** Macroblocks per search column (residue shards mod @p cols). */
constexpr unsigned
mbsPerCol(unsigned cols)
{
    return MotionMbs / cols;
}

/** Widest search farm the join's input lanes can absorb. */
constexpr unsigned MaxMotionColumns = 6;

// Tile-SRAM layout, search columns: current frame, four byte-shifted
// mirror copies of the padded reference (copy s holds the padded
// bytes starting at byte s, so a candidate row starting at padded
// byte g is 4-byte aligned in copy g % 4), and the per-macroblock
// candidate tables.
constexpr uint32_t MeCur = 0x0000;            //!< W x H bytes
constexpr uint32_t MeRef = 0x0C00;            //!< 4 x RefBytes
constexpr uint32_t MeTab = MeRef + 4 * RefBytes;

/** Table stride per macroblock: cur base + one address per cand. */
constexpr unsigned TabWords = 1 + MotionCands;

// The packed search key is (SAD << 7 | candidate index): the index
// needs the full 7-bit field and the worst-case SAD must leave the
// shifted key positive, or both the chip kernel and the golden
// re-encoding compute wrong argmins while still comparing equal.
static_assert(MotionCands <= 128,
              "candidate index overflows the 7-bit key field");
static_assert(uint64_t(Mb) * Mb * 255 < (uint64_t(1) << 24),
              "worst-case SAD overflows the packed key");

// Tile-SRAM layout, join column.
constexpr uint32_t JoinOut = 0x0000; //!< one packed key per mb

/**
 * Static issue-slot costs per firing (straight-line slots plus loop
 * bodies; zero-overhead loops and the outer firing loop are free,
 * conditional branches pay their one stall). These feed the SDF
 * graph so the AutoMapper's frequency demands match what the
 * simulator will actually execute.
 */
constexpr uint64_t CandCost = 4 + Mb * 14 + 4 + 2 + 1 + 2;
constexpr uint64_t MeCost = 5 + MotionCands * CandCost + 1;

/** Join slots per firing: one crd + one store per search column. */
constexpr uint64_t
joinCost(unsigned cols)
{
    return 2 * uint64_t(cols);
}

/**
 * Demand margin for the join: it is pure latency (two lane-tagged
 * reads), and clocking it at its raw throughput demand would make
 * draining the candidate lanes the pipeline's bottleneck.
 */
constexpr unsigned JoinMargin = 16;

void
checkParams(const MotionPipelineParams &p)
{
    if (p.mb_rate_hz <= 0)
        fatal("motion: need a positive macroblock rate");
    if (std::abs(p.pan_dx) > R || std::abs(p.pan_dy) > R)
        fatal("motion: pan (%d, %d) outside the +-%d search range",
              p.pan_dx, p.pan_dy, R);
    if (p.columns == 0 || p.columns > MaxMotionColumns ||
        MotionMbs % p.columns != 0)
        fatal("motion: %u search columns unsupported (need a "
              "divisor of %u macroblocks within 1..%u)",
              p.columns, MotionMbs, MaxMotionColumns);
}

/** Replicate-pad @p img by R pixels on every side. */
dsp::Image
padImage(const dsp::Image &img)
{
    dsp::Image out(PadW, PadH);
    for (unsigned y = 0; y < PadH; ++y)
        for (unsigned x = 0; x < PadW; ++x)
            out(x, y) = img.at(int(x) - R, int(y) - R);
    return out;
}

DagStage
meStage(unsigned which, unsigned cols, const dsp::Image &cur,
        const dsp::Image &ref)
{
    DagStage s;
    s.actor = strprintf("me-%u", which);
    s.firings = mbsPerCol(cols);
    s.per_iteration = 1;
    s.prologue = strprintf("        movpi p3, %u\n"
                           "        movi r7, 0\n",
                           MeTab);

    // One firing = one macroblock: walk its candidate table in
    // tie-break order, SAA the 16x16 SAD of each candidate, and keep
    // the minimum packed (SAD << 7 | index) key.
    s.body = strprintf(R"(
        ld.w r0, [p3]+4
        movi r2, -1
        movih r2, 32767
        movi r4, %u
        movi r6, 0
    __cand:
        ld.w r1, [p3]+4
        movp p1, r1
        movp p0, r0
        aclr a0
        lsetup lc1, __row, %u
        ld.w r1, [p0]+4
        ld.w r3, [p1]+4
        saa a0, r1, r3
        ld.w r1, [p0]+4
        ld.w r3, [p1]+4
        saa a0, r1, r3
        ld.w r1, [p0]+4
        ld.w r3, [p1]+4
        saa a0, r1, r3
        ld.w r1, [p0]+4
        ld.w r3, [p1]+4
        saa a0, r1, r3
        paddi p0, %u
        paddi p1, %u
    __row:
        aext r1, a0, 0
        lsli r1, r1, 7
        or r1, r1, r6
        min r2, r2, r1
        addi r6, 1
        addi r4, -1
        cmplt r7, r4
        jcc __cand
        cwr r2, %u
)",
                       MotionCands, Mb, W - Mb, PadW - Mb, which);

    // Current frame and the four alignment mirrors of the padded
    // reference.
    s.images.push_back({MeCur, cur.pixels()});
    dsp::Image padded = padImage(ref);
    for (unsigned shift = 0; shift < 4; ++shift) {
        std::vector<uint8_t> copy(RefBytes, 0);
        for (unsigned b = 0; b + shift < RefBytes; ++b)
            copy[b] = padded.pixels()[b + shift];
        s.images.push_back({MeRef + shift * RefBytes, std::move(copy)});
    }

    // Candidate tables for this shard's macroblocks: [cur mb base,
    // then one padded-reference address per candidate].
    // (Shard = macroblock residue mod cols.)
    auto cands = motionCandidates();
    std::vector<int32_t> tab;
    tab.reserve(mbsPerCol(cols) * TabWords);
    for (unsigned m = 0; m < mbsPerCol(cols); ++m) {
        unsigned g = cols * m + which;
        unsigned x0 = (g % (W / Mb)) * Mb;
        unsigned y0 = (g / (W / Mb)) * Mb;
        tab.push_back(int32_t(MeCur + y0 * W + x0));
        for (const auto &[dx, dy] : cands) {
            unsigned gx = unsigned(int(x0) + R + dx);
            unsigned gy = unsigned(int(y0) + R + dy);
            unsigned shift = gx % 4;
            tab.push_back(int32_t(MeRef + shift * RefBytes +
                                  gy * PadW + gx - shift));
        }
    }
    std::vector<uint8_t> tab_bytes(tab.size() * 4);
    std::memcpy(tab_bytes.data(), tab.data(), tab_bytes.size());
    s.images.push_back({MeTab, std::move(tab_bytes)});
    return s;
}

DagStage
joinStage(unsigned cols)
{
    DagStage s;
    s.actor = "join";
    s.firings = mbsPerCol(cols);
    s.per_iteration = 1;
    s.prologue = strprintf("        movpi p0, %u\n", JoinOut);
    // The best-vector join: interleave the shards' winning keys back
    // into macroblock order, each crd waiting on its own lane.
    for (unsigned c = 0; c < cols; ++c) {
        s.body += strprintf("        crd r0, %u\n"
                            "        st.w r0, [p0]+4\n",
                            c);
    }
    return s;
}

/**
 * Golden: dsp::fullSearch per macroblock, re-encoded with the
 * candidate order's packed key for the bit-exact compare.
 */
std::vector<int32_t>
motionGoldenKeys(const dsp::Image &cur, const dsp::Image &ref)
{
    auto cands = motionCandidates();
    std::vector<int32_t> keys;
    keys.reserve(MotionMbs);
    for (unsigned g = 0; g < MotionMbs; ++g) {
        unsigned x0 = (g % (W / Mb)) * Mb;
        unsigned y0 = (g / (W / Mb)) * Mb;
        dsp::MotionVector mv =
            dsp::fullSearch(cur, ref, x0, y0, R, Mb);
        unsigned idx = 0;
        while (idx < cands.size() &&
               (cands[idx].first != mv.dx ||
                cands[idx].second != mv.dy))
            ++idx;
        sync_assert(idx < cands.size(), "pan outside search range");
        keys.push_back(int32_t((mv.sad << 7) | idx));
    }
    return keys;
}

/** The packed search keys, read back from a finished chip. */
std::vector<int32_t>
readMotionOutput(arch::Chip &chip,
                 const mapping::PipelineProgram &prog)
{
    const auto &join_col = prog.columnFor("join");
    return chip.column(join_col.column)
        .tile(0)
        .readMemWords(JoinOut, MotionMbs);
}

/** Search-farm width a candidate plan encodes (its me-* actors). */
unsigned
planColumns(const mapping::ChipPlan &plan)
{
    unsigned cols = 0;
    for (const auto &pl : plan.placements)
        cols += pl.actor.rfind("me-", 0) == 0;
    return cols;
}

} // namespace

void
motionScene(const MotionPipelineParams &p, dsp::Image &cur,
            dsp::Image &ref)
{
    checkParams(p);
    // A textured scene translated by the pan with a little sensor
    // noise — the same construction the mpeg4_encode example uses.
    auto scene = [&](int dx, int dy, dsp::Image &img) {
        Rng rng(p.seed);
        for (unsigned y = 0; y < H; ++y) {
            for (unsigned x = 0; x < W; ++x) {
                double v =
                    128 + 50 * std::sin((int(x) + dx) / 7.0) +
                    40 * std::cos((int(y) + dy) / 9.0) +
                    20 * std::sin(((int(x) + dx) + (int(y) + dy)) /
                                  5.0);
                v += rng.gauss() * 2.0;
                img(x, y) = uint8_t(
                    std::min(255.0, std::max(0.0, std::round(v))));
            }
        }
    };
    scene(0, 0, ref);
    scene(p.pan_dx, p.pan_dy, cur);
}

std::vector<std::pair<int, int>>
motionCandidates()
{
    std::vector<std::pair<int, int>> cands;
    cands.reserve(MotionCands);
    for (int dy = -R; dy <= R; ++dy)
        for (int dx = -R; dx <= R; ++dx)
            cands.emplace_back(dx, dy);
    // dsp::fullSearch's tie-break order: smaller |v|1, then dy, then
    // dx. Visiting candidates in this order and keeping the strict
    // minimum of (SAD << 7 | index) reproduces its argmin exactly.
    std::stable_sort(cands.begin(), cands.end(),
                     [](const auto &a, const auto &b) {
                         int na = std::abs(a.first) +
                                  std::abs(a.second);
                         int nb = std::abs(b.first) +
                                  std::abs(b.second);
                         if (na != nb)
                             return na < nb;
                         if (a.second != b.second)
                             return a.second < b.second;
                         return a.first < b.first;
                     });
    return cands;
}

mapping::SdfGraph
motionGraph(const MotionPipelineParams &p,
            std::vector<mapping::ActorCommSpec> *comm)
{
    checkParams(p);
    mapping::SdfGraph g;
    std::vector<unsigned> mes;
    for (unsigned c = 0; c < p.columns; ++c)
        mes.push_back(g.addActor(strprintf("me-%u", c), MeCost));
    unsigned join =
        g.addActor("join", joinCost(p.columns) * JoinMargin);
    // One iteration = one macroblock group: q = (1, ..., 1).
    for (unsigned me : mes)
        g.addEdge(me, join, 1, 1);

    if (comm) {
        comm->assign(g.numActors(), {});
        for (unsigned me : mes)
            (*comm)[me].words_per_firing = 1;
        // The kernels keep streaming state (table cursors), so none
        // of them parallelize further.
        for (auto &spec : *comm)
            spec.max_parallel = 1;
    }
    return g;
}

std::optional<mapping::ChipPlan>
planMotion(const MotionPipelineParams &p)
{
    std::vector<mapping::ActorCommSpec> comm;
    mapping::SdfGraph g = motionGraph(p, &comm);
    return planApp(g, comm, p.mb_rate_hz / p.columns);
}

DagSpec
motionDag(const MotionPipelineParams &p, const dsp::Image &cur,
          const dsp::Image &ref)
{
    checkParams(p);
    sync_assert(cur.width() == W && cur.height() == H &&
                    ref.width() == W && ref.height() == H,
                "motion: the mapped pipeline is fixed at %ux%u", W,
                H);
    DagSpec spec;
    for (unsigned c = 0; c < p.columns; ++c)
        spec.stages.push_back(meStage(c, p.columns, cur, ref));
    spec.stages.push_back(joinStage(p.columns));
    // Edge order defines the bus lanes: two delivery slots per grid
    // period so a deferred key never waits a whole period behind
    // another shard's.
    for (unsigned c = 0; c < p.columns; ++c)
        spec.edges.push_back(
            {strprintf("me-%u", c), "join", 1, 1, 2});
    return spec;
}

AppSpec
motionSpec(const MotionPipelineParams &p)
{
    auto plan = planMotion(p);
    if (!plan)
        fatal("motion: no feasible mapping at %.0f macroblocks/s",
              p.mb_rate_hz);

    AppSpec s;
    s.name = "motion";
    s.seed = p.seed;
    s.plan = *plan;
    s.iterations_per_sec = p.mb_rate_hz / p.columns;
    s.slack = p.slack;
    s.priced_items = MotionMbs;
    // One SDF iteration searches one macroblock per search column;
    // one item is a whole frame's MotionMbs macroblocks.
    s.iterations_per_item = MotionMbs / p.columns;

    s.output_label = "motion search keys";
    s.output_width = 4;

    // Shard variants: the same total macroblock rate spread across
    // a different number of symmetric search columns. Each carries
    // its own AutoMapper plan (per-column demand changes with the
    // width) and per-column iteration rate.
    s.shard_variants = [p] {
        std::vector<mapping::PlanVariant> variants;
        for (unsigned cols = 1; cols <= MaxMotionColumns; ++cols) {
            if (cols == p.columns || MotionMbs % cols != 0)
                continue;
            MotionPipelineParams q = p;
            q.columns = cols;
            if (auto vplan = planMotion(q))
                variants.push_back({strprintf("shards=%u", cols),
                                    *vplan, p.mb_rate_hz / cols});
        }
        return variants;
    };

    using Scene = std::pair<dsp::Image, dsp::Image>; //!< (cur, ref)
    auto scene = ownSeedCached(p.seed, [p](uint32_t seed) {
        Scene sc{dsp::Image(W, H), dsp::Image(W, H)};
        motionScene(withSeed(p, seed), sc.first, sc.second);
        return sc;
    });

    // The DAG and budget infer the search-farm width from the plan
    // itself, so one spec serves every shard variant.
    s.dag = [p, scene](uint32_t seed, const mapping::ChipPlan &plan) {
        MotionPipelineParams q = p;
        q.columns = planColumns(plan);
        Scene sc = scene(seed);
        return motionDag(q, sc.first, sc.second);
    };
    // Generous: one key per shard per slot_spacing ticks plus the
    // search itself, with plenty of slack.
    s.tick_limit = [](const mapping::ChipPlan &plan,
                      const mapping::PipelineProgram &prog) {
        return Tick(mbsPerCol(planColumns(plan))) *
                   (prog.slot_spacing + MeCost) * 4 +
               1'000'000;
    };
    s.read_output = [](arch::Chip &chip,
                       const mapping::PipelineProgram &prog) {
        return bytesOfWords(readMotionOutput(chip, prog));
    };
    s.golden = [scene](uint32_t seed) {
        Scene sc = scene(seed);
        return bytesOfWords(motionGoldenKeys(sc.first, sc.second));
    };
    return s;
}

MappedMotionRun
runMappedMotion(const MotionPipelineParams &p)
{
    checkParams(p);
    MappedMotionRun run;
    dsp::Image cur(W, H), ref(W, H);
    motionScene(p, cur, ref);

    auto cands = motionCandidates();
    run.golden_keys = motionGoldenKeys(cur, ref);

    MappedApp app(motionSpec(p), p.scheduler, p.parallel_team);
    static_cast<MappedAppRun &>(run) = app.run();
    run.achieved_mb_rate_hz = run.achieved_items_per_sec;

    run.output_keys = readMotionOutput(app.chip(), app.program());

    unsigned hits = 0;
    for (unsigned g = 0; g < MotionMbs; ++g) {
        uint32_t key = uint32_t(run.output_keys[g]);
        unsigned idx = key & 127;
        dsp::MotionVector mv;
        mv.dx = cands[idx].first;
        mv.dy = cands[idx].second;
        mv.sad = key >> 7;
        run.vectors.push_back(mv);
        hits += mv.dx == p.pan_dx && mv.dy == p.pan_dy;
    }
    run.pan_hit_rate = double(hits) / MotionMbs;
    return run;
}

} // namespace synchro::apps
