#include "mapping/codegen.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>

#include "arch/chip.hh"
#include "common/log.hh"
#include "mapping/verifier.hh"

namespace synchro::mapping
{

namespace
{

const ActorPlacement &
placementFor(const ChipPlan &plan, const std::string &actor)
{
    for (const auto &p : plan.placements) {
        if (p.actor == actor)
            return p;
    }
    fatal("codegen: actor '%s' has no placement in the chip plan",
          actor.c_str());
}

/** Wrap one firing body into a complete column program. */
isa::Program
stitchProgram(const DagStage &stage)
{
    if (stage.firings == 0 || stage.firings > 4095) {
        fatal("codegen: stage '%s' needs 1..4095 firings "
              "(lsetup range), got %llu",
              stage.actor.c_str(),
              (unsigned long long)stage.firings);
    }
    std::string src = stage.prologue;
    src += strprintf("\n        lsetup lc0, __fire_end, %llu\n",
                     (unsigned long long)stage.firings);
    src += stage.body;
    src += "\n    __fire_end:\n        halt\n";
    return isa::assemble(src);
}

/** Stage index of @p actor in the spec; fatal() if absent. */
size_t
stageIndex(const std::map<std::string, size_t> &idx,
           const std::string &actor, const char *role)
{
    auto it = idx.find(actor);
    if (it == idx.end())
        fatal("codegen: edge %s '%s' is not a stage of the DAG",
              role, actor.c_str());
    return it->second;
}

} // namespace

void
PipelineProgram::load(arch::Chip &chip) const
{
    sync_assert(chip.numColumns() >= total_columns,
                "pipeline needs %u columns; chip has %u",
                total_columns, chip.numColumns());
    sync_assert(chip.fabric().selfTimed(),
                "pipeline programs run on the self-timed bus; build "
                "the chip with ChipConfig::self_timed_bus = true");
    for (const auto &col : columns) {
        arch::Column &c = chip.column(col.column);
        c.controller().loadProgram(col.program);
        c.controller().setRateMatch(col.zorm.nops, col.zorm.period);
        c.dou().load(col.dou);
        for (const auto &[addr, bytes] : col.images)
            c.tile(0).writeMem(addr, bytes.data(),
                               uint32_t(bytes.size()));
        // The kernels are sequential: one tile per column does the
        // work, the rest are supply-gated (paper Section 2.2).
        for (unsigned t = 1; t < c.numTiles(); ++t)
            c.setTileActive(t, false);
    }
}

std::unique_ptr<arch::Chip>
buildChip(const ChipPlan &plan, const PipelineProgram &prog,
          SchedulerKind scheduler, unsigned parallel_team)
{
    arch::ChipConfig cfg;
    cfg.ref_freq_mhz = plan.ref_freq_mhz;
    cfg.dividers = plan.dividers();
    cfg.scheduler = scheduler;
    cfg.parallel_columns = parallel_team;
    cfg.self_timed_bus = true;
    auto chip = std::make_unique<arch::Chip>(cfg);
    prog.load(*chip);
    return chip;
}

const ColumnProgram &
PipelineProgram::columnFor(const std::string &actor) const
{
    for (const auto &col : columns) {
        if (col.actor == actor)
            return col;
    }
    fatal("pipeline program has no column for actor '%s'",
          actor.c_str());
}

PipelineProgram
lowerDag(const DagSpec &spec, const ChipPlan &plan,
         double iterations_per_sec, double slack)
{
    const std::vector<DagStage> &stages = spec.stages;
    if (stages.size() < 2)
        fatal("codegen: a pipeline needs at least two stages");
    if (iterations_per_sec <= 0 || slack < 1.0)
        fatal("codegen: need a positive rate and slack >= 1");
    if (spec.edges.empty())
        fatal("codegen: a DAG pipeline needs at least one edge");

    std::map<std::string, size_t> idx;
    for (size_t i = 0; i < stages.size(); ++i) {
        if (!idx.emplace(stages[i].actor, i).second)
            fatal("codegen: duplicate stage '%s'",
                  stages[i].actor.c_str());
    }

    // Every stage must describe the same number of SDF iterations —
    // the balance equations of Section 2.1, checked on the code.
    if (stages[0].per_iteration == 0)
        fatal("codegen: stage '%s' fires zero times per iteration",
              stages[0].actor.c_str());
    const uint64_t iters = stages[0].firings / stages[0].per_iteration;
    for (const auto &s : stages) {
        if (s.per_iteration == 0 || s.firings % s.per_iteration != 0 ||
            s.firings / s.per_iteration != iters) {
            fatal("codegen: stage '%s' firing count %llu does not "
                  "describe %llu iterations of %llu firings each",
                  s.actor.c_str(), (unsigned long long)s.firings,
                  (unsigned long long)iters,
                  (unsigned long long)s.per_iteration);
        }
    }

    // Edges: endpoints, token-rate balance (the join-rate check),
    // per-iteration word counts.
    const size_t n_edges = spec.edges.size();
    std::vector<size_t> e_src(n_edges), e_dst(n_edges);
    std::vector<char> connected(stages.size(), 0);
    uint64_t max_words = 0;
    for (size_t e = 0; e < n_edges; ++e) {
        const DagEdgeSpec &edge = spec.edges[e];
        size_t s = stageIndex(idx, edge.src, "producer");
        size_t d = stageIndex(idx, edge.dst, "consumer");
        if (s == d)
            fatal("codegen: edge %zu is a self-loop on '%s' (the "
                  "graph must be acyclic)",
                  e, edge.src.c_str());
        if (edge.src_words_per_firing == 0 ||
            edge.dst_words_per_firing == 0)
            fatal("codegen: edge %zu (%s -> %s) carries no data", e,
                  edge.src.c_str(), edge.dst.c_str());
        uint64_t w_src =
            edge.src_words_per_firing * stages[s].per_iteration;
        uint64_t w_dst =
            edge.dst_words_per_firing * stages[d].per_iteration;
        if (w_src != w_dst) {
            fatal("codegen: edge %s -> %s is rate-inconsistent "
                  "(%llu produced vs %llu consumed per iteration)",
                  edge.src.c_str(), edge.dst.c_str(),
                  (unsigned long long)w_src,
                  (unsigned long long)w_dst);
        }
        e_src[e] = s;
        e_dst[e] = d;
        connected[s] = connected[d] = 1;
        max_words = std::max(max_words, w_src);
    }
    for (size_t i = 0; i < stages.size(); ++i) {
        if (!connected[i])
            fatal("codegen: stage '%s' is disconnected from the DAG",
                  stages[i].actor.c_str());
    }

    // Acyclicity (Kahn): SDF cycles need initial-token delays, which
    // this lowerer does not model — reject instead of deadlocking.
    {
        std::vector<unsigned> indeg(stages.size(), 0);
        for (size_t e = 0; e < n_edges; ++e)
            ++indeg[e_dst[e]];
        std::deque<size_t> ready;
        for (size_t i = 0; i < stages.size(); ++i) {
            if (indeg[i] == 0)
                ready.push_back(i);
        }
        size_t seen = 0;
        while (!ready.empty()) {
            size_t i = ready.front();
            ready.pop_front();
            ++seen;
            for (size_t e = 0; e < n_edges; ++e) {
                if (e_src[e] == i && --indeg[e_dst[e]] == 0)
                    ready.push_back(e_dst[e]);
            }
        }
        if (seen != stages.size())
            fatal("codegen: the actor graph is cyclic; cyclic SDF "
                  "graphs need initial-token delays the DAG lowerer "
                  "does not model");
    }

    // Delivery grid: every edge gets one drive/capture slot per G
    // bus cycles, so each lane's slot rate covers the busiest edge's
    // token rate with the requested slack; lighter edges simply idle
    // some of their slots.
    const double ref_hz = plan.ref_freq_mhz * 1e6;
    uint64_t spacing = uint64_t(
        ref_hz * slack / (iterations_per_sec * double(max_words)));
    spacing = std::min<uint64_t>(spacing, 1u << 20);
    std::vector<unsigned> slot_counts;
    for (const auto &edge : spec.edges)
        slot_counts.push_back(edge.slots_per_period);
    EdgeSlots slots = allocateEdgeSlots(slot_counts, spacing);

    PipelineProgram out;
    out.total_columns = plan.total_columns;
    out.period = slots.period;
    out.slot_spacing = slots.period;
    out.lanes = slots.lane;

    // One CommSchedule per stage; edge e rides lane e at its
    // staggered slot.
    std::vector<CommSchedule> scheds(stages.size());
    for (auto &s : scheds)
        s.period = slots.period;
    for (size_t e = 0; e < n_edges; ++e) {
        for (unsigned off : slots.offsets[e]) {
            Transfer drive;
            drive.offset = off;
            drive.lane = slots.lane[e];
            drive.src_tile = 0;
            drive.to_horizontal = true;
            scheds[e_src[e]].transfers.push_back(drive);
            Transfer capture;
            capture.offset = off;
            capture.lane = slots.lane[e];
            capture.src_tile = -1; // from the horizontal bus
            capture.dst_tiles = {0};
            scheds[e_dst[e]].transfers.push_back(capture);
        }
    }

    for (size_t i = 0; i < stages.size(); ++i) {
        const DagStage &stage = stages[i];
        const ActorPlacement &p = placementFor(plan, stage.actor);
        // The kernels are sequential single-column programs; a plan
        // that provisioned parallel columns/tiles (max_parallel > 1)
        // would silently run at a fraction of its planned rate, so
        // reject it instead of under-delivering.
        if (p.columns != 1 || p.tiles != 1) {
            fatal("codegen: actor '%s' planned across %u columns / "
                  "%u tiles; pipeline kernels are single-column "
                  "(map with max_parallel = 1)",
                  stage.actor.c_str(), p.columns, p.tiles);
        }
        ColumnProgram col;
        col.column = p.first_column;
        col.actor = stage.actor;
        col.program = stitchProgram(stage);
        col.schedule = scheds[i];
        col.dou = compileSchedule(col.schedule);
        col.zorm = p.zorm;
        col.images = stage.images;
        out.columns.push_back(std::move(col));
    }

    // Placements must not share columns (a column runs one actor).
    for (size_t a = 0; a < out.columns.size(); ++a) {
        for (size_t b = a + 1; b < out.columns.size(); ++b) {
            if (out.columns[a].column == out.columns[b].column)
                fatal("codegen: actors '%s' and '%s' both placed on "
                      "column %u",
                      out.columns[a].actor.c_str(),
                      out.columns[b].actor.c_str(),
                      out.columns[a].column);
        }
    }

    // The static verifier gate: a lowered artifact with a provable
    // safety violation never reaches a chip.
    VerifyReport rep =
        verifyLowered(spec, plan, out, iterations_per_sec, slack);
    if (!rep.ok())
        fatal("codegen: statically rejected: %s",
              rep.errorSummary().c_str());
    return out;
}

DagSpec
linearDagSpec(const std::vector<PipelineStage> &stages)
{
    if (stages.size() < 2)
        fatal("codegen: a pipeline needs at least two stages");
    if (stages.front().reads_per_firing != 0)
        fatal("codegen: source stage '%s' cannot read upstream",
              stages.front().actor.c_str());
    if (stages.back().writes_per_firing != 0)
        fatal("codegen: sink stage '%s' cannot write downstream",
              stages.back().actor.c_str());

    DagSpec spec;
    for (const auto &s : stages) {
        DagStage d;
        d.actor = s.actor;
        d.prologue = s.prologue;
        d.body = s.body;
        d.firings = s.firings;
        d.per_iteration = s.per_iteration;
        d.images = s.images;
        spec.stages.push_back(std::move(d));
    }
    for (size_t e = 0; e + 1 < stages.size(); ++e) {
        DagEdgeSpec edge;
        edge.src = stages[e].actor;
        edge.dst = stages[e + 1].actor;
        edge.src_words_per_firing = stages[e].writes_per_firing;
        edge.dst_words_per_firing = stages[e + 1].reads_per_firing;
        spec.edges.push_back(std::move(edge));
    }
    return spec;
}

} // namespace synchro::mapping
