#include "apps/app_harness.hh"

#include <algorithm>
#include <chrono>

#include "common/log.hh"
#include "power/vf_model.hh"

namespace synchro::apps
{

namespace
{

/** @p spec's own-seed inputs lowered onto @p plan at @p rate. */
mapping::PipelineProgram
lowerOnto(const AppSpec &spec, const mapping::ChipPlan &plan,
          double rate)
{
    return mapping::lowerDag(appDag(spec, spec.seed, plan), plan, rate,
                             spec.slack);
}

/** A tile-SRAM image resolved to its programmed column. */
struct ColumnImage
{
    unsigned column = 0;
    uint32_t addr = 0;
    std::vector<uint8_t> bytes;
};

/**
 * The per-item warm path: Chip::restart() back to tick 0, wipe the
 * programmed tiles' SRAM, and write the stages' constant images
 * @p constants and the item's @p inputs (matched to columns by actor
 * name). After it, the chip is bit-identical to a fresh build of a
 * program lowered from the same item's appDag().
 */
void
refeedImages(arch::Chip &chip, const mapping::PipelineProgram &prog,
             const std::vector<ColumnImage> &constants,
             const std::vector<InputImage> &inputs)
{
    chip.restart();
    // restart() keeps tile SRAM; wipe the working tiles so no
    // residue of the previous item survives, then lay down this
    // item's images exactly as PipelineProgram::load would.
    for (const auto &col : prog.columns)
        chip.column(col.column).tile(0).clearMem();
    for (const ColumnImage &img : constants)
        chip.column(img.column)
            .tile(0)
            .writeMem(img.addr, img.bytes.data(),
                      uint32_t(img.bytes.size()));
    for (const InputImage &img : inputs)
        chip.column(prog.columnFor(img.actor).column)
            .tile(0)
            .writeMem(img.addr, img.bytes.data(),
                      uint32_t(img.bytes.size()));
}

/** The fleet hooks around the committed program @p prog. */
sim::FleetWorkload
servingWorkload(const AppSpec &spec, mapping::PipelineProgram prog)
{
    auto s = std::make_shared<const AppSpec>(spec);
    auto p = std::make_shared<const mapping::PipelineProgram>(
        std::move(prog));
    auto constants = std::make_shared<std::vector<ColumnImage>>();
    mapping::DagSpec stages = s->stages(s->plan);
    for (auto &stage : stages.stages) {
        const unsigned column = p->columnFor(stage.actor).column;
        for (auto &[addr, bytes] : stage.images)
            constants->push_back({column, addr, std::move(bytes)});
    }

    sim::FleetWorkload wl;
    wl.name = s->name;
    wl.tick_limit = s->tick_limit(s->plan, *p);
    wl.build = [s, p](SchedulerKind kind) {
        return mapping::buildChip(s->plan, *p, kind);
    };
    wl.feed = [s, p, constants](arch::Chip &chip, uint64_t item) {
        refeedImages(chip, *p, *constants,
                     s->inputs(sim::fleetItemSeed(s->seed, item),
                               s->plan));
    };
    wl.read_output = [s, p](arch::Chip &chip) {
        return s->read_output(chip, *p);
    };
    wl.golden = [s](uint64_t item) {
        return s->golden(sim::fleetItemSeed(s->seed, item));
    };
    return wl;
}

} // namespace

mapping::DagSpec
appDag(const AppSpec &spec, uint32_t seed, const mapping::ChipPlan &plan)
{
    mapping::DagSpec dag = spec.stages(plan);
    for (InputImage &img : spec.inputs(seed, plan)) {
        auto it = std::find_if(
            dag.stages.begin(), dag.stages.end(),
            [&img](const mapping::DagStage &st) {
                return st.actor == img.actor;
            });
        if (it == dag.stages.end())
            fatal("%s: input image for unknown actor '%s'",
                  spec.name.c_str(), img.actor.c_str());
        it->images.emplace_back(img.addr, std::move(img.bytes));
    }
    return dag;
}

std::optional<mapping::ChipPlan>
planApp(const mapping::SdfGraph &graph,
        const std::vector<mapping::ActorCommSpec> &comm,
        double iterations_per_sec)
{
    if (graph.numActors() == 0)
        fatal("planApp: the SDF graph has no actors — a mapped "
              "application needs at least one kernel");
    if (iterations_per_sec <= 0)
        fatal("planApp: need a positive iteration rate, got %g",
              iterations_per_sec);
    power::SystemPowerModel model;
    power::VfModel vf;
    power::SupplyLevels levels(vf);
    mapping::AutoMapper mapper(model, levels);
    return mapper.map(graph, iterations_per_sec, comm);
}

MappedApp::MappedApp(const AppSpec &spec, SchedulerKind scheduler,
                     unsigned parallel_team)
    : spec_(spec)
{
    if (spec_.priced_items == 0)
        fatal("%s: AppSpec::priced_items must be set (the harness "
              "prices power per item)",
              spec_.name.c_str());
    prog_ = lowerOnto(spec_, spec_.plan, spec_.iterations_per_sec);
    tick_limit_ = spec_.tick_limit(spec_.plan, prog_);
    if (tick_limit_ == 0)
        fatal("%s: AppSpec::tick_limit must give a budget",
              spec_.name.c_str());
    chip_ = mapping::buildChip(spec_.plan, prog_, scheduler,
                               parallel_team);
}

MappedApp::~MappedApp() = default;

MappedAppRun
MappedApp::run()
{
    MappedAppRun run;
    run.plan = spec_.plan;

    auto t0 = std::chrono::steady_clock::now();
    run.result = chip_->run(tick_limit_);
    run.sim_seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (run.result.exit != arch::RunExit::AllHalted)
        fatal("%s: mapped pipeline did not drain (%s at tick %llu)",
              spec_.name.c_str(),
              run.result.exit == arch::RunExit::Deadlock
                  ? "deadlock"
                  : "tick limit",
              (unsigned long long)run.result.ticks);
    run.ticks = run.result.ticks;

    run.overruns = chip_->fabric().stats().value("overruns");
    run.conflicts = chip_->fabric().stats().value("conflicts");
    run.deferrals = chip_->fabric().stats().value("deferrals");
    run.bus_transfers = chip_->fabric().transfers();

    // Price the run at the throughput it actually sustained, so the
    // derived per-column frequencies are exactly what this silicon
    // would need to process the stream in real time.
    double ref_hz = spec_.plan.ref_freq_mhz * 1e6;
    run.achieved_items_per_sec = double(spec_.priced_items) *
                                 ref_hz / double(run.ticks);
    power::SystemPowerModel model;
    power::VfModel vf;
    power::SupplyLevels levels(vf);
    run.power = power::priceSimulationComparison(
        *chip_, spec_.priced_items, run.achieved_items_per_sec,
        levels, model);

    chip_->forEachStat([&run](const std::string &name, uint64_t v) {
        run.stats[name] = v;
    });

    run.golden = spec_.golden(spec_.seed);
    std::string diff = describeMismatch(
        spec_.output_label, spec_.read_output(*chip_, prog_), run.golden,
        spec_.output_width);
    run.bit_exact = diff.empty();
    if (!run.bit_exact)
        warn("%s", diff.c_str());
    return run;
}

mapping::LoweredArtifact
lowerApp(const AppSpec &spec)
{
    mapping::LoweredArtifact art;
    art.name = spec.name;
    art.spec = appDag(spec, spec.seed, spec.plan);
    art.plan = spec.plan;
    art.iterations_per_sec = spec.iterations_per_sec;
    art.slack = spec.slack;
    art.prog = mapping::lowerDag(art.spec, art.plan,
                                 art.iterations_per_sec, art.slack);
    return art;
}

mapping::ExplorableApp
explorableApp(const AppSpec &spec)
{
    mapping::ExplorableApp app;
    app.name = spec.name;
    app.iterations_per_sec = spec.iterations_per_sec;
    app.priced_items = spec.priced_items;
    app.baseline = spec.plan;
    if (spec.shard_variants)
        app.shard_variants = spec.shard_variants();
    app.tick_limit = spec.tick_limit;

    auto s = std::make_shared<const AppSpec>(spec);
    auto golden = std::make_shared<const std::vector<uint8_t>>(
        spec.golden(spec.seed));
    app.lower = [s](const mapping::ChipPlan &plan, double rate) {
        return lowerOnto(*s, plan, rate);
    };
    app.verify = [s, golden](arch::Chip &chip,
                             const mapping::PipelineProgram &prog) {
        return describeMismatch(s->output_label,
                                s->read_output(chip, prog), *golden,
                                s->output_width);
    };
    return app;
}

sim::FleetWorkload
fleetWorkload(const AppSpec &spec)
{
    return servingWorkload(
        spec, lowerOnto(spec, spec.plan, spec.iterations_per_sec));
}

power::DvfsAppHooks
dvfsHooks(const AppSpec &spec)
{
    power::DvfsAppHooks h;
    h.name = spec.name;
    h.artifact = lowerApp(spec);
    h.workload = servingWorkload(spec, h.artifact.prog);
    h.traffic = sim::TrafficSpec::bursty(spec.seed);
    h.iterations_per_item = spec.iterations_per_item;
    return h;
}

std::vector<uint8_t>
bytesOfHalves(const std::vector<int16_t> &h)
{
    std::vector<uint8_t> b(h.size() * 2);
    for (size_t i = 0; i < h.size(); ++i) {
        b[2 * i] = uint8_t(uint16_t(h[i]) & 0xff);
        b[2 * i + 1] = uint8_t(uint16_t(h[i]) >> 8);
    }
    return b;
}

std::vector<uint8_t>
bytesOfWords(const std::vector<int32_t> &w)
{
    std::vector<uint8_t> b(w.size() * 4);
    for (size_t i = 0; i < w.size(); ++i) {
        uint32_t v = uint32_t(w[i]);
        b[4 * i] = uint8_t(v & 0xff);
        b[4 * i + 1] = uint8_t((v >> 8) & 0xff);
        b[4 * i + 2] = uint8_t((v >> 16) & 0xff);
        b[4 * i + 3] = uint8_t((v >> 24) & 0xff);
    }
    return b;
}

namespace
{

template <typename T>
std::string
describeMismatchT(const std::string &what, const std::vector<T> &got,
                  const std::vector<T> &want)
{
    if (got.size() != want.size())
        return strprintf("%s: size mismatch (got %zu, want %zu)",
                         what.c_str(), got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        if (got[i] != want[i])
            return strprintf(
                "%s: first mismatch at index %zu (got %lld, want "
                "%lld)",
                what.c_str(), i, (long long)got[i],
                (long long)want[i]);
    }
    return "";
}

} // namespace

std::string
describeMismatch(const std::string &what,
                 const std::vector<uint8_t> &got,
                 const std::vector<uint8_t> &want, unsigned width)
{
    // Decode little-endian elements, sign-extending halfwords and
    // words, so the report names element indices and values.
    auto elems = [width](const std::vector<uint8_t> &b) {
        std::vector<int64_t> v(b.size() / width);
        for (size_t i = 0; i < v.size(); ++i) {
            uint64_t u = 0;
            for (unsigned k = 0; k < width; ++k)
                u |= uint64_t(b[i * width + k]) << (8 * k);
            unsigned pad = 64 - 8 * width;
            v[i] = width == 1 ? int64_t(u)
                              : int64_t(u << pad) >> pad;
        }
        return v;
    };
    return describeMismatchT(what, elems(got), elems(want));
}

std::string
describeMismatch(const std::string &what,
                 const std::vector<int16_t> &got,
                 const std::vector<int16_t> &want)
{
    return describeMismatchT(what, got, want);
}

} // namespace synchro::apps
