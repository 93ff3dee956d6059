/**
 * @file
 * The shared scaffolding of every end-to-end mapped application —
 * the Section 4.1 methodology loop that pipeline_runner (DDC),
 * wifi_runner (802.11a), stereo_runner (stereo vision) and
 * motion_runner (MPEG-4 motion estimation) all execute:
 *
 *   1. describe the application as an SDF graph with kernel costs
 *   2. AutoMapper picks tiles, columns, dividers, voltages, ZORM
 *      (planApp)
 *   3. codegen lowers the kernels + transfer schedule onto the plan
 *   4. the chip streams the workload cycle-accurately (MappedApp)
 *   5. outputs are checked bit-exactly against the dsp:: goldens
 *      (describeMismatch reports the first divergence)
 *   6. priceSimulationComparison turns measured activity into the
 *      multi-V vs single-V comparison of Table 4
 *
 * Each app describes itself once, as an AppSpec: its baseline plan
 * and rates plus the few closures that are genuinely its own — the
 * seeded DAG (and, for the DDC, its legacy-bus lowering), the tick
 * budget, how to read its output back out of tile SRAM, and which
 * golden chain to compare against. Every other view of the app —
 * the explorer's ExplorableApp, the verifier's LoweredArtifact, the
 * fleet's FleetWorkload, the governor's DvfsAppHooks and the common
 * part of runMappedX (MappedApp) — is derived here, once.
 */

#ifndef SYNC_APPS_APP_HARNESS_HH
#define SYNC_APPS_APP_HARNESS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/chip.hh"
#include "mapping/auto_mapper.hh"
#include "mapping/codegen.hh"
#include "mapping/explorer.hh"
#include "mapping/verifier.hh"
#include "power/activity.hh"
#include "power/dvfs.hh"
#include "sim/fleet.hh"

namespace synchro::apps
{

/** The harness's common slice of a finished mapped-app run. */
struct MappedAppRun
{
    mapping::ChipPlan plan;
    arch::RunResult result{};

    /** The output read back from the chip matched the golden. */
    bool bit_exact = false;

    uint64_t ticks = 0;
    uint64_t overruns = 0;
    uint64_t conflicts = 0;
    uint64_t deferrals = 0;
    uint64_t bus_transfers = 0;

    /** Host wall-clock seconds spent inside Chip::run alone. */
    double sim_seconds = 0;

    /** Item throughput the run actually sustained (items/s). */
    double achieved_items_per_sec = 0;

    /** Measured-activity power, multi-V vs single-V (Table 4). */
    power::MeasuredComparison power;

    /** Full chip statistics (for backend cross-checking). */
    std::map<std::string, uint64_t> stats;
};

/**
 * One mapped application, described once. The runners build it from
 * their params struct (ddcSpec, wifiSpec, stereoSpec, motionSpec);
 * the views below derive everything else from it.
 */
struct AppSpec
{
    std::string name;

    /**
     * Input seed of the app's own run; work item k of a fleet or
     * DVFS stream draws its inputs from sim::fleetItemSeed(seed, k).
     */
    uint32_t seed = 0;

    /** The AutoMapper's plan at the app's own rate (planned once). */
    mapping::ChipPlan plan;

    /** Lowering rate (SDF iterations/s) and delivery-grid slack. */
    double iterations_per_sec = 0;
    double slack = 0;

    /**
     * Items (samples, bits, blocks, ...) per run; the achieved item
     * rate is priced from this and the final tick count, so the
     * derived per-column frequencies are exactly what this silicon
     * would need to sustain the stream in real time.
     */
    uint64_t priced_items = 0;

    /** SDF iterations one work item represents (DVFS windows). */
    uint64_t iterations_per_item = 0;

    /**
     * Alternative shardings offered to the explorer, if any. Only
     * explorableApp calls it, so no other view pays for the extra
     * AutoMapper plans.
     */
    std::function<std::vector<mapping::PlanVariant>()> shard_variants;

    /**
     * What the output is and its element width in bytes (1, 2 or 4),
     * for golden-mismatch reports.
     */
    std::string output_label;
    unsigned output_width = 1;

    /** The DAG for @p plan's shape with inputs drawn from @p seed. */
    std::function<mapping::DagSpec(uint32_t seed,
                                   const mapping::ChipPlan &plan)>
        dag;

    /**
     * Lower the app's own-seed inputs onto @p plan at @p rate. Unset
     * means mapping::lowerDag of dag(seed, plan) at this slack.
     */
    std::function<mapping::PipelineProgram(
        const mapping::ChipPlan &plan, double rate)>
        lower;

    /** Tick budget for one run of @p prog lowered onto @p plan. */
    std::function<Tick(const mapping::ChipPlan &plan,
                       const mapping::PipelineProgram &prog)>
        tick_limit;

    /** The output, read back from a finished chip, as bytes. */
    std::function<std::vector<uint8_t>(
        arch::Chip &, const mapping::PipelineProgram &)>
        read_output;

    /** The golden for inputs drawn from @p seed, as bytes. */
    std::function<std::vector<uint8_t>(uint32_t seed)> golden;
};

/** @p p with its input seed replaced by @p seed. */
template <typename Params>
Params
withSeed(Params p, uint32_t seed)
{
    p.seed = seed;
    return p;
}

/**
 * @p draw (seed -> app input) with the input of @p own_seed drawn
 * once and shared: the explorer lowers every candidate from the
 * app's own input, while fleet and DVFS work items draw theirs per
 * call.
 */
template <typename Draw>
auto
ownSeedCached(uint32_t own_seed, Draw draw)
{
    auto own = std::make_shared<const decltype(draw(own_seed))>(
        draw(own_seed));
    return [own_seed, own, draw](uint32_t seed) {
        return seed == own_seed ? *own : draw(seed);
    };
}

/**
 * Methodology step 2: map @p graph with the stock power model and
 * supply levels. fatal() on an empty graph (a mapped app must have
 * actors); returns nullopt when no feasible allocation exists.
 */
std::optional<mapping::ChipPlan> planApp(
    const mapping::SdfGraph &graph,
    const std::vector<mapping::ActorCommSpec> &comm,
    double iterations_per_sec);

/**
 * The common part of every runMappedX, steps 3-6: lower the app's
 * own-seed inputs onto its baseline plan, build and load that chip,
 * run it, check the output against the golden, and price the
 * measured activity.
 *
 * The app reads its typed outputs back out of tile SRAM through
 * chip() after run() — the chip outlives the run precisely for that.
 */
class MappedApp
{
  public:
    /**
     * Lowers @p spec and builds and loads its chip on @p scheduler
     * (ParallelColumns team @p parallel_team). fatal() if the spec
     * leaves its priced items or tick budget unset.
     */
    MappedApp(const AppSpec &spec, SchedulerKind scheduler,
              unsigned parallel_team);
    ~MappedApp();

    /**
     * Run until every column halts. fatal() (naming the app and the
     * exit reason) if the chip deadlocks or exhausts the tick
     * budget. Fills every MappedAppRun field; a golden mismatch is
     * warned about and leaves bit_exact false.
     */
    MappedAppRun run();

    arch::Chip &chip() { return *chip_; }
    const mapping::PipelineProgram &program() const { return prog_; }

  private:
    AppSpec spec_;
    mapping::PipelineProgram prog_;
    Tick tick_limit_ = 0;
    std::unique_ptr<arch::Chip> chip_;
};

/// @name Views derived from an AppSpec
/// Each plans nothing (the spec holds the plan) and lowers at most
/// once.
/// @{

/**
 * The committed lowering — @p spec's own-seed inputs on its baseline
 * plan and rate — bundled for mapping::verifyLowered.
 */
mapping::LoweredArtifact lowerApp(const AppSpec &spec);

/**
 * Package @p spec for mapping::explorePlans: lower, budget and
 * golden-verify an arbitrary candidate plan, plus the app's shard
 * variants.
 */
mapping::ExplorableApp explorableApp(const AppSpec &spec);

/**
 * Package @p spec for sim::FleetExecutor. The committed lowering is
 * done here, once: build() only constructs and loads the chip, and
 * each item's feed() restarts the chip and rewrites the item-seeded
 * input images — programs, DOU schedules and ZORM settings depend
 * only on the app parameters, never on the input data.
 */
sim::FleetWorkload fleetWorkload(const AppSpec &spec);

/**
 * Package @p spec for the online DVFS governor: the verifier-gated
 * artifact and fleet hooks sharing one lowering, the canonical
 * bursty traffic shape, and the item <-> iteration exchange rate.
 */
power::DvfsAppHooks dvfsHooks(const AppSpec &spec);

/// @}

/** Raw little-endian bytes of a halfword/word vector, as tile SRAM
 * stores them — the fleet's output/golden exchange format. */
std::vector<uint8_t> bytesOfHalves(const std::vector<int16_t> &h);
std::vector<uint8_t> bytesOfWords(const std::vector<int32_t> &w);

/**
 * Golden-mismatch reporting: "" when @p got == @p want, otherwise a
 * one-line diagnosis (size divergence, or the first differing element
 * index with both values) the harness puts in its failure output
 * instead of a bare boolean. Byte vectors are compared as
 * little-endian elements of @p width bytes (1 = unsigned bytes,
 * 2 and 4 = the signed halfwords and words bytesOfHalves and
 * bytesOfWords encode).
 */
std::string describeMismatch(const std::string &what,
                             const std::vector<uint8_t> &got,
                             const std::vector<uint8_t> &want,
                             unsigned width = 1);
std::string describeMismatch(const std::string &what,
                             const std::vector<int16_t> &got,
                             const std::vector<int16_t> &want);

} // namespace synchro::apps

#endif // SYNC_APPS_APP_HARNESS_HH
