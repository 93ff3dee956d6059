/**
 * @file
 * End-to-end mapped execution of the paper's stereo vision workload
 * (Section 3, Table 4 "SV"): dense block-matching disparity on the
 * chip, mirroring the shape of the paper's mapping — one serial
 * front-end column feeding a farm of parallel correlation columns,
 * with a light reduction behind them:
 *
 *               +-> sad-0 --+
 *               +-> sad-1 --+
 *   prefilter --+           +-> select
 *               +-> sad-2 --+
 *               +-> sad-3 --+
 *
 * The host preloads the raw left image and the replicate-padded raw
 * right image into the prefilter column's SRAM. On the chip:
 *
 *  - `prefilter` runs the horizontal [1 2 1]/4 intensity smoothing
 *    over both images row by row (the serial, whole-frame stage —
 *    the analogue of Table 4's one 500 MHz SVD tile) and streams
 *    every filtered row to ALL four correlation columns, each on its
 *    own bus lane at its own byte alignment,
 *  - each `sad-i` column buffers the rows of a block row and runs
 *    the SAD search for the disparities d congruent to i (mod 4) —
 *    the row-parallel fork: all four columns chew the same rows
 *    concurrently, each on a quarter of the search range. Sharding
 *    by disparity *residue* keeps every right-image load of column i
 *    at one constant byte alignment, so the prefilter can emit each
 *    column's words pre-shifted and the inner loop stays on the
 *    4-byte SAA instruction,
 *  - each block's best candidate leaves as one packed dsp::sadKey
 *    word (SAD high, disparity low), and `select` is the min-SAD
 *    join: four lane-tagged `crd`s and a branch-free `min` reduction
 *    pick the winning disparity, ties toward the smaller d — the
 *    same total order the golden minimizes.
 *
 * The output disparity map is checked bit-exactly against
 * dsp::stereoBlockDisparities on both scheduler backends, and the
 * measured activity is priced against the paper's Table 4 SV row
 * (32% saved by multiple voltage domains: the serial filter column
 * needs the top supply while the four SAD columns idle down).
 */

#ifndef SYNC_APPS_STEREO_RUNNER_HH
#define SYNC_APPS_STEREO_RUNNER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "apps/app_harness.hh"
#include "dsp/image.hh"

namespace synchro::apps
{

/** Fixed geometry of the mapped stereo pipeline. */
constexpr unsigned StereoWidth = 64;
constexpr unsigned StereoHeight = 32;
constexpr unsigned StereoBlock = 8;
constexpr unsigned StereoMaxDisp = 16;
constexpr unsigned StereoSadColumns = 4;

/** Blocks per frame (one disparity byte each). */
constexpr unsigned StereoBlocks =
    (StereoWidth / StereoBlock) * (StereoHeight / StereoBlock);

struct StereoPipelineParams
{
    /**
     * Frame rate the mapping targets (Hz). The tiny 64x32 frame
     * stands in for the paper's 256x256 stereo pair at 10 f/s, so
     * the rate is scaled up to present the same per-column compute
     * density the Table 4 SV row prices.
     */
    double frame_rate_hz = 7300;

    /** Delivery-grid slack passed to the lowerer. */
    double slack = 1.3;

    /** Synthetic-scene RNG seed. */
    uint32_t seed = 32;

    /** Execution backend. */
    SchedulerKind scheduler = defaultSchedulerKind();

    /**
     * Column team size for the ParallelColumns backend
     * (arch::ChipConfig::parallel_columns): 0 = automatic,
     * 1 = serial, larger = that many team threads. Ignored
     * by the serial backends.
     */
    unsigned parallel_team = 0;
};

/**
 * Everything a finished mapped-stereo run produced; the common slice
 * (plan, ticks, fabric stats, power, ...) comes from the harness.
 */
struct MappedStereoRun : MappedAppRun
{
    std::vector<uint8_t> output; //!< per-block disparity from the chip
    std::vector<uint8_t> golden; //!< dsp::stereoBlockDisparities

    /** Blocks correlated per second, as actually sustained. */
    double achieved_block_rate_hz = 0;

    /** Fraction of blocks whose disparity matches the scene truth. */
    double truth_hit_rate = 0;
};

/**
 * The synthetic stereo pair: a random texture split into two depth
 * bands, the right view shifted by each band's disparity. @p truth
 * gets the per-block ground-truth disparity; blocks without exact
 * truth (seam- or edge-straddling support) are marked 255.
 */
void stereoScene(const StereoPipelineParams &p, dsp::Image &left,
                 dsp::Image &right,
                 std::vector<uint8_t> *truth = nullptr);

/**
 * The pipeline's SDF graph with static per-firing cycle costs;
 * optionally also the per-actor bus annotations.
 */
mapping::SdfGraph stereoGraph(
    const StereoPipelineParams &p,
    std::vector<mapping::ActorCommSpec> *comm = nullptr);

/** Map the pipeline; nullopt if no feasible allocation exists. */
std::optional<mapping::ChipPlan> planStereo(
    const StereoPipelineParams &p);

/**
 * The DAG spec ready for mapping::lowerDag (exposed for tests that
 * want to lower onto hand-built plans).
 */
mapping::DagSpec stereoDag(const StereoPipelineParams &p,
                           const dsp::Image &left,
                           const dsp::Image &right);

/**
 * The whole loop: plan, lower, load, run, verify, price. fatal() if
 * no feasible mapping exists or the run does not drain.
 */
MappedStereoRun runMappedStereo(const StereoPipelineParams &p);

/**
 * The pipeline described once for the harness views (app_harness.hh)
 * and the registry: each work item is one stereo frame pair, and
 * outputs and goldens are the per-block disparity bytes. fatal() if
 * no feasible mapping exists.
 */
AppSpec stereoSpec(const StereoPipelineParams &p);

} // namespace synchro::apps

#endif // SYNC_APPS_STEREO_RUNNER_HH
