/**
 * @file
 * End-to-end mapped execution of the paper's MPEG-4 motion
 * estimation core (Section 3, Table 4 "MPEG4-QCIF"): exhaustive
 * block-matching SAD search on the chip, macroblock-sharded across
 * two symmetric search columns with a best-vector join behind them:
 *
 *   me-0 (even macroblocks) --+
 *                             +-> join
 *   me-1 (odd macroblocks)  --+
 *
 * The host preloads each search column's SRAM with the current
 * frame, four byte-shifted mirror copies of the replicate-padded
 * reference frame (one per load alignment, so every candidate row
 * read stays on aligned 4-byte SAA words whatever the candidate's
 * dx), and a per-macroblock candidate table: the (2r+1)^2 search
 * positions as precomputed SRAM addresses, ordered by
 * dsp::fullSearch's tie-break (lower |v|1, then dy, then dx). On the
 * chip each column walks its macroblocks' tables, accumulates each
 * candidate's 16x16 SAD through the SAA video-ALU op, and folds
 * (SAD << 7 | candidate index) through a branch-free `min` — visiting
 * candidates in tie-break order makes the packed key's argmin
 * reproduce dsp::fullSearch exactly, bit for bit. The join
 * interleaves both columns' winning keys back into macroblock order.
 *
 * The decoded motion vectors and SADs are checked bit-exactly
 * against dsp::fullSearch on both scheduler backends, and the
 * measured activity is priced against the paper's Table 4
 * MPEG4-QCIF row (0% saved: the two search columns are symmetric
 * and dominate, so multiple voltage domains buy almost nothing —
 * the paper's observation for this workload).
 */

#ifndef SYNC_APPS_MOTION_RUNNER_HH
#define SYNC_APPS_MOTION_RUNNER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "apps/app_harness.hh"
#include "dsp/image.hh"
#include "dsp/motion.hh"

namespace synchro::apps
{

/** Fixed geometry of the mapped motion-estimation pipeline. */
constexpr unsigned MotionWidth = 64;
constexpr unsigned MotionHeight = 48;
constexpr unsigned MotionMb = 16;
constexpr int MotionRange = 4;
constexpr unsigned MotionColumns = 2;

/** Macroblocks per frame (one motion vector each). */
constexpr unsigned MotionMbs =
    (MotionWidth / MotionMb) * (MotionHeight / MotionMb);

/** Search candidates per macroblock: (2 range + 1)^2. */
constexpr unsigned MotionCands =
    unsigned(2 * MotionRange + 1) * unsigned(2 * MotionRange + 1);

struct MotionPipelineParams
{
    /**
     * Macroblock rate the mapping targets (Hz). The small 64x48
     * frame stands in for QCIF at 30 f/s; the rate is scaled up so
     * the search columns present the same compute density the
     * Table 4 MPEG4-QCIF row prices.
     */
    double mb_rate_hz = 58000;

    /** Delivery-grid slack passed to the lowerer. */
    double slack = 1.3;

    /** True camera pan of the synthetic scene (and RNG seed). */
    int pan_dx = 3;
    int pan_dy = -2;
    uint32_t seed = 4;

    /**
     * Macroblock-sharded search columns (the kernel generator
     * regenerates the whole DAG for any width): must divide
     * MotionMbs and fit the join's input lanes. The paper's Table 4
     * shape is MotionColumns = 2; the design-space explorer sweeps
     * the others as shard variants.
     */
    unsigned columns = MotionColumns;

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
 * Everything a finished mapped motion-estimation run produced; the
 * common slice (plan, ticks, fabric stats, power, ...) comes from
 * the harness.
 */
struct MappedMotionRun : MappedAppRun
{
    /** Packed (SAD << 7 | candidate index) keys, macroblock order. */
    std::vector<int32_t> output_keys;
    std::vector<int32_t> golden_keys; //!< same, from dsp::fullSearch

    /** The chip's keys decoded back to vectors. */
    std::vector<dsp::MotionVector> vectors;

    /** Macroblocks searched per second, as actually sustained. */
    double achieved_mb_rate_hz = 0;

    /** Fraction of macroblocks that recovered the true pan. */
    double pan_hit_rate = 0;
};

/** The synthetic scene pair: textured frame panned by (dx, dy). */
void motionScene(const MotionPipelineParams &p, dsp::Image &cur,
                 dsp::Image &ref);

/**
 * The search candidates (dx, dy) in the visiting order that makes
 * the packed-key argmin match dsp::fullSearch's tie-break.
 */
std::vector<std::pair<int, int>> motionCandidates();

/**
 * The pipeline's SDF graph with static per-firing cycle costs;
 * optionally also the per-actor bus annotations.
 */
mapping::SdfGraph motionGraph(
    const MotionPipelineParams &p,
    std::vector<mapping::ActorCommSpec> *comm = nullptr);

/** Map the pipeline; nullopt if no feasible allocation exists. */
std::optional<mapping::ChipPlan> planMotion(
    const MotionPipelineParams &p);

/**
 * The DAG spec ready for mapping::lowerDag (exposed for tests that
 * want to lower onto hand-built plans).
 */
mapping::DagSpec motionDag(const MotionPipelineParams &p,
                           const dsp::Image &cur,
                           const dsp::Image &ref);

/**
 * The whole loop: plan, lower, load, run, verify, price. fatal() if
 * no feasible mapping exists or the run does not drain.
 */
MappedMotionRun runMappedMotion(const MotionPipelineParams &p);

/**
 * The estimator described once for the harness views (app_harness.hh)
 * and the registry: each work item is one frame pair's macroblock
 * search, and outputs and goldens are the packed search-key words as
 * bytes. The DAG and tick budget size the search farm from the plan
 * they are lowered onto, and the alternative farm widths are offered
 * as shard variants. fatal() if no feasible mapping exists.
 */
AppSpec motionSpec(const MotionPipelineParams &p);

} // namespace synchro::apps

#endif // SYNC_APPS_MOTION_RUNNER_HH
