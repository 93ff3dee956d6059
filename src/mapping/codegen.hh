/**
 * @file
 * Pipeline code generation: lower an SDF actor graph plus the
 * AutoMapper's ChipPlan onto a fully programmed chip — the missing
 * piece between the paper's methodology steps 3-5 (partition,
 * statically schedule all data transfers, program the DOUs) and the
 * cycle-accurate simulation of step 6.
 *
 * lowerDag() takes an arbitrary *acyclic* SDF DAG: fork fan-out (one
 * producer feeding several consumer columns on separate bus lanes),
 * multi-input join actors, and per-edge multi-rate token counts. A
 * linear chain such as the DDC receiver is described as
 * PipelineStages and lowered as its two-terminal DAG,
 * lowerDag(linearDagSpec(stages), ...).
 *
 * Each stage carries a hand-scheduled SyncBF kernel body for one
 * actor firing (with its `crd`/`cwr` communication inlined, like the
 * distributed ACS kernel in apps/kernels); the lowerer stitches it
 * into a firing loop on the actor's planned column, applies the
 * plan's per-column ZORM throttling, and compiles the plan's
 * inter-actor transfers through the comm-schedule compiler into one
 * DOU program per column.
 *
 * Transfer scheduling: every DAG edge gets its own 32-bit bus lane
 * (lane e = the edge's index in DagSpec::edges) and one drive/capture
 * slot per grid period of G reference cycles, phase-staggered by edge
 * index so no tile ever drives or captures two edges in one cycle
 * (comm_schedule::allocateEdgeSlots). G is derived from the mapping's
 * iteration rate with a configurable slack factor so the slot rate of
 * every lane covers its edge's token rate; a slot that finds nothing
 * to move simply idles (a counted underrun or deferral, not an
 * error).
 *
 * Delivery is *self-timed* (latency-insensitive) for every lowered
 * program: kernels tag their `cwr`/`crd` with the edge's lane (a
 * column with one edge per direction may use the untagged forms), a
 * drive slot only pops a word tagged for its lane, and a transfer
 * whose destination read buffer is still full defers instead of
 * overwriting it. Producer-side backpressure then times the whole
 * DAG, and a join fires only once every input lane's buffer has
 * delivered (`crd rd, lane` stalls per lane). With single-entry
 * buffers each producer must emit its out-edge tokens in the order
 * its consumers (transitively) demand them; the verifier gate's
 * token-network replay rejects kernels that cannot complete. The
 * run must finish with zero read-buffer overruns and zero lane
 * conflicts, which the runners and tests assert.
 */

#ifndef SYNC_MAPPING_CODEGEN_HH
#define SYNC_MAPPING_CODEGEN_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arch/dou.hh"
#include "isa/assembler.hh"
#include "mapping/auto_mapper.hh"
#include "mapping/comm_schedule.hh"
#include "mapping/rate_match.hh"
#include "sim/scheduler.hh"

namespace synchro::arch
{
class Chip;
}

namespace synchro::mapping
{

/** One actor of a DAG pipeline, ready for lowering. */
struct DagStage
{
    /** Actor name; must match a ChipPlan placement. */
    std::string actor;

    /** Run-once setup (constants, persistent pointers). */
    std::string prologue;

    /**
     * Kernel body for ONE firing. Must execute its edges' reads and
     * writes as lane-tagged `crd rd, lane` / `cwr rs, lane` (lane =
     * edge index in the spec), spread through the computation
     * (hand-scheduled). Loop unit lc0 is owned by the generated
     * firing loop; lc1 is free, as are conditional branches.
     */
    std::string body;

    /** Total firings this run (1..4095, the lsetup range). */
    uint64_t firings = 0;

    /** Firings per SDF iteration (the repetition-vector entry). */
    uint64_t per_iteration = 1;

    /** Tile-SRAM images to preload (input data, coefficients). */
    std::vector<std::pair<uint32_t, std::vector<uint8_t>>> images;
};

/** One DAG edge. Its lane is its index in DagSpec::edges. */
struct DagEdgeSpec
{
    std::string src; //!< producer actor
    std::string dst; //!< consumer actor

    /** 32-bit words the producer writes to this edge per firing. */
    unsigned src_words_per_firing = 0;

    /** 32-bit words the consumer reads from this edge per firing. */
    unsigned dst_words_per_firing = 0;

    /**
     * Delivery slots this edge gets per grid period (>= 1). The
     * grid is sized so one slot per period covers the busiest edge's
     * token rate with the requested slack; extra slots raise an
     * edge's delivery ceiling so bursty consumption (a join draining
     * one input, a multi-phase kernel) does not stretch the
     * pipeline's critical path.
     */
    unsigned slots_per_period = 1;
};

/** An SDF DAG ready for lowering. */
struct DagSpec
{
    std::vector<DagStage> stages;
    std::vector<DagEdgeSpec> edges;
};

/** Everything one column needs to run its piece of the pipeline. */
struct ColumnProgram
{
    unsigned column = 0;
    std::string actor;
    isa::Program program;
    CommSchedule schedule; //!< transfers feeding the DOU program
    arch::DouProgram dou;
    ZormSetting zorm;
    std::vector<std::pair<uint32_t, std::vector<uint8_t>>> images;
};

/** A fully lowered pipeline. */
struct PipelineProgram
{
    std::vector<ColumnProgram> columns; //!< programmed columns only
    unsigned total_columns = 0;         //!< per the plan
    unsigned period = 0;       //!< DOU schedule period (bus cycles)
    unsigned slot_spacing = 0; //!< delivery grid spacing G
    std::vector<unsigned> lanes; //!< bus lane per DAG edge

    /**
     * Load programs, DOU schedules, ZORM settings and memory images
     * onto @p chip, and supply-gate the tiles the pipeline does not
     * use. The chip must have been built with the plan's dividers.
     */
    void load(arch::Chip &chip) const;

    /** The programmed column running @p actor; fatal() if absent. */
    const ColumnProgram &columnFor(const std::string &actor) const;
};

/**
 * The chip @p plan and @p prog ask for — the plan's reference clock
 * and dividers, the self-timed bus every lowered program runs on,
 * @p scheduler with a ParallelColumns team of @p parallel_team (see
 * arch::ChipConfig::parallel_columns) — with @p prog loaded, ready
 * to run from tick 0.
 */
std::unique_ptr<arch::Chip> buildChip(const ChipPlan &plan,
                                      const PipelineProgram &prog,
                                      SchedulerKind scheduler,
                                      unsigned parallel_team = 0);

/**
 * Lower the DAG @p spec onto the columns @p plan assigned its actors.
 *
 * @param iterations_per_sec  the rate the plan was mapped for
 * @param slack  delivery-grid stretch (> 1); larger values trade
 *               throughput for more scheduling margin
 *
 * fatal() on: cyclic graphs (SDF cycles need initial-token delays,
 * which this lowerer does not model), more edges than bus lanes,
 * rate-inconsistent edges (src words x per_iteration must balance
 * dst words x per_iteration — the join-rate check), disconnected
 * actors, unknown actors, stage firing counts describing different
 * iteration counts, plans that provisioned parallel columns/tiles,
 * or bodies that do not assemble.
 *
 * Every lowering additionally passes through the static verifier
 * (mapping/verifier.hh) as a mandatory post-lowering gate: an
 * artifact with a provable safety violation (slot conflict, lane-tag
 * mismatch, uninitialized register read, token-network deadlock,
 * ZORM inconsistency) is rejected with
 * fatal("codegen: statically rejected: ...").
 */
PipelineProgram lowerDag(const DagSpec &spec, const ChipPlan &plan,
                         double iterations_per_sec,
                         double slack = 1.4);

/** One actor of a linear pipeline, ready for lowering. */
struct PipelineStage
{
    /** Actor name; must match a ChipPlan placement. */
    std::string actor;

    /** Run-once setup (constants, persistent pointers). */
    std::string prologue;

    /**
     * Kernel body for ONE firing. Must execute exactly
     * reads_per_firing `crd`s and writes_per_firing `cwr`s (the
     * untagged forms: each column has at most one edge per
     * direction), spread through the computation.
     */
    std::string body;

    /** Total firings this run (1..4095, the lsetup range). */
    uint64_t firings = 0;

    /** Firings per SDF iteration (the repetition-vector entry). */
    uint64_t per_iteration = 1;

    /** 32-bit words consumed from upstream per firing. */
    unsigned reads_per_firing = 0;

    /** 32-bit words produced downstream per firing. */
    unsigned writes_per_firing = 0;

    /** Tile-SRAM images to preload (input data, coefficients). */
    std::vector<std::pair<uint32_t, std::vector<uint8_t>>> images;
};

/**
 * The two-terminal DAG equivalent to the linear chain @p stages (in
 * dataflow order), ready for lowerDag(): edge e joins stage e to
 * stage e+1 and rides lane e. fatal() on fewer than two stages, a
 * source stage that reads or a sink stage that writes.
 */
DagSpec linearDagSpec(const std::vector<PipelineStage> &stages);

} // namespace synchro::mapping

#endif // SYNC_MAPPING_CODEGEN_HH
