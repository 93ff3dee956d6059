/**
 * @file
 * End-to-end mapped-pipeline execution of the paper's DDC receiver
 * (Section 3): mixer -> 5-stage CIC integrator (decimate by 8) ->
 * 5-stage CIC comb -> channel FIR -> power demodulator, closing the
 * whole Section 4.1 methodology loop on the simulator:
 *
 *   1. describe the receiver as an SDF graph with kernel cycle costs
 *   2. AutoMapper picks tiles, columns, dividers, voltages, ZORM
 *   3. codegen lowers the kernels + transfer schedule onto the plan
 *   4. the chip streams N samples cycle-accurately
 *   5. outputs are checked bit-exactly against the dsp:: goldens
 *   6. priceSimulation turns measured activity into the multi-V vs
 *      single-V comparison of Table 4
 *
 * The fixed-point contract: samples travel the bus as one 32-bit
 * word per token, I in the low half and Q in the high half, with the
 * CIC's 2^15 gain removed by a rounding right-shift at the decimator
 * (Hogenauer-style width pruning, mirrored exactly in the golden
 * model).
 */

#ifndef SYNC_APPS_PIPELINE_RUNNER_HH
#define SYNC_APPS_PIPELINE_RUNNER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "apps/app_harness.hh"

namespace synchro::apps
{

struct DdcPipelineParams
{
    /** Input samples to stream (multiple of 8, <= 4088). */
    unsigned samples = 2048;

    /** Input rate the mapping targets (Hz). */
    double sample_rate_hz = 5.5e6;

    /** Channel (PFIR-style) filter length. */
    unsigned chan_taps = 63;

    /** Delivery-grid slack passed to the lowerer. */
    double slack = 1.4;

    /** Synthetic-input RNG seed. */
    uint32_t seed = 2004;

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
 * Everything a finished mapped-DDC run produced; the common slice
 * (plan, ticks, fabric stats, power, ...) comes from the harness.
 */
struct MappedDdcRun : MappedAppRun
{
    std::vector<int16_t> output; //!< demod output read from the chip
    std::vector<int16_t> golden; //!< dsp:: reference chain

    /** Input throughput the run actually sustained. */
    double achieved_sample_rate_hz = 0;
};

/** The synthetic RF input (tone + interferer + noise). */
std::vector<int16_t> ddcInput(const DdcPipelineParams &p);

/** Golden reference: the dsp:: chain the chip must match bit-exactly. */
std::vector<int16_t> ddcGolden(const DdcPipelineParams &p,
                               const std::vector<int16_t> &x);

/**
 * The receiver's SDF graph with measured per-firing cycle costs;
 * optionally also the per-actor bus annotations.
 */
mapping::SdfGraph ddcGraph(
    const DdcPipelineParams &p,
    std::vector<mapping::ActorCommSpec> *comm = nullptr);

/** Map the receiver; nullopt if no feasible allocation exists. */
std::optional<mapping::ChipPlan> planDdc(const DdcPipelineParams &p);

/**
 * The kernel stages ready for mapping::lowerPipeline (exposed for
 * tests that want to lower onto hand-built plans).
 */
std::vector<mapping::PipelineStage> ddcStages(
    const DdcPipelineParams &p, const std::vector<int16_t> &x);

/**
 * The receiver described once for the harness views (app_harness.hh)
 * and the registry: each work item is one p.samples-long channel
 * block, and outputs and goldens travel as raw halfword bytes.
 * fatal() if no feasible mapping exists.
 */
AppSpec ddcSpec(const DdcPipelineParams &p);

/**
 * The whole loop: plan, lower, load, run, verify, price. fatal() if
 * no feasible mapping exists or the run does not halt.
 */
MappedDdcRun runMappedDdc(const DdcPipelineParams &p);

} // namespace synchro::apps

#endif // SYNC_APPS_PIPELINE_RUNNER_HH
