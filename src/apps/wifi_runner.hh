/**
 * @file
 * End-to-end mapped execution of the paper's 802.11a receiver
 * (Section 3, Table 4, Figure 8): OFDM demap -> de-interleave -> a
 * Viterbi decoder parallelized across two columns -> traceback — the
 * first *DAG* workload on the simulator, exercising fork fan-out,
 * multi-input join actors and multi-rate edges through
 * mapping::lowerDag:
 *
 *                   +-> viterbi-acs-0 --+
 *   demap -> deint -+                   +-> traceback
 *                   +-> viterbi-acs-1 --+
 *
 * The host performs the front end that is not mapped (per-frame
 * convolutional encoding + interleaving + IFFT via dsp::ofdmTransmit,
 * then the receiver's FFT and data-carrier extraction) and quantizes
 * the 48 data carriers of each OFDM symbol to Q15. On the chip:
 *
 *  - `demap` slices each carrier's I/Q signs into the two Gray-coded
 *    QPSK bits (one packed word per carrier on the bus),
 *  - `deint` undoes the 802.11a block interleaver via a precomputed
 *    index table and forks whole frames alternately to the two
 *    decoder columns (fan-out on separate bus lanes),
 *  - each `viterbi-acs` column runs the full 64-state
 *    add-compare-select trellis for its frames and streams two
 *    packed survivor words per stage to the traceback column — the
 *    Figure 8 trellis-exchange traffic,
 *  - `traceback` joins both survivor streams (multi-input actor:
 *    its `crd`s wait on each input lane's buffer) and walks the
 *    survivors backwards to emit the decoded bits.
 *
 * One frame = one OFDM symbol: 42 data bits + 6 tail bits = 48
 * trellis stages = 96 coded bits = exactly one QPSK symbol, so each
 * frame is independently decodable and the two decoder columns work
 * on alternate frames in parallel. One SDF iteration = 2 frames.
 *
 * The output is checked bit-exactly against the dsp:: golden chain
 * (qamDemapHardQ15 -> Interleaver::deinterleave -> viterbiDecode) on
 * both scheduler backends, and the measured activity is priced
 * against the Table 4 802.11a row via power::priceSimulationComparison.
 */

#ifndef SYNC_APPS_WIFI_RUNNER_HH
#define SYNC_APPS_WIFI_RUNNER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "apps/app_harness.hh"
#include "common/fixed.hh"

namespace synchro::apps
{

/** Data bits per frame (one OFDM symbol's worth under QPSK). */
constexpr unsigned WifiFrameBits = 42;

/** Trellis stages per frame (data + K-1 tail). */
constexpr unsigned WifiFrameStages = 48;

struct WifiPipelineParams
{
    /** OFDM symbols (= frames) to stream; even, 2..128. */
    unsigned symbols = 8;

    /** Data-bit rate the mapping targets (Hz). */
    double bit_rate_hz = 600e3;

    /** Delivery-grid slack passed to the lowerer. */
    double slack = 1.3;

    /** Synthetic-payload RNG seed. */
    uint32_t seed = 80211;

    /**
     * Channel SNR in dB; 0 disables noise. With noise the golden
     * chain still matches the chip bit for bit (both demap the same
     * quantized symbols); only the decoded payload may differ from
     * the transmitted bits.
     */
    double snr_db = 0;

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
 * Everything a finished mapped-802.11a run produced; the common
 * slice (plan, ticks, fabric stats, power, ...) comes from the
 * harness.
 */
struct MappedWifiRun : MappedAppRun
{
    std::vector<uint8_t> tx_bits; //!< transmitted payload bits
    std::vector<uint8_t> output;  //!< decoded bits read from the chip

    /** Integer demap agreed with the floating-point dsp::qamDemap. */
    bool demap_matches_float = false;

    /** Golden chain recovered the transmitted payload. */
    bool golden_matches_tx = false;

    /** Data-bit throughput the run actually sustained. */
    double achieved_bit_rate_hz = 0;
};

/** The transmitted payload bits (symbols x WifiFrameBits). */
std::vector<uint8_t> wifiPayload(const WifiPipelineParams &p);

/**
 * Transmit each frame with dsp::ofdmTransmit, run the channel and
 * the receiver front end (FFT + data-carrier extraction), and
 * quantize: 48 Q15 carriers per symbol, in symbol order.
 */
std::vector<CplxQ15> wifiCarriers(const WifiPipelineParams &p,
                                  const std::vector<uint8_t> &bits);

/**
 * Golden reference: the dsp:: chain the chip must match bit-exactly
 * (hard demap of the quantized carriers, de-interleave, per-frame
 * Viterbi decode). Returns symbols x WifiFrameBits data bits.
 */
std::vector<uint8_t> wifiGolden(const WifiPipelineParams &p,
                                const std::vector<CplxQ15> &carriers);

/**
 * The receiver's SDF graph with static per-firing cycle costs;
 * optionally also the per-actor bus annotations.
 */
mapping::SdfGraph wifiGraph(
    const WifiPipelineParams &p,
    std::vector<mapping::ActorCommSpec> *comm = nullptr);

/** Map the receiver; nullopt if no feasible allocation exists. */
std::optional<mapping::ChipPlan> planWifi(const WifiPipelineParams &p);

/**
 * The whole loop: plan, lower, load, run, verify, price. fatal() if
 * no feasible mapping exists or the run does not drain.
 */
MappedWifiRun runMappedWifi(const WifiPipelineParams &p);

/**
 * The receiver described once for the harness views (app_harness.hh)
 * and the registry: each work item is one p.symbols-long burst, and
 * outputs and goldens are the decoded bit bytes. fatal() if no
 * feasible mapping exists.
 */
AppSpec wifiSpec(const WifiPipelineParams &p);

} // namespace synchro::apps

#endif // SYNC_APPS_WIFI_RUNNER_HH
