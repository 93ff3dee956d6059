/**
 * @file
 * The simulator-stack benchmark: three workloads driven only through
 * the library's public API (AppRegistry, FleetExecutor, runGoverned,
 * explorePlans, Chip), the hook wrappers that time the calls the
 * library makes back into the apps, and the layer probe of the
 * traced run. See README.md in this directory for why each workload
 * exists and which per-layer metric should move which end-to-end one.
 */

#ifndef SIMBENCH_SIMBENCH_HH
#define SIMBENCH_SIMBENCH_HH

#include <any>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mapping/explorer.hh"
#include "power/dvfs.hh"
#include "sim/fleet.hh"
#include "trace.hh"

namespace simbench
{

/** The four mapped Table 4 apps, in registry naming. */
extern const char *const kApps[4];
constexpr unsigned kNumApps = 4;

/**
 * Fleet worker threads and explorer batch threads: fixed, and half of
 * a 4-core host, which leaves the main thread and the host's other
 * work room and keeps run-to-run spread down.
 */
constexpr unsigned kFleetWorkers = 2;
constexpr unsigned kExploreThreads = 2;

/** splitmix64 of (seed, salt): every derived seed comes from here. */
uint64_t mixSeed(uint64_t seed, uint64_t salt);

/**
 * The app's params struct with its input seed derived from @p seed.
 * @p serving selects the small per-item shapes fleet and DVFS
 * serving use (DDC 128 samples, 802.11a 2 OFDM symbols); otherwise
 * the app's stock sizes, as the explorer sweeps them.
 */
std::any appParams(const std::string &app, uint64_t seed, bool serving);

/**
 * Per-item host timing plus the tracer. Wrapped hooks stamp an item
 * at feed() entry and close it at read_output() exit; golden() exit
 * closes the item's busy interval on its worker thread.
 */
class Recorder
{
  public:
    Tracer tracer;

    void itemBegin(const std::string &app, uint64_t item);
    void itemEnd();
    void goldenEnd();

    /** One per-item service time, in ms. */
    void sample(double ms);

    /** Per-item service times since the last take, in ms. */
    std::vector<double> takeSamples();

    /** Busy seconds per host thread since the last take. */
    std::map<unsigned, double> takeBusy();

  private:
    std::mutex mu_; //!< guards samples_ and busy_
    std::vector<double> samples_;
    std::map<unsigned, double> busy_;
};

/** @p wl with feed / read_output / golden / build timed. */
synchro::sim::FleetWorkload instrument(synchro::sim::FleetWorkload wl,
                                       const std::string &app,
                                       Recorder &rec);

/** @p app with lower / verify timed; lower() is the explorer's
 *  per-candidate service sample. */
synchro::mapping::ExplorableApp
instrument(synchro::mapping::ExplorableApp app, Recorder &rec);

/** What one round of a workload did. */
struct Round
{
    double wall = 0; //!< host seconds of the serving calls
    uint64_t items = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    double ticks = 0; //!< simulated reference ticks
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Registry hooks, template builds and workload construction:
     *  everything before the first timed item. Called once per
     *  object. */
    virtual void setup() = 0;

    /** One unit of timed work. */
    virtual Round round() = 0;

    /** Per-layer metrics only this workload can produce, derived
     *  from its results and @p spans after a traced run. */
    virtual void layerMetrics(const SpanIndex &spans,
                              std::map<std::string, double> &out)
        const = 0;

    /** The last round's explorer results, when the workload sweeps
     *  (table4ErrPp reuses them); null otherwise. */
    virtual const std::vector<synchro::mapping::ExplorationResult> *
    sweepResults() const
    {
        return nullptr;
    }
};

std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       uint64_t seed, Recorder &rec);

/** Names of the three workloads, in canonical order. */
extern const char *const kWorkloads[3];

/**
 * max over the four apps of |baseline savings - Table 4 savings|,
 * in percentage points; negative when a baseline did not run.
 */
double table4ErrPp(
    const std::vector<synchro::mapping::ExplorationResult> &res);

/** Baseline-only sweeps of the four apps (for table4ErrPp). */
std::vector<synchro::mapping::ExplorationResult>
baselineSweeps(uint64_t seed);

/** Failures the layer probe and backend wall found. */
struct ProbeOutcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;
};

/**
 * The traced run's per-app layer probe: capability hooks, cold build,
 * clone, one item's run per backend (checked against EventQueue:
 * ticks, every forEachStat counter, output bytes), pricing, the
 * static verifier and the safe-transition table.
 */
ProbeOutcome probeLayers(uint64_t seed, Recorder &rec,
                         std::map<std::string, double> &out);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Linear-interpolated percentile @p q in [0,1] (0 when empty). */
double percentile(std::vector<double> v, double q);

} // namespace simbench

#endif // SIMBENCH_SIMBENCH_HH
