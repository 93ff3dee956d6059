/**
 * @file
 * FleetExecutor — the streaming serving layer over SimSession's
 * batch facade.
 *
 * SimSession::runAll() is a barrier: stage N chips, run them all,
 * harvest. A basestation does not work like that — hundreds of
 * per-user chip streams (DDC channels, 802.11a receivers) each
 * receive an open-ended sequence of work items (sample blocks, OFDM
 * symbols), and new streams arrive while old ones are still
 * draining. FleetExecutor serves that shape:
 *
 *  - a *workload* packages an app's plan/program hooks once
 *    (FleetWorkload; apps::AppRegistry's fleet() view derives one
 *    from each mapped app's AppSpec),
 *  - a *stream* is one user: one chip, fed a sequence of work items.
 *    Its chip is NOT rebuilt per stream — the workload's template
 *    chip (built, programmed and verifier-gated exactly once) is
 *    deep-copied via arch::Chip::clone(), so admission skips
 *    codegen, assembly, decode and program load entirely,
 *  - a persistent worker pool serves ready streams; each worker owns
 *    a deque of streams and *steals* from the others when its own
 *    runs dry, so one heavy stream cannot idle the pool. A stream is
 *    held by at most one worker at a time, and every item restarts
 *    its chip from tick 0, so per-stream results are bit-identical
 *    to running each item alone on a fresh chip — no matter how many
 *    workers serve the fleet or who stole what,
 *  - statistics aggregate into per-worker shards (one counter map
 *    per worker, touched only by its owner) merged only at
 *    drain() — no shared counters, no locks on the serving path.
 *
 * drain() blocks until every admitted item has been served and
 * returns a FleetReport whose totals reuse the session vocabulary
 * (SessionStats: per-exit counts, tick sums, merged counters).
 */

#ifndef SYNC_SIM_FLEET_HH
#define SYNC_SIM_FLEET_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "arch/chip.hh"
#include "sim/session.hh"

namespace synchro::sim
{

/**
 * Mix a work-item index into a workload's base RNG seed (splitmix64
 * finalizer) so every (stream, item) gets decorrelated input data
 * that is still a pure function of (base seed, item) — the property
 * the solo-vs-fleet bit-exactness tests rely on.
 */
inline uint32_t
fleetItemSeed(uint32_t base, uint64_t item)
{
    uint64_t z =
        (uint64_t(base) << 32) ^ (item + 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return uint32_t(z ^ (z >> 31));
}

/**
 * An app packaged for fleet serving — the plan/program hooks of one
 * mapped application, seed-parameterized per work item. All four
 * closures must be pure w.r.t. shared state: workers invoke feed /
 * read_output / golden concurrently for different streams.
 */
struct FleetWorkload
{
    /** Short name for diagnostics and reports. */
    std::string name;

    /** Tick budget per work item (a solo run's budget). */
    Tick tick_limit = 0;

    /**
     * The COLD path: build the chip the workload's plan and
     * already-lowered (verifier-gated) program ask for, and load the
     * program. Runs once per workload to build the template.
     */
    std::function<std::unique_ptr<arch::Chip>(SchedulerKind)> build;

    /**
     * Prepare @p chip for work item @p item: Chip::restart(), clear
     * the programmed tiles' SRAM, and rewrite the item-seeded input
     * images — after which the chip must be bit-identical to a fresh
     * build fed the same item.
     */
    std::function<void(arch::Chip &, uint64_t item)> feed;

    /** The item's output, read back from a finished chip, as bytes. */
    std::function<std::vector<uint8_t>(arch::Chip &)> read_output;

    /** The item's golden reference (dsp:: chain), as bytes. */
    std::function<std::vector<uint8_t>(uint64_t item)> golden;

    /**
     * When non-zero, each item is served as repeated
     * Chip::run(run_chunk) slices instead of one run(tick_limit)
     * call, with on_slice invoked at every pause — the DVFS
     * governor's grid-period sampling hook (power/dvfs.hh). Slicing
     * never changes results: every backend resumes pending work
     * across run() calls bit-identically.
     */
    Tick run_chunk = 0;

    /** Called after each slice with the item and the tick reached.
     *  Must tolerate concurrent calls for different streams. */
    std::function<void(arch::Chip &, uint64_t item, Tick now)>
        on_slice;
};

struct FleetConfig
{
    /** Worker threads; 0 = hardware concurrency. */
    unsigned workers = 0;

    /** Backend every stream's chip runs on. */
    SchedulerKind scheduler = defaultSchedulerKind();

    /** Check every item's output against the workload golden. */
    bool verify = true;

    /** Retain every item's output bytes in the stream results. */
    bool keep_outputs = false;
};

/** What one stream's service produced. */
struct FleetStreamResult
{
    unsigned workload = 0;
    uint64_t item_base = 0; //!< first work-item index
    uint64_t items = 0;     //!< items admitted
    uint64_t items_done = 0;
    uint64_t ticks = 0;      //!< summed over the stream's items
    uint64_t mismatches = 0; //!< golden-verify failures
    std::string first_failure; //!< "" if every item served clean
    /** Per-item output bytes (FleetConfig::keep_outputs). */
    std::vector<std::vector<uint8_t>> outputs;
};

/**
 * Everything the fleet has served, shards merged. Every field is
 * CUMULATIVE SINCE THE EXECUTOR WAS CONSTRUCTED: a second drain()
 * re-reports all earlier streams, items, steals, clones, counters
 * and wall time plus whatever was admitted since. Callers producing
 * periodic reports must diff successive FleetReports themselves.
 */
struct FleetReport
{
    uint64_t streams = 0;
    uint64_t items = 0; //!< chip runs served (one per work item)

    /**
     * Work items never served because a hook threw mid-stream and
     * the rest of that stream was abandoned (the failing item itself
     * counts under items). Always 0 when all_verified.
     */
    uint64_t items_abandoned = 0;
    double wall_seconds = 0; //!< excludes fully-idle gaps

    /** Work items (= chip runs) served per wall second. */
    double chips_per_sec = 0;

    /** Aggregate simulated ticks per wall second, whole fleet. */
    double ticks_per_sec = 0;

    bool all_verified = true; //!< no mismatch, no failed run
    uint64_t steals = 0;      //!< streams taken from another worker
    uint64_t clones = 0;      //!< template clones (one per stream)

    /**
     * The session-vocabulary totals: chips = items served, per-exit
     * counts, tick sums, and the per-worker counter shards merged by
     * dotted name.
     */
    SessionStats totals;

    /** Per-stream detail, in admission order. */
    std::vector<FleetStreamResult> stream_results;

    /** Items served by each worker (work-stealing visibility). */
    std::vector<uint64_t> items_by_worker;
};

class FleetExecutor
{
  public:
    explicit FleetExecutor(FleetConfig cfg = {});

    /** Stops the pool; streams not yet drained are abandoned. */
    ~FleetExecutor();

    FleetExecutor(const FleetExecutor &) = delete;
    FleetExecutor &operator=(const FleetExecutor &) = delete;

    /**
     * Register a workload: builds (and times) its template chip on
     * the calling thread via wl.build — the one cold build every
     * stream's clone warm-starts from. Returns the workload id.
     * Safe while earlier workloads are being served: storage is
     * reallocation-stable, so references handed out by workload() /
     * templateChip() and the pointers serving workers hold stay
     * valid.
     */
    unsigned addWorkload(FleetWorkload wl);

    const FleetWorkload &workload(unsigned id) const;

    /** Wall seconds the workload's cold template build took. */
    double templateBuildSeconds(unsigned id) const;

    /** The programmed template chip (for clone timing / tests). */
    const arch::Chip &templateChip(unsigned id) const;

    /**
     * Admit one stream of @p items work items (indices item_base ..
     * item_base+items-1) of @p workload — the streaming analogue of
     * SimSession::admit. Serving starts immediately on the worker
     * pool; admission is safe while earlier streams are still being
     * served. Returns the stream id.
     */
    unsigned admitStream(unsigned workload, uint64_t items,
                         uint64_t item_base = 0);

    /**
     * Block until every admitted item has been served, then merge
     * the per-worker shards and return the report. Failures (a chip
     * that did not drain, a golden mismatch, an exception out of a
     * closure) are recorded per stream — all_verified false and
     * first_failure set — not thrown; a throwing stream's remaining
     * items are abandoned (counted in items_abandoned) so the drain
     * still completes. May be called repeatedly; every call reports
     * cumulative totals since construction (see FleetReport), not
     * the delta since the previous drain.
     */
    FleetReport drain();

    unsigned effectiveWorkers() const;

  private:
    struct Stream
    {
        unsigned id = 0;
        unsigned workload = 0;
        /**
         * Captured under mu_ at admission so workers never index
         * workloads_/templates_ with the lock released (addWorkload
         * may grow them concurrently). Both stay valid for the
         * executor's lifetime: workloads_ is a deque (push_back
         * never moves existing elements) and the template chip is a
         * heap object owned by templates_.
         */
        const FleetWorkload *wl = nullptr;
        const arch::Chip *tmpl = nullptr;
        uint64_t next_item = 0; //!< next index to serve (absolute)
        uint64_t last_item = 0; //!< one past the final index
        std::unique_ptr<arch::Chip> chip; //!< live while serving
        FleetStreamResult res;
    };

    /** One worker's deque plus its private stat shard. */
    struct Worker
    {
        std::deque<Stream *> q;
        std::map<std::string, uint64_t> counters;
        uint64_t items = 0;
        uint64_t clones = 0; //!< in the shard: bumped unlocked
        uint64_t ticks = 0;
        uint64_t halted = 0;
        uint64_t tick_limited = 0;
        uint64_t deadlocked = 0;
        Tick max_ticks_reached = 0;
    };

    void workerLoop(unsigned w);
    Stream *takeStream(unsigned w, bool &stolen);
    /**
     * Serve the stream's next item (lock released). Returns how many
     * of the stream's items this pickup abandoned unserved — 0
     * normally; the rest of the stream when a hook threw and the
     * stream was given up. The caller credits them to the fleet's
     * accounting under mu_, or drain() would wait forever for items
     * no worker will ever pick up.
     */
    uint64_t serveOneItem(Stream &s, Worker &shard);
    void finishStream(Stream &s, Worker &shard);

    FleetConfig cfg_;
    /** Deque, not vector: Stream::wl points into it and addWorkload
     * may push_back while earlier workloads are being served. */
    std::deque<FleetWorkload> workloads_;
    std::vector<std::unique_ptr<arch::Chip>> templates_;
    std::vector<double> template_secs_;

    mutable std::mutex mu_;
    std::condition_variable work_cv_;
    std::condition_variable idle_cv_;
    std::vector<std::thread> pool_;
    std::vector<Worker> workers_;
    std::vector<std::unique_ptr<Stream>> streams_;
    uint64_t items_admitted_ = 0;
    uint64_t items_served_ = 0;
    uint64_t items_abandoned_ = 0; //!< skipped after a hook threw
    uint64_t steals_ = 0;
    unsigned busy_ = 0;
    bool stop_ = false;
    std::chrono::steady_clock::time_point serve_start_;
    bool epoch_open_ = false; //!< serving epoch since last idle
    double served_wall_seconds_ = 0; //!< accumulated across drains
};

} // namespace synchro::sim

#endif // SYNC_SIM_FLEET_HH
