/**
 * @file
 * The Synchroscalar chip: a configurable grid of columns sharing one
 * reference PLL and the horizontal inter-column bus (paper Figure 1).
 *
 * Simulation model: one Tick = one reference (bus/DOU) clock period.
 * Every tick, each column's DOU advances one state and the bus fabric
 * resolves transfers; on ticks that are a column's divided clock
 * edges, that column's SIMD controller issues one slot. Within a tick
 * tile execution runs before bus movement, so a value written by
 * `cwr` at tick T can ride the bus at tick T and be read by `crd` at
 * the consumer's next edge — register-to-register communication in
 * one bus cycle, plus the capture alignment the DOU schedules.
 *
 * The tick loop itself is delegated to a pluggable Scheduler
 * (sim/scheduler.hh). The default Compiled backend exploits the
 * statically-known edge pattern of the rationally-related column
 * clocks to jump from edge to edge and runs steady-state firing
 * loops as blocks; the EventQueue backend keeps the original
 * gem5-style event loop for bit-identical cross-checking.
 */

#ifndef SYNC_ARCH_CHIP_HH
#define SYNC_ARCH_CHIP_HH

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "arch/bus.hh"
#include "arch/bus_timeline.hh"
#include "arch/column.hh"
#include "sim/scheduler.hh"

namespace synchro::arch
{

struct ChipConfig
{
    /** Reference (maximum / bus / DOU) frequency. */
    double ref_freq_mhz = 600.0;

    /** Per-column integer clock dividers; size = number of columns. */
    std::vector<unsigned> dividers = {1, 1, 1, 1};

    /**
     * Per-column clock phase offsets in ticks (each < its divider).
     * Empty means every column's first edge is at tick 0.
     */
    std::vector<Tick> phases;

    /** Tiles populated per column (1..4). */
    unsigned tiles_per_column = 4;

    /** Structural hazards and schedule slips are fatal when true. */
    bool strict = false;

    /**
     * Latency-insensitive bus delivery: transfers whose destination
     * read buffer is still full defer (driver keeps the word) instead
     * of overrunning. Required by DAG pipelines, where several edges
     * share a producer's write buffer; see BusFabric.
     */
    bool self_timed_bus = false;

    /** Execution backend driving the tick loop. */
    SchedulerKind scheduler = defaultSchedulerKind();

    /**
     * Column team size for SchedulerKind::ParallelColumns: 0 sizes
     * the team automatically (hardware concurrency clamped to the
     * column count, degrading to serial on a fleet pool
     * worker — see inWorkerPool()), 1 forces serial execution, and
     * larger values request that many team threads (clamped to the
     * column count; explicit sizes nest inside pools deliberately).
     * Ignored by the other backends.
     */
    unsigned parallel_columns = 0;
};

/** Why Chip::run() returned. */
enum class RunExit
{
    AllHalted,  //!< every column executed HALT
    TickLimit,  //!< the tick budget ran out
    Deadlock,   //!< nothing left to do but columns are not halted
};

struct RunResult
{
    RunExit exit;
    Tick ticks; //!< final tick reached
};

class Chip final : private SchedModel
{
  public:
    explicit Chip(const ChipConfig &cfg);

    unsigned numColumns() const { return unsigned(columns_.size()); }
    Column &column(unsigned c) { return *columns_.at(c); }
    const Column &column(unsigned c) const { return *columns_.at(c); }

    BusFabric &fabric() { return fabric_; }
    const BusFabric &fabric() const { return fabric_; }

    const ChipConfig &config() const { return cfg_; }

    /**
     * Run until all columns halt or @p max_ticks reference cycles
     * elapse. May be called repeatedly (time accumulates).
     */
    RunResult run(Tick max_ticks = 100'000'000);

    bool allHalted() const override;

    Tick curTick() const { return sched_->curTick(); }

    /** The scheduler backend this chip runs on. */
    SchedulerKind schedulerKind() const { return cfg_.scheduler; }

    /**
     * The bus timeline of this chip's DOU programs, which its fast
     * backends follow. Created on first use, resolved on the first
     * run, shared with every clone, kept across restart() and
     * replaced once a DOU is loaded. EventQueue never consults it.
     */
    std::shared_ptr<const BusTimeline> busTimeline() const;

    /** Reset all columns and rewind nothing else (stats persist). */
    void resetColumns();

    /**
     * Copy a programmed, not-yet-run chip — the fleet layer's warm
     * start: codegen + program load + decode ran once on the
     * template, and every clone snapshots the resulting state
     * (programs, DOU schedules, ZORM, tile SRAM, supply gating)
     * without re-running any of it. Tile SRAM is shared
     * copy-on-write (Tile::copyStateFrom), so a clone copies none
     * of it up front. The clone gets fresh statistics
     * (all zero, like a freshly built chip) and its own scheduler,
     * and is bit-identical to a fresh build + load on every backend.
     * fatal() once this chip has advanced past tick 0: run state,
     * including the backends' pending work, is not transferable.
     *
     * clone() is const and safe to call concurrently from several
     * worker threads on one template chip.
     */
    std::unique_ptr<Chip> clone() const;

    /** clone(), re-homed onto @p scheduler (mixed-backend fleets). */
    std::unique_ptr<Chip> clone(SchedulerKind scheduler) const;

    /**
     * Rewind a finished chip to tick 0 for its next work item:
     * resets every column (controllers restart their programs, DOUs
     * reload their counters, tile registers and comm buffers clear)
     * and replaces the scheduler so the next run() starts at tick 0
     * with the column clock phases exactly as a fresh chip sees them.
     * Tile SRAM and all statistics persist (counters accumulate
     * across items; the caller rewrites its input images).
     */
    void restart();

    /**
     * True at the statically-safe reconfiguration points where
     * per-column clock retuning is allowed: tick 0 (a fresh or
     * restart()ed chip, where every domain re-arms phase-aligned
     * from the new dividers) or a drained chip (all columns halted
     * — the strongest comm-quiet window: no pending edges matter,
     * no word is in flight, and the next restart() realigns the
     * edge grid from tick 0).
     */
    bool atReconfigPoint() const;

    /**
     * Retune every column's clock divider — the DVFS governor's
     * apply primitive. Only legal at a reconfiguration point
     * (atReconfigPoint(); fatal() otherwise): splicing a new
     * divider vector mid-flight would break the phase-0 edge
     * alignment the static verifier's safety proof assumes. The
     * chip's config is updated too, so clone() of a retuned
     * template reproduces the retuned clocks.
     */
    void retune(const std::vector<unsigned> &dividers);

    /**
     * Visit every statistic of the chip under a dotted hierarchical
     * name: "bus.<stat>", "colC.ctrl.<stat>", "colC.dou.<stat>",
     * "colC.tileT.<stat>". Names are visited in a deterministic
     * order; FleetExecutor aggregates across chips with this.
     */
    void forEachStat(
        const std::function<void(const std::string &, uint64_t)> &fn)
        const;

    /**
     * Add every statistic's value to @p sums by its position in
     * forEachStat() order, building no names: the cheap harvest for
     * callers that sum chips of one layout and name the sums once.
     * An empty @p sums is first sized to the statistic count;
     * fatal() on any other size mismatch.
     */
    void sumStats(std::vector<uint64_t> &sums) const;

  private:
    // The walks are instantiated for the chip itself (sim/walks.hh),
    // so they call the hooks below directly.
    template <class M>
    friend class synchro::ReferenceStepper;
    template <class M, class W>
    friend class synchro::EdgeWalk;
    template <class M>
    friend class synchro::EdgeScheduler;
    template <class M>
    friend class synchro::ParallelColumnsScheduler;

    /// @name SchedModel interface (driven by the scheduler)
    /// @{
    unsigned numDomains() const override { return numColumns(); }
    const ClockDomain &domainClock(unsigned d) const override;
    bool domainHalted(unsigned d) const override;
    void domainEdge(unsigned d) override;
    void refPhase() override;
    Tick domainEdgeBlock(unsigned d, Tick max_slots,
                         Tick comm_slots) override;
    Tick domainCommHorizon(unsigned d) const override;
    Tick refPhaseRun(Tick max) override;
    bool domainCommStalled(unsigned d) const override;
    void domainStallCredit(unsigned d, Tick slots) override;
    const std::vector<unsigned> &refPhaseTouched() const override;
    Tick commQuiet(Tick max) const override;
    bool domainsIndependent() const override;
    /// @}

    /**
     * Start of run(): follow the timeline when the backend is a fast
     * one, the timeline resolved, and the DOUs stand where a cursor
     * can name — resuming the last run's cursor or entering a node.
     */
    void followTimeline();

    /** End of run(): put every DOU where the cursor stands. */
    void placeDous();

    /**
     * Call @p fn(prefix, group) for every StatGroup in forEachStat()
     * order; prefix() builds the group's dotted name prefix.
     */
    template <typename Fn>
    void forEachStatGroup(Fn &&fn) const;

    ChipConfig cfg_;
    std::unique_ptr<SchedulerFor<Chip>> sched_;
    std::vector<std::unique_ptr<Column>> columns_;
    BusFabric fabric_;

    // Scratch for refPhase(), reused across ticks.
    std::vector<ColumnBusView> views_;
    bool dou_active_ = false; //!< a DOU drives or captures next phase

    // busTimeline(), lazily replaced under timeline_mu_.
    mutable std::mutex timeline_mu_;
    mutable std::shared_ptr<const BusTimeline> timeline_;

    /**
     * The cursor and the timeline it indexes (kept across runs, so a
     * resumed run continues where the last one stopped). While
     * following_, reference phases advance the cursor instead of the
     * DOUs; cursor_phases_ counts them for the DOUs' step statistic.
     */
    std::shared_ptr<const BusTimeline> cursor_timeline_;
    BusTimeline::Cursor cursor_;
    bool following_ = false;
    Tick cursor_phases_ = 0;
    /**
     * The followed timeline's commHorizons() table when this run
     * follows it on Compiled (domainCommHorizon()); null otherwise.
     * Set by followTimeline().
     */
    const Tick *horizons_ = nullptr;
    std::vector<DouPosition> placed_; //!< DOU positions placeDous() set

    /** A point-to-point plan with its tiles, resolved once per run. */
    struct TransferTiles
    {
        bool single = false; //!< false: the plan goes to runPlan()
        PointTransfer transfer;
        Tile *driver = nullptr;
        Tile *capture = nullptr;
    };
    /** By plan of the followed timeline; set by followTimeline(). */
    std::vector<TransferTiles> transfer_tiles_;
};

} // namespace synchro::arch

#endif // SYNC_ARCH_CHIP_HH
