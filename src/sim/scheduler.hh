/**
 * @file
 * Pluggable execution schedulers for rationally-clocked models.
 *
 * The Synchroscalar restriction to integer clock dividers makes every
 * domain's edge pattern statically computable (paper Section 6), so a
 * simulator does not need a dynamic event queue to find the next thing
 * to do. This header splits the "what happens" (SchedModel — the chip)
 * from the "when" (Scheduler) and provides four interchangeable
 * backends:
 *
 *  - SchedulerKind::EventQueue — the reference: a literal stepper
 *    that visits every tick with pending work, runs each due domain
 *    edge slot-exact and then the reference phase, every tick until
 *    the model halts. It batches nothing and shares no loop code with
 *    the edge walk below, so it can cross-check the fast paths
 *    bit-for-bit. It keeps the kind and name ("eventq") it had as a
 *    discrete event queue with the same contract, because tools,
 *    benches and $SYNCHRO_SCHEDULER select it by them.
 *
 *  - SchedulerKind::FastEdge — the static edge walk: precomputes
 *    each domain's next edge from its (divider, phase) pair and jumps
 *    straight to the next edge tick, issuing one slot-exact
 *    domainEdge() per edge. The reference phases between edges are
 *    handed to the model in one call per stretch (refPhaseRun — for
 *    the chip, a cursor over its bus timeline, the DOU schedule
 *    resolved once: quiet gaps cost O(1), and a point-to-point
 *    active phase is one scalar transfer).
 *
 *  - SchedulerKind::Compiled — the default: the same walk, plus
 *    issue-slot blocks (domainEdgeBlock): a domain runs ahead as far
 *    as nothing else can disturb it. Compute ops and controller-
 *    private slots (jump, jcc/jncc and their stall slot, lsetup,
 *    nops, ZORM nops) run inside a block; so does a crd/cwr whose
 *    hazard is clear, up to the domain's bus horizon
 *    (domainCommHorizon: the next reference phase that may change
 *    its buffers). halt, and comm ops past the horizon, run
 *    slot-exact. A domain whose next slot is a stalled crd/cwr
 *    (domainCommStalled) sleeps: it leaves the walk until a
 *    reference phase fills or drains its own buffers
 *    (refPhaseTouched), and its skipped stall slots are credited in
 *    one call (domainStallCredit).
 *
 *  - SchedulerKind::ParallelColumns — intra-chip parallelism via
 *    latency-insensitive sync. Bus delivery is self-timed and every
 *    statically-scheduled bus slot is known, so the only point at
 *    which columns interact is an *active* reference phase (a bus
 *    cycle that may move data). The scheduler probes the comm-quiet
 *    window (commQuiet), lets every column free-run its issue
 *    slots through the window on its own team thread (column state
 *    is private while the fabric is quiet), advances the window's
 *    reference phases with one refPhaseRun(), and runs the next
 *    delivery slot serially. Bit-identical to the serial backends
 *    for any team size by construction.
 *
 * All backends drive the model through the same narrow interface
 * and must produce identical architectural state and statistics;
 * the scheduler_test suite enforces this. The walks themselves are
 * templates over the model (sim/walks.hh): makeScheduler() runs them
 * on any SchedModel through its virtual hooks, and a model that
 * instantiates them for its own final type (the chip) has every
 * per-edge and per-phase hook call resolved statically.
 */

#ifndef SYNC_SIM_SCHEDULER_HH
#define SYNC_SIM_SCHEDULER_HH

#include <memory>
#include <string>
#include <vector>

#include "sim/clock.hh"
#include "sim/types.hh"

namespace synchro
{

/** Selects the scheduler backend driving a model. */
enum class SchedulerKind
{
    EventQueue,      //!< literal reference stepper (reference semantics)
    FastEdge,        //!< static edge-pattern fast path
    Compiled,        //!< steady-state loops compiled to blocks
    ParallelColumns, //!< columns threaded between delivery slots
};

/**
 * Human-readable backend name
 * ("eventq"/"fastedge"/"compiled"/"parallel").
 */
const char *schedulerName(SchedulerKind kind);

/**
 * Parse a backend name ("eventq" | "fastedge" | "compiled" |
 * "parallel" — the exact strings schedulerName() emits). Returns
 * false and leaves @p out untouched on anything else.
 */
bool parseSchedulerKind(const std::string &name, SchedulerKind &out);

/**
 * The process-wide default backend: $SYNCHRO_SCHEDULER when set to a
 * valid backend name (fatal on an invalid one), Compiled otherwise.
 * ChipConfig and the mapped-app runners initialize from this, so CI
 * can force the whole suite onto one backend with an env var.
 */
SchedulerKind defaultSchedulerKind();

/**
 * Consume a "--backend <name>" / "--backend=<name>" flag from argv
 * (removing it so later arg parsers never see it). Returns the
 * parsed kind, or @p fallback when the flag is absent; fatal() on an
 * unknown name.
 */
SchedulerKind backendFromArgs(
    int &argc, char **argv,
    SchedulerKind fallback = defaultSchedulerKind());

/**
 * Override what defaultSchedulerKind() returns for the rest of the
 * process. Lets a `--backend` flag govern harness code that builds
 * chips with default-constructed configs (e.g. the micro-kernel
 * runners), without threading the kind through every call chain.
 */
void setDefaultSchedulerKind(SchedulerKind kind);

/**
 * What a scheduler needs to know about the simulated model: a set of
 * divided clock domains (columns) plus work that happens every
 * reference tick (bus movement and DOU stepping).
 *
 * Contract (the reference stepper's, which every backend matches):
 *  - domainEdge(d) runs at every edge of domain d while the domain is
 *    not halted (edges at phase + k * divider);
 *  - refPhase() runs once per reference tick, after all domain edges
 *    of that tick, from the first tick of run() until the tick on
 *    which allHalted() becomes true (inclusive).
 * A domain halts only on its own edge, and allHalted() holds exactly
 * when every domain is halted.
 */
class SchedModel
{
  public:
    virtual ~SchedModel() = default;

    virtual unsigned numDomains() const = 0;
    virtual const ClockDomain &domainClock(unsigned d) const = 0;
    virtual bool domainHalted(unsigned d) const = 0;
    virtual bool allHalted() const = 0;

    /** One divided-clock edge of domain @p d. */
    virtual void domainEdge(unsigned d) = 0;

    /** One reference-clock phase (bus resolution + DOU step). */
    virtual void refPhase() = 0;

    /**
     * Compiled-backend hook: execute up to @p max_slots consecutive
     * issue slots of domain @p d as one pre-analyzed block. Slot i of
     * the block stands for the edge at tick t + i * divider; the
     * block may only contain work that commutes with every reference
     * phase and other-domain edge in that window (for the chip:
     * compute and controller-private slots on tile-private state).
     * The first @p comm_slots slots may also issue comm ops whose
     * hazard is clear: the caller proved that no reference phase
     * before their ticks changes the domain's comm buffers
     * (domainCommHorizon). Returns the slots consumed; 0 means no
     * block applies and the caller must issue a single domainEdge().
     * The default keeps non-compiled models on the slot-at-a-time
     * path.
     */
    virtual Tick
    domainEdgeBlock(unsigned d, Tick max_slots, Tick comm_slots)
    {
        (void)d;
        (void)max_slots;
        (void)comm_slots;
        return 0;
    }

    /**
     * Compiled-backend hook, asked while the reference phase of the
     * walked tick t is still pending: the reference phases from t on
     * that pass through the first one that may change domain @p d's
     * comm buffers. Edges of a tick run before its phase, so @p d's
     * comm ops at ticks before t + the returned count see only its
     * own writes. MaxTick: no later phase touches them. 0 (the
     * default): nothing is proven, and comm ops stay slot-exact.
     */
    virtual Tick
    domainCommHorizon(unsigned d) const
    {
        (void)d;
        return 0;
    }

    /**
     * Edge-walk hook: run up to @p max (>= 1) reference phases in
     * order, exactly as that many refPhase() calls would, and stop
     * right after the first one that lists a domain in
     * refPhaseTouched(). Returns the phases run, at least 1;
     * refPhaseTouched() then describes the last of them. No domain
     * edge falls inside the run, and a phase never halts a domain,
     * so the caller asks nothing in between. A proven comm-quiet
     * window (commQuiet()) touches nothing and always runs to
     * @p max. The chip credits its bus timeline's quiet gaps in
     * closed form and runs a point-to-point active phase as one
     * scalar transfer. The default calls refPhase() once per phase.
     */
    virtual Tick
    refPhaseRun(Tick max)
    {
        Tick k = 0;
        do {
            refPhase();
            ++k;
        } while (k < max && refPhaseTouched().empty());
        return k;
    }

    /**
     * Compiled and ParallelColumns hook: true when domain @p d's next
     * issue slot
     * is a comm op whose hazard holds (for the chip: a crd on an
     * empty or a cwr on a full buffer). The domain then stays stalled
     * — every slot a stall or a rate-match nop, with no effect on
     * any other domain — until a refPhase() lists it in
     * refPhaseTouched(). The default never stalls.
     */
    virtual bool
    domainCommStalled(unsigned d) const
    {
        (void)d;
        return false;
    }

    /**
     * Compiled and ParallelColumns hook: credit @p slots issue slots
     * of a comm-stalled domain @p d in one call, exactly as that many
     * domainEdge() calls would. Unchecked: the scheduler calls it
     * only for edges that precede every reference phase touching
     * the domain since it stalled (ParallelColumns: edges inside a
     * comm-quiet window, where no reference phase touches any).
     */
    virtual void
    domainStallCredit(unsigned d, Tick slots)
    {
        (void)d;
        (void)slots;
    }

    /**
     * Compiled-backend hook: the domains whose comm state the last
     * refPhase() changed (a domain may repeat). Only these can leave
     * a domainCommStalled() stall. The default touches none.
     */
    virtual const std::vector<unsigned> &
    refPhaseTouched() const
    {
        static const std::vector<unsigned> none;
        return none;
    }

    /**
     * ParallelColumns hook: how many upcoming reference phases
     * (starting with the next one) are provably comm-free, up to
     * @p max — a pure probe, nothing advances; refPhaseRun() must
     * then consume them. Bounds the window in which columns
     * free-run on the team: a stalled comm op cannot unblock before
     * the next bus activity.
     */
    virtual Tick
    commQuiet(Tick max) const
    {
        (void)max;
        return 0;
    }

    /**
     * ParallelColumns hook: true when the model's domains interact
     * ONLY through refPhase() — domainEdge(d) touches domain-d-private
     * state exclusively, so inside a window where every refPhase() is
     * provably a no-op (commQuiet), different domains may execute
     * concurrently on different threads; the scheduler's leader then
     * closes the window with one refPhaseRun(). The chip
     * satisfies this: issue slots touch only the column's own tiles
     * and comm buffers, and the bus fabric — the one piece of shared
     * state — moves nothing while no DOU drives or captures. Models
     * that do not make this guarantee keep the default and the
     * ParallelColumns backend runs them serially.
     */
    virtual bool domainsIndependent() const { return false; }
};

/** Why Scheduler::run() returned. */
enum class SchedStop
{
    AllHalted, //!< the model reported allHalted()
    TickLimit, //!< the tick budget ran out
    Idle,      //!< nothing left to schedule but not halted
};

/**
 * A backend driving models of type @p Model. Scheduler, on the
 * abstract SchedModel, is the one makeScheduler() builds; a model
 * instantiates the walks for itself through makeSchedulerFor()
 * (sim/walks.hh).
 */
template <class Model>
class SchedulerFor
{
  public:
    virtual ~SchedulerFor() = default;

    /**
     * Drive @p model until it halts or @p max_ticks reference cycles
     * elapse. May be called repeatedly; time accumulates and pending
     * work carries across calls, so run(1) in a loop is equivalent to
     * one large run() (robustness_test relies on this).
     */
    virtual SchedStop run(Model &model, Tick max_ticks) = 0;

    virtual Tick curTick() const = 0;

    virtual SchedulerKind kind() const = 0;

    const char *name() const { return schedulerName(kind()); }
};

using Scheduler = SchedulerFor<SchedModel>;

/**
 * The walks (sim/walks.hh), declared so that a model can befriend
 * them and keep its hooks private.
 */
template <class Model>
class ReferenceStepper;
template <class Model, class Walk>
class EdgeWalk;
template <class Model>
class EdgeScheduler;
template <class Model>
class ParallelColumnsScheduler;

/**
 * Construct a scheduler backend. @p team_threads only matters for
 * ParallelColumns: 0 picks an automatic team size (hardware
 * concurrency clamped to the domain count, degrading to serial when
 * the calling thread already belongs to a simulation worker pool —
 * see inWorkerPool()), 1 forces serial execution, and larger values
 * request that many team members (clamped to the domain count at
 * run time). Other kinds ignore it.
 */
std::unique_ptr<Scheduler> makeScheduler(SchedulerKind kind,
                                         unsigned team_threads = 0);

/**
 * Nested-parallelism policy. FleetExecutor workers mark themselves
 * with a WorkerPoolScope; the automatic ParallelColumns team size
 * (team_threads == 0) collapses to 1 on a marked thread so a fleet
 * of parallel-columns chips does not oversubscribe the machine with
 * pool × team threads. An explicit team size is always honored
 * (nested pools) — that is how the fleet × parallel-columns
 * composition tests exercise both layers at once.
 */
bool inWorkerPool();

/** RAII marker: the current thread belongs to a simulation pool. */
class WorkerPoolScope
{
  public:
    WorkerPoolScope();
    ~WorkerPoolScope();

    WorkerPoolScope(const WorkerPoolScope &) = delete;
    WorkerPoolScope &operator=(const WorkerPoolScope &) = delete;

  private:
    bool prev_;
};

} // namespace synchro

#endif // SYNC_SIM_SCHEDULER_HH
