#include "sim/scheduler.hh"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/log.hh"

namespace synchro
{

const char *
schedulerName(SchedulerKind kind)
{
    switch (kind) {
      case SchedulerKind::EventQueue:
        return "eventq";
      case SchedulerKind::FastEdge:
        return "fastedge";
      case SchedulerKind::Compiled:
        return "compiled";
      case SchedulerKind::ParallelColumns:
        return "parallel";
    }
    return "unknown";
}

bool
parseSchedulerKind(const std::string &name, SchedulerKind &out)
{
    if (name == "eventq") {
        out = SchedulerKind::EventQueue;
    } else if (name == "fastedge") {
        out = SchedulerKind::FastEdge;
    } else if (name == "compiled") {
        out = SchedulerKind::Compiled;
    } else if (name == "parallel") {
        out = SchedulerKind::ParallelColumns;
    } else {
        return false;
    }
    return true;
}

namespace
{

SchedulerKind &
defaultKindSlot()
{
    static SchedulerKind kind = [] {
        const char *env = std::getenv("SYNCHRO_SCHEDULER");
        if (!env || !*env)
            return SchedulerKind::Compiled;
        SchedulerKind k;
        if (!parseSchedulerKind(env, k))
            fatal("SYNCHRO_SCHEDULER=%s is not a backend "
                  "(eventq | fastedge | compiled | parallel)",
                  env);
        return k;
    }();
    return kind;
}

} // namespace

SchedulerKind
defaultSchedulerKind()
{
    return defaultKindSlot();
}

void
setDefaultSchedulerKind(SchedulerKind kind)
{
    defaultKindSlot() = kind;
}

SchedulerKind
backendFromArgs(int &argc, char **argv, SchedulerKind fallback)
{
    SchedulerKind kind = fallback;
    int w = 1;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string name;
        if (arg == "--backend") {
            if (i + 1 >= argc)
                fatal("--backend needs a value "
                      "(eventq | fastedge | compiled | parallel)");
            name = argv[++i];
        } else if (arg.rfind("--backend=", 0) == 0) {
            name = arg.substr(10);
        } else {
            argv[w++] = argv[i];
            continue;
        }
        if (!parseSchedulerKind(name, kind))
            fatal("--backend %s is not a backend "
                  "(eventq | fastedge | compiled | parallel)",
                  name.c_str());
    }
    argv[w] = nullptr;
    argc = w;
    return kind;
}

namespace
{

// Nested-parallelism policy flag: set while the current thread is a
// FleetExecutor pool worker, so the automatic
// ParallelColumns team size degrades to serial instead of spawning
// pool × team threads. thread_local, so concurrent pools and teams
// never observe each other.
thread_local bool tls_in_worker_pool = false;

} // namespace

bool
inWorkerPool()
{
    return tls_in_worker_pool;
}

WorkerPoolScope::WorkerPoolScope() : prev_(tls_in_worker_pool)
{
    tls_in_worker_pool = true;
}

WorkerPoolScope::~WorkerPoolScope()
{
    tls_in_worker_pool = prev_;
}

namespace
{

/**
 * The last tick a run of @p max_ticks from @p now may reach,
 * saturated so run(MaxTick) means "until the model halts" at any
 * tick (MaxTick itself marks "not pending" in the edge walk).
 */
Tick
budgetEnd(Tick now, Tick max_ticks)
{
    return max_ticks >= MaxTick - 1 - now ? MaxTick - 1 : now + max_ticks;
}

/**
 * The reference backend: a literal stepper over the static clock
 * arithmetic. One pending tick per domain plus one for the reference
 * phase (MaxTick = not pending). Every tick with pending work runs
 * each due domain's edge in index order (domains are independent
 * within the edge phase), then the reference phase, which recurs
 * every tick until the model halts. Nothing is batched, blocked or
 * skipped, and it shares no loop code with EdgeWalk, the walk it
 * cross-checks.
 *
 * Per-tick bookkeeping stays off the model: each run() reads the
 * dividers once (a divider only changes between runs) and counts the
 * domains that halted instead of asking allHalted() every tick.
 */
class ReferenceStepper : public Scheduler
{
  public:
    SchedStop
    run(SchedModel &model, Tick max_ticks) override
    {
        const unsigned n = model.numDomains();
        if (next_.empty())
            next_.assign(n, MaxTick);
        sync_assert(next_.size() == n,
                    "model domain count changed between runs");

        // (Re)arm what is not pending: each domain at its next edge
        // at-or-after now, the reference phase now.
        divider_.resize(n);
        unsigned halted = 0;
        for (unsigned d = 0; d < n; ++d) {
            const ClockDomain &clk = model.domainClock(d);
            divider_[d] = clk.divider();
            if (model.domainHalted(d)) {
                halted += next_[d] == MaxTick;
                continue;
            }
            if (next_[d] == MaxTick)
                next_[d] = clk.onEdge(cur_) ? cur_ : clk.nextEdgeAfter(cur_);
        }
        if (ref_next_ == MaxTick)
            ref_next_ = cur_;

        const Tick limit = budgetEnd(cur_, max_ticks);
        Tick t = earliest();
        while (t <= limit) {
            cur_ = t;
            for (unsigned d = 0; d < n; ++d) {
                if (next_[d] != t)
                    continue;
                model.domainEdge(d);
                if (model.domainHalted(d)) {
                    next_[d] = MaxTick;
                    ++halted;
                } else {
                    next_[d] = t + divider_[d];
                }
            }
            if (ref_next_ == t) {
                model.refPhase();
                ref_next_ = halted == n ? MaxTick : t + 1;
            }
            // Every pending tick is now past t, so a reference phase
            // due at t + 1 is the earliest.
            t = ref_next_ == t + 1 ? t + 1 : earliest();
        }

        if (model.allHalted())
            return SchedStop::AllHalted;
        return t == MaxTick ? SchedStop::Idle : SchedStop::TickLimit;
    }

    Tick curTick() const override { return cur_; }

    SchedulerKind kind() const override
    {
        return SchedulerKind::EventQueue;
    }

  private:
    /** The earliest pending tick (MaxTick = nothing pending). */
    Tick
    earliest() const
    {
        Tick t = ref_next_;
        for (Tick e : next_)
            t = std::min(t, e);
        return t;
    }

    Tick cur_ = 0;
    Tick ref_next_ = MaxTick;
    std::vector<Tick> next_;    //!< per-domain pending edge
    std::vector<Tick> divider_; //!< per-domain divider, read per run
};

/**
 * The static edge walk every fast backend shares. Like the reference
 * stepper it keeps one pending tick per domain plus one for the
 * reference phase, recomputed with the static (divider, phase)
 * arithmetic of ClockDomain; MaxTick marks "not pending".
 *
 * run() takes every tick with pending work in order and runs it
 * serially — all domain edges, then the reference phase, as the
 * reference stepper does — and then hands the reference phases up
 * to the next domain edge to the backend's betweenEdges().
 *
 * With @p blocks set, an edge first tries domainEdgeBlock(), which
 * may consume many slots at once (slot i standing for the edge at
 * t + i * divider; the block holds only work that commutes with
 * everything else in the window — for the chip, compute ops on
 * tile-private state). A domain whose next slot is then a stalled
 * comm op (domainCommStalled()) sleeps: it leaves the walk, keeping
 * its pending edge, so the walk neither stops at its edges nor caps
 * comm-free stretches at them. Only a reference phase that lists the
 * domain in refPhaseTouched() can release its hazard; after such a
 * phase p the sleeper's edges up to p are credited as stall slots in
 * one domainStallCredit() call, and it rejoins at its first edge
 * after p — or sleeps on if the hazard still holds. Without @p blocks
 * every edge is one slot-exact domainEdge().
 *
 * Every batch caps at the tick budget, and sleepers are credited
 * through the budget before run() returns, so run(1) in a loop still
 * matches one big run() bit-for-bit.
 */
class EdgeWalk : public Scheduler
{
  public:
    SchedStop
    run(SchedModel &model, Tick max_ticks) override
    {
        arm(model);
        const Tick limit = budgetEnd(cur_, max_ticks);
        while (true) {
            const Tick t = std::min(ref_next_, nextEdge());
            if (t == MaxTick)
                return model.allHalted() ? SchedStop::AllHalted
                                         : SchedStop::Idle;
            if (t > limit) {
                wakeAll(model, limit);
                return SchedStop::TickLimit;
            }
            if (serialTick(model, t, limit) ||
                (ref_next_ == t + 1 && betweenEdges(model, t, limit)))
                return SchedStop::AllHalted;
        }
    }

    Tick curTick() const override { return cur_; }

  protected:
    explicit EdgeWalk(bool blocks) : blocks_(blocks) {}

    /**
     * The stretch after the serial tick @p t, whose reference phase
     * is pending at t + 1. Advances cur_/ref_next_/domain_next_ over
     * whatever it proves safe to batch; returns true once the model
     * halted.
     */
    virtual bool betweenEdges(SchedModel &model, Tick t,
                              Tick limit) = 0;

    /** Earliest pending domain edge (MaxTick = none pending). */
    Tick
    nextEdge() const
    {
        Tick e = MaxTick;
        for (Tick dn : domain_next_)
            e = std::min(e, dn);
        return e;
    }

    /**
     * The reference phase of tick @p t, then wake the sleepers it
     * touched; true if the model halted.
     */
    bool
    refPhaseAt(SchedModel &model, Tick t)
    {
        model.refPhase();
        cur_ = t;
        if (sleepers_ > 0) {
            // A touched sleeper's edges up to t saw the old buffers;
            // its next edge sees the new ones.
            for (unsigned d : model.refPhaseTouched()) {
                if (sleep_next_[d] == MaxTick)
                    continue;
                creditSleeper(model, d, t);
                if (!model.domainCommStalled(d))
                    rejoin(d);
            }
        }
        const bool halted = model.allHalted();
        ref_next_ = halted ? MaxTick : t + 1;
        return halted;
    }

    const bool blocks_;                 //!< try issue-slot blocks
    Tick cur_ = 0;
    Tick ref_next_ = MaxTick;           //!< MaxTick = not pending
    std::vector<Tick> domain_next_;     //!< per-domain pending edge

  private:
    /** Arm pending work exactly like the reference stepper. */
    void
    arm(SchedModel &model)
    {
        const unsigned n = model.numDomains();
        if (domain_next_.empty()) {
            domain_next_.assign(n, MaxTick);
            sleep_next_.assign(n, MaxTick);
        }
        sync_assert(domain_next_.size() == n,
                    "model domain count changed between runs");
        for (unsigned d = 0; d < n; ++d) {
            if (model.domainHalted(d) || domain_next_[d] != MaxTick ||
                sleep_next_[d] != MaxTick)
                continue;
            const ClockDomain &clk = model.domainClock(d);
            domain_next_[d] =
                clk.onEdge(cur_) ? cur_ : clk.nextEdgeAfter(cur_);
        }
        if (ref_next_ == MaxTick)
            ref_next_ = cur_;
    }

    /**
     * All domain edges of tick @p t, then its reference phase when
     * one is pending. Domains are mutually independent within the
     * edge phase, so index order is as good as event-seq order.
     * Returns true if the model halted.
     */
    bool
    serialTick(SchedModel &model, Tick t, Tick limit)
    {
        for (unsigned d = 0; d < domain_next_.size(); ++d) {
            if (domain_next_[d] != t)
                continue;
            const Tick div = model.domainClock(d).divider();
            Tick k = 0;
            if (blocks_) {
                // Slots at t, t+div, ... while the tick stays in
                // budget — so stepped runs consume identical slots.
                k = model.domainEdgeBlock(d, (limit - t) / div + 1);
            }
            if (k == 0) {
                model.domainEdge(d);
                k = 1;
            }
            if (model.domainHalted(d)) {
                domain_next_[d] = MaxTick;
            } else if (blocks_ && model.domainCommStalled(d)) {
                domain_next_[d] = MaxTick;
                sleep_next_[d] = t + k * div;
                ++sleepers_;
            } else {
                domain_next_[d] = t + k * div;
            }
        }
        cur_ = t;
        return ref_next_ == t ? refPhaseAt(model, t) : model.allHalted();
    }

    /** Credit sleeper @p d's edges up to tick @p t as stall slots. */
    void
    creditSleeper(SchedModel &model, unsigned d, Tick t)
    {
        Tick &e = sleep_next_[d];
        if (e > t)
            return;
        const Tick div = model.domainClock(d).divider();
        const Tick n = (t - e) / div + 1;
        model.domainStallCredit(d, n);
        e += n * div;
    }

    /** Return sleeper @p d to the walk at its pending edge. */
    void
    rejoin(unsigned d)
    {
        domain_next_[d] = sleep_next_[d];
        sleep_next_[d] = MaxTick;
        --sleepers_;
    }

    /** Credit every sleeper through tick @p limit and rejoin it. */
    void
    wakeAll(SchedModel &model, Tick limit)
    {
        for (unsigned d = 0; sleepers_ > 0 && d < sleep_next_.size();
             ++d) {
            if (sleep_next_[d] == MaxTick)
                continue;
            creditSleeper(model, d, limit);
            rejoin(d);
        }
    }

    std::vector<Tick> sleep_next_;      //!< sleeper's pending edge
    unsigned sleepers_ = 0;             //!< domains asleep
};

/**
 * The FastEdge and Compiled backends: the edge walk with every
 * reference phase between edges batched through commFreeAdvance().
 * Comm-free stretches (every DOU in all-zero buffer states, walking
 * through state transitions and idle self-loops alike) fast-forward
 * wholesale; phases that may move data run one at a time via
 * refPhase(), exactly in order. Compiled also issues slots in
 * blocks and puts comm-stalled domains to sleep; FastEdge is the
 * slot-exact path.
 */
class EdgeScheduler : public EdgeWalk
{
  public:
    explicit EdgeScheduler(bool blocks) : EdgeWalk(blocks) {}

    SchedulerKind
    kind() const override
    {
        return blocks_ ? SchedulerKind::Compiled : SchedulerKind::FastEdge;
    }

  private:
    bool
    betweenEdges(SchedModel &model, Tick, Tick limit) override
    {
        while (true) {
            // Re-read every round: a phase may wake a sleeper whose
            // next edge comes before the current target.
            const Tick target = std::min(nextEdge(), limit + 1);
            if (ref_next_ >= target)
                return false;
            const Tick want = target - ref_next_;
            const Tick k = model.commFreeAdvance(want);
            ref_next_ += k;
            cur_ = ref_next_ - 1;
            if (k == want)
                return false;
            if (refPhaseAt(model, ref_next_))
                return true;
        }
    }
};

/**
 * Persistent thread team with an epoch barrier — the rendezvous
 * primitive of the parallel-columns backend. The caller is member 0;
 * members 1..N-1 are worker threads that live as long as the team.
 * run(job) releases every member into job(member) and returns only
 * after all members have finished (the epoch barrier), so everything
 * the members wrote happens-before the caller's next read. The first
 * exception any member throws is captured and rethrown on the caller
 * *after* the rendezvous completes — a throwing member can never
 * leave the barrier half-assembled (the lesson of the fleet drain
 * deadlock fix).
 */
class ColumnTeam
{
  public:
    explicit ColumnTeam(unsigned members) : members_(members)
    {
        sync_assert(members_ >= 2, "a column team needs >= 2 members");
        threads_.reserve(members_ - 1);
        for (unsigned m = 1; m < members_; ++m)
            threads_.emplace_back([this, m] { workerLoop(m); });
    }

    ~ColumnTeam()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            stop_ = true;
            ++epoch_;
        }
        cv_start_.notify_all();
        for (auto &t : threads_)
            t.join();
    }

    ColumnTeam(const ColumnTeam &) = delete;
    ColumnTeam &operator=(const ColumnTeam &) = delete;

    unsigned members() const { return members_; }

    void
    run(const std::function<void(unsigned)> &job)
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            job_ = &job;
            done_ = 0;
            err_ = nullptr;
            ++epoch_;
        }
        cv_start_.notify_all();
        runMember(job, 0);
        std::unique_lock<std::mutex> lk(mu_);
        cv_done_.wait(lk, [this] { return done_ == members_ - 1; });
        job_ = nullptr;
        if (err_) {
            std::exception_ptr e = err_;
            err_ = nullptr;
            lk.unlock();
            std::rethrow_exception(e);
        }
    }

  private:
    void
    runMember(const std::function<void(unsigned)> &job, unsigned m)
    {
        try {
            job(m);
        } catch (...) {
            std::lock_guard<std::mutex> lk(mu_);
            if (!err_)
                err_ = std::current_exception();
        }
    }

    void
    workerLoop(unsigned m)
    {
        uint64_t seen = 0;
        while (true) {
            const std::function<void(unsigned)> *job = nullptr;
            {
                std::unique_lock<std::mutex> lk(mu_);
                cv_start_.wait(
                    lk, [&] { return stop_ || epoch_ != seen; });
                if (stop_)
                    return;
                seen = epoch_;
                job = job_;
            }
            runMember(*job, m);
            {
                std::lock_guard<std::mutex> lk(mu_);
                ++done_;
                if (done_ == members_ - 1)
                    cv_done_.notify_one();
            }
        }
    }

    const unsigned members_;
    std::mutex mu_;
    std::condition_variable cv_start_;
    std::condition_variable cv_done_;
    uint64_t epoch_ = 0;
    unsigned done_ = 0;
    bool stop_ = false;
    const std::function<void(unsigned)> *job_ = nullptr;
    std::exception_ptr err_;
    std::vector<std::thread> threads_;
};

/**
 * The parallel-columns backend: the edge walk, slot-exact, at every
 * bus-active tick, with the comm-quiet stretches in between executed
 * by a per-chip column team.
 *
 * The synchronization argument is the paper's: columns interact only
 * through the statically-scheduled bus, and delivery is self-timed,
 * so the single rendezvous a column needs is the next reference phase
 * that may move data. The scheduler probes that horizon with
 * commQuiet() — the same comm-free gap the edge walk batches phases
 * with, derived from the per-edge slot schedules of
 * allocateEdgeSlots — and inside the proven window every domain's
 * issue slots (domainEdgeBlock/domainStallBlock/domainEdge) touch
 * only domain-private state (domainsIndependent()). Columns
 * therefore free-run through the window on team threads and
 * rendezvous at the epoch barrier; the leader advances the window's
 * reference phases in one commFreeAdvance(), and the next delivery
 * slot runs serially.
 *
 * Bit-exactness for any team size is by construction: each domain's
 * in-window slot decomposition depends only on that domain's own
 * pending edge and the window end — never on the member running it —
 * and every hook credits state and statistics exactly as
 * slot-at-a-time execution would. The active ticks themselves run
 * serially in the edge walk's exact order.
 *
 * Halt accounting matches the serial contract (refPhase runs through
 * the tick on which allHalted() becomes true, inclusive): members
 * record each domain's halting slot tick, and after the rendezvous
 * the leader advances the reference phases (commFreeAdvance) to
 * max(halt ticks) when the whole model halted inside the window, or
 * to the window end otherwise.
 */
class ParallelColumnsScheduler : public EdgeWalk
{
  public:
    explicit ParallelColumnsScheduler(unsigned team_threads)
        : EdgeWalk(false), requested_(team_threads)
    {}

    SchedStop
    run(SchedModel &model, Tick max_ticks) override
    {
        team_size_ =
            teamSize(model.numDomains(), model.domainsIndependent());
        if (team_size_ > 1 &&
            (!team_ || team_->members() != team_size_))
            team_ = std::make_unique<ColumnTeam>(team_size_);
        return EdgeWalk::run(model, max_ticks);
    }

    SchedulerKind kind() const override
    {
        return SchedulerKind::ParallelColumns;
    }

  private:
    // Below this window width the barrier costs more than the walk;
    // the leader runs the window inline (identical decomposition,
    // identical results — only the thread changes).
    static constexpr Tick kMinTeamWindow = 16;

    bool
    betweenEdges(SchedModel &model, Tick t, Tick limit) override
    {
        if (t >= limit)
            return false;
        // Comm-quiet window: reference phases t+1 .. t+quiet are
        // proven to move nothing, so until the next delivery slot
        // every domain's work is domain-private.
        const Tick quiet = model.commQuiet(limit - t);
        if (quiet == 0)
            return false;
        win_end_ = t + quiet;

        const unsigned n = model.numDomains();
        halt_tick_.assign(n, MaxTick);
        if (nextEdge() <= win_end_) {
            if (team_size_ > 1 && quiet >= kMinTeamWindow) {
                // Domains are dealt round-robin — the per-domain
                // walk is member-independent, so the deal only
                // balances load, never changes results.
                team_->run([&](unsigned m) {
                    for (unsigned d = m; d < n; d += team_size_)
                        walkDomain(model, d);
                });
            } else {
                for (unsigned d = 0; d < n; ++d)
                    walkDomain(model, d);
            }
        }

        // Leader-side halt resolution + the reference phases of the
        // window: through the halting tick inclusive when everything
        // halted in-window, through the window end otherwise.
        const bool all_halted = model.allHalted();
        Tick steps_end = win_end_;
        if (all_halted) {
            Tick h = 0;
            for (Tick ht : halt_tick_) {
                if (ht != MaxTick)
                    h = std::max(h, ht);
            }
            steps_end = h;
        }
        if (steps_end > t) {
            const Tick k = model.commFreeAdvance(steps_end - t);
            sync_assert(k == steps_end - t,
                        "comm-quiet window of %llu phases advanced %llu",
                        (unsigned long long)(steps_end - t),
                        (unsigned long long)k);
        }
        cur_ = steps_end;
        ref_next_ = all_halted ? MaxTick : win_end_ + 1;
        return all_halted;
    }

    /**
     * Walk domain @p d's issue slots through the window (ticks up to
     * and including win_end_, all inside the proven comm-quiet
     * horizon and the tick budget). Called concurrently for
     * different domains; touches only domain_next_[d], halt_tick_[d]
     * and domain-d model state.
     */
    void
    walkDomain(SchedModel &model, unsigned d)
    {
        Tick next = domain_next_[d];
        if (next == MaxTick || next > win_end_)
            return;
        const Tick div = model.domainClock(d).divider();
        while (next <= win_end_) {
            // A comm-stalled domain cannot unblock before the next
            // delivery slot, and every slot offered here sits inside
            // the proven-quiet window.
            const Tick max_slots = (win_end_ - next) / div + 1;
            Tick k = model.domainEdgeBlock(d, max_slots);
            if (k == 0 && max_slots > 1)
                k = model.domainStallBlock(d, max_slots);
            if (k == 0) {
                model.domainEdge(d);
                k = 1;
            }
            if (model.domainHalted(d)) {
                halt_tick_[d] = next + (k - 1) * div;
                next = MaxTick;
                break;
            }
            next += k * div;
        }
        domain_next_[d] = next;
    }

    /**
     * Resolve the team size for this run: serial unless the model
     * grants domain independence; an explicit request is honored
     * (clamped to the domain count — nested pools are deliberate);
     * automatic sizing uses the hardware, but degrades to serial on
     * a simulation pool worker thread so fleets of parallel chips do
     * not oversubscribe the machine.
     */
    unsigned
    teamSize(unsigned n, bool independent) const
    {
        if (!independent || n <= 1 || requested_ == 1)
            return 1;
        unsigned want = requested_;
        if (want == 0) {
            if (inWorkerPool())
                return 1;
            want = std::max(std::thread::hardware_concurrency(), 2u);
        }
        return std::min(want, n);
    }

    const unsigned requested_;          //!< team size knob (0 = auto)
    std::unique_ptr<ColumnTeam> team_;
    unsigned team_size_ = 1;
    Tick win_end_ = 0;                  //!< current window's last tick
    std::vector<Tick> halt_tick_;       //!< in-window halting slots
};

} // namespace

std::unique_ptr<Scheduler>
makeScheduler(SchedulerKind kind, unsigned team_threads)
{
    switch (kind) {
      case SchedulerKind::EventQueue:
        return std::make_unique<ReferenceStepper>();
      case SchedulerKind::FastEdge:
        return std::make_unique<EdgeScheduler>(false);
      case SchedulerKind::Compiled:
        return std::make_unique<EdgeScheduler>(true);
      case SchedulerKind::ParallelColumns:
        return std::make_unique<ParallelColumnsScheduler>(
            team_threads);
    }
    panic("unknown scheduler kind %d", int(kind));
}

} // namespace synchro
