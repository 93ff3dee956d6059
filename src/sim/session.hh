/**
 * @file
 * SimSession — a facade over a fleet of independent Synchroscalar
 * chips.
 *
 * The chip model is single-threaded and deterministic; the scaling
 * unit for batch workload sweeps (parameter studies, mapping
 * searches) and request-serving traffic is therefore *many chips*,
 * each an isolated simulation. SimSession runs N Chip instances
 * across a worker pool (each chip always executes on exactly one
 * thread, so per-chip results are bit-identical no matter how many
 * workers are used), and aggregates RunResults and statistics.
 *
 * Batches may be fully *heterogeneous*: chips built by the session
 * from a ChipConfig and externally constructed, pre-programmed chips
 * — owned or merely borrowed — mix freely, each with its own
 * configuration, programs, optional per-chip tick budget and
 * optional scheduler-backend override. All of that goes through ONE
 * admission path, admit(ChipSpec&&).
 * This is the substrate the mapped design-space explorer
 * (mapping/explorer.hh) batches candidate plans on and the fleet
 * executor (sim/fleet.hh) builds its streaming layer over.
 *
 * Typical use:
 *
 *   sim::SimSession session;
 *   for (auto &cfg : configs) {
 *       unsigned id = session.admit(sim::ChipSpec(cfg));
 *       session.chip(id).column(0).controller().loadProgram(prog);
 *   }
 *   auto results = session.runAll(1'000'000);
 *   auto totals  = session.aggregate();
 */

#ifndef SYNC_SIM_SESSION_HH
#define SYNC_SIM_SESSION_HH

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "arch/chip.hh"

namespace synchro::sim
{

struct SessionConfig
{
    /** Worker threads for runAll(); 0 = hardware concurrency. */
    unsigned threads = 0;
};

/** Cross-chip aggregate of a finished runAll(). */
struct SessionStats
{
    uint64_t chips = 0;
    uint64_t halted = 0;       //!< chips that reached AllHalted
    uint64_t tick_limited = 0; //!< chips that hit the tick budget
    uint64_t deadlocked = 0;
    Tick max_ticks_reached = 0; //!< slowest chip's final tick
    uint64_t total_ticks = 0;   //!< sum of final ticks
    /** Chip counters summed across the fleet, by dotted name. */
    std::map<std::string, uint64_t> counters;
};

/**
 * One chip admission, described declaratively: where the chip comes
 * from (a config the session builds from, a prebuilt chip whose
 * ownership transfers, or a borrowed caller-owned chip) plus the
 * optional per-chip knobs, chained builder-style:
 *
 *   session.admit(ChipSpec(cfg));
 *   session.admit(ChipSpec(std::move(chip)).tickLimit(50'000));
 *   session.admit(ChipSpec(shared_chip)
 *                     .backend(SchedulerKind::Compiled));
 *
 * A backend override re-homes the chip via Chip::setSchedulerKind at
 * admission, so the chip must not have run yet. A borrowed chip must
 * outlive the session (or at least every runAll()).
 */
class ChipSpec
{
  public:
    /** Build a session-owned chip from @p cfg at admission. */
    explicit ChipSpec(const arch::ChipConfig &cfg) : cfg_(cfg) {}

    /** Adopt @p chip (ownership transfers to the session). */
    explicit ChipSpec(std::unique_ptr<arch::Chip> chip)
        : owned_(std::move(chip))
    {}

    /** Borrow @p chip (the caller keeps ownership). */
    explicit ChipSpec(arch::Chip &chip) : borrowed_(&chip) {}

    /** Per-chip tick budget (0 = use runAll()'s budget). */
    ChipSpec &
    tickLimit(Tick t) &
    {
        tick_limit_ = t;
        return *this;
    }
    ChipSpec &&
    tickLimit(Tick t) &&
    {
        tick_limit_ = t;
        return std::move(*this);
    }

    /** Scheduler-backend override applied at admission. */
    ChipSpec &
    backend(SchedulerKind kind) &
    {
        backend_ = kind;
        has_backend_ = true;
        return *this;
    }
    ChipSpec &&
    backend(SchedulerKind kind) &&
    {
        backend_ = kind;
        has_backend_ = true;
        return std::move(*this);
    }

  private:
    friend class SimSession;

    std::optional<arch::ChipConfig> cfg_;
    std::unique_ptr<arch::Chip> owned_;
    arch::Chip *borrowed_ = nullptr;
    Tick tick_limit_ = 0;
    SchedulerKind backend_{};
    bool has_backend_ = false;
};

class SimSession
{
  public:
    explicit SimSession(SessionConfig cfg = {});
    ~SimSession();

    SimSession(const SimSession &) = delete;
    SimSession &operator=(const SimSession &) = delete;

    /**
     * THE admission path: every chip — session-built, adopted or
     * borrowed, with or without per-chip budget and backend override
     * — enters the batch through here. Returns the chip's index.
     * Not thread-safe vs runAll().
     */
    unsigned admit(ChipSpec &&spec);

    /** Per-chip tick budget override (0 = use runAll()'s budget). */
    void setTickLimit(unsigned i, Tick tick_limit);

    unsigned numChips() const { return unsigned(chips_.size()); }

    arch::Chip &chip(unsigned i) { return *chips_.at(i).chip; }
    const arch::Chip &
    chip(unsigned i) const
    {
        return *chips_.at(i).chip;
    }

    /**
     * Run every chip until it halts or its budget — the per-chip
     * tick limit when set, @p max_ticks otherwise — elapses,
     * spreading chips across the worker pool. With a single chip or
     * an effective pool of one, no threads are spawned at all: the
     * chips run inline on the caller's thread. Returns per-chip
     * results in chip order. May be called repeatedly (chip time
     * accumulates). An error raised inside any chip is rethrown here
     * after all workers drain.
     */
    std::vector<arch::RunResult> runAll(Tick max_ticks = 100'000'000);

    /** Results of the last runAll() (empty before the first). */
    const std::vector<arch::RunResult> &results() const
    {
        return results_;
    }

    /** Aggregate exits, tick totals, and summed chip statistics. */
    SessionStats aggregate() const;

    /** The worker count runAll() will actually use. */
    unsigned effectiveThreads() const;

  private:
    /** One chip of the batch: owned or attached, plus its budget. */
    struct Slot
    {
        arch::Chip *chip = nullptr;
        std::unique_ptr<arch::Chip> owned; //!< null when attached
        Tick tick_limit = 0;               //!< 0 = runAll() budget
    };

    SessionConfig cfg_;
    std::vector<Slot> chips_;
    std::vector<arch::RunResult> results_;
};

} // namespace synchro::sim

#endif // SYNC_SIM_SESSION_HH
