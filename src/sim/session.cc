#include "sim/session.hh"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "common/log.hh"
#include "sim/scheduler.hh"

namespace synchro::sim
{

SimSession::SimSession(SessionConfig cfg) : cfg_(cfg) {}

SimSession::~SimSession() = default;

unsigned
SimSession::admit(ChipSpec &&spec)
{
    Slot slot;
    if (spec.cfg_) {
        // Session-built: a backend override folds into the config
        // before construction instead of re-homing afterwards.
        arch::ChipConfig cfg = *spec.cfg_;
        if (spec.has_backend_)
            cfg.scheduler = spec.backend_;
        slot.owned = std::make_unique<arch::Chip>(cfg);
        slot.chip = slot.owned.get();
    } else if (spec.owned_) {
        slot.owned = std::move(spec.owned_);
        slot.chip = slot.owned.get();
    } else if (spec.borrowed_ != nullptr) {
        slot.chip = spec.borrowed_;
    } else {
        fatal("SimSession::admit: ChipSpec holds no chip (moved-"
              "from or null unique_ptr)");
    }
    if (spec.has_backend_ && !spec.cfg_)
        slot.chip->setSchedulerKind(spec.backend_);
    slot.tick_limit = spec.tick_limit_;
    chips_.push_back(std::move(slot));
    return unsigned(chips_.size() - 1);
}

void
SimSession::setTickLimit(unsigned i, Tick tick_limit)
{
    chips_.at(i).tick_limit = tick_limit;
}

unsigned
SimSession::effectiveThreads() const
{
    unsigned hw = std::thread::hardware_concurrency();
    unsigned want = cfg_.threads != 0 ? cfg_.threads
                                      : (hw != 0 ? hw : 1);
    unsigned chips = unsigned(chips_.size());
    if (chips == 0)
        return 0;
    return std::min(want, chips);
}

std::vector<arch::RunResult>
SimSession::runAll(Tick max_ticks)
{
    results_.assign(chips_.size(),
                    arch::RunResult{arch::RunExit::TickLimit, 0});
    if (chips_.empty())
        return results_;

    auto budget = [&](size_t i) {
        return chips_[i].tick_limit != 0 ? chips_[i].tick_limit
                                         : max_ticks;
    };

    // Single chip or pool_size == 1: run on the caller's thread —
    // no pool, no atomics, and errors propagate directly from the
    // failing chip instead of through an exception_ptr relay.
    if (effectiveThreads() <= 1) {
        for (size_t i = 0; i < chips_.size(); ++i)
            results_[i] = chips_[i].chip->run(budget(i));
        return results_;
    }

    // Chips are fully isolated simulations, so a dynamic work queue
    // is safe: whichever thread picks a chip up runs it start to
    // finish, and per-chip results do not depend on the assignment.
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex err_mu;
    std::exception_ptr first_error;

    auto worker = [&] {
        // Nested-parallelism policy: pool workers mark themselves so
        // ParallelColumns chips with an automatic team size run
        // serially here instead of stacking a column team on top of
        // the chip pool. (The inline path above runs on the caller's
        // thread and keeps whatever team the caller is entitled to.)
        WorkerPoolScope in_pool;
        while (!failed.load(std::memory_order_relaxed)) {
            size_t i = next.fetch_add(1);
            if (i >= chips_.size())
                return;
            try {
                results_[i] = chips_[i].chip->run(budget(i));
            } catch (...) {
                // Stop the pool at the next chip boundary: the whole
                // batch is abandoned once any chip errors.
                failed.store(true, std::memory_order_relaxed);
                std::lock_guard<std::mutex> lock(err_mu);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    };

    unsigned n_threads = effectiveThreads();
    std::vector<std::thread> pool;
    pool.reserve(n_threads);
    for (unsigned t = 0; t < n_threads; ++t)
        pool.emplace_back(worker);
    for (auto &th : pool)
        th.join();

    if (first_error)
        std::rethrow_exception(first_error);
    return results_;
}

SessionStats
SimSession::aggregate() const
{
    SessionStats s;
    s.chips = chips_.size();
    for (size_t i = 0; i < chips_.size(); ++i) {
        if (i < results_.size()) {
            const arch::RunResult &r = results_[i];
            switch (r.exit) {
              case arch::RunExit::AllHalted:
                ++s.halted;
                break;
              case arch::RunExit::TickLimit:
                ++s.tick_limited;
                break;
              case arch::RunExit::Deadlock:
                ++s.deadlocked;
                break;
            }
            s.max_ticks_reached = std::max(s.max_ticks_reached,
                                           r.ticks);
            s.total_ticks += r.ticks;
        }
        chips_[i].chip->forEachStat(
            [&s](const std::string &name, uint64_t value) {
                s.counters[name] += value;
            });
    }
    return s;
}

} // namespace synchro::sim
