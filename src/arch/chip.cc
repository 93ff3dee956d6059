#include "arch/chip.hh"

#include "common/log.hh"

namespace synchro::arch
{

Chip::Chip(const ChipConfig &cfg)
    : cfg_(cfg),
      sched_(makeScheduler(cfg.scheduler, cfg.parallel_columns)),
      fabric_(unsigned(cfg.dividers.size()), cfg.strict,
              cfg.self_timed_bus)
{
    if (cfg.dividers.empty())
        fatal("chip needs at least one column");
    if (!cfg.phases.empty() &&
        cfg.phases.size() != cfg.dividers.size()) {
        fatal("chip config has %zu phases for %zu columns",
              cfg.phases.size(), cfg.dividers.size());
    }
    for (unsigned c = 0; c < cfg.dividers.size(); ++c) {
        Tick phase = cfg.phases.empty() ? 0 : cfg.phases[c];
        ClockDomain dom(cfg.ref_freq_mhz * 1e6, cfg.dividers[c],
                        phase);
        columns_.push_back(std::make_unique<Column>(
            c, cfg.tiles_per_column, dom));
    }
}

const ClockDomain &
Chip::domainClock(unsigned d) const
{
    return columns_[d]->clock();
}

bool
Chip::domainHalted(unsigned d) const
{
    return columns_[d]->halted();
}

void
Chip::domainEdge(unsigned d)
{
    columns_[d]->clockEdge();
}

void
Chip::refPhase()
{
    // All DOU outputs belong to the same cycle: resolve the fabric
    // against every column's current state, then step every DOU.
    for (unsigned c = 0; c < columns_.size(); ++c)
        views_[c].state = &columns_[c]->dou().current();
    fabric_.cycle(views_);
    for (auto &col : columns_)
        col->dou().step();
}

Tick
Chip::domainEdgeBlock(unsigned d, Tick max_slots)
{
    return columns_[d]->clockEdgeBlock(max_slots);
}

Tick
Chip::commFreeAdvance(Tick max)
{
    // A window of reference phases can be skipped iff every column's
    // DOU walk through it touches no drive/capture state. Take the
    // minimum comm-free run across columns, then commit it everywhere
    // so all DOUs stay on the same tick.
    Tick k = max;
    for (auto &col : columns_) {
        k = Tick(col->dou().commFreeRun(k));
        if (k == 0)
            return 0;
    }
    for (auto &col : columns_)
        col->dou().fastForwardCommFree(k);
    return k;
}

bool
Chip::domainCommStalled(unsigned d) const
{
    return columns_[d]->commStalled();
}

void
Chip::domainStallCredit(unsigned d, Tick slots)
{
    columns_[d]->stallCredit(slots);
}

const std::vector<unsigned> &
Chip::refPhaseTouched() const
{
    // Only the fabric moves words between columns; a column's own
    // issue slots are the one other writer of its buffers.
    return fabric_.touchedColumns();
}

Tick
Chip::commQuiet(Tick max) const
{
    Tick k = max;
    for (const auto &col : columns_) {
        k = Tick(col->dou().commFreeRun(k));
        if (k == 0)
            return 0;
    }
    return k;
}

Tick
Chip::domainStallBlock(unsigned d, Tick max_slots)
{
    return columns_[d]->stallBlock(max_slots);
}

bool
Chip::domainsIndependent() const
{
    // Issue slots touch only the column's own tiles and comm
    // buffers; the bus fabric — the one piece of cross-column state
    // — moves nothing inside a window proven by commQuiet(). So
    // between delivery slots, columns are free-running islands.
    return true;
}

void
Chip::domainRefAdvance(unsigned d, Tick n)
{
    // Column d's share of n comm-free reference phases: the fabric
    // contributes nothing (all buffer controls are zero for the
    // whole window), leaving only this column's DOU walk. The
    // scheduler's commQuiet() probe already proved the walk stays
    // comm-free for >= n cycles.
    columns_[d]->dou().fastForwardCommFree(n);
}

void
Chip::setSchedulerKind(SchedulerKind kind)
{
    if (kind == cfg_.scheduler)
        return;
    if (sched_->curTick() != 0)
        fatal("cannot switch scheduler backend at tick %llu; the "
              "chip has already run",
              (unsigned long long)sched_->curTick());
    cfg_.scheduler = kind;
    sched_ = makeScheduler(kind, cfg_.parallel_columns);
}

std::unique_ptr<Chip>
Chip::clone() const
{
    return clone(cfg_.scheduler);
}

std::unique_ptr<Chip>
Chip::clone(SchedulerKind scheduler) const
{
    if (sched_->curTick() != 0)
        fatal("Chip::clone at tick %llu: snapshot/clone is only "
              "defined for a programmed chip that has not run yet",
              (unsigned long long)sched_->curTick());
    ChipConfig cfg = cfg_;
    cfg.scheduler = scheduler;
    auto copy = std::make_unique<Chip>(cfg);
    for (unsigned c = 0; c < columns_.size(); ++c)
        copy->columns_[c]->copyStateFrom(*columns_[c]);
    return copy;
}

void
Chip::restart()
{
    resetColumns();
    sched_ = makeScheduler(cfg_.scheduler, cfg_.parallel_columns);
}

bool
Chip::atReconfigPoint() const
{
    return sched_->curTick() == 0 || allHalted();
}

void
Chip::retune(const std::vector<unsigned> &dividers)
{
    if (dividers.size() != columns_.size()) {
        fatal("Chip::retune: %zu dividers for %zu columns",
              dividers.size(), columns_.size());
    }
    if (!atReconfigPoint()) {
        fatal("Chip::retune at tick %llu: divider changes are only "
              "safe at a reconfiguration point (tick 0 or a fully "
              "drained chip)",
              (unsigned long long)sched_->curTick());
    }
    for (unsigned c = 0; c < columns_.size(); ++c)
        columns_[c]->retuneClock(dividers[c]);
    cfg_.dividers = dividers;
}

bool
Chip::allHalted() const
{
    for (const auto &col : columns_) {
        if (!col->halted())
            return false;
    }
    return true;
}

RunResult
Chip::run(Tick max_ticks)
{
    if (allHalted())
        return {RunExit::AllHalted, sched_->curTick()};

    // Tile population only changes between runs; refresh the bus
    // views once here instead of re-allocating them every tick.
    views_.resize(columns_.size());
    for (unsigned c = 0; c < columns_.size(); ++c)
        views_[c].tiles = columns_[c]->busTiles();

    SchedStop stop = sched_->run(*this, max_ticks);

    RunExit exit = RunExit::TickLimit;
    switch (stop) {
      case SchedStop::AllHalted:
        exit = RunExit::AllHalted;
        break;
      case SchedStop::Idle:
        exit = RunExit::Deadlock;
        break;
      case SchedStop::TickLimit:
        exit = RunExit::TickLimit;
        break;
    }
    return {exit, sched_->curTick()};
}

void
Chip::resetColumns()
{
    for (auto &col : columns_)
        col->reset();
}

void
Chip::forEachStat(
    const std::function<void(const std::string &, uint64_t)> &fn)
    const
{
    for (const auto &kv : fabric_.stats().all())
        fn("bus." + kv.first, kv.second.value());
    for (unsigned c = 0; c < columns_.size(); ++c) {
        const Column &col = *columns_[c];
        std::string prefix = strprintf("col%u.", c);
        for (const auto &kv : col.controller().stats().all())
            fn(prefix + "ctrl." + kv.first, kv.second.value());
        for (const auto &kv : col.dou().stats().all())
            fn(prefix + "dou." + kv.first, kv.second.value());
        for (unsigned t = 0; t < col.numTiles(); ++t) {
            std::string tprefix = prefix + strprintf("tile%u.", t);
            for (const auto &kv : col.tile(t).stats().all())
                fn(tprefix + kv.first, kv.second.value());
        }
    }
}

} // namespace synchro::arch
