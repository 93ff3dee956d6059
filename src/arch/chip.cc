#include "arch/chip.hh"

#include <algorithm>

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
    if (!following_) {
        // All DOU outputs belong to the same cycle: resolve the
        // fabric against every column's current state, then step
        // every DOU. Stepping notes whether any DOU's next state
        // drives or captures; on most cycles none does, and then
        // nothing moves.
        if (dou_active_) {
            for (unsigned c = 0; c < columns_.size(); ++c)
                views_[c].state = &columns_[c]->dou().current();
            fabric_.cycle(views_);
        } else {
            fabric_.quietCycle();
        }
        bool active = false;
        for (auto &col : columns_) {
            col->dou().step();
            active |= col->dou().current().drivesOrCaptures();
        }
        dou_active_ = active;
        return;
    }
    const BusTimeline::Node &node = cursor_timeline_->node(cursor_.node);
    if (cursor_.used < node.gap) {
        ++cursor_.used;
        fabric_.quietCycle();
    } else {
        // The cursor moves only once the cycle ran: a strict-mode
        // fatal leaves the DOUs before the active phase, as stepping
        // them would.
        fabric_.runPlan(cursor_timeline_->plan(node), views_);
        cursor_ = {node.next, 0};
    }
    ++cursor_phases_;
}

Tick
Chip::domainEdgeBlock(unsigned d, Tick max_slots)
{
    return columns_[d]->clockEdgeBlock(max_slots);
}

Tick
Chip::commFreeAdvance(Tick max)
{
    const Tick k = commQuiet(max);
    cursor_.used += k;
    cursor_phases_ += k;
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
    if (!following_)
        return 0;
    const BusTimeline::Node &node = cursor_timeline_->node(cursor_.node);
    return std::min(max, node.gap - cursor_.used);
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

std::shared_ptr<const BusTimeline>
Chip::busTimeline() const
{
    std::lock_guard<std::mutex> lk(timeline_mu_);
    bool current = timeline_ != nullptr;
    for (unsigned c = 0; current && c < columns_.size(); ++c)
        current = timeline_->programs()[c] == columns_[c]->dou().program();
    if (!current) {
        std::vector<std::shared_ptr<const DouProgram>> programs;
        for (const auto &col : columns_)
            programs.push_back(col->dou().program());
        timeline_ = std::make_shared<BusTimeline>(std::move(programs));
    }
    return timeline_;
}

void
Chip::followTimeline()
{
    following_ = false;
    if (cfg_.scheduler == SchedulerKind::EventQueue)
        return;
    std::shared_ptr<const BusTimeline> tl = busTimeline();
    if (!tl->ready())
        return;
    std::vector<DouPosition> pos;
    for (const auto &col : columns_)
        pos.push_back(col->dou().position());
    if (tl != cursor_timeline_ || pos != placed_) {
        // Not where the last run left the DOUs (a fresh, restarted
        // or reloaded chip): enter the node whose gap starts here,
        // or step the DOUs literally if there is none.
        if (!tl->find(pos, cursor_))
            return;
        cursor_timeline_ = std::move(tl);
    }
    following_ = true;
    cursor_phases_ = 0;
}

void
Chip::placeDous()
{
    if (!following_)
        return;
    following_ = false;
    cursor_timeline_->positionAt(cursor_, placed_);
    for (unsigned c = 0; c < columns_.size(); ++c)
        columns_[c]->dou().place(placed_[c], cursor_phases_);
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
    copy->timeline_ = busTimeline();
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

    followTimeline();
    dou_active_ = false;
    for (const auto &col : columns_)
        dou_active_ |= col->dou().current().drivesOrCaptures();
    SchedStop stop;
    try {
        stop = sched_->run(*this, max_ticks);
    } catch (...) {
        placeDous();
        throw;
    }
    placeDous();

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
