#include "arch/chip.hh"

#include <algorithm>

#include "common/log.hh"
#include "sim/walks.hh"

namespace synchro::arch
{

Chip::Chip(const ChipConfig &cfg)
    : cfg_(cfg),
      sched_(makeSchedulerFor<Chip>(cfg.scheduler, cfg.parallel_columns)),
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
    if (following_) {
        refPhaseRun(1);
        return;
    }
    // All DOU outputs belong to the same cycle: resolve the fabric
    // against every column's current state, then step every DOU.
    // Stepping notes whether any DOU's next state drives or
    // captures; on most cycles none does, and then nothing moves.
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
}

Tick
Chip::refPhaseRun(Tick max)
{
    if (!following_)
        return SchedModel::refPhaseRun(max);
    Tick k = 0;
    while (true) {
        // The node's gap left, in closed form...
        const BusTimeline::Node &node =
            cursor_timeline_->node(cursor_.node);
        const Tick quiet = std::min(max - k, node.gap - cursor_.used);
        if (quiet > 0) {
            cursor_.used += quiet;
            cursor_phases_ += quiet;
            k += quiet;
            fabric_.quietCycle();
            if (k == max)
                return k;
        }
        // ...then the active phase ending it: one scalar transfer
        // when its plan is point-to-point. The cursor moves only once
        // the phase ran: a strict-mode fatal leaves the DOUs before
        // it, as stepping them would.
        const TransferTiles &x = transfer_tiles_[node.plan];
        if (x.single)
            fabric_.runTransfer(x.transfer, x.driver, x.capture);
        else
            fabric_.runPlan(cursor_timeline_->plan(node), views_);
        cursor_ = {node.next, 0};
        ++cursor_phases_;
        if (++k == max || !fabric_.touchedColumns().empty())
            return k;
    }
}

Tick
Chip::domainEdgeBlock(unsigned d, Tick max_slots, Tick comm_slots)
{
    return columns_[d]->clockEdgeBlock(max_slots, comm_slots);
}

Tick
Chip::domainCommHorizon(unsigned d) const
{
    // Only an active phase whose plan names a column changes its
    // buffers (BusFabric::runPlan); the cursor names the pending one.
    if (!horizons_)
        return 0;
    const Tick h = horizons_[cursor_.node * columns_.size() + d];
    return h == MaxTick ? MaxTick : h - cursor_.used;
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
    horizons_ = nullptr;
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
    if (cfg_.scheduler == SchedulerKind::Compiled)
        horizons_ = cursor_timeline_->commHorizons();

    // Resolve every point-to-point phase's tiles for this run.
    const BusTimeline &timeline = *cursor_timeline_;
    transfer_tiles_.assign(timeline.numPlans(), TransferTiles{});
    for (uint32_t p = 0; p < timeline.numPlans(); ++p) {
        const std::optional<PointTransfer> &x = timeline.transfer(p);
        if (!x)
            continue;
        const auto &drivers = views_[x->driver.col].tiles;
        const auto &captures = views_[x->capture.col].tiles;
        transfer_tiles_[p] = {true, *x, drivers[x->driver.tile],
                              captures[x->capture.tile]};
    }
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
    sched_ = makeSchedulerFor<Chip>(cfg_.scheduler, cfg_.parallel_columns);
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
    // views once here (followTimeline() resolves its transfers'
    // tiles from them).
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

template <typename Fn>
void
Chip::forEachStatGroup(Fn &&fn) const
{
    fn([] { return std::string("bus."); }, fabric_.stats());
    for (unsigned c = 0; c < columns_.size(); ++c) {
        const Column &col = *columns_[c];
        fn([c] { return strprintf("col%u.ctrl.", c); },
           col.controller().stats());
        fn([c] { return strprintf("col%u.dou.", c); },
           col.dou().stats());
        for (unsigned t = 0; t < col.numTiles(); ++t) {
            fn([c, t] { return strprintf("col%u.tile%u.", c, t); },
               col.tile(t).stats());
        }
    }
}

void
Chip::forEachStat(
    const std::function<void(const std::string &, uint64_t)> &fn)
    const
{
    forEachStatGroup([&fn](auto prefix, const StatGroup &g) {
        const std::string p = prefix();
        for (const auto &kv : g.all())
            fn(p + kv.first, kv.second.value());
    });
}

void
Chip::sumStats(std::vector<uint64_t> &sums) const
{
    size_t n = 0;
    forEachStatGroup([&n](auto, const StatGroup &g) {
        n += g.all().size();
    });
    if (sums.empty())
        sums.assign(n, 0);
    if (sums.size() != n)
        fatal("Chip::sumStats: %zu sums for %zu statistics",
              sums.size(), n);
    uint64_t *out = sums.data();
    forEachStatGroup([&out](auto, const StatGroup &g) {
        for (const auto &kv : g.all())
            *out++ += kv.second.value();
    });
}

} // namespace synchro::arch
