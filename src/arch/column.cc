#include "arch/column.hh"

#include "common/log.hh"

namespace synchro::arch
{

Column::Column(unsigned id, unsigned n_tiles, ClockDomain clock)
    : id_(id), clock_(clock), ctrl_(id)
{
    if (n_tiles == 0 || n_tiles > TilesPerColumn)
        fatal("column %u: %u tiles requested; hardware has 1..%u", id,
              n_tiles, TilesPerColumn);
    for (unsigned i = 0; i < n_tiles; ++i)
        tiles_.push_back(std::make_unique<Tile>(id, i));
    active_.assign(n_tiles, true);
    rebuildActive();
}

void
Column::setTileActive(unsigned i, bool active)
{
    active_.at(i) = active;
    rebuildActive();
}

void
Column::rebuildActive()
{
    active_tiles_.clear();
    for (unsigned i = 0; i < tiles_.size(); ++i) {
        if (active_[i])
            active_tiles_.push_back(tiles_[i].get());
    }
}

void
Column::clockEdge()
{
    ++cycles_seen_;
    ctrl_.cycle(active_tiles_);
}

Tick
Column::clockEdgeBlock(Tick max_slots, Tick comm_slots)
{
    Tick k = ctrl_.cycleBlock(active_tiles_, max_slots, comm_slots);
    cycles_seen_ += k;
    return k;
}

void
Column::stallCredit(Tick slots)
{
    ctrl_.stallCredit(slots);
    cycles_seen_ += slots;
}

std::array<Tile *, TilesPerColumn>
Column::busTiles()
{
    std::array<Tile *, TilesPerColumn> out{};
    for (unsigned i = 0; i < tiles_.size(); ++i) {
        if (active_[i])
            out[i] = tiles_[i].get();
    }
    return out;
}

void
Column::copyStateFrom(const Column &other)
{
    sync_assert(tiles_.size() == other.tiles_.size(),
                "column %u: copyStateFrom across tile populations "
                "(%zu vs %zu)",
                id_, tiles_.size(), other.tiles_.size());
    ctrl_.copyStateFrom(other.ctrl_);
    dou_.copyStateFrom(other.dou_);
    for (unsigned i = 0; i < tiles_.size(); ++i)
        tiles_[i]->copyStateFrom(*other.tiles_[i]);
    active_ = other.active_;
    rebuildActive();
    cycles_seen_ = other.cycles_seen_;
}

void
Column::reset()
{
    ctrl_.reset();
    dou_.reset();
    cycles_seen_ = 0;
    for (auto &t : tiles_)
        t->resetState();
}

} // namespace synchro::arch
