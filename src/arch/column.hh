/**
 * @file
 * A Synchroscalar column: four tiles, one SIMD controller, one DOU,
 * one clock divider, one supply voltage (paper Figure 1). The column
 * is the unit of frequency/voltage assignment — "each column of four
 * tiles is supported by a specific clock generator and voltage and
 * are configured at startup".
 */

#ifndef SYNC_ARCH_COLUMN_HH
#define SYNC_ARCH_COLUMN_HH

#include <array>
#include <memory>
#include <vector>

#include "arch/dou.hh"
#include "arch/simd_controller.hh"
#include "arch/tile.hh"
#include "sim/clock.hh"

namespace synchro::arch
{

class Column
{
  public:
    /**
     * @param id       column index on the chip
     * @param n_tiles  populated tile positions (1..4)
     * @param clock    this column's divided clock domain
     */
    Column(unsigned id, unsigned n_tiles, ClockDomain clock);

    unsigned id() const { return id_; }
    unsigned numTiles() const { return unsigned(tiles_.size()); }

    Tile &tile(unsigned i) { return *tiles_.at(i); }
    const Tile &tile(unsigned i) const { return *tiles_.at(i); }

    SimdController &controller() { return ctrl_; }
    const SimdController &controller() const { return ctrl_; }
    Dou &dou() { return dou_; }
    const Dou &dou() const { return dou_; }

    const ClockDomain &clock() const { return clock_; }

    /**
     * Replace this column's clock divider (same reference, same
     * phase) — the DVFS governor's per-column retune primitive.
     * Callers must hold the chip at a statically-safe
     * reconfiguration point (arch::Chip::retune() enforces this);
     * the domain's future edges derive from the new divider the
     * next time a scheduler arms them.
     */
    void
    retuneClock(unsigned divider)
    {
        clock_ =
            ClockDomain(clock_.refFreqHz(), divider, clock_.phase());
    }

    /**
     * Enable/disable a tile at startup. Disabled (idle) tiles are
     * supply-gated: they execute nothing and contribute no power
     * (paper Sections 2.2 and 4.4).
     */
    void setTileActive(unsigned i, bool active);
    bool tileActive(unsigned i) const { return active_.at(i); }

    /** The active tiles, in position order. */
    const std::vector<Tile *> &
    activeTiles() const
    {
        return active_tiles_;
    }

    /** One column clock edge: the controller issues one slot. */
    void clockEdge();

    /**
     * Up to @p max_slots consecutive issue slots executed as one
     * compiled block (SimdController::cycleBlock), comm ops only in
     * the first @p comm_slots. Returns the slots consumed; 0 means
     * the caller must fall back to clockEdge().
     */
    Tick clockEdgeBlock(Tick max_slots, Tick comm_slots);

    /** The next slot stalls on a comm hazard (SimdController). */
    bool commStalled() const { return ctrl_.commStalled(active_tiles_); }

    /**
     * Credit @p slots stall slots of a comm-stalled column
     * (SimdController::stallCredit); the caller proved the hazard
     * holds for all of them.
     */
    void stallCredit(Tick slots);

    /** Pointers for the bus fabric, by position (nullptr if absent). */
    std::array<Tile *, TilesPerColumn> busTiles();

    bool halted() const { return ctrl_.halted(); }

    /** Column clock edges seen so far (issue slots). */
    uint64_t cyclesSeen() const { return cycles_seen_; }

    void reset();

    /**
     * Snapshot @p other's programmed state into this column:
     * controller, DOU, every tile (including SRAM) and the tile
     * supply-gating flags. Statistics are NOT copied. The columns
     * must have the same tile population; Chip::clone() drives this.
     */
    void copyStateFrom(const Column &other);

  private:
    void rebuildActive();

    unsigned id_;
    ClockDomain clock_;
    std::vector<std::unique_ptr<Tile>> tiles_;
    std::vector<bool> active_;
    std::vector<Tile *> active_tiles_;
    SimdController ctrl_;
    Dou dou_;
    uint64_t cycles_seen_ = 0;
};

} // namespace synchro::arch

#endif // SYNC_ARCH_COLUMN_HH
