/**
 * @file
 * A chip's bus schedule, resolved once.
 *
 * A DOU is a statically programmed state machine clocked at the bus
 * frequency (Section 2.3): it never reads data, so once the DOU
 * programs are loaded, every bus cycle's outputs — which tiles drive
 * or capture on which lanes, and how the segment switches connect
 * them — are fixed for all time. The joint machine of a chip's DOUs
 * starts at reset and is eventually periodic. BusTimeline walks it
 * once and stores the result as a short cyclic list of nodes: the
 * joint position entering a quiet gap (no DOU drives or captures),
 * the gap's length, and the resolved CyclePlan of the active phase
 * that ends it. The fast backends then follow a cursor through the
 * list instead of stepping every DOU and looking up a bus plan on
 * every reference phase.
 *
 * A timeline depends only on the DOU programs, so the chips cloned
 * from one template share one, built at most once. The static
 * verifier builds the same timeline from a lowered artifact's
 * programs and proves it against the artifact's schedules.
 */

#ifndef SYNC_ARCH_BUS_TIMELINE_HH
#define SYNC_ARCH_BUS_TIMELINE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "arch/bus.hh"
#include "arch/dou.hh"
#include "sim/types.hh"

namespace synchro::arch
{

class BusTimeline
{
  public:
    /** A quiet gap and the active phase that ends it. */
    struct Node
    {
        Tick gap = 0;      //!< quiet phases; MaxTick = the gap never ends
        uint32_t plan = 0; //!< the active phase's plan (see plan())
        uint32_t next = 0; //!< node entered after the active phase
    };

    /** A place in the schedule: a node and the gap phases used. */
    struct Cursor
    {
        uint32_t node = 0;
        Tick used = 0; //!< <= the node's gap; == gap: active next
    };

    /**
     * The longest schedule kept: a joint period that does not close
     * within this many nodes leaves the chip stepping its DOUs. The
     * verifier rejects a lowered artifact whose timeline does not
     * close, so only hand-written DOU programs step literally.
     */
    static constexpr size_t MaxNodes = 4096;

    /**
     * Comm-free transitions the build may walk one at a time (wait
     * state exits and generic steps; inert self-loops are free). A
     * schedule that needs more also falls back to stepping.
     */
    static constexpr uint64_t WalkBudget = uint64_t(1) << 20;

    /**
     * An unbuilt timeline for one column program each; every program
     * must be well-formed (DouProgram::malformed() empty, as
     * Dou::load() enforces).
     */
    explicit BusTimeline(
        std::vector<std::shared_ptr<const DouProgram>> programs);

    /** The programs this timeline resolves, by column. */
    const std::vector<std::shared_ptr<const DouProgram>> &
    programs() const
    {
        return programs_;
    }

    /**
     * Build on the first call — once, safe to race from several
     * threads — and report whether the schedule closed within the
     * node bound and the walk budget.
     */
    bool ready() const;

    /** @name Valid once ready() returned true. @{ */
    const Node &node(uint32_t i) const { return nodes_[i]; }
    const CyclePlan &plan(const Node &n) const { return plans_[n.plan]; }
    size_t numNodes() const { return nodes_.size(); }

    /** Distinct active-phase plans; Node::plan indexes them. */
    size_t numPlans() const { return plans_.size(); }

    /** Plan @p p as one point-to-point transfer, if it is one. */
    const std::optional<PointTransfer> &
    transfer(uint32_t p) const
    {
        return transfers_[p];
    }

    /**
     * The cursor of joint DOU position @p pos (one per column) when
     * a node's gap starts there; false if no node does.
     */
    bool find(const std::vector<DouPosition> &pos, Cursor &out) const;

    /** The joint DOU position at @p cur, into @p out. */
    void positionAt(Cursor cur, std::vector<DouPosition> &out) const;

    /**
     * Each column's bus horizon, by node: entry [n * columns + c]
     * counts the reference phases from node n's first gap phase
     * through the next active phase whose plan names column c
     * (drives or captures one of its tiles); MaxTick when none ever
     * does. runPlan changes only the buffers of the tiles its plan
     * names, so from cursor cur, c's comm buffers change in none of
     * the next entry - cur.used phases but the last. Built on the
     * first call — once, safe to race — so only the backends that
     * ask pay for it.
     */
    const Tick *commHorizons() const;
    /** @} */

  private:
    void build() const;
    void buildHorizons() const;

    const std::vector<std::shared_ptr<const DouProgram>> programs_;

    // Filled once by build(), under once_; read-only afterwards:
    // the nodes, each node's start position (one per column), the
    // plans of the distinct active phases and the point-to-point
    // transfer each one is (if it is one), and the node index of
    // every start position.
    mutable std::once_flag once_;
    mutable bool ok_ = false;
    mutable std::vector<Node> nodes_;
    mutable std::vector<DouPosition> starts_;
    mutable std::vector<CyclePlan> plans_;
    mutable std::vector<std::optional<PointTransfer>> transfers_;
    mutable std::map<std::vector<uint32_t>, uint32_t> index_;

    // Filled once by buildHorizons(), under horizons_once_.
    mutable std::once_flag horizons_once_;
    mutable std::vector<Tick> horizons_;
};

} // namespace synchro::arch

#endif // SYNC_ARCH_BUS_TIMELINE_HH
