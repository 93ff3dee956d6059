#include "arch/bus.hh"

#include "common/log.hh"

namespace synchro::arch
{

BusFabric::BusFabric(unsigned n_columns, bool strict,
                     bool self_timed)
    : n_columns_(n_columns), strict_(strict),
      self_timed_(self_timed),
      transfers_(stats_.counter("transfers")),
      captures_(stats_.counter("captures")),
      conflicts_(stats_.counter("conflicts")),
      underruns_(stats_.counter("underruns")),
      overruns_(stats_.counter("overruns")),
      deferrals_(stats_.counter("deferrals")),
      wire_span_(stats_.counter("wireSpanSum"))
{
}

namespace
{

/** The tile at a plan slot, or nullptr when the position is empty. */
Tile *
slotTile(const std::vector<ColumnBusView> &views,
         const LanePlan::Slot &s)
{
    return views[s.col].tiles[s.tile];
}

} // namespace

uint64_t
busOutputs(const DouState &st)
{
    uint64_t w = 0;
    for (unsigned t = 0; t < TilesPerColumn; ++t)
        w = (w << 8) | st.buf[t];
    for (unsigned s = 0; s < SegPointsPerColumn; ++s)
        w = (w << 4) | (st.seg[s] & 0xf);
    return w;
}

CyclePlan
planCycle(const std::vector<ColumnBusView> &views)
{
    // Only lanes with at least one scheduled drive do anything — a
    // lane whose gather pass finds no driver performs no bookkeeping
    // in runPlan() (`any_activity`), so restricting the plan to
    // driven lanes is bit-identical. Transfers are sparse (typically
    // one or two lanes per active cycle of eight).
    CyclePlan plan;
    const unsigned n_columns = unsigned(views.size());
    uint32_t drive_lanes = 0;
    for (unsigned c = 0; c < n_columns; ++c) {
        const DouState *st = views[c].state;
        if (!st)
            continue;
        for (unsigned t = 0; t < TilesPerColumn; ++t) {
            if (st->buf[t] == 0)
                continue;
            BufferCtl ctl = BufferCtl::fromByte(st->buf[t]);
            if (ctl.drive)
                drive_lanes |= 1u << ctl.drive_lane;
        }
    }
    if (drive_lanes == 0)
        return plan;

    // Node numbering per lane: column c tile position t -> c*4 + t;
    // the horizontal bus is node n_columns*4.
    const int n_nodes = int(n_columns) * 4 + 1;
    const int h_node = int(n_columns) * 4;
    std::vector<int> parent(n_nodes);
    auto find = [&parent](int x) {
        while (parent[x] != x) {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        return x;
    };
    auto unite = [&](int a, int b) {
        a = find(a);
        b = find(b);
        if (a != b)
            parent[b] = a;
    };

    for (unsigned lane = 0; lane < BusLanes; ++lane) {
        if (!(drive_lanes & (1u << lane)))
            continue;
        unsigned pair_bit = lane / 2;

        // Build connectivity for this lane.
        for (int i = 0; i < n_nodes; ++i)
            parent[i] = i;
        for (unsigned c = 0; c < n_columns; ++c) {
            const DouState *st = views[c].state;
            if (!st)
                continue;
            for (unsigned k = 0; k < 3; ++k) {
                if (st->seg[k] & (1u << pair_bit))
                    unite(int(c * 4 + k), int(c * 4 + k + 1));
            }
            if (st->seg[3] & (1u << pair_bit))
                unite(int(c * 4), h_node);
        }

        LanePlan lp;
        lp.lane = uint8_t(lane);

        // Dense group ids for the segment groups this lane's slots
        // touch (drivers and captures both — a capture in a driverless
        // group still needs a group to look up for underrun checks).
        std::vector<int> group_of(n_nodes, -1);
        auto groupId = [&](int root) {
            if (group_of[root] < 0) {
                group_of[root] = int(lp.group_nodes.size());
                lp.group_nodes.push_back(0);
            }
            return uint16_t(group_of[root]);
        };

        for (unsigned c = 0; c < n_columns; ++c) {
            const DouState *st = views[c].state;
            if (!st)
                continue;
            for (unsigned t = 0; t < TilesPerColumn; ++t) {
                if (st->buf[t] == 0)
                    continue;
                BufferCtl ctl = BufferCtl::fromByte(st->buf[t]);
                LanePlan::Slot s;
                s.col = uint8_t(c);
                s.tile = uint8_t(t);
                if (ctl.drive && ctl.drive_lane == lane) {
                    s.group = groupId(find(int(c * 4 + t)));
                    lp.drivers.push_back(s);
                }
                if (ctl.capture && ctl.capture_lane == lane) {
                    s.group = groupId(find(int(c * 4 + t)));
                    lp.captures.push_back(s);
                }
            }
        }

        // Wire-span accounting input: nodes per referenced group.
        for (int i = 0; i < n_nodes; ++i) {
            int g = group_of[find(i)];
            if (g >= 0)
                ++lp.group_nodes[g];
        }

        plan.push_back(std::move(lp));
    }
    return plan;
}

std::optional<PointTransfer>
pointTransfer(const CyclePlan &plan)
{
    if (plan.size() != 1)
        return std::nullopt;
    const LanePlan &lp = plan.front();
    if (lp.drivers.size() != 1 || lp.captures.size() != 1 ||
        lp.drivers[0].group != lp.captures[0].group)
        return std::nullopt;
    return PointTransfer{lp.lane, lp.drivers[0], lp.captures[0],
                         lp.group_nodes[lp.drivers[0].group]};
}

const CyclePlan &
BusFabric::lookupPlan(const std::vector<ColumnBusView> &views)
{
    plan_key_.resize(n_columns_);
    for (unsigned c = 0; c < n_columns_; ++c) {
        const DouState *st = views[c].state;
        plan_key_[c] = st ? busOutputs(*st) : 0;
    }
    auto it = plan_cache_.find(plan_key_);
    if (it != plan_cache_.end())
        return it->second;
    // Static schedules revisit a handful of combinations; a
    // branch-heavy program could keep minting new ones, so bound the
    // cache rather than grow without limit.
    if (plan_cache_.size() >= 4096)
        plan_cache_.clear();
    return plan_cache_[plan_key_] = planCycle(views);
}

void
BusFabric::cycle(std::vector<ColumnBusView> &views)
{
    sync_assert(views.size() == n_columns_,
                "bus cycle expects %u column views, got %zu",
                n_columns_, views.size());

    // Fast path: on most cycles no DOU drives or captures anything
    // (statically scheduled transfers are sparse), and segment
    // switches without endpoints move no data — skip the per-lane
    // resolution entirely. Bit-identical: with every buffer-control
    // byte zero the plan is empty and counts and delivers nothing.
    bool any_buf = false;
    for (unsigned c = 0; c < n_columns_ && !any_buf; ++c) {
        const DouState *st = views[c].state;
        if (!st)
            continue;
        for (unsigned t = 0; t < TilesPerColumn; ++t) {
            if (st->buf[t] != 0) {
                any_buf = true;
                break;
            }
        }
    }
    if (!any_buf) {
        quietCycle();
        return;
    }
    runPlan(lookupPlan(views), views);
}

void
BusFabric::captureUnderrun(const LanePlan::Slot &s, unsigned lane)
{
    ++underruns_;
    if (strict_ && !self_timed_)
        fatal("bus: tile (%u,%u) captures lane %u "
              "but no driver is connected",
              s.col, s.tile, lane);
}

void
BusFabric::runPlan(const CyclePlan &plan,
                   const std::vector<ColumnBusView> &views)
{
    touched_.clear();
    for (const LanePlan &lp : plan) {
        const unsigned lane = lp.lane;
        const int n_groups = int(lp.group_nodes.size());

        // Gather candidate drivers (peek only: whether the word
        // actually leaves the write buffer is decided below, once
        // the capture side of its group is known). The group
        // scratch is filled only once some write buffer holds a
        // word for this lane — most scheduled slots find none.
        bool any_activity = false;
        bool any_word = false;
        for (const LanePlan::Slot &s : lp.drivers) {
            Tile *tile = slotTile(views, s);
            if (!tile)
                continue;
            any_activity = true;
            if (!tile->writeBuffer().valid()) {
                ++underruns_;
                if (strict_ && !self_timed_)
                    fatal("bus: tile (%u,%u) scheduled to drive "
                          "lane %u with empty write buffer",
                          s.col, s.tile, lane);
                continue;
            }
            int wtag = tile->writeBuffer().laneTag();
            if (wtag >= 0 && unsigned(wtag) != lane) {
                // The pending word belongs to another edge's
                // lane; this slot idles and the word waits for
                // its own slot.
                ++deferrals_;
                continue;
            }
            if (!any_word) {
                group_driver_.assign(n_groups, Driver{});
                any_word = true;
            }
            Driver &d = group_driver_[s.group];
            if (d.present) {
                ++conflicts_;
                d.conflicted = true;
                if (strict_)
                    fatal("bus: structural hazard on lane %u — "
                          "two drivers in one segment group",
                          lane);
                // Non-strict: first driver wins; the late write
                // buffer still drains (the electrical fight is
                // what the conflict counter records).
                tile->writeBuffer().pop();
                touched_.push_back(s.col);
                continue;
            }
            d.present = true;
            d.value = tile->writeBuffer().peek();
            d.src_node = int(s.col) * 4 + s.tile;
            d.src_tile = tile;
        }

        if (!any_activity)
            continue;

        if (!any_word) {
            // No driver anywhere on the lane: every capture finds
            // an empty group.
            for (const LanePlan::Slot &s : lp.captures) {
                if (slotTile(views, s))
                    captureUnderrun(s, lane);
            }
            continue;
        }

        // Self-timed: a transfer delivers only when every scheduled
        // capture in its group can accept the word; otherwise the
        // whole group defers and the driver keeps it for the next
        // slot (Section 2.3's buffers double as the handshake).
        group_deferred_.assign(n_groups, 0);
        if (self_timed_) {
            for (const LanePlan::Slot &s : lp.captures) {
                Tile *tile = slotTile(views, s);
                if (!tile)
                    continue;
                if (group_driver_[s.group].present &&
                    tile->readBuffer(lane).valid())
                    group_deferred_[s.group] = 1;
            }
        }

        // Commit drivers: pop delivered words (crediting their wire
        // span), defer held ones.
        for (int g = 0; g < n_groups; ++g) {
            Driver &d = group_driver_[g];
            if (!d.present)
                continue;
            if (group_deferred_[g]) {
                d.present = false;
                ++deferrals_;
                continue;
            }
            d.src_tile->writeBuffer().pop();
            touched_.push_back(unsigned(d.src_node) / 4);
            ++transfers_;
            wire_span_ += lp.group_nodes[g];
        }

        // Deliver captures into the per-lane read buffers.
        for (const LanePlan::Slot &s : lp.captures) {
            Tile *tile = slotTile(views, s);
            if (!tile)
                continue;
            const Driver &d = group_driver_[s.group];
            if (!d.present) {
                if (!group_deferred_[s.group])
                    captureUnderrun(s, lane);
                continue; // a deferral was already counted
            }
            if (!tile->readBuffer(lane).push(d.value,
                                             int(lane))) {
                // Drop-new: the pending unread word survives and
                // the word on the bus this cycle is the one lost.
                ++overruns_;
                if (strict_)
                    fatal("bus: tile (%u,%u) read buffer overrun "
                          "on lane %u",
                          s.col, s.tile, lane);
            } else {
                touched_.push_back(s.col);
            }
            ++captures_;
        }
    }
}

void
BusFabric::runTransfer(const PointTransfer &x, Tile *driver,
                       Tile *capture)
{
    // runPlan()'s steps for one driver and one capture in one group,
    // in the same order, so counts and fatals come out the same.
    touched_.clear();
    if (!driver)
        return; // no activity on the lane
    const unsigned lane = x.lane;
    CommBuffer &wbuf = driver->writeBuffer();
    bool word = false;
    if (!wbuf.valid()) {
        ++underruns_;
        if (strict_ && !self_timed_)
            fatal("bus: tile (%u,%u) scheduled to drive "
                  "lane %u with empty write buffer",
                  x.driver.col, x.driver.tile, lane);
    } else if (wbuf.laneTag() >= 0 && unsigned(wbuf.laneTag()) != lane) {
        ++deferrals_;
    } else {
        word = true;
    }
    if (!word) {
        if (capture)
            captureUnderrun(x.capture, lane);
        return;
    }
    if (self_timed_ && capture && capture->readBuffer(lane).valid()) {
        ++deferrals_;
        return;
    }
    const uint32_t value = wbuf.pop();
    touched_.push_back(x.driver.col);
    ++transfers_;
    wire_span_ += x.span;
    if (!capture)
        return;
    if (!capture->readBuffer(lane).push(value, int(lane))) {
        ++overruns_;
        if (strict_)
            fatal("bus: tile (%u,%u) read buffer overrun on lane %u",
                  x.capture.col, x.capture.tile, lane);
    } else {
        touched_.push_back(x.capture.col);
    }
    ++captures_;
}

} // namespace synchro::arch
