#include "arch/bus_timeline.hh"

#include <utility>

#include "common/log.hh"

namespace synchro::arch
{

namespace
{

/** Key of a joint position: state and counters of every column. */
std::vector<uint32_t>
positionKey(const DouPosition *pos, size_t n)
{
    std::vector<uint32_t> key;
    key.reserve(n * (1 + DouNumCounters));
    for (size_t c = 0; c < n; ++c) {
        key.push_back(pos[c].state);
        key.insert(key.end(), pos[c].counters.begin(),
                   pos[c].counters.end());
    }
    return key;
}

} // namespace

BusTimeline::BusTimeline(
    std::vector<std::shared_ptr<const DouProgram>> programs)
    : programs_(std::move(programs))
{
}

bool
BusTimeline::ready() const
{
    std::call_once(once_, [this] { build(); });
    return ok_;
}

void
BusTimeline::build() const
{
    const size_t n = programs_.size();
    std::vector<DouPosition> pos(n);
    for (size_t c = 0; c < n; ++c)
        pos[c] = programs_[c]->resetPosition();
    std::vector<ColumnBusView> views(n);
    std::map<std::vector<uint64_t>, uint32_t> plan_of; // outputs -> plan
    std::vector<uint64_t> outputs(n);
    uint64_t budget = WalkBudget;

    while (true) {
        auto [at, fresh] = index_.emplace(positionKey(pos.data(), n),
                                          uint32_t(nodes_.size()));
        if (!fresh) {
            // The joint position repeats: the schedule is periodic
            // from here on.
            nodes_.back().next = at->second;
            ok_ = true;
            return;
        }
        if (nodes_.size() == MaxNodes)
            return;
        starts_.insert(starts_.end(), pos.begin(), pos.end());

        // The gap is the shortest comm-free run over the columns.
        // Each column is probed up to the shortest run so far, so the
        // later walks cost at most what the probes already proved.
        Node node;
        node.gap = MaxTick;
        for (size_t c = 0; c < n; ++c) {
            DouPosition probe = pos[c];
            node.gap = programs_[c]->walkCommFree(probe, node.gap, budget);
            if (budget == 0)
                return;
        }
        if (node.gap == MaxTick) {
            // Every DOU is parked in an inert self-loop: nothing
            // will ever drive or capture again.
            node.next = uint32_t(nodes_.size());
            nodes_.push_back(node);
            ok_ = true;
            return;
        }
        for (size_t c = 0; c < n; ++c) {
            uint64_t unlimited = MaxTick;
            programs_[c]->walkCommFree(pos[c], node.gap, unlimited);
        }

        // The active phase that ends the gap: resolve its plan (one
        // per distinct output combination), then step every DOU.
        for (size_t c = 0; c < n; ++c) {
            views[c].state = &programs_[c]->states[pos[c].state];
            outputs[c] = busOutputs(*views[c].state);
        }
        auto [plan, new_plan] =
            plan_of.try_emplace(outputs, uint32_t(plans_.size()));
        if (new_plan) {
            plans_.push_back(planCycle(views));
            transfers_.push_back(pointTransfer(plans_.back()));
        }
        node.plan = plan->second;
        for (size_t c = 0; c < n; ++c)
            programs_[c]->step(pos[c]);
        node.next = uint32_t(nodes_.size() + 1);
        nodes_.push_back(node);
    }
}

const Tick *
BusTimeline::commHorizons() const
{
    sync_assert(ready(), "bus horizons of a timeline that did not close");
    std::call_once(horizons_once_, [this] { buildHorizons(); });
    return horizons_.data();
}

void
BusTimeline::buildHorizons() const
{
    const size_t n = programs_.size();
    std::vector<std::vector<char>> names(plans_.size(),
                                         std::vector<char>(n, 0));
    for (size_t p = 0; p < plans_.size(); ++p) {
        for (const LanePlan &lp : plans_[p]) {
            for (const LanePlan::Slot &s : lp.drivers)
                names[p][s.col] = 1;
            for (const LanePlan::Slot &s : lp.captures)
                names[p][s.col] = 1;
        }
    }

    // Node i continues at i + 1, the last one loops back into the
    // list. One pass in reverse settles every node up to the loop's
    // entry node; a second carries the entry's horizons round the
    // loop to the nodes behind the loop's last naming phase.
    horizons_.assign(nodes_.size() * n, MaxTick);
    for (int pass = 0; pass < 2; ++pass) {
        for (size_t i = nodes_.size(); i-- > 0;) {
            const Node &node = nodes_[i];
            if (node.gap == MaxTick)
                continue; // the gap never ends: no plan, no horizon
            const Tick *after = &horizons_[node.next * n];
            for (size_t c = 0; c < n; ++c) {
                Tick h = MaxTick;
                if (names[node.plan][c])
                    h = node.gap + 1;
                else if (after[c] < MaxTick - node.gap - 1)
                    h = node.gap + 1 + after[c];
                horizons_[i * n + c] = h;
            }
        }
    }
}

bool
BusTimeline::find(const std::vector<DouPosition> &pos,
                  Cursor &out) const
{
    auto it = index_.find(positionKey(pos.data(), pos.size()));
    if (it == index_.end())
        return false;
    out = {it->second, 0};
    return true;
}

void
BusTimeline::positionAt(Cursor cur, std::vector<DouPosition> &out) const
{
    const size_t n = programs_.size();
    const auto first = starts_.begin() + ptrdiff_t(cur.node * n);
    out.assign(first, first + ptrdiff_t(n));
    if (cur.used == 0)
        return;
    for (size_t c = 0; c < n; ++c) {
        uint64_t unlimited = MaxTick;
        programs_[c]->walkCommFree(out[c], cur.used, unlimited);
    }
}

} // namespace synchro::arch
