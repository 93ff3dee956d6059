#include "mapping/comm_schedule.hh"

#include <algorithm>
#include <array>
#include <map>
#include <string>

#include "common/log.hh"

namespace synchro::mapping
{

using arch::BufferCtl;
using arch::DouProgram;
using arch::DouState;

namespace
{

/**
 * Build the SEG/Buffer outputs of the transfers @p at, all pinned to
 * @p offset, into @p st. Returns why they cannot share one cycle, or
 * "" when they can.
 */
std::string
cycleOutputs(const std::vector<const Transfer *> &at, unsigned offset,
             DouState &st)
{
    st = DouState{};
    std::array<bool, arch::BusLanes> lane_owned{};

    for (const Transfer *tp : at) {
        const Transfer &t = *tp;
        if (t.lane >= arch::BusLanes)
            return strprintf("lane %u out of range", t.lane);
        if (lane_owned[t.lane])
            return strprintf("two transfers on lane %u at offset %u",
                             t.lane, offset);
        lane_owned[t.lane] = true;

        // Positions this transfer spans (for segment switches).
        unsigned lo = arch::TilesPerColumn, hi = 0;
        bool uses_h = t.to_horizontal || t.src_tile < 0;
        auto touch = [&](unsigned pos) {
            if (pos >= arch::TilesPerColumn)
                return false;
            lo = std::min(lo, pos);
            hi = std::max(hi, pos);
            return true;
        };
        if (t.src_tile >= 0) {
            if (!touch(unsigned(t.src_tile)))
                return strprintf("tile position %d out of range",
                                 t.src_tile);
            BufferCtl c = BufferCtl::fromByte(
                st.buf[unsigned(t.src_tile)]);
            if (c.drive)
                return strprintf("tile %d drives twice at offset %u",
                                 t.src_tile, offset);
            c.drive = true;
            c.drive_lane = uint8_t(t.lane);
            st.buf[unsigned(t.src_tile)] = c.byte();
        }
        // A transfer with no sink is a drain: it empties the source
        // write buffer without delivering anywhere (used to keep
        // SIMD columns in lock step when only some lanes carry
        // useful data).
        for (unsigned d : t.dst_tiles) {
            if (!touch(d))
                return strprintf("tile position %u out of range", d);
            BufferCtl c = BufferCtl::fromByte(st.buf[d]);
            if (c.capture)
                return strprintf("tile %u captures twice at offset %u",
                                 d, offset);
            c.capture = true;
            c.capture_lane = uint8_t(t.lane);
            st.buf[d] = c.byte();
        }

        // Close the segment switches covering [lo, hi] on this
        // lane's pair bit, plus the boundary switch for horizontal
        // traffic (the boundary attaches at position 0).
        unsigned pair_bit = t.lane / 2;
        if (uses_h)
            lo = 0;
        for (unsigned k = lo; k < hi; ++k)
            st.seg[k] = uint8_t(st.seg[k] | (1u << pair_bit));
        if (uses_h)
            st.seg[3] = uint8_t(st.seg[3] | (1u << pair_bit));
    }
    return "";
}

} // namespace

EdgeSlots
allocateEdgeSlots(const std::vector<unsigned> &slots_per_edge,
                  uint64_t spacing)
{
    const size_t n_edges = slots_per_edge.size();
    if (n_edges == 0)
        fatal("edge slots: a DAG schedule needs at least one edge");
    if (n_edges > arch::BusLanes)
        fatal("edge slots: %zu DAG edges exceed the %u bus lanes",
              n_edges, arch::BusLanes);
    uint64_t total = 0;
    for (unsigned m : slots_per_edge) {
        if (m == 0)
            fatal("edge slots: every edge needs at least one slot "
                  "per period");
        total += m;
    }
    if (spacing <= total + n_edges)
        fatal("edge slots: grid period %llu too tight for %llu "
              "staggered slots (rate too high for the reference "
              "clock)",
              (unsigned long long)spacing,
              (unsigned long long)total);

    EdgeSlots slots;
    slots.period = unsigned(spacing);
    slots.offsets.resize(n_edges);
    std::vector<char> used(size_t(spacing), 0);
    for (size_t e = 0; e < n_edges; ++e) {
        slots.lane.push_back(unsigned(e));
        const unsigned m = slots_per_edge[e];
        const uint64_t stride = spacing / m;
        uint64_t prev = 0;
        bool first = true;
        for (unsigned j = 0; j < m; ++j) {
            uint64_t o = uint64_t(e) + j * stride;
            if (!first && o <= prev)
                o = prev + 1; // keep the lane's slots time-ordered
            while (o < spacing && used[size_t(o)])
                ++o;
            if (o >= spacing)
                fatal("edge slots: no conflict-free offset left for "
                      "slot %u of edge %zu in a period of %llu",
                      j, e, (unsigned long long)spacing);
            used[size_t(o)] = 1;
            slots.offsets[e].push_back(unsigned(o));
            prev = o;
            first = false;
        }
    }
    return slots;
}

std::vector<ActiveCycle>
scheduleActiveCycles(const CommSchedule &sched)
{
    std::vector<const Transfer *> order;
    for (const Transfer &t : sched.transfers) {
        if (t.offset < sched.period)
            order.push_back(&t);
    }
    std::stable_sort(order.begin(), order.end(),
                     [](const Transfer *x, const Transfer *y) {
                         return x->offset < y->offset;
                     });
    std::vector<ActiveCycle> out;
    std::vector<const Transfer *> at;
    for (size_t i = 0; i < order.size();) {
        const unsigned off = order[i]->offset;
        at.clear();
        for (; i < order.size() && order[i]->offset == off; ++i)
            at.push_back(order[i]);
        ActiveCycle c;
        c.offset = off;
        c.malformed = cycleOutputs(at, off, c.out);
        out.push_back(std::move(c));
    }
    return out;
}

DouState
scheduleOutputAt(const CommSchedule &sched, uint64_t bus_cycle)
{
    if (bus_cycle < sched.prologue)
        return DouState{};
    unsigned offset =
        unsigned((bus_cycle - sched.prologue) % sched.period);
    for (const ActiveCycle &c : scheduleActiveCycles(sched)) {
        if (c.offset != offset)
            continue;
        if (!c.malformed.empty())
            fatal("schedule: %s", c.malformed.c_str());
        return c.out;
    }
    return DouState{};
}

/**
 * Counter 3 is reserved as the always-zero fall-through counter:
 * single-cycle states (actives and 1-cycle idles) must test *some*
 * counter, and testing a live gap counter would decrement it. A
 * counter that is never loaded stays zero, so CNTR=3 always takes
 * NXTSTATE0 without perturbing the gap counters.
 */
constexpr unsigned ReservedCounter = arch::DouNumCounters - 1;

DouProgram
compileSchedule(const CommSchedule &sched)
{
    if (sched.period == 0)
        fatal("schedule: zero period");
    for (const Transfer &t : sched.transfers) {
        if (t.offset >= sched.period)
            fatal("schedule: offset %u >= period %u", t.offset,
                  sched.period);
    }

    const std::vector<ActiveCycle> active = scheduleActiveCycles(sched);

    DouProgram prog;
    unsigned counters_used = 0;
    std::map<uint32_t, unsigned> gap_counter; // gap -> counter idx

    // Emit a wait of `gap` cycles before `next_state`; returns the
    // index of the first state of the wait (== next_state for gap 0).
    auto emit_wait = [&](uint32_t gap, auto &&self) -> unsigned {
        if (gap == 0)
            return unsigned(prog.states.size());
        if (gap >= 2) {
            auto it = gap_counter.find(gap);
            unsigned ctr;
            if (it != gap_counter.end()) {
                ctr = it->second;
            } else if (counters_used < ReservedCounter) {
                ctr = counters_used++;
                // A wait state entered with counter value v spends v
                // decrement cycles plus one reload-and-exit cycle.
                prog.counter_init[ctr] = gap - 1;
                gap_counter[gap] = ctr;
            } else {
                // No counter free: chain two shorter waits.
                unsigned first = self(gap - 1, self);
                self(1, self);
                return first;
            }
            // One state that self-loops gap-1 times then exits:
            // gap idle cycles total, counter auto-reloaded for the
            // next period.
            DouState wait;
            wait.cntr = uint8_t(ctr);
            unsigned idx = unsigned(prog.states.size());
            wait.nxt1 = uint8_t(idx);
            wait.nxt0 = uint8_t(idx + 1);
            prog.states.push_back(wait);
            return idx;
        }
        // gap == 1: single idle state falling through.
        DouState idle;
        idle.cntr = uint8_t(ReservedCounter);
        unsigned idx = unsigned(prog.states.size());
        idle.nxt0 = idle.nxt1 = uint8_t(idx + 1);
        prog.states.push_back(idle);
        return idx;
    };

    // Prologue wait, then the periodic body.
    unsigned body_start = 0;
    if (sched.prologue > 0)
        emit_wait(sched.prologue, emit_wait);
    body_start = unsigned(prog.states.size());

    if (active.empty()) {
        // Nothing ever transfers: idle forever.
        DouState idle;
        idle.cntr = uint8_t(ReservedCounter);
        idle.nxt0 = idle.nxt1 = uint8_t(prog.states.size());
        prog.states.push_back(idle);
        prog.validate();
        return prog;
    }

    for (size_t i = 0; i < active.size(); ++i) {
        if (!active[i].malformed.empty())
            fatal("schedule: %s", active[i].malformed.c_str());
        // Wait from the previous active offset to this one.
        unsigned prev_end = i == 0 ? 0 : active[i - 1].offset + 1;
        emit_wait(active[i].offset - prev_end, emit_wait);
        DouState st = active[i].out;
        st.cntr = uint8_t(ReservedCounter);
        unsigned idx = unsigned(prog.states.size());
        st.nxt0 = st.nxt1 = uint8_t(idx + 1);
        prog.states.push_back(st);
    }
    // Tail wait to complete the period, then wrap to the body.
    unsigned tail = sched.period - (active.back().offset + 1);
    emit_wait(tail, emit_wait);
    // The last emitted state must wrap to body_start instead of
    // falling through.
    DouState &last = prog.states.back();
    if (last.nxt0 == prog.states.size())
        last.nxt0 = uint8_t(body_start);
    if (last.nxt1 == prog.states.size())
        last.nxt1 = uint8_t(body_start);

    if (prog.states.size() > arch::DouMaxStates)
        fatal("schedule compiles to %zu states; the DOU holds %u",
              prog.states.size(), arch::DouMaxStates);
    prog.validate();
    return prog;
}

} // namespace synchro::mapping
