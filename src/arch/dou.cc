#include "arch/dou.hh"

#include "common/bitfield.hh"
#include "common/log.hh"

namespace synchro::arch
{

uint64_t
DouState::pack() const
{
    // Field order (LSB first): NXT1(7) NXT0(7) BUF3..0(32) SEG3..0(16)
    // CNTR(2) — 64 bits total, matching Figure 3's bit budget.
    uint64_t w = 0;
    unsigned pos = 0;
    w = insertBits(w, pos + 6, pos, nxt1);
    pos += 7;
    w = insertBits(w, pos + 6, pos, nxt0);
    pos += 7;
    for (unsigned t = 0; t < TilesPerColumn; ++t) {
        w = insertBits(w, pos + 7, pos, buf[t]);
        pos += 8;
    }
    for (unsigned s = 0; s < SegPointsPerColumn; ++s) {
        w = insertBits(w, pos + 3, pos, seg[s]);
        pos += 4;
    }
    w = insertBits(w, pos + 1, pos, cntr);
    return w;
}

DouState
DouState::unpack(uint64_t w)
{
    DouState st;
    unsigned pos = 0;
    st.nxt1 = uint8_t(bits(w, pos + 6, pos));
    pos += 7;
    st.nxt0 = uint8_t(bits(w, pos + 6, pos));
    pos += 7;
    for (unsigned t = 0; t < TilesPerColumn; ++t) {
        st.buf[t] = uint8_t(bits(w, pos + 7, pos));
        pos += 8;
    }
    for (unsigned s = 0; s < SegPointsPerColumn; ++s) {
        st.seg[s] = uint8_t(bits(w, pos + 3, pos));
        pos += 4;
    }
    st.cntr = uint8_t(bits(w, pos + 1, pos));
    return st;
}

DouProgram
DouProgram::idle()
{
    DouProgram p;
    p.states.push_back(DouState{}); // all-zero outputs, nxt0=nxt1=0
    return p;
}

void
DouProgram::validate() const
{
    if (states.empty())
        fatal("DOU program has no states");
    if (states.size() > DouMaxStates)
        fatal("DOU program has %zu states; hardware holds %u",
              states.size(), DouMaxStates);
    for (size_t i = 0; i < states.size(); ++i) {
        const DouState &s = states[i];
        if (s.cntr >= DouNumCounters)
            fatal("DOU state %zu: counter %u out of range", i, s.cntr);
        if (s.nxt0 >= states.size() || s.nxt1 >= states.size())
            fatal("DOU state %zu: successor out of range (%u/%u of "
                  "%zu states)",
                  i, s.nxt0, s.nxt1, states.size());
        for (unsigned p = 0; p < SegPointsPerColumn; ++p) {
            if (s.seg[p] > 0xf)
                fatal("DOU state %zu: seg[%u] wider than 4 bits", i, p);
        }
    }
}

uint64_t
DouProgram::walkCommFree(DouPosition &pos, uint64_t max,
                         uint64_t &budget) const
{
    uint64_t taken = 0;
    while (taken < max) {
        const DouState &s = states[pos.state];
        if (s.drivesOrCaptures())
            break;

        uint32_t &ctr = pos.counters[s.cntr];
        const uint32_t reload = counter_init[s.cntr];
        const uint64_t rem = max - taken;

        if (s.nxt0 == pos.state && s.nxt1 == pos.state) {
            // Inert self-loop: only the tested counter cycles.
            // step() maps v -> (v == 0 ? reload : v - 1); starting
            // from v <= reload the value descends to 0 then cycles
            // with period reload + 1, so the landing position is in
            // closed form.
            uint64_t v = ctr;
            if (rem <= v) {
                v -= rem;
            } else {
                uint64_t period = uint64_t(reload) + 1;
                uint64_t r = (rem - v - 1) % period;
                v = reload - r;
            }
            ctr = uint32_t(v);
            taken = max;
            break;
        }
        if (budget == 0)
            break;
        --budget;
        if (s.nxt1 == pos.state) {
            // Wait state: occupied while the counter decrements
            // (ctr + 1 cycles), then reloads and exits to nxt0.
            uint64_t stay = uint64_t(ctr) + 1;
            if (rem < stay) {
                ctr -= uint32_t(rem);
                taken = max;
                break;
            }
            ctr = reload;
            pos.state = s.nxt0;
            taken += stay;
            continue;
        }
        // Generic comm-free transition.
        step(pos);
        ++taken;
    }
    return taken;
}

Dou::Dou()
    : prog_(std::make_shared<const DouProgram>(DouProgram::idle())),
      steps_(stats_.counter("steps"))
{
    reset();
}

void
Dou::load(const DouProgram &prog)
{
    prog.validate();
    prog_ = std::make_shared<const DouProgram>(prog);
    reset();
}

void
Dou::reset()
{
    pos_ = prog_->resetPosition();
}

void
Dou::copyStateFrom(const Dou &other)
{
    prog_ = other.prog_;
    pos_ = other.pos_;
}

} // namespace synchro::arch
