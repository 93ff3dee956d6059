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

Dou::Dou(unsigned column)
    : column_(column), prog_(DouProgram::idle()),
      steps_(stats_.counter("steps"))
{
    reset();
}

void
Dou::load(const DouProgram &prog)
{
    prog.validate();
    prog_ = prog;
    reset();
}

void
Dou::reset()
{
    state_ = 0;
    counters_ = prog_.counter_init;
    cf_run_ = cf_cap_ = 0;
}

void
Dou::copyStateFrom(const Dou &other)
{
    prog_ = other.prog_;
    state_ = other.state_;
    counters_ = other.counters_;
    cf_run_ = cf_cap_ = 0;
    cf_end_state_ = 0;
    cf_end_ctrs_ = {};
}

uint64_t
Dou::walkCommFree(uint64_t max, unsigned &st,
                  std::array<uint32_t, DouNumCounters> &ctrs) const
{
    uint64_t taken = 0;
    while (taken < max) {
        const DouState &s = prog_.states[st];
        bool buf_zero = true;
        for (uint8_t b : s.buf)
            buf_zero = buf_zero && b == 0;
        if (!buf_zero)
            break;

        uint32_t &ctr = ctrs[s.cntr];
        const uint32_t reload = prog_.counter_init[s.cntr];
        const uint64_t rem = max - taken;

        if (s.nxt0 == st && s.nxt1 == st) {
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
        if (s.nxt1 == st) {
            // Wait state: occupied while the counter decrements
            // (ctr + 1 cycles), then reloads and exits to nxt0.
            uint64_t stay = uint64_t(ctr) + 1;
            if (rem < stay) {
                ctr -= uint32_t(rem);
                taken = max;
                break;
            }
            ctr = reload;
            st = s.nxt0;
            taken += stay;
            continue;
        }
        // Generic comm-free transition: one step() worth of work.
        if (ctr == 0) {
            ctr = reload;
            st = s.nxt0;
        } else {
            --ctr;
            st = s.nxt1;
        }
        ++taken;
    }
    return taken;
}

uint64_t
Dou::commFreeRun(uint64_t max) const
{
    if (cf_cap_ >= max || cf_run_ < cf_cap_)
        return std::min(cf_run_, max);
    unsigned st = state_;
    std::array<uint32_t, DouNumCounters> ctrs = counters_;
    uint64_t taken = walkCommFree(max, st, ctrs);
    cf_run_ = taken;
    cf_cap_ = max;
    cf_end_state_ = st;
    cf_end_ctrs_ = ctrs;
    return taken;
}

void
Dou::fastForwardCommFree(uint64_t n)
{
    if (n == 0)
        return;
    if (n == cf_run_) {
        // Committing exactly the cached run: the probe walk already
        // computed the landing position, install it directly.
        state_ = cf_end_state_;
        counters_ = cf_end_ctrs_;
        steps_ += n;
        cf_run_ = 0;
        cf_cap_ -= std::min(cf_cap_, n);
        return;
    }
    uint64_t taken = walkCommFree(n, state_, counters_);
    sync_assert(taken == n,
                "DOU %u: fastForwardCommFree(%llu) hit an active "
                "state after %llu cycles",
                column_, (unsigned long long)n,
                (unsigned long long)taken);
    steps_ += n;
    cf_run_ -= std::min(cf_run_, n);
    cf_cap_ -= std::min(cf_cap_, n);
}

} // namespace synchro::arch
