/** @file Cross-cutting robustness properties: simulator determinism,
 * randomized ISA round-trips, randomized DOU schedule compilation,
 * and coding-gain checks — the failure-injection layer of the test
 * plan (DESIGN.md Section 7). */

#include <gtest/gtest.h>

#include <set>

#include "arch/chip.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "dsp/interleaver.hh"
#include "dsp/ofdm.hh"
#include "dsp/qam.hh"
#include "dsp/viterbi.hh"
#include "isa/assembler.hh"
#include "isa/disasm.hh"
#include "isa/encoding.hh"
#include "mapping/comm_schedule.hh"

using namespace synchro;
using namespace synchro::arch;

// ---------------------------------------------------------------
// Simulator determinism

namespace
{

std::unique_ptr<Chip>
buildCommChip()
{
    ChipConfig cfg;
    cfg.dividers = {1, 3};
    cfg.tiles_per_column = 2;
    auto chip = std::make_unique<Chip>(cfg);
    chip->column(0).controller().loadProgram(isa::assemble(R"(
        movi r7, 0
        lsetup lc0, e, 50
        addi r7, 3
        cwr r7
    e:
        halt
    )"));
    chip->column(1).controller().loadProgram(isa::assemble(R"(
        movi r1, 0
        lsetup lc0, e, 50
        crd r0
        add r1, r1, r0
    e:
        halt
    )"));
    mapping::CommSchedule prod;
    prod.period = 6;
    prod.transfers = {{0, 0, 0, {}, true},
                      {0, 1, 1, {}, false}};
    chip->column(0).dou().load(mapping::compileSchedule(prod));
    mapping::CommSchedule cons;
    cons.period = 1;
    cons.transfers = {{0, 0, -1, {0, 1}, false}};
    chip->column(1).dou().load(mapping::compileSchedule(cons));
    return chip;
}

struct Snapshot
{
    uint64_t reg;
    uint64_t transfers;
    uint64_t stalls;
    Tick ticks;

    friend bool
    operator==(const Snapshot &a, const Snapshot &b)
    {
        return a.reg == b.reg && a.transfers == b.transfers &&
               a.stalls == b.stalls && a.ticks == b.ticks;
    }
};

Snapshot
snap(Chip &chip, Tick ticks)
{
    return {chip.column(1).tile(0).reg(1),
            chip.fabric().transfers(),
            chip.column(1).controller().stats().value("commStalls"),
            ticks};
}

} // namespace

TEST(Determinism, BatchEqualsSteppedExecution)
{
    // Regression for the event-loop class of bugs: running the same
    // chip in one run() call or tick-by-tick must produce identical
    // state and stats.
    auto batch = buildCommChip();
    auto batch_res = batch->run(100'000);
    ASSERT_EQ(batch_res.exit, RunExit::AllHalted);
    Snapshot a = snap(*batch, batch_res.ticks);

    auto stepped = buildCommChip();
    Tick t = 0;
    while (!stepped->allHalted() && t < 100'000) {
        stepped->run(1);
        t = stepped->curTick();
    }
    Snapshot b = snap(*stepped, stepped->curTick());
    EXPECT_EQ(a, b);
}

TEST(Determinism, RepeatedRunsIdentical)
{
    auto c1 = buildCommChip();
    auto c2 = buildCommChip();
    auto r1 = c1->run(100'000);
    auto r2 = c2->run(100'000);
    EXPECT_EQ(snap(*c1, r1.ticks), snap(*c2, r2.ticks));
    EXPECT_EQ(c1->column(1).tile(0).reg(1), 50u * 51u / 2u * 3u);
}

// ---------------------------------------------------------------
// Randomized ISA round-trips

TEST(Fuzz, RandomInstructionsRoundTripThroughEverything)
{
    // Build random-but-valid instructions, then check
    // encode -> decode -> disassemble -> assemble -> encode is the
    // identity.
    Rng rng(31337);
    namespace b = isa::build;
    using isa::Opcode;
    for (int trial = 0; trial < 2000; ++trial) {
        isa::Inst inst;
        switch (rng.below(10)) {
          case 0:
            inst = b::alu3(Opcode::ADD, unsigned(rng.below(8)),
                           unsigned(rng.below(8)),
                           unsigned(rng.below(8)));
            break;
          case 1:
            inst = b::aluImm(Opcode::MOVI, unsigned(rng.below(8)),
                             int32_t(rng.range(-32768, 32767)));
            break;
          case 2:
            inst = b::mac(Opcode::MAC, unsigned(rng.below(2)),
                          unsigned(rng.below(8)),
                          unsigned(rng.below(8)),
                          isa::HalfSel(rng.below(4)));
            break;
          case 3:
            inst = b::load(Opcode::LDW, unsigned(rng.below(8)),
                           unsigned(rng.below(6)),
                           isa::MemMode(rng.below(2)),
                           int32_t(rng.range(-128, 127)) * 4);
            break;
          case 4:
            inst = b::store(Opcode::STH, unsigned(rng.below(8)),
                            unsigned(rng.below(6)),
                            isa::MemMode(rng.below(2)),
                            int32_t(rng.range(-256, 255)) * 2);
            break;
          case 5:
            inst = b::shiftImm(Opcode::ASRI,
                               unsigned(rng.below(8)),
                               unsigned(rng.below(8)),
                               unsigned(rng.below(32)));
            break;
          case 6:
            inst = b::lsetup(unsigned(rng.below(2)),
                             uint16_t(rng.range(1, 2047)),
                             uint16_t(rng.range(1, 4095)));
            break;
          case 7:
            inst = b::cmp(Opcode::CMPLT, unsigned(rng.below(8)),
                          unsigned(rng.below(8)));
            break;
          case 8:
            inst = b::paddi(unsigned(rng.below(6)),
                            int32_t(rng.range(-32768, 32767)));
            break;
          default:
            inst = b::aext(unsigned(rng.below(8)),
                           unsigned(rng.below(2)),
                           unsigned(rng.below(32)));
        }
        uint32_t w1 = isa::encode(inst);
        isa::Inst dec = isa::decode(w1);
        ASSERT_EQ(dec, inst) << isa::disassemble(inst);
        std::string text = isa::disassemble(dec);
        isa::Program p = isa::assemble(text);
        ASSERT_EQ(p.size(), 1u) << text;
        ASSERT_EQ(isa::encode(p.insts[0]), w1) << text;
    }
}

TEST(Fuzz, RandomDouSchedulesCompileFaithfully)
{
    // Random conflict-free periodic schedules: compiled DOU output
    // must equal the reference interpreter for several periods.
    Rng rng(90210);
    for (int trial = 0; trial < 60; ++trial) {
        mapping::CommSchedule sched;
        sched.period = unsigned(rng.range(2, 40));
        sched.prologue = unsigned(rng.range(0, 6));
        unsigned n_transfers = unsigned(rng.range(1, 5));
        std::set<std::pair<unsigned, unsigned>> used;
        for (unsigned i = 0; i < n_transfers; ++i) {
            mapping::Transfer t;
            t.offset = unsigned(rng.below(sched.period));
            t.lane = unsigned(rng.below(8));
            if (!used.insert({t.offset, t.lane}).second)
                continue; // avoid lane conflicts
            t.src_tile = int(rng.below(4));
            unsigned dst = unsigned(rng.below(4));
            if (int(dst) != t.src_tile)
                t.dst_tiles.push_back(dst);
            else
                t.to_horizontal = true;
            sched.transfers.push_back(t);
        }
        if (sched.transfers.empty())
            continue;

        arch::DouProgram prog;
        try {
            prog = mapping::compileSchedule(sched);
        } catch (const FatalError &) {
            continue; // counter overflow on chained waits etc.
        }
        arch::Dou dou;
        dou.load(prog);
        for (uint64_t cycle = 0;
             cycle < sched.prologue + 4 * sched.period; ++cycle) {
            arch::DouState want =
                mapping::scheduleOutputAt(sched, cycle);
            const arch::DouState &got = dou.current();
            for (unsigned t = 0; t < 4; ++t) {
                ASSERT_EQ(got.buf[t], want.buf[t])
                    << "trial " << trial << " cycle " << cycle;
            }
            for (unsigned s = 0; s < 4; ++s) {
                ASSERT_EQ(got.seg[s], want.seg[s])
                    << "trial " << trial << " cycle " << cycle;
            }
            dou.step();
        }
    }
}

// ---------------------------------------------------------------
// Coding gain (the reason the receiver carries a Viterbi decoder)

TEST(CodingGain, ConvolutionalCodeBeatsUncodedAtModerateNoise)
{
    Rng rng(1999);
    const double flip_p = 0.04;
    const int n = 4000;
    std::vector<uint8_t> bits(n);
    for (auto &b : bits)
        b = uint8_t(rng.below(2));

    // Uncoded channel: BER == flip probability.
    unsigned uncoded_errors = 0;
    for (int i = 0; i < n; ++i)
        uncoded_errors += rng.chance(flip_p) ? 1 : 0;

    // Coded channel at the same raw flip rate.
    auto coded = dsp::convEncode(bits);
    for (auto &c : coded) {
        if (rng.chance(flip_p))
            c ^= 1;
    }
    auto decoded = dsp::viterbiDecode(coded);
    unsigned coded_errors = 0;
    for (int i = 0; i < n; ++i)
        coded_errors += decoded[i] != bits[i];

    // d_free = 10: 4% raw BER decodes essentially clean.
    EXPECT_LT(coded_errors * 20, uncoded_errors);
}

TEST(CodingGain, InterleavingBreaksBurstErrors)
{
    // A burst that wipes out adjacent coded bits overwhelms the
    // decoder without interleaving but not with it.
    Rng rng(77);
    dsp::OfdmConfig cfg{dsp::Modulation::QPSK};
    dsp::Interleaver il(cfg.modulation);
    unsigned n_cbps = cfg.codedBitsPerSymbol();

    std::vector<uint8_t> bits(cfg.dataBitsPerSymbol() * 4);
    for (auto &b : bits)
        b = uint8_t(rng.below(2));
    auto coded = dsp::convEncode(bits);
    while (coded.size() % n_cbps)
        coded.push_back(0);

    auto burst_decode = [&](bool interleave) {
        std::vector<uint8_t> chan;
        for (size_t off = 0; off < coded.size(); off += n_cbps) {
            std::vector<uint8_t> blk(coded.begin() + off,
                                     coded.begin() + off + n_cbps);
            if (interleave)
                blk = il.interleave(blk);
            // Channel burst: flip 7 adjacent transmitted bits per
            // block — fatal when adjacent (spanning several trellis
            // stages against d_free = 10), harmless once the
            // interleaver spreads them to ~7% of the block.
            for (unsigned k = 20; k < 27; ++k)
                blk[k] ^= 1;
            if (interleave)
                blk = il.deinterleave(blk);
            chan.insert(chan.end(), blk.begin(), blk.end());
        }
        auto dec = dsp::viterbiDecode(chan, false);
        unsigned errors = 0;
        for (size_t i = 0; i < bits.size(); ++i)
            errors += dec[i] != bits[i];
        return errors;
    };

    unsigned with = burst_decode(true);
    unsigned without = burst_decode(false);
    EXPECT_LT(with, without);
    EXPECT_EQ(with, 0u); // spread errors are within d_free
}

// ---------------------------------------------------------------
// Failure injection on the architecture

TEST(FailureInjection, StrictModeCatchesScheduleSlips)
{
    // A schedule that captures one cycle too early (before the cwr)
    // is silently counted in measure mode and fatal in strict mode.
    for (bool strict : {false, true}) {
        ChipConfig cfg;
        cfg.dividers = {1};
        cfg.tiles_per_column = 1;
        cfg.strict = strict;
        Chip chip(cfg);
        chip.column(0).controller().loadProgram(isa::assemble(R"(
            movi r7, 9
            cwr r7
            halt
        )"));
        mapping::CommSchedule sched;
        sched.period = 64;
        sched.transfers = {{0, 0, 0, {0}, false}}; // cwr lands at 1
        chip.column(0).dou().load(
            mapping::compileSchedule(sched));
        if (strict) {
            EXPECT_THROW(chip.run(10'000), FatalError);
        } else {
            chip.run(10'000);
            EXPECT_GT(chip.fabric().stats().value("underruns"), 0u);
        }
    }
}

TEST(FailureInjection, OverrunDetectedWhenConsumerTooSlow)
{
    // Producer sends every 3 cycles; consumer drains every ~12: the
    // read buffer overruns and the fabric counts it.
    ChipConfig cfg;
    cfg.dividers = {1, 4};
    cfg.tiles_per_column = 1;
    Chip chip(cfg);
    chip.column(0).controller().loadProgram(isa::assemble(R"(
        movi r7, 1
        lsetup lc0, e, 20
        addi r7, 1
        cwr r7
        nop
    e:
        halt
    )"));
    chip.column(1).controller().loadProgram(isa::assemble(R"(
        movi r1, 0
        lsetup lc0, e, 20
        crd r0
        add r1, r1, r0
        nop
    e:
        halt
    )"));
    mapping::CommSchedule prod;
    prod.period = 3;
    prod.transfers = {{0, 0, 0, {}, true}};
    chip.column(0).dou().load(mapping::compileSchedule(prod));
    mapping::CommSchedule cons;
    cons.period = 1;
    cons.transfers = {{0, 0, -1, {0}, false}};
    chip.column(1).dou().load(mapping::compileSchedule(cons));

    chip.run(20'000);
    EXPECT_GT(chip.fabric().stats().value("overruns"), 0u);
}
