/**
 * @file
 * A seeded corpus of lowered artifacts and what the static verifier
 * says about each: every explorer candidate of the four mapped apps,
 * every safe-transition-table rate scale, and rng-seeded single-field
 * mutations of each app's committed lowering (slot offset, slot lane
 * tag, clock divider, ZORM pacing), plus planted programs for the
 * findings no mutation of a clean artifact reaches (a token-network
 * deadlock, a loop-unit re-arm).
 *
 * verifier_test pins a digest of every group's rendered reports, so
 * any change to a finding — or to which artifacts lower at all —
 * shows up as a digest mismatch naming the group.
 */

#ifndef SYNC_TESTS_VERIFIER_CORPUS_HH
#define SYNC_TESTS_VERIFIER_CORPUS_HH

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "apps/app_registry.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "mapping/codegen.hh"
#include "mapping/explorer.hh"
#include "mapping/verifier.hh"
#include "power/dvfs.hh"

namespace synchro::corpus
{

/** One corpus entry: its group, label and verifier output. */
struct Item
{
    std::string group;
    std::string label;
    std::string report; //!< VerifyReport::render(), or "threw: ..."
};

/** @p fn's report rendered, or the FatalError it threw. */
inline std::string
renderOrThrow(const std::function<mapping::VerifyReport()> &fn)
{
    try {
        return fn().render();
    } catch (const FatalError &e) {
        return std::string("threw: ") + e.what();
    }
}

/** FNV-1a over every item's label and report, in order. */
inline uint64_t
digest(const std::vector<Item> &items)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](const std::string &s) {
        for (unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
        h ^= 0xff;
        h *= 0x100000001b3ull;
    };
    for (const Item &it : items) {
        mix(it.label);
        mix(it.report);
    }
    return h;
}

/** @p art's report, as one item. */
inline void
addVerified(std::vector<Item> &out, const std::string &group,
            const std::string &label,
            const mapping::LoweredArtifact &art)
{
    out.push_back(
        {group, label, renderOrThrow([&] { return art.verify(); })});
}

/** Every explorer candidate of @p name, lowered and verified. */
inline void
addCandidates(std::vector<Item> &out, const std::string &name)
{
    const apps::AppSpec s = apps::AppRegistry::instance().at(name).spec(
        std::any{});
    power::VfModel vf;
    power::SupplyLevels levels(vf);
    std::vector<mapping::PlanVariant> variants =
        mapping::enumeratePlanVariants(s.plan, s.iterations_per_sec,
                                       levels,
                                       mapping::ExploreOptions{});
    if (s.shard_variants) {
        for (mapping::PlanVariant &v : s.shard_variants())
            variants.push_back(std::move(v));
    }
    const std::string group = name + "/candidates";
    for (const mapping::PlanVariant &v : variants) {
        mapping::LoweredArtifact art;
        art.name = name;
        art.plan = v.plan;
        art.iterations_per_sec = v.iterations_per_sec;
        art.slack = s.slack;
        try {
            art.spec = apps::appDag(s, s.seed, v.plan);
            art.prog = mapping::lowerDag(art.spec, v.plan,
                                         v.iterations_per_sec, s.slack);
        } catch (const FatalError &e) {
            out.push_back({group, v.label,
                           std::string("did not lower: ") + e.what()});
            continue;
        }
        addVerified(out, group, v.label, art);
    }
}

/** Every default safe-transition-table rate scale of @p name. */
inline void
addSafeTable(std::vector<Item> &out, const std::string &name)
{
    const mapping::LoweredArtifact art =
        apps::AppRegistry::instance().at(name).verifiable();
    power::VfModel vf;
    power::SupplyLevels levels(vf);
    std::set<double> scales;
    for (double sc : power::DvfsGovernorConfig{}.rate_scales)
        scales.insert(sc);
    scales.insert(1.0);
    for (double sc : scales) {
        mapping::ChipPlan plan = art.plan;
        bool ok = true;
        for (mapping::ActorPlacement &p : plan.placements) {
            p.f_needed_mhz *= sc;
            ok = ok && mapping::refreshPlacement(
                           p, plan.ref_freq_mhz,
                           unsigned(plan.ref_freq_mhz / p.f_needed_mhz),
                           levels);
        }
        const std::string label = strprintf("scale %.4f", sc);
        if (!ok) {
            out.push_back({name + "/safe-table", label, "infeasible"});
            continue;
        }
        mapping::PipelineProgram prog = art.prog;
        for (mapping::ColumnProgram &col : prog.columns) {
            for (const mapping::ActorPlacement &p : plan.placements) {
                if (p.actor == col.actor)
                    col.zorm = p.zorm;
            }
        }
        out.push_back(
            {name + "/safe-table", label, renderOrThrow([&] {
                 return mapping::verifyLowered(
                     art.spec, plan, prog, art.iterations_per_sec * sc,
                     art.slack);
             })});
    }
}

/**
 * @p count seeded single-field mutations of @p name's committed
 * lowering, cycling through the four fields, each verified.
 */
inline void
addMutations(std::vector<Item> &out, const std::string &name,
             uint64_t seed, unsigned count)
{
    const mapping::LoweredArtifact base =
        apps::AppRegistry::instance().at(name).verifiable();
    Rng rng(seed);
    const std::string group = name + "/mutations";
    for (unsigned k = 0; k < count; ++k) {
        mapping::LoweredArtifact art = base;
        std::string label;
        mapping::ColumnProgram &col =
            art.prog.columns[rng.below(art.prog.columns.size())];
        std::vector<mapping::Transfer> &ts = col.schedule.transfers;
        switch (k % 4) {
          case 0: {
            mapping::Transfer &t = ts[rng.below(ts.size())];
            const unsigned was = t.offset;
            t.offset = unsigned(rng.below(art.prog.period));
            label = strprintf("%s offset %u -> %u", col.actor.c_str(),
                              was, t.offset);
            break;
          }
          case 1: {
            mapping::Transfer &t = ts[rng.below(ts.size())];
            const unsigned was = t.lane;
            t.lane = unsigned(rng.below(arch::BusLanes + 1));
            label = strprintf("%s@%u lane %u -> %u",
                              col.actor.c_str(), t.offset, was,
                              t.lane);
            break;
          }
          case 2: {
            mapping::ActorPlacement &p =
                art.plan.placements[rng.below(
                    art.plan.placements.size())];
            const unsigned was = p.divider;
            p.divider = unsigned(rng.below(2 * uint64_t(was) + 1));
            label = strprintf("%s divider %u -> %u", p.actor.c_str(),
                              was, p.divider);
            break;
          }
          default: {
            mapping::ZormSetting &z = col.zorm;
            const mapping::ZormSetting was = z;
            const unsigned period =
                z.period ? z.period : unsigned(2 + rng.below(7));
            z.period = period;
            z.nops = unsigned(rng.below(period + 1));
            label = strprintf("%s zorm %u/%u -> %u/%u",
                              col.actor.c_str(), was.nops, was.period,
                              z.nops, z.period);
            break;
          }
        }
        addVerified(out, group, strprintf("#%u %s", k, label.c_str()),
                    art);
    }
}

/**
 * A source -> sink chain lowered at 60 firings each, then
 * planted: the sink's body is @p sink_body, and with @p short_source
 * the source's firing loop and spec run one firing short, so the
 * spec stays self-consistent per column while the edge delivers one
 * word fewer than the sink reads.
 */
inline mapping::LoweredArtifact
plantedChain(const std::string &sink_body, bool short_source)
{
    mapping::ChipPlan plan;
    plan.ref_freq_mhz = 600.0;
    for (unsigned i = 0; i < 2; ++i) {
        mapping::ActorPlacement p;
        p.actor = i == 0 ? "source" : "sink";
        p.tiles = 1;
        p.first_column = i;
        p.columns = 1;
        p.divider = 2 + i;
        p.f_column_mhz = plan.ref_freq_mhz / p.divider;
        plan.placements.push_back(p);
        ++plan.total_tiles;
    }
    plan.total_columns = 2;

    mapping::PipelineStage src;
    src.actor = "source";
    src.prologue = "        movi r1, 0\n";
    src.body = "        addi r1, 3\n"
               "        cwr r1\n";
    src.firings = 60;
    src.writes_per_firing = 1;
    mapping::PipelineStage sink;
    sink.actor = "sink";
    sink.prologue = "        movi r2, 0\n"
                    "        movi r3, 0\n"
                    "        movpi p0, 4096\n";
    sink.body = sink_body;
    sink.firings = 60;
    sink.reads_per_firing = 1;

    mapping::LoweredArtifact art;
    art.name = "planted";
    art.plan = plan;
    art.iterations_per_sec = 5e6;
    art.slack = 1.4;
    art.prog = mapping::lowerDag(mapping::linearDagSpec({src, sink}),
                                 plan, art.iterations_per_sec);
    if (short_source) {
        src.firings -= 1;
        for (isa::Inst &in : art.prog.columns[0].program.insts) {
            if (in.op == isa::Opcode::LSETUP) {
                in.imm = int32_t(src.firings); // the firing loop
                break;
            }
        }
    }
    art.spec = mapping::linearDagSpec({src, sink});
    return art;
}

/** Planted programs: findings no mutation above reaches. */
inline void
addPlanted(std::vector<Item> &out)
{
    const std::string sum = "        crd r0\n"
                            "        add r2, r2, r0\n"
                            "        st.w r2, [p0]+4\n";
    out.push_back({"planted", "deadlock", renderOrThrow([&] {
                       return plantedChain(sum, true).verify();
                   })});
    // lc0 armed again inside its own body: the walk gives up.
    out.push_back({"planted", "loop-unit re-arm", renderOrThrow([&] {
                       return plantedChain(
                                  "        crd r0\n"
                                  "        lsetup lc0, __in, 2\n"
                                  "        addi r3, 1\n"
                                  "    __in:\n"
                                  "        add r2, r2, r0\n"
                                  "        st.w r2, [p0]+4\n",
                                  false)
                           .verify();
                   })});
}

/** The whole corpus, in a fixed order. */
inline std::vector<Item>
verifierCorpus()
{
    std::vector<Item> out;
    const std::vector<std::string> names =
        apps::AppRegistry::instance().names();
    for (size_t i = 0; i < names.size(); ++i) {
        addCandidates(out, names[i]);
        addSafeTable(out, names[i]);
        addMutations(out, names[i], 0x5eed0000u + i, 16);
    }
    addPlanted(out);
    return out;
}

} // namespace synchro::corpus

#endif // SYNC_TESTS_VERIFIER_CORPUS_HH
