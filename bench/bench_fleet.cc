/**
 * @file
 * Fleet serving bench: mixed DDC + 802.11a chip streams served by
 * the work-stealing FleetExecutor at basestation scale (64 / 256 /
 * 1024 concurrent user streams), every item golden-verified, plus
 * the snapshot/clone warm-start comparison against a from-scratch
 * plan + codegen + program load. At the 256-stream scale every served item
 * is additionally re-run solo through SimSession::admit on a clone
 * of the same template and compared byte for byte. Appends
 * chips/sec, aggregate ticks/sec and the warm-start speedup to
 * BENCH_fleet.json so the trajectory is tracked across PRs.
 */

#include <any>
#include <chrono>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "apps/app_registry.hh"
#include "apps/pipeline_runner.hh"
#include "apps/wifi_runner.hh"
#include "bench_json.hh"
#include "sim/fleet.hh"
#include "sim/scheduler.hh"

using namespace synchro;
using namespace synchro::apps;

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Serve @p streams mixed DDC/wifi streams of @p items work items
 * each; returns the drained report with per-item outputs kept when
 * @p keep_outputs.
 */
sim::FleetReport
serveFleet(const std::vector<sim::FleetWorkload> &workloads,
           SchedulerKind backend, unsigned streams, unsigned items,
           bool keep_outputs, std::unique_ptr<sim::FleetExecutor> *out)
{
    sim::FleetConfig fc;
    fc.scheduler = backend;
    fc.keep_outputs = keep_outputs;
    auto fleet = std::make_unique<sim::FleetExecutor>(fc);
    std::vector<unsigned> ids;
    for (const auto &wl : workloads)
        ids.push_back(fleet->addWorkload(wl));
    for (unsigned s = 0; s < streams; ++s)
        fleet->admitStream(ids[s % ids.size()], items,
                           uint64_t(s) * items);
    sim::FleetReport rep = fleet->drain();
    if (out)
        *out = std::move(fleet);
    return rep;
}

/**
 * Re-run every (stream, item) the fleet served as a solo
 * SimSession::admit batch on clones of the same templates and
 * compare byte for byte — the serving layer must be invisible in
 * the results. Batched to bound peak chip count.
 */
bool
soloCrossCheck(sim::FleetExecutor &fleet, const sim::FleetReport &rep)
{
    struct Pending
    {
        unsigned workload;
        uint64_t item;
        const std::vector<uint8_t> *want;
    };
    std::vector<Pending> all;
    for (const auto &s : rep.stream_results) {
        for (uint64_t i = 0; i < s.items; ++i)
            all.push_back(
                {s.workload, s.item_base + i, &s.outputs[i]});
    }

    constexpr size_t Batch = 128;
    for (size_t at = 0; at < all.size(); at += Batch) {
        size_t n = std::min(Batch, all.size() - at);
        sim::SimSession session;
        for (size_t i = 0; i < n; ++i) {
            const Pending &p = all[at + i];
            const sim::FleetWorkload &wl = fleet.workload(p.workload);
            auto chip = fleet.templateChip(p.workload).clone();
            wl.feed(*chip, p.item);
            session.admit(sim::ChipSpec(std::move(chip))
                              .tickLimit(wl.tick_limit));
        }
        auto results = session.runAll();
        for (size_t i = 0; i < n; ++i) {
            const Pending &p = all[at + i];
            const sim::FleetWorkload &wl = fleet.workload(p.workload);
            if (results[i].exit != arch::RunExit::AllHalted ||
                wl.read_output(session.chip(unsigned(i))) != *p.want)
                return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const SchedulerKind backend =
        backendFromArgs(argc, argv, SchedulerKind::FastEdge);

    DdcPipelineParams dp;
    dp.samples = 128;
    WifiPipelineParams wp;
    wp.symbols = 2;

    std::printf("building fleet workloads (plan + lower + verifier "
                "gate, once per app)...\n");
    const AppRegistry &reg = AppRegistry::instance();
    const std::pair<const char *, std::any> apps[] = {{"ddc", dp},
                                                      {"wifi", wp}};
    std::vector<sim::FleetWorkload> workloads;
    for (const auto &[name, params] : apps)
        workloads.push_back(reg.at(name).fleet(params));

    bench::JsonReport report("BENCH_fleet.json");

    // --- streaming fleet scales ---------------------------------
    struct Scale
    {
        unsigned streams;
        unsigned items;
    };
    const Scale scales[] = {{64, 4}, {256, 2}, {1024, 1}};
    std::printf("mixed DDC + 802.11a streams on %s, one chip per "
                "stream:\n",
                schedulerName(backend));
    for (const Scale &sc : scales) {
        const bool cross_check = sc.streams == 256;
        std::unique_ptr<sim::FleetExecutor> fleet;
        sim::FleetReport rep =
            serveFleet(workloads, backend, sc.streams, sc.items,
                       cross_check, &fleet);

        bool bit_exact = rep.all_verified;
        if (cross_check)
            bit_exact = bit_exact && soloCrossCheck(*fleet, rep);

        std::printf("  %5u streams x %u items: %8.1f chips/s, "
                    "%7.2f Mticks/s aggregate, %llu steals, "
                    "%llu clones (%s%s)\n",
                    sc.streams, sc.items, rep.chips_per_sec,
                    rep.ticks_per_sec / 1e6,
                    (unsigned long long)rep.steals,
                    (unsigned long long)rep.clones,
                    rep.all_verified ? "golden-verified"
                                     : "GOLDEN MISMATCH",
                    cross_check
                        ? (bit_exact ? ", solo-run bit-exact"
                                     : ", SOLO MISMATCH")
                        : "");

        std::string sec = "fleet_" + std::to_string(sc.streams);
        report.set(sec, "streams", sc.streams);
        report.set(sec, "chips_s", rep.chips_per_sec);
        report.set(sec, "ticks_s", rep.ticks_per_sec);
        report.set(sec, "bit_exact", bit_exact ? 1 : 0);
    }

    // --- snapshot/clone warm start vs cold build ----------------
    // The cold path is the whole fleet(params) hook (plan, codegen,
    // verifier gate) plus build (chip construction and load).
    std::printf("warm start (Chip::clone) vs cold build (plan + "
                "codegen + verifier + load):\n");
    for (const auto &[name, params] : apps) {
        constexpr int Reps = 5;
        auto t0 = std::chrono::steady_clock::now();
        sim::FleetWorkload wl;
        std::unique_ptr<arch::Chip> tmpl;
        for (int r = 0; r < Reps; ++r) {
            wl = reg.at(name).fleet(params);
            tmpl = wl.build(backend);
        }
        double cold_ms = secondsSince(t0) * 1e3 / Reps;

        t0 = std::chrono::steady_clock::now();
        std::unique_ptr<arch::Chip> copy;
        for (int r = 0; r < Reps; ++r)
            copy = tmpl->clone();
        double clone_ms = secondsSince(t0) * 1e3 / Reps;

        double speedup = clone_ms > 0 ? cold_ms / clone_ms : 0;
        std::printf("  %-6s cold %8.3f ms, clone %8.3f ms -> "
                    "%.1fx warm-start speedup\n",
                    wl.name.c_str(), cold_ms, clone_ms, speedup);
        report.set("warm_start", wl.name + "_cold_build_ms", cold_ms);
        report.set("warm_start", wl.name + "_clone_ms", clone_ms);
        report.set("warm_start", wl.name + "_warm_start_speedup",
                   speedup);
    }

    if (!report.write()) {
        std::fprintf(stderr, "cannot write BENCH_fleet.json\n");
        return 1;
    }
    std::printf("wrote BENCH_fleet.json\n");
    return 0;
}
