/**
 * @file
 * Fleet serving bench: mixed DDC + 802.11a chip streams served by
 * the work-stealing FleetExecutor at basestation scale (64 / 256 /
 * 1024 concurrent user streams), every item golden-verified, plus
 * the snapshot/clone warm-start comparison against a from-scratch
 * plan + codegen + program load. At the 256-stream scale every served item
 * is additionally re-run solo on the calling thread on a clone of
 * the same template and compared byte for byte. Appends
 * chips/sec (per wall second and per process CPU second), aggregate
 * ticks/sec, the warm-start speedup and the per-stream stat-harvest
 * cost to BENCH_fleet.json so the trajectory is tracked across PRs.
 */

#include <algorithm>
#include <any>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <map>
#include <memory>
#include <string>
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

/** CPU seconds used by every thread of this process so far. */
double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/** Per-call wall time of @p n back-to-back calls of @p fn, in ms. */
template <typename Fn>
double
blockMs(int n, Fn &&fn)
{
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < n; ++i)
        fn();
    return secondsSince(t0) * 1e3 / n;
}

/**
 * Serve @p streams mixed DDC/wifi streams of @p items work items
 * each; returns the drained report with per-item outputs kept when
 * @p keep_outputs. @p cpu_seconds: the process CPU time from the
 * first admission to the drain.
 */
sim::FleetReport
serveFleet(const std::vector<sim::FleetWorkload> &workloads,
           SchedulerKind backend, unsigned streams, unsigned items,
           bool keep_outputs, std::unique_ptr<sim::FleetExecutor> *out,
           double &cpu_seconds)
{
    sim::FleetConfig fc;
    fc.scheduler = backend;
    fc.keep_outputs = keep_outputs;
    auto fleet = std::make_unique<sim::FleetExecutor>(fc);
    std::vector<unsigned> ids;
    for (const auto &wl : workloads)
        ids.push_back(fleet->addWorkload(wl));
    const double cpu0 = processCpuSeconds();
    for (unsigned s = 0; s < streams; ++s)
        fleet->admitStream(ids[s % ids.size()], items,
                           uint64_t(s) * items);
    sim::FleetReport rep = fleet->drain();
    cpu_seconds = processCpuSeconds() - cpu0;
    if (out)
        *out = std::move(fleet);
    return rep;
}

/**
 * Re-run every (stream, item) the fleet served solo, one at a time on
 * a clone of the same template on the calling thread, and compare
 * byte for byte — the serving layer must be invisible in the results.
 */
bool
soloCrossCheck(sim::FleetExecutor &fleet, const sim::FleetReport &rep)
{
    for (const auto &s : rep.stream_results) {
        const sim::FleetWorkload &wl = fleet.workload(s.workload);
        for (uint64_t i = 0; i < s.items; ++i) {
            auto chip = fleet.templateChip(s.workload)->clone();
            wl.feed(*chip, s.item_base + i);
            if (chip->run(wl.tick_limit).exit !=
                    arch::RunExit::AllHalted ||
                wl.read_output(*chip) != s.outputs[i])
                return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const SchedulerKind backend = backendFromArgs(argc, argv);

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
        double cpu_s = 0;
        sim::FleetReport rep =
            serveFleet(workloads, backend, sc.streams, sc.items,
                       cross_check, &fleet, cpu_s);
        // Chips per CPU second: the host's other load moves it less
        // than the wall rate.
        const double chips_cpu = cpu_s > 0 ? double(rep.items) / cpu_s : 0;

        bool bit_exact = rep.all_verified;
        if (cross_check)
            bit_exact = bit_exact && soloCrossCheck(*fleet, rep);

        std::printf("  %5u streams x %u items: %8.1f chips/s "
                    "(%8.1f per CPU s), %7.2f Mticks/s aggregate, "
                    "%llu steals, %llu clones (%s%s)\n",
                    sc.streams, sc.items, rep.chips_per_sec, chips_cpu,
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
        report.set(sec, "chips_per_cpu_s", chips_cpu);
        report.set(sec, "ticks_s", rep.ticks_per_sec);
        report.set(sec, "bit_exact", bit_exact ? 1 : 0);
    }

    // --- snapshot/clone warm start vs cold build ----------------
    // The cold path is the whole fleet(params) hook (plan, codegen,
    // verifier gate) plus build (chip construction and load).
    std::printf("warm start (Chip::clone) vs cold build (plan + "
                "codegen + verifier + load):\n");
    // A clone takes ~0.1 ms, too short to time one at a time, so each
    // path is timed in blocks of calls and reported as its fastest
    // block. The host drifts between speed modes that slow the two
    // paths by different factors, so a min-over-min ratio can pair
    // blocks from different modes: the speedup is instead the median
    // of the ratios of adjacent cold and clone blocks.
    for (const auto &[name, params] : apps) {
        constexpr int Pairs = 15;
        sim::FleetWorkload wl;
        std::unique_ptr<arch::Chip> tmpl, copy;
        double cold_ms = 0, clone_ms = 0;
        std::vector<double> ratios;
        for (int b = 0; b < Pairs; ++b) {
            const double cold = blockMs(4, [&] {
                wl = reg.at(name).fleet(params);
                tmpl = wl.build(backend);
            });
            const double clone =
                blockMs(50, [&] { copy = tmpl->clone(); });
            cold_ms = b == 0 ? cold : std::min(cold_ms, cold);
            clone_ms = b == 0 ? clone : std::min(clone_ms, clone);
            ratios.push_back(cold / clone);
        }
        std::nth_element(ratios.begin(), ratios.begin() + Pairs / 2,
                         ratios.end());
        const double speedup = ratios[Pairs / 2];
        std::printf("  %-6s cold %8.3f ms, clone %8.3f ms -> "
                    "%.1fx warm-start speedup\n",
                    wl.name.c_str(), cold_ms, clone_ms, speedup);
        report.set("warm_start", wl.name + "_cold_build_ms", cold_ms);
        report.set("warm_start", wl.name + "_clone_ms", clone_ms);
        report.set("warm_start", wl.name + "_warm_start_speedup",
                   speedup);

        // The fleet harvests a finished stream's counters by
        // position (Chip::sumStats); naming each one (forEachStat)
        // is what a harvest into a name-keyed map would cost.
        std::vector<uint64_t> sums;
        std::map<std::string, uint64_t> named;
        double harvest_ms = 0, named_ms = 0;
        for (int b = 0; b < Pairs; ++b) {
            const double h = blockMs(200, [&] { copy->sumStats(sums); });
            const double n = blockMs(200, [&] {
                copy->forEachStat(
                    [&named](const std::string &k, uint64_t v) {
                        named[k] += v;
                    });
            });
            harvest_ms = b == 0 ? h : std::min(harvest_ms, h);
            named_ms = b == 0 ? n : std::min(named_ms, n);
        }
        std::printf("  %-6s stat harvest %8.5f ms per stream "
                    "(%8.5f ms by name)\n",
                    wl.name.c_str(), harvest_ms, named_ms);
        report.set("warm_start", wl.name + "_stat_harvest_ms",
                   harvest_ms);
        report.set("warm_start", wl.name + "_named_harvest_ms",
                   named_ms);
    }

    if (!report.write()) {
        std::fprintf(stderr, "cannot write BENCH_fleet.json\n");
        return 1;
    }
    std::printf("wrote BENCH_fleet.json\n");
    return 0;
}
