/**
 * @file
 * Benchmark entry point.
 *
 *   simbench --workload <fleet_mixed|dvfs_bursty|explore_sweep>
 *            --seed <n> --seconds <s> --trace <0|1>
 *            [--trace-out <spans.json>] [--git-sha <sha>]
 *            [--src-digest <hash>]
 *
 * --trace 0 sets the workload up several times (setup_s is the
 * median), serves it for --seconds and prints the end-to-end metrics.
 * --trace 1 runs every workload, alternating untraced and traced
 * rounds, then the layer probe, and prints the per-layer metrics;
 * the spans go to --trace-out. The last stdout line is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. Any failure
 * makes the exit code 1.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "simbench.hh"

#ifndef SIMBENCH_BUILD_TYPE
#define SIMBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
#define SIMBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define SIMBENCH_COMPILER "gcc " __VERSION__
#else
#define SIMBENCH_COMPILER "unknown"
#endif

using namespace synchro;
using namespace simbench;

namespace
{

constexpr int kSetupReps = 15;

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string trace_out = "spans.json";
    std::string git_sha = "unknown";
    std::string src_digest = "unknown";
};

struct MetricDef
{
    std::string name;
    const char *unit;
};

std::vector<MetricDef>
endToEndDefs()
{
    return {{"setup_s", "s"},          {"items_per_s", "1/s"},
            {"sim_mticks_per_s", "Mticks/s"},
            {"item_p50_ms", "ms"},     {"item_p99_ms", "ms"},
            {"peak_rss_mb", "MB"},     {"table4_err_pp", "pp"}};
}

std::vector<MetricDef>
perLayerDefs()
{
    std::vector<MetricDef> d;
    auto perApp = [&d](const std::string &stem, const char *unit) {
        for (const char *app : kApps)
            d.push_back({stem + "." + app, unit});
    };
    perApp("apps.hook_ms", "ms");
    perApp("apps.cold_build_ms", "ms");
    perApp("apps.feed_ms", "ms");
    perApp("apps.readout_ms", "ms");
    perApp("dsp.golden_ms", "ms");
    perApp("arch.clone_ms", "ms");
    perApp("arch.run_ms", "ms");
    perApp("arch.mticks_per_s", "Mticks/s");
    perApp("arch.ticks_per_item", "ticks");
    perApp("arch.bus_transfers_per_item", "count");
    perApp("arch.bus_deferrals_per_item", "count");
    for (const char *b : {"eventq", "fastedge", "compiled", "parallel"})
        perApp(std::string("sim.backend_mticks_per_s.") + b, "Mticks/s");
    d.push_back({"sim.fleet.steals", "count"});
    d.push_back({"sim.fleet.clones", "count"});
    d.push_back({"sim.fleet.worker_busy_pct", "%"});
    d.push_back({"sim.fleet.worker_imbalance", "ratio"});
    perApp("mapping.lower_ms", "ms");
    perApp("mapping.verify_ms", "ms");
    perApp("mapping.explore_rest_ms", "ms");
    perApp("mapping.candidates", "count");
    perApp("mapping.frontier_points", "count");
    perApp("power.table_build_ms", "ms");
    perApp("power.table_points", "count");
    perApp("power.governor_rest_ms", "ms");
    perApp("power.price_ms", "ms");
    perApp("power.governed_savings_pct", "%");
    perApp("power.oracle_gap_pct", "%");
    for (const char *pol : {"static", "governed", "oracle"}) {
        for (const char *app : kApps) {
            d.push_back({std::string("power.deadline_misses.") + app +
                             "." + pol,
                         "count"});
        }
    }
    for (const char *w : kWorkloads)
        d.push_back({std::string("trace.overhead_pct.") + w, "%"});
    return d;
}

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            o.workload = v;
        else if (k == "--seed")
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            o.seconds = std::atof(v.c_str());
        else if (k == "--trace")
            o.trace = v == "1";
        else if (k == "--trace-out")
            o.trace_out = v;
        else if (k == "--git-sha")
            o.git_sha = v;
        else if (k == "--src-digest")
            o.src_digest = v;
        else
            return false;
    }
    if (argc % 2 != 1 || o.seconds <= 0)
        return false;
    for (const char *w : kWorkloads) {
        if (o.workload == w)
            return true;
    }
    return false;
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/** Print the result line; returns the process exit code. */
int
emit(const std::vector<MetricDef> &defs,
     const std::map<std::string, double> &values, uint64_t attempted,
     uint64_t failed)
{
    std::string m;
    for (const MetricDef &d : defs) {
        auto it = values.find(d.name);
        if (it == values.end()) {
            std::fprintf(stderr, "simbench: metric %s not measured\n",
                         d.name.c_str());
            return 1;
        }
        std::printf("# %-44s %16.6g %s\n", d.name.c_str(), it->second,
                    d.unit);
        if (!m.empty())
            m += ", ";
        m += strprintf("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                       d.name.c_str(), it->second, d.unit);
    }
    std::printf("# fail_ratio = %llu / %llu = %.6g\n",
                (unsigned long long)failed,
                (unsigned long long)attempted,
                attempted ? double(failed) / double(attempted) : 0.0);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {%s}}\n",
                failed == 0 ? "true" : "false",
                (unsigned long long)attempted,
                (unsigned long long)failed, m.c_str());
    std::fflush(stdout);
    return failed == 0 ? 0 : 1;
}

/** --trace 0: the end-to-end metrics of one workload. */
int
runUntraced(const Options &o)
{
    Recorder rec;
    std::unique_ptr<Workload> w;

    // Each set-up starts from a fresh workload; tearing the previous
    // one down (joining its fleet pool) stays outside the timer.
    std::vector<double> setup;
    for (int k = 0; k < kSetupReps; ++k) {
        w.reset();
        w = makeWorkload(o.workload, o.seed, rec);
        const double t0 = nowSec();
        w->setup();
        setup.push_back(nowSec() - t0);
    }
    rec.takeSamples();

    // Every rate and percentile is taken per round and reported as
    // the median over rounds, so a few rounds slowed by the host do
    // not move the result.
    std::vector<double> rates, mticks, p50s, p99s;
    uint64_t attempted = 0, failed = 0, items = 0, samples = 0;
    const double t0 = nowSec();
    do {
        const Round r = w->round();
        const std::vector<double> lat = rec.takeSamples();
        rates.push_back(double(r.items) / r.wall);
        mticks.push_back(r.ticks / r.wall / 1e6);
        p50s.push_back(percentile(lat, 0.50));
        p99s.push_back(percentile(lat, 0.99));
        attempted += r.attempted;
        failed += r.failed;
        items += r.items;
        samples += lat.size();
    } while (nowSec() - t0 < o.seconds);
    const double rss = peakRssMb();

    const double err = w->sweepResults()
                           ? table4ErrPp(*w->sweepResults())
                           : table4ErrPp(baselineSweeps(o.seed));
    ++attempted;
    if (err < 0) {
        ++failed;
        std::printf("# table4 check: a baseline did not run\n");
    }

    std::printf("# %s: %zu rounds, %llu items, %llu latency samples "
                "(%llu per round)\n",
                o.workload.c_str(), rates.size(),
                (unsigned long long)items, (unsigned long long)samples,
                (unsigned long long)(samples / rates.size()));
    std::printf("# items/s per round: min %.6g p25 %.6g median %.6g "
                "p75 %.6g max %.6g\n",
                percentile(rates, 0), percentile(rates, 0.25),
                median(rates), percentile(rates, 0.75),
                percentile(rates, 1));
    std::map<std::string, double> v;
    v["setup_s"] = median(setup);
    v["items_per_s"] = median(rates);
    v["sim_mticks_per_s"] = median(mticks);
    v["item_p50_ms"] = median(p50s);
    v["item_p99_ms"] = median(p99s);
    v["peak_rss_mb"] = rss;
    v["table4_err_pp"] = err;
    return emit(endToEndDefs(), v, attempted, failed);
}

/** --trace 1: every workload traced, then the layer probe. */
int
runTraced(const Options &o)
{
    Recorder rec;
    std::map<std::string, double> v;
    uint64_t attempted = 0, failed = 0;

    std::vector<std::string> order = {o.workload};
    for (const char *w : kWorkloads) {
        if (o.workload != w)
            order.push_back(w);
    }
    for (const std::string &name : order) {
        // The named workload gets half the window, the others a
        // quarter each; every one runs at least one round pair.
        const double budget =
            name == o.workload ? o.seconds / 2 : o.seconds / 4;
        rec.tracer.setWorkload(name);
        std::unique_ptr<Workload> w = makeWorkload(name, o.seed, rec);
        rec.tracer.enable(true);
        w->setup();
        std::vector<double> plain, traced;
        const double t0 = nowSec();
        do {
            rec.tracer.enable(false);
            const Round a = w->round();
            rec.tracer.enable(true);
            const Round b = w->round();
            plain.push_back(double(a.items) / a.wall);
            traced.push_back(double(b.items) / b.wall);
            attempted += a.attempted + b.attempted;
            failed += a.failed + b.failed;
        } while (nowSec() - t0 < budget);
        rec.tracer.enable(false);
        v["trace.overhead_pct." + name] =
            100.0 * (median(plain) / median(traced) - 1.0);
        w->layerMetrics(SpanIndex(rec.tracer.spans()), v);
        std::printf("# traced %s: %zu round pairs\n", name.c_str(),
                    plain.size());
    }

    rec.tracer.setWorkload("probe");
    rec.tracer.enable(true);
    const ProbeOutcome po = probeLayers(o.seed, rec, v);
    rec.tracer.enable(false);
    attempted += po.attempted;
    failed += po.failed;
    for (const std::string &f : po.failures)
        std::printf("# probe failure: %s\n", f.c_str());

    // Mean span duration per app of the wrapped per-item hooks,
    // across every traced workload that called them.
    const SpanIndex spans(rec.tracer.spans());
    const std::pair<const char *, const char *> hooks[] = {
        {"apps.feed", "apps.feed_ms"},
        {"apps.readout", "apps.readout_ms"},
        {"dsp.golden", "dsp.golden_ms"},
        {"mapping.lower", "mapping.lower_ms"}};
    for (const auto &[span, metric] : hooks) {
        for (const char *app : kApps) {
            double sum = 0, n = 0;
            for (const Span &s : spans.all()) {
                if (s.name == span && s.app == app) {
                    sum += s.dur();
                    n += 1;
                }
            }
            v[std::string(metric) + "." + app] =
                n > 0 ? sum * 1e3 / n : 0;
        }
    }

    const std::string header = strprintf(
        "\"workload\": \"%s\", \"seed\": %llu, \"backend\": \"%s\"",
        o.workload.c_str(), (unsigned long long)o.seed,
        schedulerName(defaultSchedulerKind()));
    if (!rec.tracer.writeJson(o.trace_out, header)) {
        std::fprintf(stderr, "simbench: cannot write %s\n",
                     o.trace_out.c_str());
        return 1;
    }
    std::printf("# %zu spans written to %s\n", spans.all().size(),
                o.trace_out.c_str());
    return emit(perLayerDefs(), v, attempted, failed);
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (!parseArgs(argc, argv, o)) {
        std::fprintf(stderr,
                     "usage: simbench --workload "
                     "<fleet_mixed|dvfs_bursty|explore_sweep> --seed N "
                     "--seconds S --trace 0|1 [--trace-out FILE]\n");
        return 2;
    }
    // Either of these silently changes what every workload measures.
    if (std::getenv("SYNCHRO_SCHEDULER")) {
        std::fprintf(stderr,
                     "simbench: refusing to run with SYNCHRO_SCHEDULER "
                     "set; the benchmark measures the default "
                     "backend\n");
        return 3;
    }
    if (std::strcmp(SIMBENCH_BUILD_TYPE, "Release") != 0) {
        std::fprintf(stderr,
                     "simbench: refusing to run a %s build; configure "
                     "with -DCMAKE_BUILD_TYPE=Release\n",
                     SIMBENCH_BUILD_TYPE);
        return 3;
    }
    std::printf("# host nproc=%u compiler=\"%s\" build=%s git=%s "
                "src=%s\n",
                std::thread::hardware_concurrency(), SIMBENCH_COMPILER,
                SIMBENCH_BUILD_TYPE, o.git_sha.c_str(),
                o.src_digest.c_str());
    std::printf("# workload=%s seed=%llu seconds=%g trace=%d "
                "backend=%s fleet_workers=%u explore_threads=%u\n",
                o.workload.c_str(), (unsigned long long)o.seed,
                o.seconds, int(o.trace),
                schedulerName(defaultSchedulerKind()), kFleetWorkers,
                kExploreThreads);
    try {
        return o.trace ? runTraced(o) : runUntraced(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "simbench: %s\n", e.what());
        return 1;
    }
}
