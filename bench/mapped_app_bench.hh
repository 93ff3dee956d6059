/**
 * @file
 * The one body of the mapped-app benches (bench_pipeline, bench_wifi,
 * bench_stereo, bench_motion): run the app on every backend, demand
 * bit-exact and backend-identical results, print the per-backend
 * throughput and the measured multi-V vs single-V power next to the
 * paper's Table 4 row, and append the numbers to the app's BENCH
 * json so the trajectory is tracked across PRs (tools/bench_check.py
 * gates regressions in CI).
 */

#ifndef SYNC_BENCH_MAPPED_APP_BENCH_HH
#define SYNC_BENCH_MAPPED_APP_BENCH_HH

#include <cstdio>
#include <string>
#include <vector>

#include "apps/paper_workloads.hh"
#include "bench_json.hh"
#include "sim/scheduler.hh"

namespace synchro::bench
{

/** What one mapped-app bench reports, and under which keys. */
struct MappedAppBench
{
    std::string json;          //!< e.g. "BENCH_wifi.json"
    std::string section;       //!< throughput section, e.g. "wifi_dag"
    std::string power_section; //!< measured-power section
    std::string paper_app;     //!< the Table 4 row compared against
    std::string rate_key;      //!< sustained-rate key
    std::string rate_unit;     //!< its printed unit
    double rate_scale = 1;     //!< items/s -> rate_key units

    /**
     * Also measure ParallelColumns; its speedup is against FastEdge,
     * the backend it parallelizes.
     */
    bool parallel = false;
};

/**
 * Run @p run_app(params) on every backend; @p output projects a run
 * to the output compared across backends and @p note returns extra
 * text for the summary line. --backend picks which run's power and
 * rate are reported as "this run". Returns the process exit code.
 */
template <typename Params, typename RunApp, typename Output,
          typename Note>
int
runMappedAppBench(const MappedAppBench &b, int argc, char **argv,
                  Params params, RunApp run_app, Output output,
                  Note note)
{
    const SchedulerKind primary =
        backendFromArgs(argc, argv, SchedulerKind::FastEdge);
    std::vector<SchedulerKind> kinds = {SchedulerKind::FastEdge,
                                        SchedulerKind::EventQueue,
                                        SchedulerKind::Compiled};
    if (b.parallel)
        kinds.push_back(SchedulerKind::ParallelColumns);

    std::vector<decltype(run_app(params))> runs;
    std::vector<double> wall;
    size_t pidx = 0;
    bool ok = true;
    for (size_t i = 0; i < kinds.size(); ++i) {
        if (kinds[i] == primary)
            pidx = i;
        params.scheduler = kinds[i];
        runs.push_back(run_app(params));
        wall.push_back(runs[i].sim_seconds);
        ok = ok && runs[i].bit_exact;
        std::printf("  %-10s %8llu ticks in %6.1f ms = %6.2f "
                    "Mticks/s  (%s, %llu overruns, %llu "
                    "deferrals)\n",
                    schedulerName(kinds[i]),
                    (unsigned long long)runs[i].ticks, wall[i] * 1e3,
                    double(runs[i].ticks) / wall[i] / 1e6,
                    runs[i].bit_exact ? "bit-exact" : "MISMATCH",
                    (unsigned long long)runs[i].overruns,
                    (unsigned long long)runs[i].deferrals);
    }
    bool identical = true;
    for (const auto &r : runs)
        identical = identical && r.ticks == runs[1].ticks &&
                    output(r) == output(runs[1]) &&
                    r.stats == runs[1].stats;
    double speedup = wall[1] > 0 ? wall[1] / wall[0] : 0.0;
    double compiled_speedup = wall[2] > 0 ? wall[1] / wall[2] : 0.0;
    double parallel_speedup =
        b.parallel && wall[3] > 0 ? wall[0] / wall[3] : 0.0;
    std::printf("  fast-path speedup %.2fx, compiled %.2fx, ", speedup,
                compiled_speedup);
    if (b.parallel)
        std::printf("parallel %.2fx of fast-path, ", parallel_speedup);
    std::printf("backends %s%s\n", identical ? "identical" : "MISMATCH",
                note(runs[pidx]).c_str());

    const auto &pw = runs[pidx].power;
    int paper_pct = 0;
    for (const auto &row : apps::paperAppTotals()) {
        if (row.app == b.paper_app)
            paper_pct = row.savings_pct;
    }
    double rate = runs[pidx].achieved_items_per_sec * b.rate_scale;
    std::printf("\nmulti-V vs single-V (measured activity of the %s "
                "run, %.2f %s sustained): %.2f mW vs %.2f mW = "
                "%.1f%% saved (paper %s: %d%%)\n",
                schedulerName(kinds[pidx]), rate, b.rate_unit.c_str(),
                pw.multi_v.total(), pw.single_v.total(),
                pw.savingsPct(), b.paper_app.c_str(), paper_pct);

    JsonReport report(b.json);
    auto mticks = [&](size_t i) {
        return double(runs[i].ticks) / wall[i] / 1e6;
    };
    report.set(b.section, "ticks", double(runs[0].ticks));
    report.set(b.section, "fast_mticks_per_s", mticks(0));
    report.set(b.section, "eventq_mticks_per_s", mticks(1));
    report.set(b.section, "fast_speedup", speedup);
    report.set(b.section, "compiled_mticks_per_s", mticks(2));
    report.set(b.section, "compiled_speedup", compiled_speedup);
    if (b.parallel) {
        report.set(b.section, "parallel_mticks_per_s", mticks(3));
        report.set(b.section, "parallel_speedup", parallel_speedup);
    }
    report.set(b.section, "bit_exact", ok && identical ? 1.0 : 0.0);
    report.set(b.section, b.rate_key, rate);
    report.set(b.power_section, "multi_v_mw", pw.multi_v.total());
    report.set(b.power_section, "single_v_mw", pw.single_v.total());
    report.set(b.power_section, "savings_pct", pw.savingsPct());
    report.set(b.power_section, "paper_savings_pct", double(paper_pct));
    if (!report.write())
        std::printf("(could not write %s)\n", b.json.c_str());
    else
        std::printf("\nwrote %s\n", b.json.c_str());

    return ok && identical && runs[pidx].overruns == 0 &&
                   runs[pidx].conflicts == 0
               ? 0
               : 1;
}

} // namespace synchro::bench

#endif // SYNC_BENCH_MAPPED_APP_BENCH_HH
