/**
 * @file
 * Measured design-space exploration bench: for each of the four
 * mapped Table 4 workloads (DDC, 802.11a, stereo vision, MPEG-4
 * motion estimation), enumerate plan variants around the
 * AutoMapper's pick, run the whole candidate batch concurrently on
 * one sim::FleetExecutor, and reduce the measurements to a
 * power-vs-throughput Pareto frontier. Every frontier point is
 * bit-exact against its dsp:: golden and cross-checked on the
 * EventQueue backend; the analytic Optimizer's pick must sit on (or
 * within 10% total power of) the measured frontier. Also reports each
 * app's mean lowering time per candidate (codegen plus the static
 * verifier gate; informational, not gated). Appends the numbers to
 * BENCH_explore.json so the trajectory is tracked across
 * PRs (tools/bench_check.py gates regressions in CI).
 */

#include <chrono>
#include <cstdio>

#include "apps/app_registry.hh"
#include "bench_json.hh"
#include "mapping/explorer.hh"

using namespace synchro;
using mapping::ExplorationResult;

namespace
{

/** Best (highest) achieved rate among the frontier's points. */
double
frontierBestRate(const ExplorationResult &res)
{
    double best = 0;
    for (size_t i : res.frontier) {
        best = std::max(best,
                        res.points[i].achieved_items_per_sec);
    }
    return best;
}

/** Record one app's exploration in the report; returns pass/fail. */
bool
record(bench::JsonReport &report, const ExplorationResult &res,
       const char *rate_key, double rate_scale, double seconds,
       double lower_ms)
{
    const auto &base = res.points[res.baseline_index];
    size_t measured = 0;
    for (const auto &pt : res.points)
        measured += pt.ran;

    std::string section = "explore_" + res.app;
    report.set(section, "points", double(res.points.size()));
    report.set(section, "measured", double(measured));
    report.set(section, "frontier_points",
               double(res.frontier.size()));
    report.set(section, "statically_rejected",
               double(res.statically_rejected));
    report.set(section, "bit_exact", res.all_bit_exact ? 1.0 : 0.0);
    report.set(section, "agreement", res.agreement ? 1.0 : 0.0);
    report.set(section, "baseline_gap_pct", res.baseline_gap_pct);
    report.set(section, "baseline_mw", base.total_mw);
    report.set(section, rate_key,
               frontierBestRate(res) * rate_scale);
    report.set(section, "explore_seconds", seconds);
    report.set(section, "lower_ms", lower_ms);
    return res.all_bit_exact && res.agreement;
}

} // namespace

int
main()
{
    mapping::ExploreOptions opt; // stock sweep, frontier crosscheck
    bench::JsonReport report("BENCH_explore.json");
    bool ok = true;
    double max_gap = 0;

    struct Sweep
    {
        const char *rate_key;
        double rate_scale;
        ExplorationResult res;
        double seconds = 0;
        double lower_ms = 0; //!< mean per successful lowering
    };
    std::vector<Sweep> sweeps;

    auto timed = [&](mapping::ExplorableApp app, const char *key,
                     double scale) {
        // Time every candidate's lowering (codegen plus the verifier
        // gate) through the app's own hook; explorePlans lowers the
        // candidates one after another.
        double lower_s = 0;
        size_t lowered = 0;
        auto lower = app.lower;
        app.lower = [&, lower](const mapping::ChipPlan &plan,
                               double rate) {
            auto t0 = std::chrono::steady_clock::now();
            mapping::PipelineProgram prog = lower(plan, rate);
            lower_s += std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
            ++lowered;
            return prog;
        };
        auto t0 = std::chrono::steady_clock::now();
        ExplorationResult res = mapping::explorePlans(app, opt);
        double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        sweeps.push_back({key, scale, std::move(res), secs,
                          lowered ? lower_s * 1e3 / double(lowered)
                                  : 0.0});
    };

    const apps::AppRegistry &reg = apps::AppRegistry::instance();
    timed(reg.at("ddc").explorable(), "frontier_best_msps", 1e-6);
    timed(reg.at("wifi").explorable(), "frontier_best_kbps", 1e-3);
    timed(reg.at("stereo").explorable(), "frontier_best_kblocks_s",
          1e-3);
    timed(reg.at("motion").explorable(), "frontier_best_kmb_s", 1e-3);

    for (const auto &s : sweeps) {
        std::printf("%s  (%.2f s; %.2f ms per lowering)\n",
                    s.res.report().c_str(), s.seconds, s.lower_ms);
        ok = record(report, s.res, s.rate_key, s.rate_scale,
                    s.seconds, s.lower_ms) &&
             ok;
        max_gap = std::max(max_gap, s.res.baseline_gap_pct);
    }

    report.set("explore_summary", "apps", double(sweeps.size()));
    report.set("explore_summary", "bit_exact", ok ? 1.0 : 0.0);
    report.set("explore_summary", "agreement", ok ? 1.0 : 0.0);
    report.set("explore_summary", "max_baseline_gap_pct", max_gap);
    if (!report.write())
        std::printf("(could not write BENCH_explore.json)\n");
    else
        std::printf("wrote BENCH_explore.json\n");

    std::printf("design space: %s (max optimizer gap %.2f%%)\n",
                ok ? "all frontiers bit-exact, optimizer picks agree"
                   : "FAILED",
                max_gap);
    return ok ? 0 : 1;
}
