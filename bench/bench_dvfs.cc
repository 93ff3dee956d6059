/**
 * @file
 * Online DVFS governor bench: each of the four mapped apps serves
 * the canonical bursty traffic scenario three times — Static (the
 * paper's fixed mapping), Governed (the closed-loop feedback
 * governor) and Oracle (per-phase measured-optimal operating point)
 * — with every item golden-verified and the per-item outputs
 * compared across policies, so the measured savings come at equal
 * delivered output, bit for bit. Appends per-app static/governed/
 * oracle mW, the governed savings, the governed-vs-oracle gap and
 * the governed simulation throughput to BENCH_dvfs.json so the
 * trajectory is tracked across PRs.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/app_registry.hh"
#include "apps/motion_runner.hh"
#include "apps/pipeline_runner.hh"
#include "apps/stereo_runner.hh"
#include "apps/wifi_runner.hh"
#include "bench_json.hh"
#include "power/dvfs.hh"
#include "sim/traffic.hh"

using namespace synchro;
using namespace synchro::apps;

namespace
{

power::GovernedRunResult
runPolicy(const power::DvfsAppHooks &app,
          const sim::TrafficScenario &scenario, power::DvfsPolicy pol,
          SchedulerKind backend)
{
    power::GovernedRunOptions opt;
    opt.policy = pol;
    opt.scheduler = backend;
    opt.keep_outputs = true;
    return power::runGoverned(app, scenario, opt);
}

} // namespace

int
main(int argc, char **argv)
{
    const SchedulerKind backend =
        backendFromArgs(argc, argv, SchedulerKind::FastEdge);

    // Small item shapes so the three-policy sweep stays a smoke-size
    // bench; the governor's decisions scale with the traffic shape,
    // not the item size.
    DdcPipelineParams dp;
    dp.samples = 128;
    WifiPipelineParams wp;
    wp.symbols = 2;
    StereoPipelineParams sp;
    MotionPipelineParams mp;

    std::printf("building DVFS app hooks (plan + lower + verifier "
                "gate, once per app)...\n");
    const AppRegistry &reg = AppRegistry::instance();
    const std::vector<power::DvfsAppHooks> apps = {
        reg.at("ddc").dvfs(dp), reg.at("wifi").dvfs(wp),
        reg.at("stereo").dvfs(sp), reg.at("motion").dvfs(mp)};

    bench::JsonReport report("BENCH_dvfs.json");
    bool all_ok = true;
    double min_savings = 1e9;

    for (const power::DvfsAppHooks &app : apps) {
        sim::TrafficScenario scenario(app.traffic);
        std::printf("%s: %s\n", app.name.c_str(),
                    scenario.describe().c_str());

        power::GovernedRunResult st = runPolicy(
            app, scenario, power::DvfsPolicy::Static, backend);
        power::GovernedRunResult gov = runPolicy(
            app, scenario, power::DvfsPolicy::Governed, backend);
        power::GovernedRunResult orc = runPolicy(
            app, scenario, power::DvfsPolicy::Oracle, backend);

        const double static_mw = st.power.multi_v.total();
        const double governed_mw = gov.power.multi_v.total();
        const double oracle_mw = orc.power.multi_v.total();
        const double savings_pct =
            static_mw > 0
                ? 100.0 * (static_mw - governed_mw) / static_mw
                : 0;
        const double gap_pct =
            oracle_mw > 0
                ? 100.0 * (governed_mw - oracle_mw) / oracle_mw
                : 0;
        const double gov_ticks_s =
            gov.sim_seconds > 0
                ? double(gov.busy_ticks) / gov.sim_seconds
                : 0;

        // Equal delivered output: all three policies golden-verified
        // AND byte-identical to each other, item by item.
        bool bit_exact = st.bit_exact && gov.bit_exact &&
                         orc.bit_exact &&
                         st.outputs == gov.outputs &&
                         st.outputs == orc.outputs;
        if (!bit_exact) {
            all_ok = false;
            std::printf("  OUTPUT MISMATCH across policies: %s%s\n",
                        st.first_failure.c_str(),
                        gov.first_failure.c_str());
        }

        std::printf("  static %8.2f mW, governed %8.2f mW "
                    "(%+.1f%% saved), oracle %8.2f mW "
                    "(%.1f%% gap), %llu misses, %s\n",
                    static_mw, governed_mw, savings_pct, oracle_mw,
                    gap_pct,
                    (unsigned long long)gov.deadline_misses,
                    bit_exact ? "bit-exact across policies"
                              : "NOT bit-exact");
        std::printf("  table: %zu verified points, %zu rejected; "
                    "governed %6.2f Mticks/s sim\n",
                    gov.table_points, gov.table_rejected,
                    gov_ticks_s / 1e6);

        const std::string sec = "dvfs_" + app.name;
        report.set(sec, "static_mw", static_mw);
        report.set(sec, "governed_mw", governed_mw);
        report.set(sec, "oracle_mw", oracle_mw);
        report.set(sec, "governed_savings_pct", savings_pct);
        report.set(sec, "oracle_gap_pct", gap_pct);
        report.set(sec, "deadline_misses",
                   double(gov.deadline_misses));
        report.set(sec, "bit_exact", bit_exact ? 1 : 0);
        report.set(sec, "governed_sim_ticks_per_sec", gov_ticks_s);
        min_savings = std::min(min_savings, savings_pct);
    }

    // Headline for docs cross-checking (tools/check_docs.py): the
    // worst-case governed-vs-static savings across the four apps.
    // Deterministic — derived from tick counters and the epoch
    // pricing model, never from wall time.
    report.set("dvfs_power_measured", "savings_pct", min_savings);
    report.set("dvfs_power_measured", "bit_exact", all_ok ? 1 : 0);

    if (!report.write()) {
        std::fprintf(stderr, "cannot write BENCH_dvfs.json\n");
        return 1;
    }
    std::printf("wrote BENCH_dvfs.json\n");
    return all_ok ? 0 : 1;
}
