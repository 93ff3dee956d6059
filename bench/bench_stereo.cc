/**
 * @file
 * End-to-end mapped stereo vision bench: the prefilter ->
 * fork(SAD x4) -> min-SAD join DAG planned by the AutoMapper and
 * executed cycle-accurately, producing (1) the per-backend
 * throughput comparison on the five-lane fan-out workload and (2)
 * the measured-activity multi-V vs single-V power comparison next to
 * the paper's Table 4 SV row. Appends its numbers to
 * BENCH_stereo.json so the trajectory is tracked across PRs
 * (tools/bench_check.py gates regressions in CI).
 */

#include "apps/stereo_runner.hh"
#include "common/log.hh"
#include "mapped_app_bench.hh"

using namespace synchro;
using namespace synchro::apps;

int
main(int argc, char **argv)
{
    std::printf("mapped stereo vision, %ux%u, %u disparities over "
                "%u SAD columns, every backend:\n",
                StereoWidth, StereoHeight, StereoMaxDisp,
                StereoSadColumns);
    return bench::runMappedAppBench(
        {"BENCH_stereo.json", "stereo_dag", "stereo_power_measured",
         "SV", "sustained_kblocks_s", "kblocks/s", 1e-3},
        argc, argv, StereoPipelineParams{}, runMappedStereo,
        [](const MappedStereoRun &r) { return r.output; },
        [](const MappedStereoRun &r) {
            return strprintf(", truth hit rate %.0f%%",
                             100.0 * r.truth_hit_rate);
        });
}
