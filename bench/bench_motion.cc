/**
 * @file
 * End-to-end mapped MPEG-4 motion estimation bench: the two
 * macroblock-sharded SAA search columns and their best-vector join,
 * planned by the AutoMapper and executed cycle-accurately, producing
 * (1) the per-backend throughput comparison and (2) the
 * measured-activity multi-V vs single-V power comparison next to the
 * paper's Table 4 MPEG4-QCIF row. Appends its numbers to
 * BENCH_motion.json so the trajectory is tracked across PRs
 * (tools/bench_check.py gates regressions in CI).
 */

#include "apps/motion_runner.hh"
#include "common/log.hh"
#include "mapped_app_bench.hh"

using namespace synchro;
using namespace synchro::apps;

int
main(int argc, char **argv)
{
    std::printf("mapped MPEG-4 motion estimation, %ux%u, +-%d "
                "search over %u shard columns, every backend:\n",
                MotionWidth, MotionHeight, MotionRange,
                MotionColumns);
    return bench::runMappedAppBench(
        {"BENCH_motion.json", "motion_dag", "motion_power_measured",
         "MPEG4-QCIF", "sustained_kmb_s", "kMB/s", 1e-3},
        argc, argv, MotionPipelineParams{}, runMappedMotion,
        [](const MappedMotionRun &r) { return r.output_keys; },
        [](const MappedMotionRun &r) {
            return strprintf(", pan hit rate %.0f%%",
                             100.0 * r.pan_hit_rate);
        });
}
