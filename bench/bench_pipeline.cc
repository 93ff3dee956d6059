/**
 * @file
 * End-to-end mapped-pipeline bench: the DDC receiver planned by the
 * AutoMapper and executed cycle-accurately, producing (1) the
 * per-backend throughput comparison at multi-column scale and (2)
 * the first *measured-activity* multi-V vs single-V power
 * comparison, printed next to the paper's Table 4 DDC row. Appends
 * its numbers to BENCH_pipeline.json so the trajectory is tracked
 * across PRs.
 */

#include "apps/pipeline_runner.hh"
#include "mapped_app_bench.hh"

using namespace synchro;
using namespace synchro::apps;

int
main(int argc, char **argv)
{
    DdcPipelineParams params;
    params.samples = 2048;
    std::printf("mapped DDC receiver, %u samples, every backend:\n",
                params.samples);
    return bench::runMappedAppBench(
        {"BENCH_pipeline.json", "pipeline_ddc", "power_measured", "DDC",
         "sustained_msps", "MS/s", 1e-6, /*parallel=*/true},
        argc, argv, params, runMappedDdc,
        [](const MappedDdcRun &r) { return r.output; },
        [](const MappedDdcRun &) { return std::string(); });
}
