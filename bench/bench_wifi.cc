/**
 * @file
 * End-to-end mapped 802.11a receiver bench: the demap ->
 * de-interleave -> fork(Viterbi ACS x2) -> join(traceback) DAG
 * planned by the AutoMapper and executed cycle-accurately, producing
 * (1) the per-backend throughput comparison on a fork/join
 * workload and (2) the measured-activity multi-V vs single-V power
 * comparison next to the paper's Table 4 802.11a row. Appends its
 * numbers to BENCH_wifi.json so the trajectory is tracked across
 * PRs (tools/bench_check.py gates regressions in CI).
 */

#include "apps/wifi_runner.hh"
#include "mapped_app_bench.hh"

using namespace synchro;
using namespace synchro::apps;

int
main(int argc, char **argv)
{
    WifiPipelineParams params;
    params.symbols = 16;
    std::printf("mapped 802.11a receiver, %u frames, every "
                "backend:\n",
                params.symbols);
    return bench::runMappedAppBench(
        {"BENCH_wifi.json", "wifi_dag", "wifi_power_measured",
         "802.11a", "sustained_kbps", "kbit/s", 1e-3},
        argc, argv, params, runMappedWifi,
        [](const MappedWifiRun &r) { return r.output; },
        [](const MappedWifiRun &) { return std::string(); });
}
