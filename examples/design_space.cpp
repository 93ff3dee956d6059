/**
 * @file
 * Measured design-space exploration (mapping/explorer.hh): enumerate
 * plan variants around the AutoMapper's pick for the DDC receiver
 * and the MPEG-4 motion-estimation farm, lower and run every
 * candidate concurrently on one sim::FleetExecutor, and reduce
 * the measurements to a power-vs-throughput Pareto frontier with an
 * agreement verdict for the analytic Optimizer — what the paper's
 * Section 4.1 flow picks from a model, measured cycle-accurately.
 *
 * Exits nonzero if any measured point misses its dsp:: golden, a
 * frontier point diverges across scheduler backends, or the analytic
 * pick falls off the measured frontier.
 */

#include <cstdio>

#include "apps/app_registry.hh"
#include "apps/motion_runner.hh"
#include "apps/pipeline_runner.hh"
#include "mapping/explorer.hh"

using namespace synchro;

int
main()
{
    bool ok = true;

    // A quick sweep: fewer rate factors than the bench, one divider
    // step, both verdicts still enforced.
    mapping::ExploreOptions opt;
    opt.rate_factors = {0.8, 1.2};
    opt.divider_steps = 1;

    const apps::AppRegistry &reg = apps::AppRegistry::instance();

    {
        apps::DdcPipelineParams p;
        p.samples = 512;
        auto res = mapping::explorePlans(
            reg.at("ddc").explorable(p), opt);
        std::printf("%s\n", res.report().c_str());
        ok = ok && res.all_bit_exact && res.agreement;
    }

    {
        auto res = mapping::explorePlans(
            reg.at("motion").explorable(
                apps::MotionPipelineParams{}),
            opt);
        std::printf("%s\n", res.report().c_str());
        ok = ok && res.all_bit_exact && res.agreement;
    }

    std::printf("design space: %s\n",
                ok ? "frontiers bit-exact, optimizer picks agree"
                   : "FAILED");
    return ok ? 0 : 1;
}
