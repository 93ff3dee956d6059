/**
 * @file
 * Static verification reports for the four mapped Table 4 apps.
 *
 * Prints mapping::verifyLowered()'s full report — per-check
 * pass/fail plus every finding — for exactly the lowered artifacts
 * the mapped runners execute (DDC receiver, 802.11a receiver, stereo
 * disparity, MPEG-4 motion estimation), without running a single
 * tick. All four run on the self-timed bus, so the "tokens" check is
 * the same Kahn-network deadlock proof for each. Exits non-zero if
 * any committed lowering fails to verify; CI smoke-runs it under the
 * "example" ctest label.
 */

#include <cstdio>

#include "apps/app_registry.hh"
#include "mapping/verifier.hh"

using namespace synchro;

int
main()
{
    bool all_ok = true;
    // Every registered app's committed lowering, at default params.
    for (const std::string &name :
         apps::AppRegistry::instance().names()) {
        const mapping::LoweredArtifact art =
            apps::AppRegistry::instance().at(name).verifiable();
        const mapping::VerifyReport rep = art.verify();
        all_ok = all_ok && rep.ok();
        std::printf("=== %s (%zu columns, period %u) ===\n",
                    art.name.c_str(), art.prog.columns.size(),
                    art.prog.period);
        std::printf("%s\n", rep.render().c_str());
    }

    if (!all_ok) {
        std::printf("verify_plan: FAIL — a committed lowering has a "
                    "provable safety violation\n");
        return 1;
    }
    std::printf("verify_plan: all four mapped apps verify clean\n");
    return 0;
}
