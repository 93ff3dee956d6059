#include <functional>

#include "apps/app_registry.hh"
#include "simbench.hh"

using namespace synchro;

namespace simbench
{

namespace
{

constexpr int kReps = 5;

const SchedulerKind kBackends[] = {
    SchedulerKind::EventQueue, SchedulerKind::FastEdge,
    SchedulerKind::Compiled, SchedulerKind::ParallelColumns};

/** Median host ms of @p reps calls of @p fn, each under a span. */
double
timedMs(Tracer &t, const char *span, const std::string &app, int reps,
        const std::function<void()> &fn)
{
    std::vector<double> ms;
    for (int r = 0; r < reps; ++r) {
        SpanScope s(t, span, app);
        const double t0 = nowSec();
        fn();
        ms.push_back((nowSec() - t0) * 1e3);
    }
    return median(ms);
}

/** One finished item: what the backend wall compares. */
struct ItemRun
{
    arch::RunResult result{};
    double seconds = 0;
    std::map<std::string, uint64_t> stats;
    std::vector<uint8_t> output;
};

ItemRun
runItem(const sim::FleetWorkload &wl, const arch::Chip &tmpl,
        SchedulerKind kind, uint64_t item, Tracer &t, const char *span,
        const std::string &app)
{
    std::unique_ptr<arch::Chip> chip = tmpl.clone(kind);
    wl.feed(*chip, item);
    ItemRun out;
    {
        SpanScope s(t, span, app, int64_t(item));
        const double t0 = nowSec();
        out.result = chip->run(wl.tick_limit);
        out.seconds = nowSec() - t0;
    }
    chip->forEachStat([&out](const std::string &name, uint64_t v) {
        out.stats[name] = v;
    });
    if (out.result.exit == arch::RunExit::AllHalted)
        out.output = wl.read_output(*chip);
    return out;
}

} // namespace

ProbeOutcome
probeLayers(uint64_t seed, Recorder &rec,
            std::map<std::string, double> &out)
{
    Tracer &t = rec.tracer;
    const apps::AppRegistry &reg = apps::AppRegistry::instance();
    power::VfModel vf;
    power::SupplyLevels levels(vf);
    power::SystemPowerModel model;
    ProbeOutcome po;
    auto fail = [&po](const std::string &what) {
        ++po.failed;
        po.failures.push_back(what);
    };

    for (const char *name : kApps) {
        const std::string app = name;
        const apps::AppDescriptor &desc = reg.at(app);
        const std::any serving = appParams(app, seed, true);

        // apps: the three capability views the workloads call.
        sim::FleetWorkload wl;
        power::DvfsAppHooks dh;
        std::vector<double> hook_ms;
        for (int r = 0; r < 3; ++r) {
            const double t0 = nowSec();
            {
                SpanScope s(t, "apps.hook", app);
                wl = desc.fleet(serving);
            }
            {
                SpanScope s(t, "apps.hook", app);
                dh = desc.dvfs(serving);
            }
            {
                SpanScope s(t, "apps.hook", app);
                desc.explorable(appParams(app, seed, false));
            }
            hook_ms.push_back((nowSec() - t0) * 1e3);
        }
        out["apps.hook_ms." + app] = median(hook_ms);

        const SchedulerKind def = defaultSchedulerKind();
        std::unique_ptr<arch::Chip> tmpl;
        out["apps.cold_build_ms." + app] =
            timedMs(t, "apps.cold_build", app, 3,
                    [&] { tmpl = wl.build(def); });
        out["arch.clone_ms." + app] =
            timedMs(t, "arch.clone", app, kReps,
                    [&] { std::unique_ptr<arch::Chip> c = tmpl->clone(); });

        // arch: one item at a time on the default backend.
        std::vector<double> run_ms, mticks;
        for (uint64_t item = 0; item < kReps; ++item) {
            ++po.attempted;
            ItemRun ir = runItem(wl, *tmpl, def, item, t, "arch.run", app);
            if (ir.result.exit != arch::RunExit::AllHalted ||
                ir.output != wl.golden(item)) {
                fail(app + ": probe item not bit-exact");
                continue;
            }
            run_ms.push_back(ir.seconds * 1e3);
            mticks.push_back(double(ir.result.ticks) / ir.seconds / 1e6);
            if (item == 0) {
                out["arch.ticks_per_item." + app] =
                    double(ir.result.ticks);
                out["arch.bus_transfers_per_item." + app] =
                    double(ir.stats["bus.transfers"]);
                out["arch.bus_deferrals_per_item." + app] =
                    double(ir.stats["bus.deferrals"]);
            }
        }
        out["arch.run_ms." + app] = median(run_ms);
        out["arch.mticks_per_s." + app] = median(mticks);

        // power: price one finished item.
        {
            std::unique_ptr<arch::Chip> chip = tmpl->clone();
            wl.feed(*chip, 0);
            const arch::RunResult r = chip->run(wl.tick_limit);
            const double rate = chip->config().ref_freq_mhz * 1e6 /
                                double(std::max<Tick>(r.ticks, 1));
            out["power.price_ms." + app] =
                timedMs(t, "power.price", app, kReps, [&] {
                    power::priceSimulationComparison(*chip, 1, rate,
                                                     levels, model);
                });
        }

        // sim: the simulated-statistics wall. Every backend runs the
        // same item and must match EventQueue in ticks, every
        // counter and the output bytes.
        ++po.attempted;
        const ItemRun ref = runItem(wl, *tmpl, SchedulerKind::EventQueue,
                                    0, t, "sim.backend_run", app);
        for (SchedulerKind kind : kBackends) {
            std::vector<double> rates;
            for (int r = 0; r < 3; ++r) {
                ItemRun ir = kind == SchedulerKind::EventQueue && r == 0
                                 ? ref
                                 : runItem(wl, *tmpl, kind, 0, t,
                                           "sim.backend_run", app);
                ++po.attempted;
                if (ir.result.exit != ref.result.exit ||
                    ir.result.ticks != ref.result.ticks ||
                    ir.stats != ref.stats || ir.output != ref.output) {
                    fail(strprintf("%s: %s diverges from eventq",
                                   app.c_str(), schedulerName(kind)));
                }
                rates.push_back(double(ir.result.ticks) / ir.seconds /
                                1e6);
            }
            out[std::string("sim.backend_mticks_per_s.") +
                schedulerName(kind) + "." + app] = median(rates);
        }
        if (ref.output != wl.golden(0))
            fail(app + ": eventq item 0 not bit-exact");

        // mapping: the static verifier on the lowered artifact.
        ++po.attempted;
        bool verified = true;
        out["mapping.verify_ms." + app] =
            timedMs(t, "mapping.verify", app, 3, [&] {
                verified = dh.artifact.verify().ok() && verified;
            });
        if (!verified)
            fail(app + ": lowered artifact fails the verifier");

        // power: the governor's safe-transition table.
        size_t points = 0;
        out["power.table_build_ms." + app] =
            timedMs(t, "power.table_build", app, 3, [&] {
                points = power::SafeTransitionTable::build(
                             dh.artifact,
                             power::DvfsGovernorConfig{}.rate_scales,
                             levels)
                             .points()
                             .size();
            });
        out["power.table_points." + app] = double(points);
    }
    return po;
}

} // namespace simbench
