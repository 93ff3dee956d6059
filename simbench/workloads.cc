#include <sched.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "apps/app_registry.hh"
#include "apps/motion_runner.hh"
#include "apps/paper_workloads.hh"
#include "apps/pipeline_runner.hh"
#include "apps/stereo_runner.hh"
#include "apps/wifi_runner.hh"
#include "simbench.hh"

using namespace synchro;

namespace simbench
{

const char *const kApps[4] = {"ddc", "wifi", "stereo", "motion"};
const char *const kWorkloads[3] = {"fleet_mixed", "dvfs_bursty",
                                   "explore_sweep"};

uint64_t
mixSeed(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

namespace
{

unsigned
appIndex(const std::string &app)
{
    for (unsigned i = 0; i < kNumApps; ++i) {
        if (app == kApps[i])
            return i;
    }
    fatal("simbench: unknown app '%s'", app.c_str());
}

/** Deterministic generator over mixSeed (no std distributions,
 *  whose output differs between standard libraries). */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed) {}
    uint64_t next() { return mixSeed(state_, ++n_); }
    uint64_t below(uint64_t n) { return next() % n; }

  private:
    uint64_t state_;
    uint64_t n_ = 0;
};

struct ItemState
{
    double feed_t0 = -1; //!< open item's feed() entry
    double busy_t0 = -1; //!< same, until golden() exit
    uint64_t span = 0;   //!< open "serve.item" span
};

thread_local ItemState tl_item;

/**
 * Pins the calling thread to the @p turn-th CPU (mod the CPUs it may
 * use) for its lifetime, then restores the thread's affinity. A
 * one-thread workload that takes turns this way samples every core
 * of the host equally; left alone it stays on whichever core the OS
 * picked, and on a host whose cores differ in speed that alone moves
 * its results from run to run. A no-op where affinity is unavailable.
 */
class CpuTurn
{
  public:
    explicit CpuTurn(uint64_t turn)
    {
        CPU_ZERO(&saved_);
        if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0)
            return;
        std::vector<int> cpus;
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &saved_))
                cpus.push_back(c);
        }
        if (cpus.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[turn % cpus.size()], &one);
        pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
    }

    ~CpuTurn()
    {
        if (pinned_)
            sched_setaffinity(0, sizeof(saved_), &saved_);
    }

    CpuTurn(const CpuTurn &) = delete;
    CpuTurn &operator=(const CpuTurn &) = delete;

  private:
    cpu_set_t saved_;
    bool pinned_ = false;
};

} // namespace

std::any
appParams(const std::string &app, uint64_t seed, bool serving)
{
    const uint32_t s = uint32_t(mixSeed(seed, 100 + appIndex(app)));
    if (app == "ddc") {
        apps::DdcPipelineParams p;
        p.seed = s;
        if (serving)
            p.samples = 128;
        return p;
    }
    if (app == "wifi") {
        apps::WifiPipelineParams p;
        p.seed = s;
        if (serving)
            p.symbols = 2;
        return p;
    }
    if (app == "stereo") {
        apps::StereoPipelineParams p;
        p.seed = s;
        return p;
    }
    apps::MotionPipelineParams p;
    p.seed = s;
    return p;
}

void
Recorder::itemBegin(const std::string &app, uint64_t item)
{
    // A feed with no read_output since is a calibration run (the
    // oracle's probe items) or a failed item: close it apart.
    if (tl_item.span != 0)
        tracer.end(tl_item.span, "serve.probe");
    tl_item.span = tracer.begin("serve.item", app, int64_t(item));
    tl_item.feed_t0 = tl_item.busy_t0 = nowSec();
}

void
Recorder::itemEnd()
{
    if (tl_item.feed_t0 >= 0)
        sample((nowSec() - tl_item.feed_t0) * 1e3);
    tracer.end(tl_item.span);
    tl_item.span = 0;
    tl_item.feed_t0 = -1;
}

void
Recorder::goldenEnd()
{
    if (tl_item.busy_t0 < 0)
        return;
    const double busy = nowSec() - tl_item.busy_t0;
    tl_item.busy_t0 = -1;
    std::lock_guard<std::mutex> lock(mu_);
    busy_[threadIndex()] += busy;
}

void
Recorder::sample(double ms)
{
    std::lock_guard<std::mutex> lock(mu_);
    samples_.push_back(ms);
}

std::vector<double>
Recorder::takeSamples()
{
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(samples_, {});
}

std::map<unsigned, double>
Recorder::takeBusy()
{
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(busy_, {});
}

sim::FleetWorkload
instrument(sim::FleetWorkload wl, const std::string &app, Recorder &rec)
{
    wl.build = [inner = wl.build, app, &rec](SchedulerKind kind) {
        SpanScope s(rec.tracer, "apps.cold_build", app);
        return inner(kind);
    };
    wl.feed = [inner = wl.feed, app, &rec](arch::Chip &chip,
                                           uint64_t item) {
        rec.itemBegin(app, item);
        SpanScope s(rec.tracer, "apps.feed", app, int64_t(item));
        inner(chip, item);
    };
    wl.read_output = [inner = wl.read_output, app,
                      &rec](arch::Chip &chip) {
        std::vector<uint8_t> out;
        {
            SpanScope s(rec.tracer, "apps.readout", app);
            out = inner(chip);
        }
        rec.itemEnd();
        return out;
    };
    wl.golden = [inner = wl.golden, app, &rec](uint64_t item) {
        std::vector<uint8_t> want;
        {
            SpanScope s(rec.tracer, "dsp.golden", app, int64_t(item));
            want = inner(item);
        }
        rec.goldenEnd();
        return want;
    };
    return wl;
}

mapping::ExplorableApp
instrument(mapping::ExplorableApp app, Recorder &rec)
{
    app.lower = [inner = app.lower, name = app.name, &rec,
                 turn = uint64_t(0)](const mapping::ChipPlan &plan,
                                     double rate) mutable {
        // Lowering is serial on the caller's thread: take turns on
        // the cores, as dvfs_bursty does.
        CpuTurn pin(turn++);
        const double t0 = nowSec();
        SpanScope s(rec.tracer, "mapping.lower", name);
        mapping::PipelineProgram prog = inner(plan, rate);
        rec.sample((nowSec() - t0) * 1e3);
        return prog;
    };
    app.verify = [inner = app.verify, name = app.name,
                  &rec](arch::Chip &chip,
                        const mapping::PipelineProgram &prog) {
        SpanScope s(rec.tracer, "apps.verify", name);
        return inner(chip, prog);
    };
    return app;
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const size_t lo = size_t(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
table4ErrPp(const std::vector<mapping::ExplorationResult> &res)
{
    // Registry app -> its Table 4 row.
    static const char *const paper_rows[kNumApps] = {
        "DDC", "802.11a", "SV", "MPEG4-QCIF"};
    double err = 0;
    for (unsigned i = 0; i < res.size() && i < kNumApps; ++i) {
        const mapping::MeasuredPoint &base =
            res[i].points.at(res[i].baseline_index);
        if (!base.ran)
            return -1;
        for (const apps::PaperAppTotal &row : apps::paperAppTotals()) {
            if (row.app == paper_rows[i]) {
                err = std::max(err,
                               std::fabs(base.power.savingsPct() -
                                         row.savings_pct));
            }
        }
    }
    return err;
}

std::vector<mapping::ExplorationResult>
baselineSweeps(uint64_t seed)
{
    mapping::ExploreOptions opt;
    opt.rate_factors.clear();
    opt.divider_steps = 0;
    opt.crosscheck_frontier = false;
    opt.threads = kExploreThreads;
    std::vector<mapping::ExplorationResult> out;
    const apps::AppRegistry &reg = apps::AppRegistry::instance();
    for (const char *app : kApps) {
        mapping::ExplorableApp a =
            reg.at(app).explorable(appParams(app, seed, false));
        a.shard_variants.clear();
        out.push_back(mapping::explorePlans(a, opt));
    }
    return out;
}

namespace
{

// ---------------------------------------------------------------
// fleet_mixed: closed batches of DDC + 802.11a streams.

class FleetMixed : public Workload
{
  public:
    FleetMixed(uint64_t seed, Recorder &rec) : seed_(seed), rec_(rec) {}

    void
    setup() override
    {
        const apps::AppRegistry &reg = apps::AppRegistry::instance();
        sim::FleetWorkload wl[2];
        for (unsigned i = 0; i < 2; ++i) {
            SpanScope s(rec_.tracer, "apps.hook", kApps[i]);
            wl[i] = instrument(
                reg.at(kApps[i]).fleet(appParams(kApps[i], seed_, true)),
                kApps[i], rec_);
        }
        sim::FleetConfig cfg;
        cfg.workers = kFleetWorkers;
        cfg.verify = true;
        fleet_ = std::make_unique<sim::FleetExecutor>(cfg);
        for (unsigned i = 0; i < 2; ++i)
            ids_[i] = fleet_->addWorkload(std::move(wl[i]));
    }

    Round
    round() override
    {
        std::vector<Stream> batch = planBatch(round_++);
        Round r;
        const double t0 = nowSec();
        sim::FleetReport rep;
        {
            ServingScope s(rec_.tracer, "sim.fleet.drain", "mixed");
            for (const Stream &st : batch)
                fleet_->admitStream(ids_[st.workload], st.items,
                                    st.base);
            rep = fleet_->drain();
        }
        r.wall = nowSec() - t0;
        for (const Stream &st : batch)
            r.attempted += st.items;
        r.items = rep.items - prev_.items;
        r.ticks = double(rep.totals.total_ticks -
                         prev_.totals.total_ticks);
        for (size_t i = prev_.stream_results.size();
             i < rep.stream_results.size(); ++i) {
            const sim::FleetStreamResult &sr = rep.stream_results[i];
            r.failed += sr.mismatches;
            if (!sr.first_failure.empty() && failures_ < 3) {
                ++failures_;
                std::printf("# fleet_mixed failure: %s\n",
                            sr.first_failure.c_str());
            }
        }
        r.failed += rep.items_abandoned - prev_.items_abandoned;
        if (rec_.tracer.on()) {
            traced_.rounds++;
            traced_.steals += double(rep.steals - prev_.steals);
            traced_.clones += double(rep.clones - prev_.clones);
            traced_.wall += r.wall;
            for (const auto &[thread, busy] : rec_.takeBusy())
                traced_.busy[thread] += busy;
        } else {
            rec_.takeBusy();
        }
        prev_ = std::move(rep);
        return r;
    }

    void
    layerMetrics(const SpanIndex &,
                 std::map<std::string, double> &out) const override
    {
        const double rounds = std::max(1.0, double(traced_.rounds));
        out["sim.fleet.steals"] = traced_.steals / rounds;
        out["sim.fleet.clones"] = traced_.clones / rounds;
        double sum = 0, peak = 0;
        for (const auto &[thread, busy] : traced_.busy) {
            sum += busy;
            peak = std::max(peak, busy);
        }
        const double n = double(traced_.busy.size());
        out["sim.fleet.worker_busy_pct"] =
            traced_.wall > 0
                ? 100.0 * sum / (kFleetWorkers * traced_.wall)
                : 0;
        out["sim.fleet.worker_imbalance"] =
            sum > 0 ? peak / (sum / n) : 0;
    }

  private:
    struct Stream
    {
        unsigned workload = 0;
        uint64_t items = 0;
        uint64_t base = 0;
    };

    /**
     * One closed batch: a fixed mix of stream lengths (mostly 1-2
     * items, a minority of 8-item streams) in seeded order with
     * seeded item bases. Per batch: 192 DDC items (77%) and 56
     * 802.11a items (23%), so the median item is a DDC item and the
     * p99 item an 802.11a one.
     */
    std::vector<Stream>
    planBatch(uint64_t round) const
    {
        struct Mix
        {
            unsigned workload, items, count;
        };
        static const Mix mix[] = {{0, 1, 48}, {0, 2, 40}, {0, 8, 8},
                                  {1, 1, 16}, {1, 2, 12}, {1, 8, 2}};
        std::vector<Stream> v;
        for (const Mix &m : mix) {
            for (unsigned c = 0; c < m.count; ++c)
                v.push_back({m.workload, m.items, 0});
        }
        Rng rng(mixSeed(seed_, 1000 + round));
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[rng.below(i)]);
        for (Stream &s : v)
            s.base = rng.next() >> 24;
        return v;
    }

    uint64_t seed_;
    Recorder &rec_;
    std::unique_ptr<sim::FleetExecutor> fleet_;
    unsigned ids_[2] = {0, 0};
    sim::FleetReport prev_;
    uint64_t round_ = 0;
    unsigned failures_ = 0;

    struct
    {
        uint64_t rounds = 0;
        double steals = 0;
        double clones = 0;
        double wall = 0;
        std::map<unsigned, double> busy;
    } traced_;
};

// ---------------------------------------------------------------
// dvfs_bursty: every app x {Static, Governed, Oracle}, one thread.

/**
 * Bursty items per traffic phase, per app. DDC items are the cheapest
 * and two thirds of all items, so the median item sits well inside
 * the DDC mode; stereo items are the dearest and 11%, so the p99 item
 * sits inside the stereo mode.
 */
constexpr unsigned kItemsPerPhase[kNumApps] = {24, 4, 4, 4};

const power::DvfsPolicy kPolicies[3] = {power::DvfsPolicy::Static,
                                        power::DvfsPolicy::Governed,
                                        power::DvfsPolicy::Oracle};
const char *const kPolicyNames[3] = {"static", "governed", "oracle"};

class DvfsBursty : public Workload
{
  public:
    DvfsBursty(uint64_t seed, Recorder &rec) : seed_(seed), rec_(rec) {}

    void
    setup() override
    {
        const apps::AppRegistry &reg = apps::AppRegistry::instance();
        for (unsigned i = 0; i < kNumApps; ++i) {
            power::DvfsAppHooks h;
            {
                SpanScope s(rec_.tracer, "apps.hook", kApps[i]);
                h = reg.at(kApps[i]).dvfs(
                    appParams(kApps[i], seed_, true));
            }
            h.workload = instrument(std::move(h.workload), kApps[i],
                                    rec_);
            hooks_.push_back(std::move(h));
            scenarios_.emplace_back(sim::TrafficSpec::bursty(
                uint32_t(mixSeed(seed_, 200 + i)), kItemsPerPhase[i]));
        }
    }

    Round
    round() override
    {
        Round r;
        for (unsigned a = 0; a < kNumApps; ++a) {
            power::GovernedRunResult res[3];
            for (unsigned p = 0; p < 3; ++p) {
                power::GovernedRunOptions opt;
                opt.policy = kPolicies[p];
                opt.verify_outputs = true;
                opt.keep_outputs = true;
                // Shifting the turn each round moves every (app,
                // policy) run over every core.
                CpuTurn pin(3 * a + p + round_);
                const double t0 = nowSec();
                uint64_t span = 0;
                {
                    ServingScope s(rec_.tracer, "power.runGoverned",
                                   kApps[a]);
                    span = s.id();
                    res[p] = power::runGoverned(hooks_[a],
                                                scenarios_[a], opt);
                }
                r.wall += nowSec() - t0;
                r.items += res[p].items;
                r.ticks += double(res[p].busy_ticks);
                if (span != 0)
                    governed_spans_.push_back(
                        {span, a, res[p].sim_seconds});
            }
            const uint64_t n = scenarios_[a].workItems();
            r.attempted += 3 * n;
            r.failed += failedItems(res, n, a);
            if (!have_results_[a]) {
                for (unsigned p = 0; p < 3; ++p)
                    first_[a][p] = summarize(res[p]);
                have_results_[a] = true;
            }
        }
        ++round_;
        return r;
    }

    void
    layerMetrics(const SpanIndex &spans,
                 std::map<std::string, double> &out) const override
    {
        // runGoverned wall - its sim_seconds - the wrapped hooks,
        // summed over the three policies, per round.
        std::map<unsigned, double> rest;
        std::map<unsigned, double> runs;
        for (const GovernedSpan &g : governed_spans_) {
            for (const Span &s : spans.all()) {
                if (s.id != g.span)
                    continue;
                double hooks = 0;
                for (const char *h : {"apps.feed", "apps.readout",
                                      "dsp.golden", "apps.cold_build"})
                    hooks += spans.sumUnder(g.span, h);
                rest[g.app] += s.dur() - g.sim_seconds - hooks;
                runs[g.app] += 1;
                break;
            }
        }
        for (unsigned a = 0; a < kNumApps; ++a) {
            const std::string app = kApps[a];
            const double rounds = std::max(1.0, runs[a] / 3.0);
            out["power.governor_rest_ms." + app] =
                rest[a] * 1e3 / rounds;
            const Summary *s = first_[a];
            const double st = s[0].mw, gov = s[1].mw, orc = s[2].mw;
            out["power.governed_savings_pct." + app] =
                st > 0 ? 100.0 * (st - gov) / st : 0;
            out["power.oracle_gap_pct." + app] =
                orc > 0 ? 100.0 * (gov - orc) / orc : 0;
            for (unsigned p = 0; p < 3; ++p) {
                out["power.deadline_misses." + app + "." +
                    kPolicyNames[p]] = double(s[p].misses);
            }
        }
    }

  private:
    struct Summary
    {
        double mw = 0;
        uint64_t misses = 0;
    };

    struct GovernedSpan
    {
        uint64_t span;
        unsigned app;
        double sim_seconds;
    };

    static Summary
    summarize(const power::GovernedRunResult &r)
    {
        return {r.power.multi_v.total(), r.deadline_misses};
    }

    /**
     * Items that failed: every item of a run that was not bit-exact
     * against its golden (runGoverned reports a run-level verdict),
     * plus items whose output differs between the policies.
     */
    uint64_t
    failedItems(const power::GovernedRunResult (&res)[3], uint64_t n,
                unsigned app)
    {
        uint64_t failed = 0;
        for (unsigned p = 0; p < 3; ++p) {
            if (!res[p].bit_exact || res[p].outputs.size() != n) {
                failed += n;
                report(res[p].first_failure.empty()
                           ? std::string("missing outputs")
                           : res[p].first_failure,
                       app);
            }
        }
        if (failed != 0)
            return failed;
        for (uint64_t i = 0; i < n; ++i) {
            if (res[0].outputs[i] != res[1].outputs[i] ||
                res[0].outputs[i] != res[2].outputs[i]) {
                ++failed;
                report(strprintf("item %llu differs across policies",
                                 (unsigned long long)i),
                       app);
            }
        }
        return failed;
    }

    void
    report(const std::string &what, unsigned app)
    {
        if (failures_++ < 3)
            std::printf("# dvfs_bursty failure (%s): %s\n", kApps[app],
                        what.c_str());
    }

    uint64_t seed_;
    Recorder &rec_;
    std::vector<power::DvfsAppHooks> hooks_;
    std::vector<sim::TrafficScenario> scenarios_;
    std::vector<GovernedSpan> governed_spans_;
    Summary first_[kNumApps][3];
    bool have_results_[kNumApps] = {false, false, false, false};
    uint64_t round_ = 0;
    unsigned failures_ = 0;
};

// ---------------------------------------------------------------
// explore_sweep: the stock design-space sweep of every app.

class ExploreSweep : public Workload
{
  public:
    ExploreSweep(uint64_t seed, Recorder &rec) : seed_(seed), rec_(rec)
    {}

    void
    setup() override
    {
        const apps::AppRegistry &reg = apps::AppRegistry::instance();
        for (const char *app : kApps) {
            SpanScope s(rec_.tracer, "apps.hook", app);
            apps_.push_back(instrument(
                reg.at(app).explorable(appParams(app, seed_, false)),
                rec_));
        }
    }

    Round
    round() override
    {
        mapping::ExploreOptions opt;
        opt.threads = kExploreThreads;
        Round r;
        last_.clear();
        for (unsigned a = 0; a < kNumApps; ++a) {
            const double t0 = nowSec();
            mapping::ExplorationResult res;
            {
                ServingScope s(rec_.tracer, "mapping.explorePlans",
                               kApps[a]);
                if (s.id() != 0)
                    sweep_spans_.push_back({s.id(), a});
                res = mapping::explorePlans(apps_[a], opt);
            }
            r.wall += nowSec() - t0;
            uint64_t failed = 0;
            for (size_t i = 0; i < res.points.size(); ++i) {
                const mapping::MeasuredPoint &pt = res.points[i];
                const bool checked =
                    pt.on_frontier || i == res.baseline_index;
                if (!pt.ran || !pt.bit_exact ||
                    (checked && !pt.crosschecked)) {
                    ++failed;
                    report(pt.label + ": " + pt.failure, a);
                } else {
                    ++r.items;
                    r.ticks += double(pt.ticks);
                }
            }
            if (failed == 0 && (!res.all_bit_exact || !res.agreement)) {
                failed = 1;
                report(res.agreement ? "not all bit-exact"
                                     : "optimizer disagreement",
                       a);
            }
            r.attempted += std::max<uint64_t>(res.points.size(), failed);
            r.failed += failed;
            last_.push_back(std::move(res));
        }
        return r;
    }

    void
    layerMetrics(const SpanIndex &spans,
                 std::map<std::string, double> &out) const override
    {
        std::map<unsigned, double> rest, sweeps;
        for (const auto &[id, app] : sweep_spans_) {
            for (const Span &s : spans.all()) {
                if (s.id == id) {
                    rest[app] += spans.selfTime(s);
                    sweeps[app] += 1;
                    break;
                }
            }
        }
        for (unsigned a = 0; a < kNumApps; ++a) {
            const std::string app = kApps[a];
            out["mapping.explore_rest_ms." + app] =
                sweeps[a] > 0 ? rest[a] * 1e3 / sweeps[a] : 0;
            if (a < last_.size()) {
                out["mapping.candidates." + app] =
                    double(last_[a].points.size());
                out["mapping.frontier_points." + app] =
                    double(last_[a].frontier.size());
            }
        }
    }

    const std::vector<mapping::ExplorationResult> *
    sweepResults() const override
    {
        return &last_;
    }

  private:
    void
    report(const std::string &what, unsigned app)
    {
        if (failures_++ < 3)
            std::printf("# explore_sweep failure (%s): %s\n",
                        kApps[app], what.c_str());
    }

    uint64_t seed_;
    Recorder &rec_;
    std::vector<mapping::ExplorableApp> apps_;
    std::vector<mapping::ExplorationResult> last_;
    std::vector<std::pair<uint64_t, unsigned>> sweep_spans_;
    unsigned failures_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed, Recorder &rec)
{
    if (name == "fleet_mixed")
        return std::make_unique<FleetMixed>(seed, rec);
    if (name == "dvfs_bursty")
        return std::make_unique<DvfsBursty>(seed, rec);
    if (name == "explore_sweep")
        return std::make_unique<ExploreSweep>(seed, rec);
    return nullptr;
}

} // namespace simbench
