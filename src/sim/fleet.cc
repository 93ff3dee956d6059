#include "sim/fleet.hh"

#include <utility>

#include "common/log.hh"
#include "sim/scheduler.hh"

namespace synchro::sim
{

namespace
{

/** First divergence between an output and its golden, one line. */
std::string
diffBytes(const std::vector<uint8_t> &got,
          const std::vector<uint8_t> &want)
{
    if (got.size() != want.size()) {
        return strprintf("output is %zu bytes, golden %zu",
                         got.size(), want.size());
    }
    for (size_t i = 0; i < got.size(); ++i) {
        if (got[i] != want[i]) {
            return strprintf("output[%zu] = 0x%02x, golden 0x%02x",
                             i, got[i], want[i]);
        }
    }
    return "";
}

} // namespace

FleetExecutor::FleetExecutor(FleetConfig cfg) : cfg_(std::move(cfg))
{
    workers_.resize(effectiveWorkers());
    pool_.reserve(workers_.size());
    for (unsigned w = 0; w < workers_.size(); ++w)
        pool_.emplace_back([this, w] { workerLoop(w); });
}

FleetExecutor::~FleetExecutor()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (auto &th : pool_)
        th.join();
}

unsigned
FleetExecutor::effectiveWorkers() const
{
    if (cfg_.workers != 0)
        return cfg_.workers;
    unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 1;
}

unsigned
FleetExecutor::addWorkload(FleetWorkload wl)
{
    if (!wl.build || !wl.feed || !wl.read_output)
        fatal("fleet workload '%s' is missing a hook "
              "(build/feed/read_output are mandatory)",
              wl.name.c_str());
    if (cfg_.verify && !wl.golden)
        fatal("fleet workload '%s' has no golden hook but the fleet "
              "verifies every item",
              wl.name.c_str());

    // The one cold build of this workload: chip construction and
    // program load (the workload arrives lowered and verifier-gated).
    // Every stream's chip is a clone of this template.
    auto t0 = std::chrono::steady_clock::now();
    std::unique_ptr<arch::Chip> tmpl = wl.build(cfg_.scheduler);
    auto t1 = std::chrono::steady_clock::now();
    if (!tmpl)
        fatal("fleet workload '%s': build hook returned no chip",
              wl.name.c_str());
    if (tmpl->curTick() != 0)
        fatal("fleet workload '%s': build hook returned a chip that "
              "already ran",
              wl.name.c_str());

    std::lock_guard<std::mutex> lock(mu_);
    workloads_.push_back(std::move(wl));
    templates_.push_back(std::move(tmpl));
    template_secs_.push_back(
        std::chrono::duration<double>(t1 - t0).count());
    return unsigned(workloads_.size() - 1);
}

const FleetWorkload &
FleetExecutor::workload(unsigned id) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return workloads_.at(id);
}

double
FleetExecutor::templateBuildSeconds(unsigned id) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return template_secs_.at(id);
}

const arch::Chip &
FleetExecutor::templateChip(unsigned id) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return *templates_.at(id);
}

unsigned
FleetExecutor::admitStream(unsigned workload, uint64_t items,
                           uint64_t item_base)
{
    if (items == 0)
        fatal("fleet stream admitted with zero work items");
    std::lock_guard<std::mutex> lock(mu_);
    if (workload >= workloads_.size())
        fatal("fleet stream admitted for unknown workload %u",
              workload);

    auto s = std::make_unique<Stream>();
    s->id = unsigned(streams_.size());
    s->workload = workload;
    s->wl = &workloads_[workload];
    s->tmpl = templates_[workload].get();
    s->next_item = item_base;
    s->last_item = item_base + items;
    s->res.workload = workload;
    s->res.item_base = item_base;
    s->res.items = items;

    if (items_admitted_ == items_served_ + items_abandoned_ &&
        !epoch_open_) {
        serve_start_ = std::chrono::steady_clock::now();
        epoch_open_ = true;
    }
    items_admitted_ += items;

    // Home the stream on the least-loaded deque; idle workers steal
    // it back anyway, this just seeds a sensible spread.
    unsigned home = 0;
    for (unsigned w = 1; w < workers_.size(); ++w) {
        if (workers_[w].q.size() < workers_[home].q.size())
            home = w;
    }
    workers_[home].q.push_back(s.get());
    streams_.push_back(std::move(s));
    work_cv_.notify_all();
    return unsigned(streams_.size() - 1);
}

FleetExecutor::Stream *
FleetExecutor::takeStream(unsigned w, bool &stolen)
{
    // Owner pops the front of its own deque; a thief takes the BACK
    // of a victim's — the classic deque split that keeps owner and
    // thief off the same end.
    stolen = false;
    if (!workers_[w].q.empty()) {
        Stream *s = workers_[w].q.front();
        workers_[w].q.pop_front();
        return s;
    }
    for (unsigned k = 1; k < workers_.size(); ++k) {
        unsigned v = (w + k) % unsigned(workers_.size());
        if (!workers_[v].q.empty()) {
            Stream *s = workers_[v].q.back();
            workers_[v].q.pop_back();
            stolen = true;
            return s;
        }
    }
    return nullptr;
}

void
FleetExecutor::workerLoop(unsigned w)
{
    // Nested-parallelism policy: fleet workers are pool threads, so
    // ParallelColumns chips with an automatic team size degrade to
    // serial here; only an explicit ChipConfig::parallel_columns
    // request nests a column team inside the fleet pool.
    WorkerPoolScope in_pool;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        if (stop_)
            return;
        bool stolen = false;
        Stream *s = takeStream(w, stolen);
        if (s == nullptr) {
            work_cv_.wait(lock);
            continue;
        }
        if (stolen)
            ++steals_;
        ++busy_;
        lock.unlock();

        // One item per pickup: a multi-item stream goes back on the
        // deque between items, so heavy streams interleave with (and
        // can be stolen around) light ones.
        uint64_t abandoned = serveOneItem(*s, workers_[w]);

        lock.lock();
        --busy_;
        ++items_served_;
        items_abandoned_ += abandoned;
        if (s->next_item < s->last_item) {
            workers_[w].q.push_back(s);
            work_cv_.notify_one();
        } else {
            finishStream(*s, workers_[w]);
        }
        if (items_served_ + items_abandoned_ == items_admitted_ &&
            busy_ == 0)
            idle_cv_.notify_all();
    }
}

uint64_t
FleetExecutor::serveOneItem(Stream &s, Worker &shard)
{
    // s.wl / s.tmpl, not workloads_[..] / templates_[..]: the lock
    // is released here and addWorkload may be growing those
    // containers concurrently.
    const FleetWorkload &wl = *s.wl;
    const uint64_t item = s.next_item++;
    try {
        if (!s.chip) {
            // Warm start: deep-copy the programmed template instead
            // of re-running codegen + load for this stream.
            s.chip = s.tmpl->clone();
            ++shard.clones;
        }
        wl.feed(*s.chip, item);
        arch::RunResult r{};
        if (wl.run_chunk > 0) {
            // Sliced serving: pause at every run_chunk boundary so
            // the workload's sampling hook sees the chip mid-item.
            // run() budgets are per call and pending work carries
            // across calls, so the slices reach exactly the state
            // one run(tick_limit) call would have.
            Tick done = 0;
            for (;;) {
                Tick step =
                    std::min<Tick>(wl.run_chunk,
                                   wl.tick_limit - done);
                r = s.chip->run(step);
                if (wl.on_slice)
                    wl.on_slice(*s.chip, item, r.ticks);
                done = r.ticks;
                if (r.exit != arch::RunExit::TickLimit ||
                    done >= wl.tick_limit)
                    break;
            }
        } else {
            r = s.chip->run(wl.tick_limit);
        }
        shard.ticks += r.ticks;
        s.res.ticks += r.ticks;
        shard.max_ticks_reached =
            std::max(shard.max_ticks_reached, r.ticks);
        switch (r.exit) {
          case arch::RunExit::AllHalted:
            ++shard.halted;
            break;
          case arch::RunExit::TickLimit:
            ++shard.tick_limited;
            break;
          case arch::RunExit::Deadlock:
            ++shard.deadlocked;
            break;
        }
        if (r.exit != arch::RunExit::AllHalted) {
            ++s.res.mismatches;
            if (s.res.first_failure.empty()) {
                s.res.first_failure = strprintf(
                    "%s item %llu did not drain (%s at tick %llu)",
                    wl.name.c_str(), (unsigned long long)item,
                    r.exit == arch::RunExit::Deadlock ? "deadlock"
                                                      : "tick limit",
                    (unsigned long long)r.ticks);
            }
        } else {
            std::vector<uint8_t> out = wl.read_output(*s.chip);
            if (cfg_.verify) {
                std::string diff = diffBytes(out, wl.golden(item));
                if (!diff.empty()) {
                    ++s.res.mismatches;
                    if (s.res.first_failure.empty()) {
                        s.res.first_failure = strprintf(
                            "%s item %llu: %s", wl.name.c_str(),
                            (unsigned long long)item, diff.c_str());
                    }
                }
            }
            if (cfg_.keep_outputs)
                s.res.outputs.push_back(std::move(out));
        }
        ++s.res.items_done;
        ++shard.items;
    } catch (const std::exception &e) {
        // Record and abandon the stream — a serving layer survives
        // one bad request; drain() reports it. The items we skip by
        // jumping next_item to the end are returned so the caller
        // credits them to the fleet's accounting: they were
        // admitted, no worker will ever serve them, and drain()
        // would otherwise wait for them forever.
        ++s.res.mismatches;
        if (s.res.first_failure.empty()) {
            s.res.first_failure =
                strprintf("%s item %llu: %s", wl.name.c_str(),
                          (unsigned long long)item, e.what());
        }
        const uint64_t skipped = s.last_item - s.next_item;
        s.next_item = s.last_item;
        return skipped;
    }
    return 0;
}

void
FleetExecutor::finishStream(Stream &s, Worker &shard)
{
    // Harvest the whole stream's counters into the serving worker's
    // shard, then release the chip — peak memory tracks the streams
    // in flight, not the fleet size.
    if (s.chip) {
        s.chip->forEachStat(
            [&shard](const std::string &name, uint64_t v) {
                shard.counters[name] += v;
            });
        s.chip.reset();
    }
}

FleetReport
FleetExecutor::drain()
{
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] {
        return items_served_ + items_abandoned_ == items_admitted_ &&
               busy_ == 0;
    });
    if (epoch_open_) {
        served_wall_seconds_ += std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() -
                                    serve_start_)
                                    .count();
        epoch_open_ = false;
    }

    FleetReport rep;
    rep.streams = streams_.size();
    rep.items = items_served_;
    rep.items_abandoned = items_abandoned_;
    rep.wall_seconds = served_wall_seconds_;
    rep.steals = steals_;
    rep.totals.chips = items_served_;
    for (const Worker &w : workers_) {
        rep.items_by_worker.push_back(w.items);
        rep.clones += w.clones;
        rep.totals.halted += w.halted;
        rep.totals.tick_limited += w.tick_limited;
        rep.totals.deadlocked += w.deadlocked;
        rep.totals.total_ticks += w.ticks;
        rep.totals.max_ticks_reached =
            std::max(rep.totals.max_ticks_reached,
                     w.max_ticks_reached);
        for (const auto &kv : w.counters)
            rep.totals.counters[kv.first] += kv.second;
    }
    for (const auto &s : streams_) {
        rep.stream_results.push_back(s->res);
        if (s->res.mismatches != 0 ||
            s->res.items_done != s->res.items)
            rep.all_verified = false;
    }
    if (rep.wall_seconds > 0) {
        rep.chips_per_sec = double(rep.items) / rep.wall_seconds;
        rep.ticks_per_sec =
            double(rep.totals.total_ticks) / rep.wall_seconds;
    }
    return rep;
}

} // namespace synchro::sim
