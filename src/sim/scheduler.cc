#include "sim/scheduler.hh"

#include <cstdlib>

#include "common/log.hh"
#include "sim/walks.hh"

namespace synchro
{

const char *
schedulerName(SchedulerKind kind)
{
    switch (kind) {
      case SchedulerKind::EventQueue:
        return "eventq";
      case SchedulerKind::FastEdge:
        return "fastedge";
      case SchedulerKind::Compiled:
        return "compiled";
      case SchedulerKind::ParallelColumns:
        return "parallel";
    }
    return "unknown";
}

bool
parseSchedulerKind(const std::string &name, SchedulerKind &out)
{
    if (name == "eventq") {
        out = SchedulerKind::EventQueue;
    } else if (name == "fastedge") {
        out = SchedulerKind::FastEdge;
    } else if (name == "compiled") {
        out = SchedulerKind::Compiled;
    } else if (name == "parallel") {
        out = SchedulerKind::ParallelColumns;
    } else {
        return false;
    }
    return true;
}

namespace
{

SchedulerKind &
defaultKindSlot()
{
    static SchedulerKind kind = [] {
        const char *env = std::getenv("SYNCHRO_SCHEDULER");
        if (!env || !*env)
            return SchedulerKind::Compiled;
        SchedulerKind k;
        if (!parseSchedulerKind(env, k))
            fatal("SYNCHRO_SCHEDULER=%s is not a backend "
                  "(eventq | fastedge | compiled | parallel)",
                  env);
        return k;
    }();
    return kind;
}

} // namespace

SchedulerKind
defaultSchedulerKind()
{
    return defaultKindSlot();
}

void
setDefaultSchedulerKind(SchedulerKind kind)
{
    defaultKindSlot() = kind;
}

SchedulerKind
backendFromArgs(int &argc, char **argv, SchedulerKind fallback)
{
    SchedulerKind kind = fallback;
    int w = 1;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string name;
        if (arg == "--backend") {
            if (i + 1 >= argc)
                fatal("--backend needs a value "
                      "(eventq | fastedge | compiled | parallel)");
            name = argv[++i];
        } else if (arg.rfind("--backend=", 0) == 0) {
            name = arg.substr(10);
        } else {
            argv[w++] = argv[i];
            continue;
        }
        if (!parseSchedulerKind(name, kind))
            fatal("--backend %s is not a backend "
                  "(eventq | fastedge | compiled | parallel)",
                  name.c_str());
    }
    argv[w] = nullptr;
    argc = w;
    return kind;
}

namespace
{

// Nested-parallelism policy flag: set while the current thread is a
// FleetExecutor pool worker, so the automatic
// ParallelColumns team size degrades to serial instead of spawning
// pool × team threads. thread_local, so concurrent pools and teams
// never observe each other.
thread_local bool tls_in_worker_pool = false;

} // namespace

bool
inWorkerPool()
{
    return tls_in_worker_pool;
}

WorkerPoolScope::WorkerPoolScope() : prev_(tls_in_worker_pool)
{
    tls_in_worker_pool = true;
}

WorkerPoolScope::~WorkerPoolScope()
{
    tls_in_worker_pool = prev_;
}

std::unique_ptr<Scheduler>
makeScheduler(SchedulerKind kind, unsigned team_threads)
{
    return makeSchedulerFor<SchedModel>(kind, team_threads);
}

} // namespace synchro
