/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span is one call into a library layer, recorded from the
 * benchmark's side of the call: name, start, end, parent span, app,
 * workload, item and the host thread it ran on. Spans nest through a
 * per-thread stack of open spans; a thread with nothing open (a fleet
 * worker running a wrapped hook) parents its spans under the serving
 * call the main thread has marked with ServingScope. Nothing is
 * written until the run ends: writeJson() dumps every span as one
 * file. A disabled recorder costs one relaxed load per call.
 */

#ifndef SIMBENCH_TRACE_HH
#define SIMBENCH_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace simbench
{

/** Seconds since the first call (process-wide steady clock). */
double nowSec();

struct Span
{
    uint64_t id = 0;
    uint64_t parent = 0; //!< 0 = a root span
    std::string name;    //!< "<layer>.<call>", e.g. "apps.feed"
    std::string app;
    std::string workload;
    int64_t item = -1; //!< work item, -1 when not item-scoped
    unsigned thread = 0;
    double start = 0;
    double end = 0;

    double dur() const { return end - start; }
};

/** Small dense id of the calling thread (0 = first thread seen). */
unsigned threadIndex();

class Tracer
{
  public:
    void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
    bool on() const { return on_.load(std::memory_order_relaxed); }

    void setWorkload(const std::string &w) { workload_ = w; }

    /** Open a span on the calling thread; 0 when disabled. */
    uint64_t begin(const char *name, const std::string &app,
                   int64_t item = -1);

    /** Close the innermost open span of the calling thread, renamed
     *  to @p rename when non-null. No-op for id 0. */
    void end(uint64_t id, const char *rename = nullptr);

    /** Id of the innermost open span of the calling thread (or the
     *  serving parent), 0 if none. */
    uint64_t current() const;

    /** Parent for spans opened on threads with an empty stack. */
    void setServingParent(uint64_t id)
    {
        serving_.store(id, std::memory_order_relaxed);
    }

    /** Every closed span, in closing order. */
    std::vector<Span> spans() const;

    /** Write every span as one JSON document. */
    bool writeJson(const std::string &path, const std::string &header)
        const;

  private:
    std::atomic<bool> on_{false};
    std::atomic<uint64_t> next_id_{1};
    std::atomic<uint64_t> serving_{0};
    std::string workload_;

    mutable std::mutex mu_; //!< guards spans_
    std::vector<Span> spans_;
};

/** RAII span around one call; inert when the tracer is off. */
class SpanScope
{
  public:
    SpanScope(Tracer &t, const char *name, const std::string &app,
              int64_t item = -1)
        : t_(t), id_(t.begin(name, app, item))
    {}
    ~SpanScope() { t_.end(id_); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    uint64_t id() const { return id_; }

  private:
    Tracer &t_;
    uint64_t id_;
};

/**
 * A serving call (FleetExecutor::drain, runGoverned, explorePlans):
 * a span on the calling thread that worker-thread hook spans parent
 * under while it is open.
 */
class ServingScope
{
  public:
    ServingScope(Tracer &t, const char *name, const std::string &app)
        : t_(t), span_(t, name, app)
    {
        t_.setServingParent(span_.id());
    }
    ~ServingScope() { t_.setServingParent(0); }

    ServingScope(const ServingScope &) = delete;
    ServingScope &operator=(const ServingScope &) = delete;

    uint64_t id() const { return span_.id(); }

  private:
    Tracer &t_;
    SpanScope span_;
};

/** Span lookups over a finished trace. */
class SpanIndex
{
  public:
    explicit SpanIndex(std::vector<Span> spans);

    const std::vector<Span> &all() const { return spans_; }

    /** Duration minus the time its direct children cover. */
    double selfTime(const Span &s) const;

    /** True when @p s lies (transitively) under span id @p root. */
    bool under(const Span &s, uint64_t root) const;

    /** Summed duration of spans named @p name below @p root. */
    double sumUnder(uint64_t root, const std::string &name) const;

  private:
    std::vector<Span> spans_;
    std::map<uint64_t, size_t> by_id_;
    std::map<uint64_t, std::vector<size_t>> children_;
};

} // namespace simbench

#endif // SIMBENCH_TRACE_HH
