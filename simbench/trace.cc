#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace simbench
{

namespace
{

/** The calling thread's open spans, innermost last. */
thread_local std::vector<Span> open_spans;

void
jsonString(std::FILE *f, const std::string &s)
{
    std::fputc('"', f);
    for (char c : s) {
        if (c == '"' || c == '\\')
            std::fputc('\\', f);
        std::fputc(c, f);
    }
    std::fputc('"', f);
}

} // namespace

double
nowSec()
{
    static const auto t0 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

unsigned
threadIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned idx = next.fetch_add(1);
    return idx;
}

uint64_t
Tracer::begin(const char *name, const std::string &app, int64_t item)
{
    if (!on())
        return 0;
    Span s;
    s.id = next_id_.fetch_add(1, std::memory_order_relaxed);
    s.parent = current();
    s.name = name;
    s.app = app;
    s.workload = workload_;
    s.item = item;
    s.thread = threadIndex();
    s.start = nowSec();
    open_spans.push_back(std::move(s));
    return open_spans.back().id;
}

void
Tracer::end(uint64_t id, const char *rename)
{
    if (id == 0)
        return;
    const double t = nowSec();
    for (size_t i = open_spans.size(); i-- > 0;) {
        if (open_spans[i].id != id)
            continue;
        Span s = std::move(open_spans[i]);
        open_spans.erase(open_spans.begin() + long(i));
        s.end = t;
        if (rename)
            s.name = rename;
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(std::move(s));
        return;
    }
}

uint64_t
Tracer::current() const
{
    if (!open_spans.empty())
        return open_spans.back().id;
    return serving_.load(std::memory_order_relaxed);
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

bool
Tracer::writeJson(const std::string &path,
                  const std::string &header) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{%s,\n\"spans\": [\n", header.c_str());
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f, "{\"id\":%llu,\"parent\":%llu,\"name\":",
                     (unsigned long long)s.id,
                     (unsigned long long)s.parent);
        jsonString(f, s.name);
        std::fputs(",\"app\":", f);
        jsonString(f, s.app);
        std::fputs(",\"workload\":", f);
        jsonString(f, s.workload);
        std::fprintf(f,
                     ",\"item\":%lld,\"thread\":%u,\"start_us\":%.3f,"
                     "\"end_us\":%.3f}%s\n",
                     (long long)s.item, s.thread, s.start * 1e6,
                     s.end * 1e6, i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
}

SpanIndex::SpanIndex(std::vector<Span> spans) : spans_(std::move(spans))
{
    for (size_t i = 0; i < spans_.size(); ++i)
        by_id_[spans_[i].id] = i;
    for (size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].parent != 0)
            children_[spans_[i].parent].push_back(i);
    }
}

double
SpanIndex::selfTime(const Span &s) const
{
    auto it = children_.find(s.id);
    if (it == children_.end())
        return s.dur();
    // Children on several worker threads overlap: subtract the union
    // of their intervals, clipped to the parent.
    std::vector<std::pair<double, double>> iv;
    for (size_t c : it->second) {
        double a = std::max(spans_[c].start, s.start);
        double b = std::min(spans_[c].end, s.end);
        if (b > a)
            iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0, lo = 0, hi = -1;
    for (const auto &[a, b] : iv) {
        if (a > hi) {
            if (hi > lo)
                covered += hi - lo;
            lo = a;
            hi = b;
        } else {
            hi = std::max(hi, b);
        }
    }
    if (hi > lo)
        covered += hi - lo;
    return s.dur() - covered;
}

bool
SpanIndex::under(const Span &s, uint64_t root) const
{
    uint64_t p = s.parent;
    while (p != 0) {
        if (p == root)
            return true;
        auto it = by_id_.find(p);
        if (it == by_id_.end())
            return false;
        p = spans_[it->second].parent;
    }
    return false;
}

double
SpanIndex::sumUnder(uint64_t root, const std::string &name) const
{
    double sum = 0;
    for (const Span &s : spans_) {
        if (s.name == name && under(s, root))
            sum += s.dur();
    }
    return sum;
}

} // namespace simbench
