/**
 * @file
 * Shared output helpers for the table/figure regeneration benches.
 * Every bench prints the paper's published values next to the
 * model's, so running every binary in build/bench produces a
 * self-contained paper-vs-measured report (EXPERIMENTS.md archives
 * one such run).
 */

#ifndef SYNC_BENCH_BENCH_UTIL_HH
#define SYNC_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <string>

namespace synchro::bench
{

inline void
banner(const std::string &title, const std::string &paper_ref)
{
    std::printf("\n");
    std::printf("=================================================="
                "====================\n");
    std::printf("%s\n", title.c_str());
    std::printf("  reproduces: %s\n", paper_ref.c_str());
    std::printf("=================================================="
                "====================\n");
}

inline void
note(const std::string &text)
{
    std::printf("  note: %s\n", text.c_str());
}

/** Relative delta in percent (guarded). */
inline double
deltaPct(double ours, double paper)
{
    return paper != 0 ? 100.0 * (ours - paper) / paper : 0.0;
}

} // namespace synchro::bench

#endif // SYNC_BENCH_BENCH_UTIL_HH
