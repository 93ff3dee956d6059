/**
 * @file
 * Minimal JSON report writer for the perf-trajectory file
 * BENCH_core.json. Several benches contribute sections to one file
 * (ns/op, ticks/sec, fast-path speedups), so the writer re-reads the
 * existing file and merges: the on-disk format is a fixed two-level
 * object { "section": { "key": number } } and the parser accepts
 * exactly that shape (anything else starts the file fresh).
 *
 * Every write also stamps a "host" section naming the machine and
 * build that measured the numbers — { "nproc": N, "compiler": "...",
 * "build_type": "...", "git_sha": "..." } — so a wall-clock
 * comparison across files can tell when it crosses hosts. The stamp
 * is rewritten on each write and never merged.
 */

#ifndef SYNC_BENCH_BENCH_JSON_HH
#define SYNC_BENCH_BENCH_JSON_HH

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

namespace synchro::bench
{

class JsonReport
{
  public:
    explicit JsonReport(std::string path = "BENCH_core.json")
        : path_(std::move(path))
    {
        load();
    }

    void
    set(const std::string &section, const std::string &key,
        double value)
    {
        sections_[section][key] = value;
    }

    /** Merge-write the report; returns false on I/O failure. */
    bool
    write() const
    {
        std::ofstream out(path_, std::ios::trunc);
        if (!out)
            return false;
        out << "{\n  \"host\": {\n"
            << "    \"nproc\": " << std::thread::hardware_concurrency()
            << ",\n    \"compiler\": \"" << compilerName()
            << "\",\n    \"build_type\": \"" << SYNCHRO_BUILD_TYPE
            << "\",\n    \"git_sha\": \"" << gitSha() << "\"\n  }";
        for (const auto &[sec, kv] : sections_) {
            out << ",\n  \"" << sec << "\": {\n";
            bool first_key = true;
            for (const auto &[key, value] : kv) {
                if (!first_key)
                    out << ",\n";
                first_key = false;
                char buf[64];
                std::snprintf(buf, sizeof(buf), "%.6g", value);
                out << "    \"" << key << "\": " << buf;
            }
            out << "\n  }";
        }
        out << "\n}\n";
        return bool(out);
    }

    const std::map<std::string, std::map<std::string, double>> &
    sections() const
    {
        return sections_;
    }

  private:
    static std::string
    compilerName()
    {
#if defined(__clang__)
        return "clang " __clang_version__;
#elif defined(__GNUC__)
        return "gcc " __VERSION__;
#else
        return "unknown";
#endif
    }

    /** The source tree's commit ("-dirty" if modified), or "unknown". */
    static std::string
    gitSha()
    {
        std::string sha;
        FILE *p = popen("git -C \"" SYNCHRO_SOURCE_DIR "\" describe "
                        "--always --dirty --abbrev=12 2>/dev/null",
                        "r");
        if (!p)
            return "unknown";
        char buf[128];
        while (std::fgets(buf, sizeof(buf), p))
            sha += buf;
        pclose(p);
        while (!sha.empty() && std::isspace(uint8_t(sha.back())))
            sha.pop_back();
        return sha.empty() ? "unknown" : sha;
    }

    void
    load()
    {
        std::ifstream in(path_);
        if (!in)
            return;
        std::stringstream ss;
        ss << in.rdbuf();
        parse(ss.str());
    }

    // Parses only the shape write() emits; on any surprise the
    // partial parse is dropped and the report starts fresh.
    void
    parse(const std::string &text)
    {
        size_t pos = 0;
        auto skip = [&] {
            while (pos < text.size() &&
                   std::isspace(uint8_t(text[pos])))
                ++pos;
        };
        auto expect = [&](char c) {
            skip();
            if (pos >= text.size() || text[pos] != c)
                return false;
            ++pos;
            return true;
        };
        auto string_lit = [&](std::string &out) {
            skip();
            if (pos >= text.size() || text[pos] != '"')
                return false;
            size_t end = text.find('"', pos + 1);
            if (end == std::string::npos)
                return false;
            out = text.substr(pos + 1, end - pos - 1);
            pos = end + 1;
            return true;
        };

        std::map<std::string, std::map<std::string, double>> parsed;
        if (!expect('{'))
            return;
        skip();
        while (pos < text.size() && text[pos] != '}') {
            std::string sec;
            if (!string_lit(sec) || !expect(':') || !expect('{'))
                return;
            skip();
            while (pos < text.size() && text[pos] != '}') {
                std::string key;
                if (!string_lit(key) || !expect(':'))
                    return;
                skip();
                std::string ignored;
                if (pos < text.size() && text[pos] == '"') {
                    // A host-stamp string: rewritten on every write.
                    if (!string_lit(ignored))
                        return;
                } else {
                    char *endp = nullptr;
                    double v = std::strtod(text.c_str() + pos, &endp);
                    if (endp == text.c_str() + pos)
                        return;
                    pos = size_t(endp - text.c_str());
                    if (sec != "host")
                        parsed[sec][key] = v;
                }
                skip();
                if (pos < text.size() && text[pos] == ',') {
                    ++pos;
                    skip();
                }
            }
            if (!expect('}'))
                return;
            skip();
            if (pos < text.size() && text[pos] == ',') {
                ++pos;
                skip();
            }
        }
        sections_ = std::move(parsed);
    }

    std::string path_;
    std::map<std::string, std::map<std::string, double>> sections_;
};

} // namespace synchro::bench

#endif // SYNC_BENCH_BENCH_JSON_HH
