/**
 * @file
 * saga_benchmark — one run of one benchmark workload.
 *
 *   saga_benchmark --workload ingest_talk|pagerank_rmat|serve_mixed
 *                  --seed N --seconds S --trace 0|1
 *                  [--out-dir DIR] [--commit C] [--build-type T]
 *
 * --trace 0 runs the workload once, untraced, and reports the
 * end-to-end metrics. --trace 1 runs it untraced and then traced (the
 * benchmark's spans around each call into a layer, plus the program's
 * own telemetry), reports the per-layer metrics of the traced run and
 * the tracing overhead between the two, and writes the spans out.
 *
 * Human-readable lines come first; the last line of standard output is
 * the JSON result {"correct", "attempted", "failed", "metrics"}.
 * benchmark/run.py builds this program and is the usual entry point.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common.h"

namespace sagabench {

std::size_t
streamThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp<std::size_t>(hw, 1, 4);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

bool
writeSpans(const std::string &path, const std::vector<const SpanLog *> &logs,
           Clock::time_point origin)
{
    std::ofstream os(path);
    os << "name,id,parent,thread,start_us,dur_us\n";
    for (const SpanLog *log : logs) {
        for (const Span &s : log->spans()) {
            os << s.name << ',' << s.id << ',' << s.parent << ','
               << s.thread << ',' << secondsBetween(origin, s.start) * 1e6
               << ',' << secondsBetween(s.start, s.end) * 1e6 << '\n';
        }
    }
    return static_cast<bool>(os);
}

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::cerr << "saga_benchmark: " << why
              << "\nusage: saga_benchmark --workload "
                 "ingest_talk|pagerank_rmat|serve_mixed --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR] [--commit C] "
                 "[--build-type T]\n";
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                opt.workload = value;
            else if (flag == "--seed")
                opt.seed = std::stoull(value);
            else if (flag == "--seconds")
                opt.seconds = std::stod(value);
            else if (flag == "--trace")
                opt.trace = std::stoi(value) != 0;
            else if (flag == "--out-dir")
                opt.outDir = value;
            else if (flag == "--commit")
                opt.commit = value;
            else if (flag == "--build-type")
                opt.buildType = value;
            else
                usage(("unknown flag " + flag).c_str());
        } catch (const std::exception &) {
            usage(("bad value for " + flag).c_str());
        }
    }
    if (!(opt.seconds > 0))
        usage("--seconds must be positive");
    return opt;
}

/** Full-precision number for the JSON line. */
std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
printMetrics(const char *title, const std::vector<Metric> &metrics)
{
    std::cout << title << '\n';
    for (const Metric &m : metrics) {
        std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::cout.flush();
}

} // namespace
} // namespace sagabench

int
main(int argc, char **argv)
{
    using namespace sagabench;
    const Options opt = parse(argc, argv);
    RunResult (*run)(const Options &, bool) = nullptr;
    if (opt.workload == "ingest_talk")
        run = runIngestTalk;
    else if (opt.workload == "pagerank_rmat")
        run = runPagerankRmat;
    else if (opt.workload == "serve_mixed")
        run = runServeMixed;
    else
        usage(("unknown workload '" + opt.workload + "'").c_str());

    std::printf("provenance: workload=%s seed=%llu seconds=%g trace=%d "
                "nproc=%ld hardware_concurrency=%u build_type=%s "
                "commit=%s\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
                std::thread::hardware_concurrency(), opt.buildType.c_str(),
                opt.commit.c_str());
    std::fflush(stdout);

    const RunResult base = run(opt, false);
    RunResult reported = base;
    std::uint64_t attempted = base.attempted, failed = base.failed;
    bool valid = base.valid;
    std::string note = base.note;
    if (opt.trace) {
        std::filesystem::create_directories(opt.outDir);
        RunResult traced = run(opt, true);
        attempted += traced.attempted;
        failed += traced.failed;
        valid = valid && traced.valid;
        if (note.empty())
            note = traced.note;
        traced.perLayer.push_back(
            {"trace.overhead_pct",
             (traced.batchP50Ms / base.batchP50Ms - 1.0) * 100.0, "%"});
        printMetrics("untraced end-to-end (reference for the overhead):",
                     base.endToEnd);
        reported = traced;
    }

    printMetrics(opt.trace ? "traced end-to-end:" : "end-to-end:",
                 reported.endToEnd);
    if (opt.trace)
        printMetrics("per-layer:", reported.perLayer);
    printMetrics("details:", reported.extra);
    const std::vector<Metric> &metrics =
        opt.trace ? reported.perLayer : reported.endToEnd;
    std::string broken; // a metric that is not a finite number
    for (const Metric &m : metrics) {
        if (!std::isfinite(m.value))
            broken = " " + m.name + " is not a finite number";
    }
    // An invalid run (the load generator ran late: a stalled host, not a
    // wrong output) is flagged on the verdict line and on standard error
    // but does not make the outputs incorrect.
    const bool correct = failed == 0 && broken.empty();
    if (!valid) {
        note = " INVALID: " + note;
        std::fprintf(stderr, "saga_benchmark: run%s\n", note.c_str());
    } else {
        note.clear();
    }
    std::printf("verdict: %s (attempted=%llu failed=%llu failed_frac=%.3g)%s%s\n",
                correct ? "CORRECT" : "INCORRECT",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                attempted ? static_cast<double>(failed) /
                                static_cast<double>(attempted)
                          : 0.0,
                broken.c_str(), note.c_str());

    std::ostringstream js;
    js << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        js << (i ? ", " : "") << '"' << metrics[i].name
           << "\": {\"value\": "
           << num(std::isfinite(metrics[i].value) ? metrics[i].value : 0) << ", \"unit\": \""
           << metrics[i].unit << "\"}";
    }
    js << "}}";
    std::cout << js.str() << std::endl;
    return 0;
}
