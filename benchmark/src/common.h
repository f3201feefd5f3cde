/**
 * @file
 * Shared plumbing of the benchmark workloads: options, clocks, the
 * open-loop wait, the in-memory span log of a traced run, and the
 * per-run result every workload fills in.
 */

#ifndef SAGA_BENCHMARK_COMMON_H_
#define SAGA_BENCHMARK_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/telemetry.h"

namespace sagabench {

using Clock = std::chrono::steady_clock;

/** Seconds from @p a to @p b. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Command-line settings shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Directory the traced run writes its spans and telemetry into. */
    std::string outDir = "benchmark/out";
    /** Provenance strings passed through from the launcher. */
    std::string commit = "unknown";
    std::string buildType = "unknown";
};

/** Worker threads of the streaming runners: this host's cores, at
    most four (the size the workloads are tuned for). */
std::size_t streamThreads();

/**
 * Block until @p due: sleep to within kSpin of it, then spin the rest,
 * because sleep_until alone wakes tens of microseconds late. @return
 * the time the caller actually proceeds (never before @p due).
 */
inline Clock::time_point
waitUntil(Clock::time_point due)
{
    constexpr auto kSpin = std::chrono::microseconds(60);
    if (Clock::now() < due - kSpin)
        std::this_thread::sleep_until(due - kSpin);
    Clock::time_point now = Clock::now();
    while (now < due)
        now = Clock::now();
    return now;
}

/** One recorded span: a benchmark-side call into a program layer. */
struct Span
{
    const char *name = "";
    std::uint64_t id = 0;
    /** Id of the span that caused this one (0 = none). */
    std::uint64_t parent = 0;
    std::uint32_t thread = 0;
    Clock::time_point start{};
    Clock::time_point end{};
};

/**
 * Spans of one thread, kept in memory while the traced run measures
 * and written out after it. A disabled log records nothing, so the
 * untraced run pays one branch per call.
 */
class SpanLog
{
  public:
    SpanLog(bool enabled, std::uint32_t thread, std::size_t reserve = 0)
        : enabled_(enabled), thread_(thread)
    {
        if (enabled_)
            spans_.reserve(reserve);
    }

    bool enabled() const { return enabled_; }

    /** Record a finished span; @return its id (0 when disabled). */
    std::uint64_t
    add(const char *name, Clock::time_point start, Clock::time_point end,
        std::uint64_t parent = 0)
    {
        if (!enabled_)
            return 0;
        const std::uint64_t id =
            (std::uint64_t{thread_} << 40) | (spans_.size() + 1);
        spans_.push_back({name, id, parent, thread_, start, end});
        return id;
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool enabled_;
    std::uint32_t thread_;
    std::vector<Span> spans_;
};

/** Write @p logs as CSV (name,id,parent,thread,start_us,dur_us) with
    times relative to @p origin. @return false if the file failed. */
bool writeSpans(const std::string &path,
                const std::vector<const SpanLog *> &logs,
                Clock::time_point origin);

/** One named value with its unit. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What one measured run of a workload produced. */
struct RunResult
{
    /** End-to-end metrics (the untraced run's are reported). */
    std::vector<Metric> endToEnd;
    /** Per-layer metrics (the traced run's are reported). */
    std::vector<Metric> perLayer;
    /** Figures printed for the reader but not gated. */
    std::vector<Metric> extra;
    /** Operations checked, and those that failed their check. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** False if the run cannot be trusted (e.g. the generator ran
        late); @ref note says why. */
    bool valid = true;
    std::string note;
    /** The latency the trace-overhead figure compares (ms). */
    double batchP50Ms = 0;
};

/** Arithmetic mean; 0 when empty. */
inline double
mean(const std::vector<double> &v)
{
    double sum = 0;
    for (const double x : v)
        sum += x;
    return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

/** Mean span of telemetry phase @p phase in ms; 0 if it never ran. */
inline double
phaseMeanMs(const saga::telemetry::MetricsSnapshot &snap,
            saga::telemetry::Phase phase)
{
    const auto &p = snap.phases[static_cast<std::size_t>(phase)];
    return p.count ? static_cast<double>(p.totalNs) /
                         static_cast<double>(p.count) / 1e6
                   : 0.0;
}

/** Telemetry counter @p c divided by @p per (0 when @p per is 0). */
inline double
counterPer(const saga::telemetry::MetricsSnapshot &snap,
           saga::telemetry::Counter c, std::uint64_t per)
{
    return per ? static_cast<double>(
                     snap.counters[static_cast<std::size_t>(c)]) /
                     static_cast<double>(per)
               : 0.0;
}

/** Peak resident set size of this process so far, in MiB. */
double peakRssMb();

/** Run one workload once; @p traced turns on spans and telemetry. */
RunResult runIngestTalk(const Options &opt, bool traced);
RunResult runPagerankRmat(const Options &opt, bool traced);
RunResult runServeMixed(const Options &opt, bool traced);

} // namespace sagabench

#endif // SAGA_BENCHMARK_COMMON_H_
