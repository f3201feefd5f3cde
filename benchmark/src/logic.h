/**
 * @file
 * The benchmark's own decision rules, kept free of timing and I/O so
 * tests/test_logic.cc can pin them:
 *
 *  - which percentile may be reported as a tail (at least ten samples
 *    must lie beyond it),
 *  - whether a ladder step sustained its offered write rate,
 *  - which published epoch made each accepted write visible.
 */

#ifndef SAGA_BENCHMARK_LOGIC_H_
#define SAGA_BENCHMARK_LOGIC_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace sagabench {

/** Samples that must lie beyond a reported percentile. */
inline constexpr std::size_t kMinBeyond = 10;

/**
 * Nearest-rank position (1-based) of percentile @p permille (tenths of
 * a percent) among @p n sorted samples: ceil(permille * n / 1000), at
 * least 1. Integer arithmetic, so p90 of 100 samples is rank 90
 * exactly.
 */
inline std::size_t
percentileRank(std::size_t n, unsigned permille)
{
    const std::size_t rank = (permille * n + 999) / 1000;
    return std::max<std::size_t>(1, std::min(rank, n));
}

/** Samples strictly beyond the nearest-rank percentile. */
inline std::size_t
samplesBeyond(std::size_t n, unsigned permille)
{
    return n == 0 ? 0 : n - percentileRank(n, permille);
}

/** True if percentile @p permille of @p n samples may be reported. */
inline bool
percentileReportable(std::size_t n, unsigned permille)
{
    return samplesBeyond(n, permille) >= kMinBeyond;
}

/**
 * The tail percentile reported for @p n samples: p99 when at least ten
 * samples lie beyond it, else p90 under the same rule, else the
 * median. The candidates are a decade apart, so a workload whose
 * sample count varies by a few percent between runs keeps its tail.
 */
inline unsigned
tailPermille(std::size_t n)
{
    for (const unsigned permille : {990u, 900u}) {
        if (percentileReportable(n, permille))
            return permille;
    }
    return 500;
}

/** Nearest-rank percentile of @p sorted (ascending); 0 when empty. */
inline double
percentileOfSorted(const std::vector<double> &sorted, unsigned permille)
{
    if (sorted.empty())
        return 0;
    return sorted[percentileRank(sorted.size(), permille) - 1];
}

/** Median and rule-chosen tail of one sample set. */
struct Summary
{
    std::size_t count = 0;
    double p50 = 0;
    double tail = 0;
    unsigned tailPermille = 500;
};

inline Summary
summarize(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    Summary s;
    s.count = samples.size();
    s.p50 = percentileOfSorted(samples, 500);
    s.tailPermille = tailPermille(samples.size());
    s.tail = percentileOfSorted(samples, s.tailPermille);
    return s;
}

/** Percentile @p permille of @p samples, with no reportability rule
    (per-step figures that only feed a decision). */
inline double
percentile(std::vector<double> samples, unsigned permille)
{
    std::sort(samples.begin(), samples.end());
    return percentileOfSorted(samples, permille);
}

/** One accepted write, as its sender saw it. */
struct WriteRecord
{
    double scheduledSec = 0;
    /** Accepted edges up to and including this write (1-based end of
        its range in the admission queue's FIFO order). */
    std::uint64_t cumEdges = 0;
};

/** One stepEpoch() return, as the epoch driver saw it. */
struct EpochRecord
{
    double returnSec = 0;
    /** acceptedEdges - backlogEdges after the call: edges drained so
        far, all of them published when stepEpoch() returned. */
    std::uint64_t drainedEdges = 0;
};

/** Freshness of a write that no recorded epoch published. */
inline constexpr double kNeverPublished =
    std::numeric_limits<double>::infinity();

/**
 * Freshness of each write: the return time of the first epoch whose
 * drained count covers the write's cumulative index, minus the
 * write's scheduled send time. @p writes must be in send order
 * (cumEdges ascending) and @p epochs in call order (drainedEdges never
 * decreases, since only the epoch driver drains). Writes no epoch
 * covers get kNeverPublished.
 */
inline std::vector<double>
attributeFreshness(const std::vector<WriteRecord> &writes,
                   const std::vector<EpochRecord> &epochs)
{
    std::vector<double> fresh;
    fresh.reserve(writes.size());
    std::size_t e = 0;
    for (const WriteRecord &w : writes) {
        while (e < epochs.size() && epochs[e].drainedEdges < w.cumEdges)
            ++e;
        fresh.push_back(e < epochs.size()
                            ? epochs[e].returnSec - w.scheduledSec
                            : kNeverPublished);
    }
    return fresh;
}

/** What one ladder step measured. */
struct LadderStep
{
    double offeredEps = 0;
    std::uint64_t shedEdges = 0;
    /** Admission backlog after the step's last epoch. */
    std::uint64_t backlogEndEdges = 0;
    /** Freshness p99 of the step's accepted writes (ms). */
    double freshP99Ms = 0;
    std::size_t freshSamples = 0;
};

/**
 * A step sustains its rate when nothing was shed, the backlog it left
 * fits in one epoch's drain (a growing backlog ends the step above
 * that), and its freshness p99 meets @p freshLimitMs.
 */
inline bool
stepSustained(const LadderStep &step, double freshLimitMs,
              std::uint64_t epochMaxEdges)
{
    return step.shedEdges == 0 && step.backlogEndEdges <= epochMaxEdges &&
           step.freshSamples > 0 && step.freshP99Ms <= freshLimitMs;
}

/**
 * Write capacity: the offered rate of the highest step in an ascending
 * ladder such that it and every step below it sustained; 0 if the
 * first step did not.
 */
inline double
writeCapacity(const std::vector<LadderStep> &ladder, double freshLimitMs,
              std::uint64_t epochMaxEdges)
{
    double capacity = 0;
    for (const LadderStep &step : ladder) {
        if (!stepSustained(step, freshLimitMs, epochMaxEdges))
            break;
        capacity = step.offeredEps;
    }
    return capacity;
}

} // namespace sagabench

#endif // SAGA_BENCHMARK_LOGIC_H_
