/**
 * @file
 * serve_mixed: the always-on service under open-loop mixed traffic,
 * driven through makeService() and the GraphService API.
 *
 * Three threads: the epoch driver (this thread) calls stepEpoch() and
 * idles epochIntervalMicros when nothing was drained, as start() does;
 * one open-loop reader sends point and algorithm reads; one open-loop
 * writer offers 16-edge updates. Every rate is a constant below, never
 * a calibration, so two commits see the same offered load.
 *
 * Timeline: an untimed warm-up; then rounds, each on a freshly built
 * service (set-up time): a fixed-rate slice (the end-to-end read,
 * freshness and epoch figures) followed by a closed-loop drain block of
 * full epochs (drain capacity); then, on the last round's service, an
 * ascending ladder of offered write rates with quiet gaps between steps
 * (write capacity). Alternating slices and blocks spreads both
 * measurements over the whole run, so a second or two of a slow shared
 * host moves a few of their samples rather than all of one phase. A
 * fresh service per round keeps every round on a graph of the same
 * size; the ladder's accepted edges depend on how fast the service is,
 * the rounds' do not.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common.h"
#include "logic.h"

#include "gen/rmat.h"
#include "platform/rng.h"
#include "serve/service.h"
#include "telemetry/telemetry.h"

namespace sagabench {
namespace {

using saga::Edge;
using saga::NodeId;

constexpr std::uint32_t kBootstrapScale = 17; // 131072 vertices
constexpr std::uint64_t kBootstrapEdges = std::uint64_t{1} << 20;
constexpr NodeId kNodes = NodeId{1} << kBootstrapScale;

constexpr double kReadsPerSec = 20000;
/** Read mix degree:neighbors:bfs:topk = 4:3:2:1. */
constexpr unsigned kMixWeights[4] = {4, 3, 2, 1};
constexpr const char *kReadNames[4] = {"degree", "neighbors", "bfs",
                                       "topk"};

constexpr std::size_t kWriteEdges = 16;
constexpr double kFixedEdgesPerSec = 64000;
constexpr double kLadderEdgesPerSec[] = {64000, 256000, 1024000};

constexpr double kWarmupSec = 1.0;
/** Share of --seconds spent in fixed-rate slices, all rounds together. */
constexpr double kFixedShare = 0.45;
/** Fixed-rate slice + drain block rounds per second of --seconds. */
constexpr double kRoundsPerSec = 1.0;
/** Full epochs in each drain block. */
constexpr std::size_t kBlockEpochs = 2;
/** Write-free time before each fixed-rate slice after the first. */
constexpr double kSliceGapSec = 0.05;
constexpr double kStepShare = 0.1;
/** No writes between ladder steps, so each starts with an empty queue. */
constexpr double kGapSec = 0.5;

/** A step sustains its rate only if write freshness p99 stays here. */
constexpr double kFreshLimitMs = 250;
/** Read latency limit. Generator lateness p99 above a fifth of the
    read limit (reads) or of the freshness limit (writes) marks the run
    invalid: it would measure the generator, not the service. */
constexpr double kReadLimitUs = 5000;
constexpr double kMaxLateShare = 0.2;

/** Segment kinds of the write timeline. */
constexpr int kWarm = -1;
constexpr int kFixed = 0;
constexpr int kStep = 1;

struct Segment
{
    double startSec = 0;
    double endSec = 0;
    double edgesPerSec = 0;
    int kind = kWarm;
};

/** True if @p v is in the degree-check sample (~1/64 of vertices). */
bool
sampled(NodeId v)
{
    return ((v * 0x9E3779B1u) >> 26) == 0;
}

/** A random 16-edge write. */
void
randomWrite(saga::Rng &rng, Edge (&write)[kWriteEdges])
{
    for (Edge &e : write)
        e = {static_cast<NodeId>(rng.below(kNodes)),
             static_cast<NodeId>(rng.below(kNodes))};
}

Clock::time_point
at(Clock::time_point t0, double sec)
{
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(sec));
}

/** One read: its class, when it was due (s after t0), sent and done. */
struct ReadRecord
{
    double dueSec = 0;
    Clock::time_point sent{}, done{};
    int kind = 0;
};

struct ReaderOut
{
    std::vector<ReadRecord> reads;
    std::uint64_t inconsistent = 0, regressions = 0;
};

struct WriterOut
{
    /** Accepted writes in queue order, with the segment each was in. */
    std::vector<WriteRecord> writes;
    std::vector<std::size_t> writeSegment;
    std::vector<std::uint64_t> shedEdges, offeredEdges;
    std::vector<double> offerUs, lateUs;
    std::uint64_t fixedWrites = 0, fixedShed = 0;
    /** Accepted edges whose source is sampled(). */
    std::vector<Edge> sampledEdges;
};

struct EpochCall
{
    double startSec = 0, endSec = 0;
    bool advanced = false;
    std::uint64_t edges = 0, backlog = 0;
};

/** Send reads on schedule from @p startSec (after @p t0) until @p stop.
    Every read is recorded; which ones fall in a fixed-rate slice is
    decided after the run. */
void
readerLoop(saga::GraphService &svc, Clock::time_point t0, double startSec,
           const std::atomic<bool> &stop, saga::Rng &rng, ReaderOut &out)
{
    std::uint64_t graphEpoch = 0, algoEpoch = 0;
    const unsigned total = 4 + 3 + 2 + 1;
    for (std::uint64_t k = 0; !stop.load(std::memory_order_acquire); ++k) {
        const double dueSec =
            startSec + static_cast<double>(k) / kReadsPerSec;
        const Clock::time_point due = at(t0, dueSec);
        unsigned pick = static_cast<unsigned>(rng.below(total));
        int kind = 0;
        while (pick >= kMixWeights[kind])
            pick -= kMixWeights[kind++];
        const auto v = static_cast<NodeId>(rng.below(kNodes));

        const Clock::time_point sent = waitUntil(due);
        bool ok = true;
        std::uint64_t epoch = 0;
        switch (kind) {
          case 0:
            epoch = svc.degree(v).epoch;
            break;
          case 1: {
            const saga::NeighborsReply r = svc.neighbors(v);
            ok = r.degree == r.neighbors.size();
            epoch = r.epoch;
            break;
          }
          case 2: {
            const saga::BfsReply r = svc.bfsDistance(v);
            ok = r.reachable == (r.distance != UINT32_MAX);
            epoch = r.epoch;
            break;
          }
          default: {
            const saga::TopKReply r = svc.pageRankTopK();
            ok = r.entries.size() <= 10 &&
                 std::is_sorted(r.entries.begin(), r.entries.end(),
                                [](const auto &a, const auto &b) {
                                    return a.rank > b.rank;
                                });
            epoch = r.epoch;
            break;
          }
        }
        const Clock::time_point done = Clock::now();
        std::uint64_t &last = kind < 2 ? graphEpoch : algoEpoch;
        out.regressions += epoch < last;
        last = std::max(last, epoch);
        out.inconsistent += !ok;
        out.reads.push_back({dueSec, sent, done, kind});
    }
}

/**
 * Offer the writes of segments [@p first, @p last). @p accepted is the
 * queue's accepted-edge count when the first write goes out; this
 * thread is then the only one offering, so it can number its accepted
 * edges in queue order.
 */
void
writerLoop(saga::GraphService &svc, Clock::time_point t0,
           const std::vector<Segment> &segments, std::size_t first,
           std::size_t last, std::uint64_t accepted, saga::Rng &rng,
           SpanLog &spans, WriterOut &out)
{
    Edge write[kWriteEdges];
    for (std::size_t s = first; s < last; ++s) {
        const Segment &seg = segments[s];
        const double gap = kWriteEdges / seg.edgesPerSec;
        for (std::uint64_t k = 0;; ++k) {
            const double dueSec = seg.startSec + static_cast<double>(k) * gap;
            if (dueSec >= seg.endSec)
                break;
            randomWrite(rng, write);
            const Clock::time_point due = at(t0, dueSec);
            const Clock::time_point sent = waitUntil(due);
            const bool ok = svc.offerUpdate(write, kWriteEdges);
            const Clock::time_point done = Clock::now();
            out.offeredEdges[s] += kWriteEdges;
            if (seg.kind == kFixed) {
                out.offerUs.push_back(secondsBetween(sent, done) * 1e6);
                out.lateUs.push_back(secondsBetween(due, sent) * 1e6);
                spans.add("offerUpdate", sent, done);
                ++out.fixedWrites;
                out.fixedShed += !ok;
            }
            if (!ok) {
                out.shedEdges[s] += kWriteEdges;
                continue;
            }
            accepted += kWriteEdges;
            out.writes.push_back({dueSec, accepted});
            out.writeSegment.push_back(s);
            for (const Edge &e : write) {
                if (sampled(e.src))
                    out.sampledEdges.push_back(e);
            }
        }
    }
}

/** Update / compute split of one stepEpoch() from the program trace. */
struct EpochSplit
{
    double updateMs = 0, computeMs = 0;
    /** The update/scatter span inside the update. */
    double scatterMs = 0;
};

/**
 * One EpochSplit per serve/epoch span, in call order: serve/stage and
 * the publish window before serve/refresh are the update; the refresh
 * and the publish window after it are the compute.
 */
std::vector<EpochSplit>
splitEpochs(const std::vector<saga::telemetry::TraceEvent> &events)
{
    using saga::telemetry::Phase;
    std::vector<EpochSplit> out;
    std::uint64_t begin[saga::telemetry::kNumPhases] = {};
    bool afterRefresh = false;
    for (const auto &ev : events) {
        if (ev.phase != Phase::ServeEpoch && ev.phase != Phase::ServeStage &&
            ev.phase != Phase::ServeRefresh &&
            ev.phase != Phase::ServePublish &&
            ev.phase != Phase::UpdateScatter)
            continue;
        const auto p = static_cast<std::size_t>(ev.phase);
        if (ev.type == 'B') {
            begin[p] = ev.tsNs;
            if (ev.phase == Phase::ServeEpoch) {
                out.emplace_back();
                afterRefresh = false;
            }
            continue;
        }
        if (out.empty() || ev.phase == Phase::ServeEpoch)
            continue;
        const double ms = static_cast<double>(ev.tsNs - begin[p]) / 1e6;
        if (ev.phase == Phase::UpdateScatter) {
            out.back().scatterMs += ms;
        } else if (ev.phase == Phase::ServeRefresh) {
            out.back().computeMs += ms;
            afterRefresh = true;
        } else if (ev.phase == Phase::ServeStage || !afterRefresh) {
            out.back().updateMs += ms;
        } else {
            out.back().computeMs += ms;
        }
    }
    return out;
}

} // namespace

RunResult
runServeMixed(const Options &opt, bool traced)
{
    namespace tel = saga::telemetry;
    saga::RmatParams params;
    params.scale = kBootstrapScale;
    params.numEdges = kBootstrapEdges;
    params.seed = opt.seed;
    const std::vector<Edge> bootstrap = saga::generateRmat(params);

    saga::ServeConfig cfg;
    cfg.ds = saga::DsKind::Hybrid;
    cfg.threads = std::min<std::size_t>(2, streamThreads());

    const auto rounds = static_cast<std::size_t>(
        std::max(2.0, std::round(kRoundsPerSec * opt.seconds)));
    const double sliceSec = kFixedShare * opt.seconds /
                            static_cast<double>(rounds);
    const std::size_t numSteps = std::size(kLadderEdgesPerSec);

    // Write segments: the warm-up, one fixed-rate slice per round, then
    // the ladder steps. Each is appended only while no writer runs.
    std::vector<Segment> segments;
    segments.reserve(1 + rounds + numSteps);
    segments.push_back({0, kWarmupSec, kFixedEdgesPerSec, kWarm});
    /** [start, end) of each fixed-rate slice, in s after t0. */
    std::vector<std::pair<double, double>> fixedWindows;
    const auto inFixed = [&fixedWindows](double sec) {
        return std::any_of(fixedWindows.begin(), fixedWindows.end(),
                           [sec](const auto &w) {
                               return sec >= w.first && sec < w.second;
                           });
    };

    SpanLog readLog(traced, 1, traced ? 1 << 18 : 0);
    SpanLog writeLog(traced, 2, traced ? 1 << 16 : 0);
    SpanLog epochLog(traced, 3, traced ? 1 << 12 : 0);
    ReaderOut reader;
    reader.reads.reserve(
        static_cast<std::size_t>(kReadsPerSec * (2 * opt.seconds + 4)));
    WriterOut writer;
    writer.shedEdges.assign(1 + rounds + numSteps, 0);
    writer.offeredEdges = writer.shedEdges;
    saga::Rng readRng(opt.seed ^ 0x7ead5ULL);
    saga::Rng writeRng(opt.seed ^ 0x3717e5ULL);
    std::vector<EpochCall> calls;
    /** Epochs and accepted writes of the current service; their edge
        counts restart with each service. */
    std::vector<EpochRecord> published;
    std::vector<std::vector<double>> freshMs(1 + rounds + numSteps);
    std::uint64_t drained = 0, epochRegressions = 0, lastEpoch = 0;

    // Each round runs on a freshly built service, so every round works
    // on a graph of the same size, and set-up time is sampled across
    // the whole run.
    std::vector<double> setupSec;
    std::unique_ptr<saga::GraphService> svc;
    const auto setupService = [&] {
        svc.reset();
        const Clock::time_point a = Clock::now();
        svc = saga::makeService(cfg);
        svc->bootstrap(bootstrap);
        setupSec.push_back(secondsBetween(a, Clock::now()));
        drained = 0;
        lastEpoch = 0;
        writer.sampledEdges.clear();
    };
    setupService();
    const std::uint64_t edgesAfterBootstrap = svc->stats().graphEdges;

    // The epoch driver. drained = acceptedEdges - backlogEdges; only
    // this thread drains, so it can only grow (a write admitted between
    // stats()'s two reads can make one sample low by a write, which
    // delays attribution, never advances it; max() keeps it monotone).
    Clock::time_point t0;
    const auto stepOnce = [&] {
        const Clock::time_point a = Clock::now();
        const bool advanced = svc->stepEpoch();
        const Clock::time_point b = Clock::now();
        const saga::ServeStats st = svc->stats();
        const std::uint64_t now = std::max(
            drained, st.acceptedEdges - std::min(st.acceptedEdges,
                                                 st.backlogEdges));
        calls.push_back({secondsBetween(t0, a), secondsBetween(t0, b),
                         advanced, now - drained, st.backlogEdges});
        published.push_back({secondsBetween(t0, b), now});
        drained = now;
        epochRegressions += st.graphEpoch < lastEpoch;
        lastEpoch = std::max(lastEpoch, st.graphEpoch);
        if (advanced && inFixed(calls.back().startSec))
            epochLog.add("stepEpoch", a, b);
        return advanced;
    };
    const auto driveUntil = [&](double endSec) {
        while (secondsBetween(t0, Clock::now()) < endSec) {
            if (!stepOnce())
                std::this_thread::sleep_for(
                    std::chrono::microseconds(cfg.epochIntervalMicros));
        }
    };
    const auto drainQueue = [&] {
        while (svc->stats().backlogEdges > 0)
            stepOnce();
    };
    const auto spawnWriter = [&](std::size_t first, std::size_t last) {
        const std::uint64_t accepted = svc->stats().acceptedEdges;
        return std::thread([&, first, last, accepted] {
            writerLoop(*svc, t0, segments, first, last, accepted, writeRng,
                       writeLog, writer);
        });
    };
    // Freshness of the current service's writes, all published by now.
    const auto collectFreshness = [&] {
        const std::vector<double> fresh =
            attributeFreshness(writer.writes, published);
        for (std::size_t i = 0; i < fresh.size(); ++i)
            freshMs[writer.writeSegment[i]].push_back(fresh[i] * 1e3);
        writer.writes.clear();
        writer.writeSegment.clear();
        published.clear();
    };
    std::atomic<bool> stopReads{false};
    std::thread readThread;
    const auto startReads = [&](double startSec) {
        stopReads.store(false, std::memory_order_relaxed);
        readThread = std::thread([&, startSec] {
            readerLoop(*svc, t0, startSec, stopReads, readRng, reader);
        });
    };
    const auto stopReadsNow = [&] {
        stopReads.store(true, std::memory_order_release);
        readThread.join();
    };

    if (traced)
        tel::setEnabled(true), tel::setTraceEnabled(true);
    t0 = Clock::now();
    startReads(0);

    std::uint64_t drainShed = 0;
    std::vector<double> drainEdgesPerSec;
    double sliceStart = kWarmupSec;
    double rssMb = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
        if (r > 0) {
            // A new service, built untraced: set-up is not an epoch.
            stopReadsNow();
            if (traced)
                tel::setEnabled(false), tel::setTraceEnabled(false);
            setupService();
            if (traced)
                tel::setEnabled(true), tel::setTraceEnabled(true);
            const double now = secondsBetween(t0, Clock::now());
            startReads(now);
            sliceStart = now + kSliceGapSec;
        }
        // Fixed-rate slice; the first round's writer starts with the
        // warm-up.
        segments.push_back({sliceStart, sliceStart + sliceSec,
                            kFixedEdgesPerSec, kFixed});
        fixedWindows.emplace_back(sliceStart, sliceStart + sliceSec);
        std::thread writeThread =
            spawnWriter(r == 0 ? 0 : segments.size() - 1, segments.size());
        driveUntil(sliceStart + sliceSec);
        writeThread.join();
        drainQueue();

        // Drain block, closed loop: this thread offers one epoch's worth
        // of 16-edge writes into the empty queue, then times the
        // stepEpoch that publishes them. Reads keep running.
        for (std::size_t i = 0; i < kBlockEpochs; ++i) {
            Edge write[kWriteEdges];
            for (std::size_t n = 0; n < cfg.epochMaxEdges; n += kWriteEdges) {
                randomWrite(writeRng, write);
                if (!svc->offerUpdate(write, kWriteEdges)) {
                    drainShed += kWriteEdges;
                    continue;
                }
                for (const Edge &e : write) {
                    if (sampled(e.src))
                        writer.sampledEdges.push_back(e);
                }
            }
            stepOnce();
            drainEdgesPerSec.push_back(
                static_cast<double>(calls.back().edges) /
                (calls.back().endSec - calls.back().startSec));
        }
        drainQueue();
        collectFreshness();
        // Peak memory over the first round. Later rounds free one
        // service and build the next, and how much of the freed memory
        // the allocator keeps resident varies from run to run.
        if (r == 0)
            rssMb = peakRssMb();
    }

    // Write-rate ladder, on the last round's service.
    const std::size_t firstStep = segments.size();
    double t = secondsBetween(t0, Clock::now());
    int stepKind = kStep;
    for (const double rate : kLadderEdgesPerSec) {
        t += kGapSec;
        segments.push_back(
            {t, t + kStepShare * opt.seconds, rate, stepKind++});
        t += kStepShare * opt.seconds;
    }
    std::thread writeThread = spawnWriter(firstStep, segments.size());
    driveUntil(t);
    writeThread.join();
    stopReadsNow();
    const std::size_t tracedCalls = calls.size();
    if (traced)
        tel::setEnabled(false), tel::setTraceEnabled(false);
    // Publish everything still queued so the degree check sees it.
    for (saga::ServeStats st = svc->stats();
         st.backlogEdges > 0 || st.algoEpoch != st.graphEpoch;
         st = svc->stats())
        stepOnce();
    collectFreshness();
    const saga::ServeStats ended = svc->stats();

    // Degree check: sampled vertices against the last service's accepted
    // edge set.
    std::unordered_map<NodeId, std::vector<NodeId>> want;
    for (const Edge &e : bootstrap) {
        if (sampled(e.src))
            want[e.src].push_back(e.dst);
    }
    for (const Edge &e : writer.sampledEdges)
        want[e.src].push_back(e.dst);
    std::uint64_t degreeMismatches = 0;
    for (auto &[v, dsts] : want) {
        std::sort(dsts.begin(), dsts.end());
        dsts.erase(std::unique(dsts.begin(), dsts.end()), dsts.end());
        degreeMismatches += svc->degree(v).outDegree != dsts.size();
    }

    std::vector<double> freshFixedMs;
    for (std::size_t s = 0; s < segments.size(); ++s) {
        if (segments[s].kind == kFixed)
            freshFixedMs.insert(freshFixedMs.end(), freshMs[s].begin(),
                                freshMs[s].end());
    }

    // Reads and epochs of the fixed-rate slices.
    std::vector<double> latencyUs[4], callUs[4], readLateUs;
    for (const ReadRecord &r : reader.reads) {
        if (!inFixed(r.dueSec))
            continue;
        const Clock::time_point due = at(t0, r.dueSec);
        latencyUs[r.kind].push_back(secondsBetween(due, r.done) * 1e6);
        callUs[r.kind].push_back(secondsBetween(r.sent, r.done) * 1e6);
        readLateUs.push_back(secondsBetween(due, r.sent) * 1e6);
        readLog.add(kReadNames[r.kind], r.sent, r.done);
    }
    std::vector<double> epochMs, epochEdges;
    for (const EpochCall &c : calls) {
        if (c.advanced && inFixed(c.startSec)) {
            epochMs.push_back((c.endSec - c.startSec) * 1e3);
            epochEdges.push_back(static_cast<double>(c.edges));
        }
    }

    // Ladder decision.
    std::vector<LadderStep> ladder;
    RunResult res;
    for (std::size_t s = firstStep; s < segments.size(); ++s) {
        LadderStep st;
        st.offeredEps = segments[s].edgesPerSec;
        st.shedEdges = writer.shedEdges[s];
        for (const EpochCall &c : calls) {
            if (c.endSec <= segments[s].endSec)
                st.backlogEndEdges = c.backlog;
        }
        st.freshSamples = freshMs[s].size();
        st.freshP99Ms = percentile(freshMs[s], 990);
        ladder.push_back(st);
        const std::string p =
            "ladder." + std::to_string(static_cast<long long>(st.offeredEps));
        res.extra.push_back(
            {p + ".shed_frac",
             static_cast<double>(st.shedEdges) /
                 static_cast<double>(
                     std::max<std::uint64_t>(1, writer.offeredEdges[s])),
             "ratio"});
        res.extra.push_back({p + ".fresh_p99_ms", st.freshP99Ms, "ms"});
        res.extra.push_back(
            {p + ".backlog_end", static_cast<double>(st.backlogEndEdges),
             "edges"});
        res.extra.push_back(
            {p + ".sustained",
             stepSustained(st, kFreshLimitMs, cfg.epochMaxEdges) ? 1.0 : 0.0,
             "bool"});
    }
    const double capacity =
        writeCapacity(ladder, kFreshLimitMs, cfg.epochMaxEdges);

    std::vector<double> readAll, callAll;
    for (int k = 0; k < 4; ++k) {
        readAll.insert(readAll.end(), latencyUs[k].begin(),
                       latencyUs[k].end());
        callAll.insert(callAll.end(), callUs[k].begin(), callUs[k].end());
    }
    const Summary read = summarize(readAll);
    const Summary call = summarize(callAll);
    const Summary late = summarize(readLateUs);
    const Summary freshFixed = summarize(freshFixedMs);
    const Summary epoch = summarize(epochMs);

    res.attempted = reader.reads.size() + writer.fixedWrites + want.size() +
                    calls.size();
    res.failed = reader.inconsistent + reader.regressions +
                 writer.fixedShed + drainShed / kWriteEdges +
                 degreeMismatches + epochRegressions;
    // Unpublished fixed-phase writes would read as infinite freshness.
    for (const double f : freshFixedMs)
        res.failed += f == kNeverPublished;
    const double readLateP99 = percentile(readLateUs, 990);
    const double writeLateP99 = percentile(writer.lateUs, 990);
    if (readLateP99 > kMaxLateShare * kReadLimitUs ||
        writeLateP99 > kMaxLateShare * kFreshLimitMs * 1e3) {
        res.valid = false;
        res.note = "generator lateness p99 (read " +
                   std::to_string(readLateP99) + " us, write " +
                   std::to_string(writeLateP99) +
                   " us) exceeds a fifth of its latency limit";
    }
    res.batchP50Ms = epoch.p50;
    res.endToEnd = {
        {"setup_s", summarize(setupSec).p50, "s"},
        {"peak_rss_mb", rssMb, "MB"},
        {"stream_eps", summarize(drainEdgesPerSec).p50, "edges/s"},
        {"batch_p50_ms", epoch.p50, "ms"},
        {"fresh_p50_ms", freshFixed.p50, "ms"},
    };
    res.extra.insert(
        res.extra.begin(),
        {{"write_capacity_eps", capacity, "edges/s"},
         {"fresh_limit_ms", kFreshLimitMs, "ms"},
         {"read_limit_us", kReadLimitUs, "us"},
         {"epochs_fixed", static_cast<double>(epoch.count), "count"},
         {"batch_tail_ms", epoch.tail, "ms"},
         {"epoch_tail_percentile", epoch.tailPermille / 10.0, "%"},
         {"rounds", static_cast<double>(rounds), "count"},
         {"drain_epochs", static_cast<double>(drainEdgesPerSec.size()),
          "count"},
         {"reads_fixed", static_cast<double>(read.count), "count"},
         {"read_p50_us", read.p50, "us"},
         {"read_tail_us", read.tail, "us"},
         {"read_tail_percentile", read.tailPermille / 10.0, "%"},
         {"writes_fixed", static_cast<double>(freshFixed.count), "count"},
         {"fresh_tail_ms", freshFixed.tail, "ms"},
         {"fresh_tail_percentile", freshFixed.tailPermille / 10.0, "%"},
         {"serve.epoch_edges", mean(epochEdges), "count"},
         {"serve.offer_us.p50", percentile(writer.offerUs, 500), "us"},
         {"serve.offer_us.p99", percentile(writer.offerUs, 990), "us"},
         {"gen.read_late_us.p99", readLateP99, "us"},
         {"gen.write_late_us.p99", writeLateP99, "us"},
         {"read.mean_us", mean(readAll), "us"},
         {"read.mean_call_plus_late_us",
          mean(callAll) + mean(readLateUs), "us"}});
    for (int k = 0; k < 4; ++k) {
        const std::string p = std::string("serve.read.") + kReadNames[k];
        res.extra.push_back(
            {p + "_us.p50", percentile(callUs[k], 500), "us"});
        res.extra.push_back(
            {p + "_us.p99", percentile(callUs[k], 990), "us"});
    }

    if (traced) {
        const std::vector<EpochSplit> split =
            splitEpochs(tel::traceSnapshot());
        std::vector<double> upMs, compMs, scatterMs;
        double upSum = 0, compSum = 0, edges = 0, epochSum = 0;
        for (std::size_t i = 0; i < std::min(split.size(), tracedCalls);
             ++i) {
            const EpochCall &c = calls[i];
            if (!c.advanced || !inFixed(c.startSec))
                continue;
            upMs.push_back(split[i].updateMs);
            compMs.push_back(split[i].computeMs);
            scatterMs.push_back(split[i].scatterMs);
            upSum += split[i].updateMs;
            compSum += split[i].computeMs;
            edges += static_cast<double>(c.edges);
            epochSum += (c.endSec - c.startSec) * 1e3;
        }
        const tel::MetricsSnapshot snap = tel::snapshot();
        const std::uint64_t refreshes =
            snap.phases[static_cast<std::size_t>(tel::Phase::ServeRefresh)]
                .count;
        const auto perRefresh = [&](tel::Counter c) {
            return counterPer(snap, c, refreshes);
        };
        const Summary up = summarize(upMs);
        const Summary comp = summarize(compMs);
        res.perLayer = {
            {"saga.update_ms.p50", up.p50, "ms"},
            {"saga.update_ms.tail", up.tail, "ms"},
            {"saga.compute_ms.p50", comp.p50, "ms"},
            {"saga.compute_ms.tail", comp.tail, "ms"},
            {"saga.update_share", upSum / (upSum + compSum), "ratio"},
            {"saga.batch_edges", edges / static_cast<double>(upMs.size()),
             "count"},
            {"ds.new_edge_frac",
             static_cast<double>(ended.graphEdges - edgesAfterBootstrap) /
                 static_cast<double>(ended.acceptedEdges),
             "ratio"},
            {"read.call_us.p50", call.p50, "us"},
            {"read.call_us.tail", call.tail, "us"},
            {"gen.late_us.p50", late.p50, "us"},
            {"gen.late_us.tail", late.tail, "us"},
            {"tel.scatter_ms", mean(scatterMs), "ms"},
            {"tel.apply_ms", mean(upMs) - mean(scatterMs), "ms"},
            {"tel.affected_vertices",
             perRefresh(tel::Counter::ComputeAffectedVertices), "count"},
            {"tel.pr_pull_rounds", perRefresh(tel::Counter::PrPullRounds),
             "count"},
            {"tel.pr_blocked_rounds",
             perRefresh(tel::Counter::PrBlockedRounds), "count"},
        };
        // stepEpoch = update + compute + queue drain and bookkeeping;
        // the residual is that last part.
        res.extra.push_back({"accounting.epoch_residual_pct",
                             (epochSum - upSum - compSum) / epochSum * 100,
                             "%"});
        res.extra.push_back(
            {"serve.refresh_ms.mean",
             phaseMeanMs(snap, tel::Phase::ServeRefresh), "ms"});
        const std::string base =
            opt.outDir + "/serve_mixed-seed" + std::to_string(opt.seed);
        writeSpans(base + ".spans.csv", {&readLog, &writeLog, &epochLog}, t0);
        tel::writeMetricsJson(base + ".telemetry.json");
        tel::writeTraceJson(base + ".program-trace.json");
        tel::reset();
    }
    return res;
}

} // namespace sagabench
