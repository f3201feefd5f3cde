/**
 * @file
 * The two streaming workloads, driven through makeRunner() and the
 * StreamingRunner phases (paper Fig. 2b: update, then compute, per
 * batch; Eq. 1 batch latency = update + compute).
 *
 * One run repeats passes over the same fixed-seed stream until
 * --seconds of update + compute have been measured. Every pass starts
 * from a fresh runner (construction + preload is the set-up that
 * setup_s times), streams every batch, and reads the results back
 * after each batch with values(), the runner's only result read. A
 * completed pass's final values are checked: the first against a
 * serial oracle, later ones against the first.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "logic.h"
#include "oracle.h"

#include "gen/profiles.h"
#include "saga/driver.h"
#include "saga/stream_source.h"
#include "telemetry/telemetry.h"

namespace sagabench {
namespace {

using saga::AlgKind;
using saga::Edge;
using saga::EdgeBatch;
using saga::ModelKind;

/** One streaming workload's fixed shape. */
struct StreamSpec
{
    const char *profile;
    double scale;
    /** Share of the (shuffled) edge list ingested during set-up. */
    double preloadShare;
    std::size_t batchEdges;
    AlgKind alg;
    ModelKind model;
    /** Untimed batches streamed before measuring. */
    std::size_t warmupBatches;
};

/** Set-ups per run at least, so setup_s is a median of several. Half
    run before the timed passes and the rest after: set-up cost on a
    shared VM comes in streaks of about a second, and passes alone may
    be too few to span more than one. */
constexpr std::size_t kMinSetups = 6;

/** The workload's input: preload batch plus streamed batches. */
struct StreamInput
{
    saga::NodeId source = 0;
    EdgeBatch preload;
    std::vector<EdgeBatch> batches;
    std::uint64_t streamedEdges = 0;
};

StreamInput
makeInput(const StreamSpec &spec, std::uint64_t seed)
{
    const saga::DatasetProfile profile =
        saga::findProfile(spec.profile)->scaled(spec.scale);
    std::vector<Edge> edges = profile.generate(seed);
    saga::shuffleEdges(edges, seed ^ 0x5eedf00dULL);

    StreamInput in;
    in.source = profile.source;
    const auto split = static_cast<std::size_t>(
        static_cast<double>(edges.size()) * spec.preloadShare);
    in.preload = EdgeBatch(
        std::vector<Edge>(edges.begin(), edges.begin() + split));
    for (std::size_t lo = split; lo < edges.size(); lo += spec.batchEdges) {
        const std::size_t hi = std::min(edges.size(), lo + spec.batchEdges);
        in.batches.emplace_back(
            std::vector<Edge>(edges.begin() + lo, edges.begin() + hi));
        in.streamedEdges += hi - lo;
    }
    return in;
}

/** Per-batch measurements of the timed passes. */
struct BatchSamples
{
    std::vector<double> updateMs, computeMs, batchMs, freshMs, readUs,
        lateUs, edgesPerSec;
    double updateSec = 0, computeSec = 0;
    std::uint64_t edges = 0;
};

RunResult
runStreaming(const char *name, const StreamSpec &spec, const Options &opt,
             bool traced)
{
    namespace tel = saga::telemetry;
    const StreamInput in = makeInput(spec, opt.seed);

    saga::RunConfig cfg;
    cfg.ds = saga::DsKind::Hybrid;
    cfg.alg = spec.alg;
    cfg.model = spec.model;
    cfg.threads = streamThreads();
    cfg.ctx.source = in.source;

    // Set-up: construction + preload. INC needs the preload computed
    // once (its per-batch compute only revisits affected vertices);
    // FS recomputes from scratch every batch, so its set-up stops at
    // the preload.
    std::vector<double> setupSec;
    const auto setup = [&] {
        const Clock::time_point t0 = Clock::now();
        std::unique_ptr<saga::StreamingRunner> r = saga::makeRunner(cfg);
        r->updatePhase(in.preload);
        if (spec.model == ModelKind::INC)
            r->computePhase(in.preload);
        setupSec.push_back(secondsBetween(t0, Clock::now()));
        return r;
    };

    // Untimed warm-up: first-touch page faults, pool spin-up, caches.
    {
        std::unique_ptr<saga::StreamingRunner> r = setup();
        for (std::size_t b = 0;
             b < std::min(spec.warmupBatches, in.batches.size()); ++b) {
            r->updatePhase(in.batches[b]);
            r->computePhase(in.batches[b]);
        }
        setupSec.clear();
    }
    for (std::size_t i = 0; i < kMinSetups / 2; ++i)
        setup();

    SpanLog spans(traced, 0, traced ? 1 << 16 : 0);
    const Clock::time_point origin = Clock::now();
    BatchSamples s;
    std::vector<double> firstPass;
    std::uint64_t mismatches = 0, checked = 0, passes = 0;
    double newEdgeFrac = 0;
    const bool exact = spec.alg != AlgKind::PR;

    while (s.updateSec + s.computeSec < opt.seconds || passes == 0) {
        std::unique_ptr<saga::StreamingRunner> r = setup();
        const std::uint64_t edgesBefore = r->numEdges();
        if (traced)
            tel::setEnabled(true), tel::setTraceEnabled(true);
        std::vector<double> values;
        std::size_t done = 0;
        for (const EdgeBatch &batch : in.batches) {
            const Clock::time_point t0 = Clock::now();
            const double up = r->updatePhase(batch);
            const Clock::time_point t1 = Clock::now();
            const double comp = r->computePhase(batch);
            const Clock::time_point t2 = Clock::now();
            const Clock::time_point t3 = Clock::now();
            values = r->values();
            const Clock::time_point t4 = Clock::now();
            if (spans.enabled()) {
                const std::uint64_t id = spans.add("batch", t0, t4);
                spans.add("updatePhase", t0, t1, id);
                spans.add("computePhase", t1, t2, id);
                spans.add("values", t3, t4, id);
            }
            s.updateMs.push_back(up * 1e3);
            s.computeMs.push_back(comp * 1e3);
            s.batchMs.push_back((up + comp) * 1e3);
            s.edgesPerSec.push_back(static_cast<double>(batch.size()) /
                                    (up + comp));
            s.freshMs.push_back(secondsBetween(t0, t4) * 1e3);
            s.readUs.push_back(secondsBetween(t3, t4) * 1e6);
            s.lateUs.push_back(secondsBetween(t2, t3) * 1e6);
            s.updateSec += up;
            s.computeSec += comp;
            s.edges += batch.size();
            ++done;
            if (s.updateSec + s.computeSec >= opt.seconds && passes > 0)
                break;
        }
        if (traced)
            tel::setEnabled(false), tel::setTraceEnabled(false);
        if (done < in.batches.size())
            break; // time ran out mid-pass: nothing complete to check
        ++passes;
        if (firstPass.empty()) {
            newEdgeFrac = static_cast<double>(r->numEdges() - edgesBefore) /
                          static_cast<double>(in.streamedEdges);
            firstPass = std::move(values);
        } else {
            mismatches += exact ? exactMismatches(values, firstPass)
                                : rankMismatches(values, firstPass);
            checked += values.size();
        }
    }
    while (setupSec.size() < kMinSetups)
        setup();
    const double rssMb = peakRssMb();

    // The oracle runs after the peak-RSS reading: its scratch is the
    // benchmark's memory, not the program's.
    {
        std::vector<Edge> all = in.preload.edges();
        for (const EdgeBatch &batch : in.batches)
            all.insert(all.end(), batch.edges().begin(), batch.edges().end());
        const auto n = static_cast<saga::NodeId>(firstPass.size());
        const std::vector<double> want =
            exact ? referenceBfs(all, n, in.source)
                  : referencePageRank(all, n, cfg.ctx);
        mismatches += exact ? exactMismatches(firstPass, want)
                            : rankMismatches(firstPass, want);
        checked += firstPass.size();
    }

    RunResult res;
    res.attempted = checked;
    res.failed = mismatches;
    const Summary batch = summarize(s.batchMs);
    const Summary fresh = summarize(s.freshMs);
    const Summary read = summarize(s.readUs);
    res.batchP50Ms = batch.p50;
    res.endToEnd = {
        {"setup_s", summarize(setupSec).p50, "s"},
        {"peak_rss_mb", rssMb, "MB"},
        // The median batch rate, not total edges over total time: the
        // total folds in intermittent stalls of a shared host, which
        // the end-to-end gate cannot tell from a regression. The total
        // is printed as stream_eps_overall.
        {"stream_eps", summarize(s.edgesPerSec).p50, "edges/s"},
        {"batch_p50_ms", batch.p50, "ms"},
        {"fresh_p50_ms", fresh.p50, "ms"},
    };
    res.extra = {
        {"batches", static_cast<double>(batch.count), "count"},
        {"batch_tail_ms", batch.tail, "ms"},
        {"fresh_tail_ms", fresh.tail, "ms"},
        {"batch_tail_percentile", batch.tailPermille / 10.0, "%"},
        {"stream_eps_overall",
         static_cast<double>(s.edges) / (s.updateSec + s.computeSec),
         "edges/s"},
        {"read_p50_us", read.p50, "us"},
        {"read_tail_us", read.tail, "us"},
        {"passes", static_cast<double>(passes), "count"},
        {"setups", static_cast<double>(setupSec.size()), "count"},
        {"streamed_edges_per_pass", static_cast<double>(in.streamedEdges),
         "count"},
        {"batch_edges", static_cast<double>(spec.batchEdges), "count"},
    };

    if (traced) {
        const Summary up = summarize(s.updateMs);
        const Summary comp = summarize(s.computeMs);
        const Summary late = summarize(s.lateUs);
        const tel::MetricsSnapshot snap = tel::snapshot();
        const double scatterMs = phaseMeanMs(snap, tel::Phase::UpdateScatter);
        const std::uint64_t n = s.batchMs.size();
        res.perLayer = {
            {"saga.update_ms.p50", up.p50, "ms"},
            {"saga.update_ms.tail", up.tail, "ms"},
            {"saga.compute_ms.p50", comp.p50, "ms"},
            {"saga.compute_ms.tail", comp.tail, "ms"},
            {"saga.update_share", s.updateSec / (s.updateSec + s.computeSec),
             "ratio"},
            {"saga.batch_edges", static_cast<double>(s.edges) / n, "count"},
            {"ds.new_edge_frac", newEdgeFrac, "ratio"},
            {"read.call_us.p50", read.p50, "us"},
            {"read.call_us.tail", read.tail, "us"},
            {"gen.late_us.p50", late.p50, "us"},
            {"gen.late_us.tail", late.tail, "us"},
            {"tel.scatter_ms", scatterMs, "ms"},
            {"tel.apply_ms", mean(s.updateMs) - scatterMs, "ms"},
            {"tel.affected_vertices",
             counterPer(snap, tel::Counter::ComputeAffectedVertices, n),
             "count"},
            {"tel.pr_pull_rounds",
             counterPer(snap, tel::Counter::PrPullRounds, n), "count"},
            {"tel.pr_blocked_rounds",
             counterPer(snap, tel::Counter::PrBlockedRounds, n), "count"},
        };
        res.extra.push_back({"tel.update_apply_span_ms",
                             phaseMeanMs(snap, tel::Phase::UpdateApply),
                             "ms"});
        const std::string base = opt.outDir + "/" + name + "-seed" +
                                 std::to_string(opt.seed);
        writeSpans(base + ".spans.csv", {&spans}, origin);
        tel::writeMetricsJson(base + ".telemetry.json");
        tel::writeTraceJson(base + ".program-trace.json");
        tel::reset();
    }
    return res;
}

} // namespace

RunResult
runIngestTalk(const Options &opt, bool traced)
{
    // Heavy out-degree tail (one hub sources ~10% of edges): the paper
    // finds update dominates here, so scatter/apply scaling shows.
    const StreamSpec spec{"talk",        32, 0.30, 100000, AlgKind::BFS,
                          ModelKind::INC, 3};
    return runStreaming("ingest_talk", spec, opt, traced);
}

RunResult
runPagerankRmat(const Options &opt, bool traced)
{
    // 2^20 vertices: |V| * 8 B is past PrVariant::Auto's 4 MiB
    // crossover, and compute is ~99% of each batch, so the PageRank
    // kernels are what this workload measures.
    const StreamSpec spec{"rmat",       10, 0.90, 50000, AlgKind::PR,
                          ModelKind::FS, 1};
    return runStreaming("pagerank_rmat", spec, opt, traced);
}

} // namespace sagabench
