/**
 * @file
 * Serial reference results the streaming workloads are checked
 * against. They share no code with the library's kernels: a queue BFS
 * over a CSR of the raw edges, and a plain pull PageRank over the
 * deduplicated edge set with the library's convergence rule.
 */

#ifndef SAGA_BENCHMARK_ORACLE_H_
#define SAGA_BENCHMARK_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "algo/context.h"
#include "saga/types.h"

namespace sagabench {

/** Unreached BFS depth, as the library's Bfs::kInf widened to double. */
inline constexpr double kUnreached =
    static_cast<double>(std::numeric_limits<std::uint32_t>::max());

/** Compressed rows: neighbors of v are adj[offsets[v], offsets[v+1]). */
struct Csr
{
    std::vector<std::uint64_t> offsets;
    std::vector<saga::NodeId> adj;
};

/** Rows keyed by @p key(e), holding @p value(e), for @p n vertices. */
template <typename Key, typename Value>
Csr
buildCsr(const std::vector<saga::Edge> &edges, saga::NodeId n, Key key,
         Value value)
{
    Csr csr;
    csr.offsets.assign(std::size_t{n} + 1, 0);
    for (const saga::Edge &e : edges)
        ++csr.offsets[key(e) + 1];
    for (std::size_t v = 0; v < n; ++v)
        csr.offsets[v + 1] += csr.offsets[v];
    csr.adj.resize(edges.size());
    std::vector<std::uint64_t> fill(csr.offsets.begin(),
                                    csr.offsets.end() - 1);
    for (const saga::Edge &e : edges)
        csr.adj[fill[key(e)]++] = value(e);
    return csr;
}

/** Directed BFS depths from @p source over @p edges (duplicates are
    harmless to BFS, so no deduplication). */
inline std::vector<double>
referenceBfs(const std::vector<saga::Edge> &edges, saga::NodeId n,
             saga::NodeId source)
{
    const Csr out = buildCsr(
        edges, n, [](const saga::Edge &e) { return e.src; },
        [](const saga::Edge &e) { return e.dst; });
    std::vector<double> depth(n, kUnreached);
    if (source >= n)
        return depth;
    std::vector<saga::NodeId> queue{source};
    depth[source] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
        const saga::NodeId v = queue[head];
        for (std::uint64_t i = out.offsets[v]; i < out.offsets[v + 1]; ++i) {
            const saga::NodeId w = out.adj[i];
            if (depth[w] == kUnreached) {
                depth[w] = depth[v] + 1;
                queue.push_back(w);
            }
        }
    }
    return depth;
}

/** @p edges with duplicate (src, dst) pairs removed, as the stores
    deduplicate them. */
inline std::vector<saga::Edge>
uniqueEdges(const std::vector<saga::Edge> &edges)
{
    std::vector<std::uint64_t> keys;
    keys.reserve(edges.size());
    for (const saga::Edge &e : edges)
        keys.push_back(std::uint64_t{e.src} << 32 | e.dst);
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    std::vector<saga::Edge> out;
    out.reserve(keys.size());
    for (const std::uint64_t k : keys)
        out.push_back({static_cast<saga::NodeId>(k >> 32),
                       static_cast<saga::NodeId>(k & 0xffffffffu)});
    return out;
}

/**
 * Pull PageRank over the deduplicated @p edges: ranks start at 1/n,
 * each round sets rank(v) = (1-d)/n + d * sum of rank(u)/outDegree(u)
 * over in-neighbors u, and iteration stops once the L1 change falls
 * below ctx.prTolerance or after ctx.prMaxIters rounds.
 */
inline std::vector<double>
referencePageRank(const std::vector<saga::Edge> &edges, saga::NodeId n,
                  const saga::AlgContext &ctx)
{
    const std::vector<saga::Edge> unique = uniqueEdges(edges);
    const Csr in = buildCsr(
        unique, n, [](const saga::Edge &e) { return e.dst; },
        [](const saga::Edge &e) { return e.src; });
    std::vector<std::uint32_t> out_degree(n, 0);
    for (const saga::Edge &e : unique)
        ++out_degree[e.src];

    const double base = (1.0 - ctx.damping) / n;
    std::vector<double> rank(n, 1.0 / n), next(n, 0.0);
    for (std::uint32_t iter = 0; iter < ctx.prMaxIters; ++iter) {
        double delta = 0;
        for (saga::NodeId v = 0; v < n; ++v) {
            double sum = 0;
            for (std::uint64_t i = in.offsets[v]; i < in.offsets[v + 1];
                 ++i)
                sum += rank[in.adj[i]] / out_degree[in.adj[i]];
            next[v] = base + ctx.damping * sum;
            delta += std::fabs(next[v] - rank[v]);
        }
        rank.swap(next);
        if (delta < ctx.prTolerance)
            break;
    }
    return rank;
}

/** Vertices whose values differ exactly (BFS depths). */
inline std::uint64_t
exactMismatches(const std::vector<double> &got,
                const std::vector<double> &want)
{
    if (got.size() != want.size())
        return std::max(got.size(), want.size());
    std::uint64_t bad = 0;
    for (std::size_t v = 0; v < got.size(); ++v)
        bad += got[v] != want[v];
    return bad;
}

/**
 * PageRank mismatches under the INC==FS tests' tolerances (mean |diff|
 * below 2e-4, max |diff| below 5e-3), applied to ranks scaled by |V| so
 * that the mean rank is about 1 at any graph size: each vertex beyond
 * the max bound counts once, and a mean beyond its bound counts once.
 */
inline std::uint64_t
rankMismatches(const std::vector<double> &got,
               const std::vector<double> &want)
{
    if (got.size() != want.size() || got.empty())
        return std::max<std::uint64_t>(1, std::max(got.size(), want.size()));
    const double n = static_cast<double>(got.size());
    std::uint64_t bad = 0;
    double l1 = 0;
    for (std::size_t v = 0; v < got.size(); ++v) {
        const double d = std::fabs(got[v] - want[v]) * n;
        l1 += d;
        bad += !(d < 5e-3);
    }
    bad += !(l1 / n < 2e-4);
    return bad;
}

} // namespace sagabench

#endif // SAGA_BENCHMARK_ORACLE_H_
