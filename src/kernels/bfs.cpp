#include "kernels/bfs.hpp"

#include <algorithm>

#include "accel/policy.hpp"
#include "common/log.hpp"

namespace awb::kernels {

namespace {

void
checkBfsArgs(const CscMatrix &a, Index source)
{
    if (a.rows() != a.cols())
        fatal("bfs: adjacency must be square");
    if (source < 0 || source >= a.rows())
        fatal("bfs: source out of range");
}

/** Claim the next level from `frontier` (ascending): first-setting
 *  frontier vertex wins, so parents are the smallest eligible u. */
std::vector<Index>
claimNextLevel(const CscMatrix &a, const std::vector<Index> &frontier,
               Index level, BfsResult &res)
{
    std::vector<Index> next;
    for (Index u : frontier) {
        for (Count q = a.colPtr()[static_cast<std::size_t>(u)];
             q < a.colPtr()[static_cast<std::size_t>(u) + 1]; ++q) {
            const Index v = a.rowId()[static_cast<std::size_t>(q)];
            if (res.depth[static_cast<std::size_t>(v)] != -1) continue;
            res.depth[static_cast<std::size_t>(v)] = level + 1;
            res.parent[static_cast<std::size_t>(v)] = u;
            next.push_back(v);
        }
    }
    std::sort(next.begin(), next.end());
    return next;
}

BfsResult
initResult(const CscMatrix &a, Index source)
{
    BfsResult res;
    res.parent.assign(static_cast<std::size_t>(a.rows()), -1);
    res.depth.assign(static_cast<std::size_t>(a.rows()), -1);
    res.parent[static_cast<std::size_t>(source)] = source;
    res.depth[static_cast<std::size_t>(source)] = 0;
    return res;
}

} // namespace

BfsResult
bfsReference(const CscMatrix &a, Index source)
{
    checkBfsArgs(a, source);
    BfsResult res = initResult(a, source);
    std::vector<Index> frontier{source};
    Index level = 0;
    while (!frontier.empty()) {
        res.frontierSizes.push_back(
            static_cast<Count>(frontier.size()));
        ++res.iterations;
        frontier = claimNextLevel(a, frontier, level, res);
        ++level;
    }
    return res;
}

BfsRun
runBfs(const AccelConfig &cfg, const CscMatrix &a, Index source)
{
    checkBfsArgs(a, source);
    BfsRun run;
    run.result = initResult(a, source);
    FrontierRunner runner(cfg, a);

    std::vector<Index> frontier{source};
    Index level = 0;
    std::vector<std::pair<Index, Value>> entries;
    while (!frontier.empty()) {
        run.result.frontierSizes.push_back(
            static_cast<Count>(frontier.size()));
        ++run.result.iterations;

        entries.clear();
        for (Index u : frontier) entries.emplace_back(u, Value(1));
        const CscMatrix y = runner.step(frontierVector(a.rows(), entries));

        frontier = claimNextLevel(a, frontier, level, run.result);
        ++level;

        // The engine's structural output is exactly the vertices
        // reachable from the processed frontier; every newly claimed
        // vertex must appear in it.
        for (Index v : frontier) {
            const auto &ids = y.rowId();
            if (!std::binary_search(ids.begin(), ids.end(), v))
                fatal("runBfs: engine frontier misses vertex " +
                      std::to_string(v));
        }
    }
    run.stats = runner.stats();
    return run;
}

FrontierRunStats
modelBfs(const AccelConfig &cfg, const CscMatrix &a, Index source)
{
    checkBfsArgs(a, source);
    if (cfg.chips > 1) fatal("modelBfs: chips must be 1");
    const PerfModel model(cfg);
    std::unique_ptr<PartitionPolicy> partitioner =
        makePartitionPolicy(cfg);
    RowPartition part = partitioner->build(a.rows(), a.rowNnz(), cfg);

    FrontierRunStats stats;
    BfsResult res = initResult(a, source);
    std::vector<Index> frontier{source};
    Index level = 0;
    std::vector<std::pair<Index, Value>> entries;
    while (!frontier.empty()) {
        entries.clear();
        for (Index u : frontier) entries.emplace_back(u, Value(1));
        const CscMatrix x = frontierVector(a.rows(), entries);
        foldIteration(stats, model.runSpgemm(a, x, part), x.nnz());
        frontier = claimNextLevel(a, frontier, level, res);
        ++level;
    }
    return stats;
}

} // namespace awb::kernels
