#include "kernels/pagerank.hpp"

#include <cmath>

#include "accel/policy.hpp"
#include "common/log.hpp"

namespace awb::kernels {

namespace {

void
checkPagerankArgs(const CscMatrix &a, double damping, double tol,
                  Count max_iters)
{
    if (a.rows() != a.cols())
        fatal("pagerank: adjacency must be square");
    if (a.rows() < 1) fatal("pagerank: empty adjacency");
    if (damping <= 0.0 || damping >= 1.0)
        fatal("pagerank: damping must be in (0, 1)");
    if (tol <= 0.0) fatal("pagerank: tol must be positive");
    if (max_iters < 1) fatal("pagerank: maxIters must be >= 1");
}

/** r' = (1-d)/n + d*y, with the L1 residual accumulated in double. */
double
applyDamping(const std::vector<Value> &r, const std::vector<Value> &y,
             Value dv, std::vector<Value> &r_new)
{
    const auto n = static_cast<Index>(r.size());
    const Value base = (Value(1) - dv) / static_cast<Value>(n);
    double residual = 0.0;
    for (std::size_t v = 0; v < r.size(); ++v) {
        r_new[v] = base + dv * y[v];
        residual += std::fabs(static_cast<double>(r_new[v]) -
                              static_cast<double>(r[v]));
    }
    return residual;
}

} // namespace

CscMatrix
columnStochastic(const CscMatrix &a)
{
    if (a.rows() != a.cols())
        fatal("columnStochastic: adjacency must be square");
    std::vector<Count> col_ptr;
    std::vector<Index> row_id;
    std::vector<Value> val;
    col_ptr.reserve(static_cast<std::size_t>(a.cols()) + 1);
    col_ptr.push_back(0);
    for (Index j = 0; j < a.cols(); ++j) {
        const Count nnz = a.colNnz(j);
        if (nnz == 0) {
            // Dangling column: a self-loop keeps M column-stochastic.
            row_id.push_back(j);
            val.push_back(Value(1));
        } else {
            const Value w = Value(1) / static_cast<Value>(nnz);
            for (Count p = a.colPtr()[static_cast<std::size_t>(j)];
                 p < a.colPtr()[static_cast<std::size_t>(j) + 1]; ++p) {
                row_id.push_back(a.rowId()[static_cast<std::size_t>(p)]);
                val.push_back(w);
            }
        }
        col_ptr.push_back(static_cast<Count>(row_id.size()));
    }
    return CscMatrix::fromParts(a.rows(), a.cols(), std::move(col_ptr),
                                std::move(row_id), std::move(val));
}

PagerankResult
pagerankReference(const CscMatrix &a, double damping, double tol,
                  Count max_iters)
{
    checkPagerankArgs(a, damping, tol, max_iters);
    const CscMatrix m = columnStochastic(a);
    const Index n = m.rows();
    const auto dv = static_cast<Value>(damping);

    PagerankResult res;
    std::vector<Value> r(static_cast<std::size_t>(n),
                         Value(1) / static_cast<Value>(n));
    std::vector<Value> y(static_cast<std::size_t>(n));
    std::vector<Value> r_new(static_cast<std::size_t>(n));
    while (res.iterations < max_iters) {
        // y = M r, scattered in ascending source order — the same
        // per-row accumulation order as the SpGEMM kernel.
        std::fill(y.begin(), y.end(), Value(0));
        for (Index u = 0; u < n; ++u) {
            const Value ru = r[static_cast<std::size_t>(u)];
            for (Count q = m.colPtr()[static_cast<std::size_t>(u)];
                 q < m.colPtr()[static_cast<std::size_t>(u) + 1]; ++q) {
                y[static_cast<std::size_t>(
                    m.rowId()[static_cast<std::size_t>(q)])] +=
                    m.val()[static_cast<std::size_t>(q)] * ru;
            }
        }
        res.residual = applyDamping(r, y, dv, r_new);
        res.residuals.push_back(res.residual);
        ++res.iterations;
        r.swap(r_new);
        if (res.residual <= tol) {
            res.converged = true;
            break;
        }
    }
    res.scores = std::move(r);
    return res;
}

PagerankRun
runPagerank(const AccelConfig &cfg, const CscMatrix &a, double damping,
            double tol, Count max_iters)
{
    checkPagerankArgs(a, damping, tol, max_iters);
    const CscMatrix m = columnStochastic(a);
    const Index n = m.rows();
    const auto dv = static_cast<Value>(damping);

    PagerankRun run;
    FrontierRunner runner(cfg, m);
    std::vector<Value> r(static_cast<std::size_t>(n),
                         Value(1) / static_cast<Value>(n));
    std::vector<Value> y(static_cast<std::size_t>(n));
    std::vector<Value> r_new(static_cast<std::size_t>(n));
    std::vector<std::pair<Index, Value>> entries(
        static_cast<std::size_t>(n));
    while (run.result.iterations < max_iters) {
        // The rank vector is strictly positive, so the frontier always
        // carries all n entries.
        for (Index v = 0; v < n; ++v)
            entries[static_cast<std::size_t>(v)] = {
                v, r[static_cast<std::size_t>(v)]};
        const CscMatrix yc = runner.step(frontierVector(n, entries));
        std::fill(y.begin(), y.end(), Value(0));
        for (Count p = yc.colPtr()[0]; p < yc.colPtr()[1]; ++p)
            y[static_cast<std::size_t>(
                yc.rowId()[static_cast<std::size_t>(p)])] =
                yc.val()[static_cast<std::size_t>(p)];
        run.result.residual = applyDamping(r, y, dv, r_new);
        run.result.residuals.push_back(run.result.residual);
        ++run.result.iterations;
        r.swap(r_new);
        if (run.result.residual <= tol) {
            run.result.converged = true;
            break;
        }
    }
    run.result.scores = std::move(r);
    run.stats = runner.stats();
    return run;
}

FrontierRunStats
modelPagerank(const AccelConfig &cfg, const CscMatrix &a, double damping,
              double tol, Count max_iters)
{
    checkPagerankArgs(a, damping, tol, max_iters);
    if (cfg.chips > 1) fatal("modelPagerank: chips must be 1");
    const CscMatrix m = columnStochastic(a);
    const Index n = m.rows();

    const PerfModel model(cfg);
    std::unique_ptr<PartitionPolicy> partitioner =
        makePartitionPolicy(cfg);
    RowPartition part = partitioner->build(m.rows(), m.rowNnz(), cfg);

    // The modelled timing only depends on the frontier *structure*,
    // which for PageRank is all n entries every iteration; the scalar
    // reference supplies the iteration count.
    const PagerankResult ref =
        pagerankReference(a, damping, tol, max_iters);
    FrontierRunStats stats;
    std::vector<std::pair<Index, Value>> entries(
        static_cast<std::size_t>(n));
    for (Index v = 0; v < n; ++v)
        entries[static_cast<std::size_t>(v)] = {v, Value(1)};
    const CscMatrix x = frontierVector(n, entries);
    for (Count it = 0; it < ref.iterations; ++it)
        foldIteration(stats, model.runSpgemm(m, x, part), x.nnz());
    return stats;
}

} // namespace awb::kernels
