/**
 * @file
 * Reproduces paper Figure 9: local versus remote non-zero imbalance on a
 * small PE array. Two crafted 32x32 sparse matrices at 75% sparsity are
 * mapped onto 8 PEs; the cycle-accurate engine shows how each imbalance
 * type inflates the per-column delay over the balanced ideal, and how
 * local sharing fixes (A) but needs remote switching for (B).
 */

#include <cstdio>

#include "accel/spmm_engine.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "driver/scenario.hpp"
#include "sparse/convert.hpp"

using namespace awb;

namespace {

/** (A) Local imbalance: nnz counts alternate between adjacent rows. */
CooMatrix
localImbalance(Rng &rng)
{
    CooMatrix m(32, 32);
    for (Index r = 0; r < 32; ++r) {
        Count deg = (r % 4 == 0) ? 20 : 4;  // ~25% density overall
        for (Count d = 0; d < deg; ++d) m.add(r, rng.nextIndex(32), 1.0f);
    }
    m.canonicalize();
    return m;
}

/** (B) Remote imbalance: non-zeros concentrated in one region of rows. */
CooMatrix
remoteImbalance(Rng &rng)
{
    CooMatrix m(32, 32);
    for (Index r = 0; r < 32; ++r) {
        Count deg = (r >= 8 && r < 16) ? 24 : 2;
        for (Count d = 0; d < deg; ++d) m.add(r, rng.nextIndex(32), 1.0f);
    }
    m.canonicalize();
    return m;
}

void
runCase(const char *label, const CooMatrix &coo)
{
    auto a = CscMatrix::fromCoo(coo);
    Rng rng(7);
    DenseMatrix b(32, 8);
    b.fillUniform(rng, 0.1f, 1.0f);

    std::printf("\n%s (%lld non-zeros, 8 PEs):\n", label,
                static_cast<long long>(a.nnz()));
    RowPartition workload_view(32, 8, RowMapPolicy::Blocked);
    auto pe_work = workload_view.workload(a.rowNnz());
    std::printf("  per-PE non-zeros: ");
    for (auto w : pe_work) std::printf("%lld ", static_cast<long long>(w));
    std::printf("\n");

    Table t({"design", "cycles", "cycles/column", "vs ideal", "PE util"});
    Cycle ideal = 0;
    for (const std::string &d : bench::kFig14Designs) {
        AccelConfig cfg = makePolicyConfig(d, 8);
        RowPartition part(32, 8, cfg.mapPolicy);
        SpmmStats stats = SpmmEngine(cfg)
                              .execute(a, b, TdqKind::Tdq2OmegaCsc, part)
                              .stats;
        if (d == "baseline") ideal = stats.idealCycles;
        t.addRow({PolicyRegistry::instance().get(d).label,
                  std::to_string(stats.cycles),
                  fixed(static_cast<double>(stats.cycles) /
                        static_cast<double>(stats.rounds), 1),
                  fixed(static_cast<double>(stats.cycles) /
                        static_cast<double>(ideal), 2) + "x",
                  percent(stats.utilization)});
    }
    std::printf("%s", t.render().c_str());
}

void
runFig9(driver::ScenarioContext &ctx)
{
    Rng rng(ctx.seed + 41);
    auto local = localImbalance(rng);
    auto remote = remoteImbalance(rng);
    runCase("(A) Local imbalance", local);
    runCase("(B) Remote imbalance", remote);
    std::printf(
        "\nShape target (paper Fig. 9/10): local imbalance is absorbed by\n"
        "local sharing alone; remote imbalance (clustered rows) keeps the\n"
        "cluster's PEs hot until remote switching spreads the rows.\n");
}

const driver::ScenarioRegistrar reg({
    "fig9-imbalance", "Figure 9",
    "local vs remote imbalance on 8 PEs", runFig9});

} // namespace
