/**
 * @file
 * Integration + property tests for the cycle-accurate SPMM engine and the
 * full GCN accelerator: functional exactness against the software golden
 * model across all design points, and the paper's headline behaviours
 * (rebalancing raises utilization and cuts cycles on skewed inputs).
 */

#include <gtest/gtest.h>

#include "engine_checks.hpp"

#include "accel/gcn_accel.hpp"
#include "accel/policy.hpp"
#include "accel/round_cache.hpp"
#include "accel/spmm_engine.hpp"
#include "common/rng.hpp"
#include "gcn/reference.hpp"
#include "graph/datasets.hpp"
#include "graph/generator.hpp"
#include "graph/normalize.hpp"
#include "sparse/convert.hpp"
#include "sparse/spmm.hpp"

using namespace awb;

namespace {

CscMatrix
randomSparse(Rng &rng, Index rows, Index cols, double density)
{
    CooMatrix coo(rows, cols);
    for (Index i = 0; i < rows; ++i)
        for (Index j = 0; j < cols; ++j)
            if (rng.nextBool(density))
                coo.add(i, j, rng.nextFloat(-1.0f, 1.0f));
    coo.canonicalize();
    return CscMatrix::fromCoo(coo);
}

DenseMatrix
randomDense(Rng &rng, Index rows, Index cols)
{
    DenseMatrix m(rows, cols);
    m.fillUniform(rng, -1.0f, 1.0f);
    return m;
}

/** Skewed sparse operand: a few very heavy rows (power-law caricature). */
CscMatrix
skewedSparse(Rng &rng, Index rows, Index cols)
{
    CooMatrix coo(rows, cols);
    for (Index i = 0; i < rows; ++i) {
        Count deg = (i < rows / 16 + 1) ? cols / 2 : 2;
        for (Count d = 0; d < deg; ++d)
            coo.add(i, rng.nextIndex(cols), 1.0f);
    }
    coo.canonicalize();
    return CscMatrix::fromCoo(coo);
}

} // namespace

/** Property: the engine is functionally exact and delivers every task
 *  exactly once for every design point and both TDQ paths. */
class EngineFunctional
    : public ::testing::TestWithParam<std::tuple<std::string, TdqKind, int>>
{};

TEST_P(EngineFunctional, MatchesReferenceSpmm)
{
    auto [design, kind, seed] = GetParam();
    Rng rng(static_cast<std::uint64_t>(seed) + 100);
    Index m = 32 + rng.nextIndex(64);
    Index n = 32 + rng.nextIndex(64);
    Index k = 1 + rng.nextIndex(8);
    auto a = randomSparse(rng, m, n, 0.05 + rng.nextDouble() * 0.2);
    auto b = randomDense(rng, n, k);

    AccelConfig cfg = makePolicyConfig(design, 8);
    RowPartition part(m, cfg.numPes, cfg.mapPolicy);
    auto [c, stats] = SpmmEngine(cfg).execute(a, b, kind, part);

    auto golden = spmmCsc(a, b);
    EXPECT_LT(golden.maxAbsDiff(c), 1e-4);
    expectExactDelivery(a, k, cfg, part, stats);
    EXPECT_GT(stats.cycles, 0);
    EXPECT_LE(stats.utilization, 1.0);
    EXPECT_TRUE(part.consistent());
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, EngineFunctional,
    ::testing::Combine(::testing::Values(std::string("baseline"),
                                         std::string("local-a"),
                                         std::string("local-b"),
                                         std::string("remote-c"),
                                         std::string("remote-d"),
                                         std::string("eie-like")),
                       ::testing::Values(TdqKind::Tdq1DenseScan,
                                         TdqKind::Tdq2OmegaCsc),
                       ::testing::Values(1, 2)));

TEST(Engine, IdealCyclesLowerBound)
{
    Rng rng(3);
    auto a = randomSparse(rng, 64, 64, 0.1);
    auto b = randomDense(rng, 64, 4);
    AccelConfig cfg = makePolicyConfig("baseline", 8);
    RowPartition part(64, 8, cfg.mapPolicy);
    SpmmStats stats =
        SpmmEngine(cfg).execute(a, b, TdqKind::Tdq2OmegaCsc, part).stats;
    EXPECT_GE(stats.cycles, stats.idealCycles);
    EXPECT_EQ(stats.syncCycles, stats.cycles - stats.idealCycles);
}

// A single PE has no Omega network: TDQ-2 hands it one task a cycle and
// a round ends one cycle after its last issue, so on the unconstrained
// platform every round lasts its task count plus one drain cycle. The
// same must hold for SpGEMM, whose B columns here repeat so the shared
// cache replays them, under both engines with the cache on and off.
TEST(Engine, SinglePeIssuesOneTaskPerCycle)
{
    Rng rng(28);
    const CscMatrix a = randomSparse(rng, 40, 40, 0.12);
    CooMatrix coo(40, 6);
    for (Index k = 0; k < 6; ++k)
        for (Index j = k % 2; j < 40; j += 2) coo.add(j, k, 1.0f);
    coo.canonicalize();
    const CscMatrix b = CscMatrix::fromCoo(coo);

    RoundStateCache &cache = RoundStateCache::instance();
    for (bool cache_on : {false, true}) {
        for (EngineKind engine : {EngineKind::Event, EngineKind::Batched}) {
            for (const char *design : {"baseline", "local-b", "eie-like"}) {
                SCOPED_TRACE(std::string(design) + " " +
                             engineKindName(engine) +
                             (cache_on ? " cache" : ""));
                cache.clear();
                cache.setEnabled(cache_on);
                const std::uint64_t hits = cache.hits();
                AccelConfig cfg = makePolicyConfig(design, 1);
                cfg.engine = engine;
                RowPartition part(40, 1, cfg.mapPolicy);
                const SpmmStats s = SpmmEngine(cfg).simulate(
                    a, 5, TdqKind::Tdq2OmegaCsc, part);
                EXPECT_EQ(s.tasks, a.nnz() * 5);
                EXPECT_EQ(s.cycles, s.tasks + s.rounds);
                RowPartition gpart(40, 1, cfg.mapPolicy);
                const SpmmStats g =
                    SpmmEngine(cfg).executeSpgemm(a, b, gpart).stats;
                EXPECT_EQ(g.rounds, 6);
                EXPECT_EQ(g.cycles, g.tasks + g.rounds);
                if (cache_on) {
                    EXPECT_GT(cache.hits(), hits);
                }
            }
        }
    }
    cache.setEnabled(false);
    cache.clear();
}

TEST(Engine, LocalSharingImprovesSkewedUtilization)
{
    Rng rng(4);
    auto a = skewedSparse(rng, 128, 128);
    auto b = randomDense(rng, 128, 8);

    SpmmStats base_stats, shared_stats;
    {
        AccelConfig cfg = makePolicyConfig("baseline", 16);
        RowPartition part(128, 16, cfg.mapPolicy);
        base_stats =
            SpmmEngine(cfg).execute(a, b, TdqKind::Tdq2OmegaCsc, part)
                .stats;
    }
    {
        AccelConfig cfg = makePolicyConfig("local-b", 16);
        RowPartition part(128, 16, cfg.mapPolicy);
        shared_stats =
            SpmmEngine(cfg).execute(a, b, TdqKind::Tdq2OmegaCsc, part)
                .stats;
    }
    EXPECT_GT(shared_stats.utilization, base_stats.utilization);
    EXPECT_LT(shared_stats.cycles, base_stats.cycles);
}

TEST(Engine, RemoteSwitchingBeatsLocalOnlyOnClusteredRows)
{
    // Clustered heavy rows sit on adjacent PEs; local sharing alone
    // cannot spread them but remote switching can (paper Fig. 10).
    Rng rng(5);
    CooMatrix coo(128, 128);
    for (Index i = 0; i < 128; ++i) {
        Count deg = (i >= 56 && i < 72) ? 48 : 1;  // hot band mid-array
        for (Count d = 0; d < deg; ++d)
            coo.add(i, rng.nextIndex(128), 1.0f);
    }
    coo.canonicalize();
    auto a = CscMatrix::fromCoo(coo);
    auto b = randomDense(rng, 128, 16);

    SpmmStats local_stats, remote_stats;
    {
        AccelConfig cfg = makePolicyConfig("local-a", 16);
        RowPartition part(128, 16, cfg.mapPolicy);
        local_stats =
            SpmmEngine(cfg).execute(a, b, TdqKind::Tdq2OmegaCsc, part)
                .stats;
    }
    {
        AccelConfig cfg = makePolicyConfig("remote-c", 16);
        RowPartition part(128, 16, cfg.mapPolicy);
        remote_stats =
            SpmmEngine(cfg).execute(a, b, TdqKind::Tdq2OmegaCsc, part)
                .stats;
    }
    EXPECT_LT(remote_stats.cycles, local_stats.cycles);
    EXPECT_GT(remote_stats.rowsSwitched, 0);
}

TEST(Engine, RemoteSwitchingConvergesAndReusesMap)
{
    Rng rng(6);
    auto a = skewedSparse(rng, 128, 128);
    auto b = randomDense(rng, 128, 32);
    AccelConfig cfg = makePolicyConfig("remote-d", 16);
    RowPartition part(128, 16, cfg.mapPolicy);
    SpmmStats stats =
        SpmmEngine(cfg).execute(a, b, TdqKind::Tdq2OmegaCsc, part).stats;
    // Auto-tuning must settle well before the 32 rounds are over.
    EXPECT_GE(stats.convergedRound, 0);
    EXPECT_LT(stats.convergedRound, 24);
    // Later rounds should be no slower than the first (tuned map reused).
    ASSERT_GE(stats.roundCycles.size(), 4u);
    EXPECT_LE(stats.roundCycles.back(), stats.roundCycles.front());
}

TEST(Engine, RebalancingShrinksPeakQueueDepth)
{
    // Paper §5.2: balanced workloads need far shallower task queues
    // (Nell: 65128 -> 2675 slots).
    Rng rng(7);
    auto a = skewedSparse(rng, 256, 256);
    auto b = randomDense(rng, 256, 8);

    SpmmStats base_stats, d_stats;
    {
        AccelConfig cfg = makePolicyConfig("baseline", 16);
        RowPartition part(256, 16, cfg.mapPolicy);
        base_stats =
            SpmmEngine(cfg).execute(a, b, TdqKind::Tdq2OmegaCsc, part)
                .stats;
    }
    {
        AccelConfig cfg = makePolicyConfig("remote-d", 16);
        RowPartition part(256, 16, cfg.mapPolicy);
        d_stats =
            SpmmEngine(cfg).execute(a, b, TdqKind::Tdq2OmegaCsc, part)
                .stats;
    }
    EXPECT_LT(d_stats.peakQueueDepth, base_stats.peakQueueDepth);
}

TEST(Engine, UniformWorkloadAlreadyBalanced)
{
    // With evenly spread non-zeros, rebalancing should change little
    // (the paper's Reddit case: 92% -> 99%).
    Rng rng(8);
    GraphGenParams p;
    p.nodes = 256;
    p.edges = 8192;
    p.style = GraphStyle::Uniform;
    auto a = CscMatrix::fromCoo(synthesizeAdjacency(rng, p));
    auto b = randomDense(rng, 256, 8);

    SpmmStats base_stats, d_stats;
    {
        AccelConfig cfg = makePolicyConfig("baseline", 16);
        RowPartition part(256, 16, cfg.mapPolicy);
        base_stats =
            SpmmEngine(cfg).execute(a, b, TdqKind::Tdq2OmegaCsc, part)
                .stats;
    }
    {
        AccelConfig cfg = makePolicyConfig("remote-d", 16);
        RowPartition part(256, 16, cfg.mapPolicy);
        d_stats =
            SpmmEngine(cfg).execute(a, b, TdqKind::Tdq2OmegaCsc, part)
                .stats;
    }
    EXPECT_GT(base_stats.utilization, 0.6);
    double speedup = static_cast<double>(base_stats.cycles) /
                     static_cast<double>(d_stats.cycles);
    EXPECT_LT(speedup, 1.4);
}

TEST(Pipeline, CombinesRoundTimings)
{
    // Stage 1 rounds: 10 each; stage 2 rounds: 2 each. Pipelined: stage 2
    // hides behind stage 1 -> total = 4*10 + 2 = 42.
    std::vector<Cycle> s1 = {10, 10, 10, 10};
    std::vector<Cycle> s2 = {2, 2, 2, 2};
    EXPECT_EQ(pipelineCycles(s1, s2), 42);
    // Stage 2 dominant: total = 10 + 4*12 = 58.
    std::vector<Cycle> s3 = {12, 12, 12, 12};
    EXPECT_EQ(pipelineCycles(s1, s3), 58);
}

TEST(GcnAccel, FunctionallyExactVsGoldenModel)
{
    auto ds = loadSyntheticByName("cora", 2, 0.03);
    auto model = makeGcnModel(ds.spec.f1, ds.spec.f2, ds.spec.f3, 2);
    auto golden = inferGcn(ds, model);

    AccelConfig cfg = makePolicyConfig("remote-d", 16);
    auto run = runGcn(cfg, ds, model);

    ASSERT_TRUE(run.output.sameShape(golden.output));
    EXPECT_LT(run.output.maxAbsDiff(golden.output), 1e-3);
    ASSERT_EQ(run.layers.size(), 2u);
    EXPECT_GT(run.totalCycles, 0);
    EXPECT_LE(run.totalCycles, run.totalCyclesSerial);
}

TEST(GcnAccel, PipeliningSavesCycles)
{
    auto ds = loadSyntheticByName("citeseer", 3, 0.03);
    auto model = makeGcnModel(ds.spec.f1, ds.spec.f2, ds.spec.f3, 3);
    auto run = runGcn(makePolicyConfig("baseline", 16), ds, model);
    EXPECT_LT(run.totalCycles, run.totalCyclesSerial);
}

TEST(GcnAccel, DesignDFasterThanBaselineOnPowerLawGraph)
{
    auto ds = loadSyntheticByName("cora", 4, 0.08);
    auto model = makeGcnModel(ds.spec.f1, ds.spec.f2, ds.spec.f3, 4);

    auto run_base = runGcn(makePolicyConfig("baseline", 32), ds, model);
    auto run_d = runGcn(makePolicyConfig("remote-d", 32), ds, model);

    EXPECT_LT(run_d.totalCycles, run_base.totalCycles);
    EXPECT_GT(run_d.utilization, run_base.utilization);
    // Functional outputs identical across designs.
    EXPECT_LT(run_d.output.maxAbsDiff(run_base.output), 1e-3);
}
