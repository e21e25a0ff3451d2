/**
 * @file
 * Sparse-output SpGEMM subsystem tests (DESIGN.md §11): functional
 * bit-exactness of kernels::spgemm / spgemmPower against the dense
 * reference on hand-built and synthetic graphs, cycle-level equivalence
 * of SpmmEngine::executeSpgemm across engines and against the
 * PerfModel::runSpgemm traffic accounting, the Spgemm Session node and
 * buildExactKhopGcn factory, and the BFS/PageRank frontier kernels vs
 * their scalar references — including multi-chip sharded runs and the
 * observe-after-last-round rebalance contract — and SpGEMM round replay
 * through the shared round-state cache (identical runs with it off,
 * cold or warm; no leaks between streams; one-off streams not cached).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "accel/perf_model.hpp"
#include "accel/policy.hpp"
#include "accel/round_cache.hpp"
#include "accel/spmm_engine.hpp"
#include "gcn/model.hpp"
#include "graph/datasets.hpp"
#include "kernels/bfs.hpp"
#include "kernels/pagerank.hpp"
#include "kernels/spgemm.hpp"
#include "sim/factories.hpp"
#include "sim/session.hpp"
#include "sparse/convert.hpp"

using namespace awb;

namespace {

/** 6-vertex directed adjacency with a skewed column: vertex 0 points
 *  everywhere, the rest form a ring. */
CscMatrix
handAdjacency()
{
    CooMatrix coo(6, 6);
    for (Index v = 1; v < 6; ++v) coo.add(v, 0, 1.0f);
    for (Index v = 1; v < 6; ++v) coo.add((v + 1) % 6, v, 0.5f);
    return CscMatrix::fromCoo(coo);
}

/** Dense-reference check: C = A×B bit-equal (±0.0f treated equal). */
void
expectSpgemmExact(const CscMatrix &a, const CscMatrix &b)
{
    CscMatrix c = kernels::spgemm(a, b);
    DenseMatrix golden = multiply(cscToDense(a), cscToDense(b));
    ASSERT_EQ(c.rows(), golden.rows());
    ASSERT_EQ(c.cols(), golden.cols());
    EXPECT_EQ(cscToDense(c).maxAbsDiff(golden), 0.0);
}

double
l1Diff(const std::vector<Value> &x, const std::vector<Value> &y)
{
    double l1 = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
        l1 += std::fabs(static_cast<double>(x[i]) -
                        static_cast<double>(y[i]));
    return l1;
}

CscMatrix
scaledAdjacency(const std::string &name, double scale)
{
    const DatasetSpec &spec = findDataset(name);
    return loadSyntheticAdjacency(spec, /*seed=*/1, scale);
}

} // namespace

TEST(SpgemmKernel, HandBuiltSquareMatchesDense)
{
    CscMatrix a = handAdjacency();
    expectSpgemmExact(a, a);
}

TEST(SpgemmKernel, RectangularMatchesDense)
{
    CooMatrix ca(4, 3);
    ca.add(0, 0, 2.0f);
    ca.add(2, 1, -1.5f);
    ca.add(3, 1, 4.0f);
    ca.add(1, 2, 0.25f);
    CooMatrix cb(3, 2);
    cb.add(0, 0, 1.0f);
    cb.add(1, 0, -2.0f);
    cb.add(2, 1, 8.0f);
    expectSpgemmExact(CscMatrix::fromCoo(ca), CscMatrix::fromCoo(cb));
}

TEST(SpgemmKernel, CancellationKeepsStructuralZero)
{
    // 1*1 + 1*(-1) = 0: the hash path must keep the structural entry
    // (matching the dense reference, which also writes an exact 0).
    CooMatrix ca(2, 2);
    ca.add(0, 0, 1.0f);
    ca.add(0, 1, 1.0f);
    CooMatrix cb(2, 1);
    cb.add(0, 0, 1.0f);
    cb.add(1, 0, -1.0f);
    CscMatrix c =
        kernels::spgemm(CscMatrix::fromCoo(ca), CscMatrix::fromCoo(cb));
    EXPECT_EQ(c.nnz(), 1);
    EXPECT_EQ(c.val()[0], 0.0f);
}

TEST(SpgemmKernel, CoraAndCiteseerPowersMatchDense)
{
    for (const char *name : {"cora", "citeseer"}) {
        CscMatrix a = scaledAdjacency(name, 0.15);
        expectSpgemmExact(a, a);
        // A^3 = A×(A×A), associated identically by spgemmPower
        // (left-multiply) and by the dense chain below.
        CscMatrix a3 = kernels::spgemmPower(a, 3);
        DenseMatrix d = cscToDense(a);
        DenseMatrix golden = multiply(d, multiply(d, d));
        EXPECT_EQ(cscToDense(a3).maxAbsDiff(golden), 0.0) << name;
    }
}

TEST(SpgemmKernel, PowerOfOneCopies)
{
    CscMatrix a = handAdjacency();
    CscMatrix a1 = kernels::spgemmPower(a, 1);
    EXPECT_EQ(cscToDense(a1).maxAbsDiff(cscToDense(a)), 0.0);
}

TEST(SpgemmKernel, ColumnNnzMatchesMaterialized)
{
    CscMatrix a = scaledAdjacency("cora", 0.1);
    CscMatrix c = kernels::spgemm(a, a);
    std::vector<Count> nnz = kernels::spgemmColumnNnz(a, a);
    ASSERT_EQ(nnz.size(), static_cast<std::size_t>(c.cols()));
    for (Index j = 0; j < c.cols(); ++j)
        EXPECT_EQ(nnz[static_cast<std::size_t>(j)], c.colNnz(j)) << j;
}

TEST(SpgemmEngine, FunctionalOutputEqualsKernel)
{
    CscMatrix a = scaledAdjacency("cora", 0.15);
    for (const char *policy : {"baseline", "remote-d"}) {
        AccelConfig cfg = makePolicyConfig(policy, 32, 1);
        RowPartition part =
            makePartitionPolicy(cfg)->build(a.rows(), a.rowNnz(), cfg);
        SpgemmResult r = SpmmEngine(cfg).executeSpgemm(a, a, part);
        CscMatrix golden = kernels::spgemm(a, a);
        EXPECT_EQ(cscToDense(r.c).maxAbsDiff(cscToDense(golden)), 0.0)
            << policy;
        EXPECT_EQ(r.stats.rounds, a.cols());
        EXPECT_EQ(r.stats.roundsSimulated, r.stats.rounds);
        EXPECT_GT(r.stats.traffic.bRowBytes, 0);
        EXPECT_GT(r.stats.traffic.outputIndexBytes, 0);
    }
}

TEST(SpgemmEngine, BatchedEngineMatchesEvent)
{
    CscMatrix a = scaledAdjacency("citeseer", 0.15);
    for (const char *policy : {"baseline", "remote-d", "work-steal"}) {
        AccelConfig ecfg = makePolicyConfig(policy, 32, 1);
        ecfg.engine = EngineKind::Event;
        AccelConfig bcfg = ecfg;
        bcfg.engine = EngineKind::Batched;
        RowPartition ep =
            makePartitionPolicy(ecfg)->build(a.rows(), a.rowNnz(), ecfg);
        RowPartition bp =
            makePartitionPolicy(bcfg)->build(a.rows(), a.rowNnz(), bcfg);
        SpgemmResult er = SpmmEngine(ecfg).executeSpgemm(a, a, ep);
        SpgemmResult br = SpmmEngine(bcfg).executeSpgemm(a, a, bp);
        EXPECT_EQ(er.stats.cycles, br.stats.cycles) << policy;
        EXPECT_EQ(er.stats.tasks, br.stats.tasks) << policy;
        EXPECT_EQ(er.stats.rowsSwitched, br.stats.rowsSwitched) << policy;
        EXPECT_EQ(er.stats.traffic.total(), br.stats.traffic.total())
            << policy;
        EXPECT_EQ(er.stats.roundCycles, br.stats.roundCycles) << policy;
        EXPECT_EQ(cscToDense(er.c).maxAbsDiff(cscToDense(br.c)), 0.0);
    }
}

TEST(SpgemmEngine, ModelTrafficByteEqualForStaticPolicy)
{
    CscMatrix a = scaledAdjacency("cora", 0.2);
    AccelConfig cfg = makePolicyConfig("baseline", 32, 1);
    RowPartition ep =
        makePartitionPolicy(cfg)->build(a.rows(), a.rowNnz(), cfg);
    RowPartition mp =
        makePartitionPolicy(cfg)->build(a.rows(), a.rowNnz(), cfg);
    SpgemmResult er = SpmmEngine(cfg).executeSpgemm(a, a, ep);
    PerfSpmmResult mr = PerfModel(cfg).runSpgemm(a, a, mp);
    EXPECT_EQ(er.stats.traffic.sparseBytes, mr.traffic.sparseBytes);
    EXPECT_EQ(er.stats.traffic.denseBytes, mr.traffic.denseBytes);
    EXPECT_EQ(er.stats.traffic.outputBytes, mr.traffic.outputBytes);
    EXPECT_EQ(er.stats.traffic.migrationBytes, mr.traffic.migrationBytes);
    EXPECT_EQ(er.stats.traffic.bRowBytes, mr.traffic.bRowBytes);
    EXPECT_EQ(er.stats.traffic.outputIndexBytes,
              mr.traffic.outputIndexBytes);
    EXPECT_EQ(er.stats.tasks, mr.tasks);
    EXPECT_EQ(mr.rounds, a.cols());
}

TEST(SpgemmEngine, ObservesAfterLastRound)
{
    // A 1-column multiply is a single round; a rebalance policy must
    // still get its observation so carried partitions adapt across
    // frontier iterations. The skewed column concentrates all work on
    // one PE, which work stealing must react to.
    CooMatrix heavy(64, 1);
    for (Index v = 0; v < 64; ++v) heavy.add(v, 0, 1.0f);
    CooMatrix coo(64, 64);
    for (Index j = 0; j < 64; ++j) coo.add(0, j, 1.0f);  // dense row 0
    for (Index v = 1; v < 64; ++v) coo.add(v, v, 1.0f);
    CscMatrix a = CscMatrix::fromCoo(coo);
    CscMatrix x = CscMatrix::fromCoo(heavy);
    AccelConfig cfg = makePolicyConfig("work-steal", 8, 1);
    RowPartition part(a.rows(), cfg.numPes, cfg.mapPolicy);
    std::vector<int> before = part.owners();
    SpgemmResult r = SpmmEngine(cfg).executeSpgemm(a, x, part);
    EXPECT_EQ(r.stats.rounds, 1);
    // The single round was observed: the partition changed even though
    // there is no next round inside this executeSpgemm call.
    EXPECT_NE(part.owners(), before);
    EXPECT_GT(r.stats.rowsSwitched, 0);
    EXPECT_GT(r.stats.traffic.migrationBytes, 0);
}

TEST(SpgemmSession, NodeMatchesReferenceAndKernel)
{
    const DatasetSpec &spec = findDataset("cora");
    Dataset ds = loadSynthetic(spec, /*seed=*/1, 0.15);

    sim::WorkloadBundle bundle;
    bundle.name = "a-squared";
    sim::WorkloadBuilder b;
    sim::TensorId a = b.input("A");
    sim::TensorId a2 = b.spgemm(a, a, "A^2", "A2");
    bundle.graph = b.build(a2);
    bundle.sparse.emplace("A", ds.adjacency);

    for (EngineKind kind : {EngineKind::Event, EngineKind::Batched}) {
        AccelConfig cfg = makePolicyConfig("remote-d", 32, 1);
        cfg.engine = kind;
        sim::Session session(cfg);
        sim::SessionResult res = sim::runWorkload(session, bundle);
        ASSERT_TRUE(res.outputSparse);
        DenseMatrix golden = sim::referenceEval(bundle);
        EXPECT_EQ(res.output.maxAbsDiff(golden), 0.0);
        CscMatrix kernel = kernels::spgemm(ds.adjacency, ds.adjacency);
        EXPECT_EQ(cscToDense(res.sparseOutput)
                      .maxAbsDiff(cscToDense(kernel)),
                  0.0);
    }

    // Engine invariance of the Session-level statistics.
    AccelConfig ecfg = makePolicyConfig("remote-d", 32, 1);
    ecfg.engine = EngineKind::Event;
    AccelConfig bcfg = ecfg;
    bcfg.engine = EngineKind::Batched;
    sim::Session es(ecfg), bs(bcfg);
    sim::SessionResult er = sim::runWorkload(es, bundle);
    sim::SessionResult br = sim::runWorkload(bs, bundle);
    EXPECT_EQ(er.totalCycles, br.totalCycles);
    EXPECT_EQ(er.totalTasks, br.totalTasks);
}

TEST(SpgemmSession, ExactKhopFactoryMatchesReference)
{
    const DatasetSpec &spec = findDataset("cora");
    Dataset ds = loadSynthetic(spec, /*seed=*/1, 0.15);
    GcnModel model = makeGcnModel(ds.spec.f1, ds.spec.f2, ds.spec.f3, 1);
    sim::WorkloadBundle bundle = sim::buildExactKhopGcn(ds, model, 3);
    EXPECT_EQ(bundle.name, "gcn-3hop-exact");
    DenseMatrix golden = sim::referenceEval(bundle);
    AccelConfig cfg = makePolicyConfig("remote-d", 32, 1);
    sim::Session session(cfg);
    sim::SessionResult res = sim::runWorkload(session, bundle);
    EXPECT_FALSE(res.outputSparse);
    EXPECT_LT(res.output.maxAbsDiff(golden), 1e-3);
}

TEST(BfsKernel, HandBuiltMatchesReference)
{
    CscMatrix a = handAdjacency();
    kernels::BfsResult ref = kernels::bfsReference(a, 0);
    // Vertex 0 reaches everything in one hop (its column is full), the
    // ring adds nothing new afterwards.
    EXPECT_EQ(ref.depth[0], 0);
    for (Index v = 1; v < 6; ++v) {
        EXPECT_EQ(ref.depth[static_cast<std::size_t>(v)], 1) << v;
        EXPECT_EQ(ref.parent[static_cast<std::size_t>(v)], 0) << v;
    }
    for (const char *policy : {"baseline", "remote-d"}) {
        AccelConfig cfg = makePolicyConfig(policy, 4, 1);
        kernels::BfsRun run = kernels::runBfs(cfg, a, 0);
        EXPECT_EQ(run.result.parent, ref.parent) << policy;
        EXPECT_EQ(run.result.depth, ref.depth) << policy;
        EXPECT_EQ(run.result.frontierSizes, ref.frontierSizes) << policy;
        EXPECT_EQ(run.stats.rounds,
                  static_cast<Count>(ref.frontierSizes.size()));
    }
}

TEST(BfsKernel, CoraMatchesReferenceBothEngines)
{
    CscMatrix a = scaledAdjacency("cora", 0.3);
    kernels::BfsResult ref = kernels::bfsReference(a, 0);
    for (const char *policy : {"baseline", "local-b", "work-steal"}) {
        for (EngineKind kind : {EngineKind::Event, EngineKind::Batched}) {
            AccelConfig cfg = makePolicyConfig(policy, 32, 1);
            cfg.engine = kind;
            kernels::BfsRun run = kernels::runBfs(cfg, a, 0);
            EXPECT_EQ(run.result.parent, ref.parent) << policy;
            EXPECT_EQ(run.result.depth, ref.depth) << policy;
            EXPECT_EQ(run.result.frontierSizes, ref.frontierSizes)
                << policy;
        }
    }
}

TEST(BfsKernel, ShardedRunMatchesUnshardedFunctionally)
{
    CscMatrix a = scaledAdjacency("cora", 0.3);
    AccelConfig one = makePolicyConfig("remote-d", 32, 1);
    kernels::BfsRun r1 = kernels::runBfs(one, a, 0);
    AccelConfig two = one;
    two.chips = 2;
    kernels::BfsRun r2 = kernels::runBfs(two, a, 0);
    EXPECT_EQ(r2.result.parent, r1.result.parent);
    EXPECT_EQ(r2.result.depth, r1.result.depth);
    // One chip never pays inter-chip frontier traffic.
    EXPECT_EQ(r1.stats.scaleout.haloBytes, 0);
    EXPECT_GE(r2.stats.scaleout.chipImbalance, 1.0);
}

TEST(BfsKernel, RingWalkCrossesTheChipBoundary)
{
    // Directed 64-ring: BFS from 0 walks one vertex per level, so the
    // frontier crosses from chip 0's half into chip 1's half and the
    // dynamic halo must charge the boundary iterations.
    CooMatrix coo(64, 64);
    for (Index v = 0; v < 64; ++v) coo.add((v + 1) % 64, v, 1.0f);
    CscMatrix ring = CscMatrix::fromCoo(coo);
    AccelConfig cfg = makePolicyConfig("baseline", 4, 1);
    cfg.chips = 2;
    kernels::BfsRun run = kernels::runBfs(cfg, ring, 0);
    kernels::BfsResult ref = kernels::bfsReference(ring, 0);
    EXPECT_EQ(run.result.depth, ref.depth);
    EXPECT_EQ(run.result.parent, ref.parent);
    for (Index v = 0; v < 64; ++v)
        EXPECT_EQ(run.result.depth[static_cast<std::size_t>(v)], v);
    EXPECT_GT(run.stats.scaleout.haloBytes, 0);
}

TEST(BfsKernel, ModelTwinCoversReferenceIterations)
{
    CscMatrix a = scaledAdjacency("citeseer", 0.2);
    AccelConfig cfg = makePolicyConfig("baseline", 32, 1);
    kernels::BfsResult ref = kernels::bfsReference(a, 0);
    kernels::FrontierRunStats m = kernels::modelBfs(cfg, a, 0);
    ASSERT_EQ(m.iterations.size(), ref.frontierSizes.size());
    for (std::size_t i = 0; i < m.iterations.size(); ++i)
        EXPECT_EQ(m.iterations[i].frontierNnz, ref.frontierSizes[i]);
    // Traffic byte-equality with the engine under the static baseline.
    kernels::BfsRun run = kernels::runBfs(cfg, a, 0);
    EXPECT_EQ(m.traffic.sparseBytes, run.stats.traffic.sparseBytes);
    EXPECT_EQ(m.traffic.bRowBytes, run.stats.traffic.bRowBytes);
    EXPECT_EQ(m.traffic.outputIndexBytes,
              run.stats.traffic.outputIndexBytes);
    EXPECT_EQ(m.traffic.migrationBytes, run.stats.traffic.migrationBytes);
}

TEST(PagerankKernel, ColumnStochasticColumnsSumToOne)
{
    CscMatrix a = scaledAdjacency("cora", 0.2);
    CscMatrix m = kernels::columnStochastic(a);
    EXPECT_GE(m.nnz(), m.rows());  // self-loops plug dangling columns
    for (Index j = 0; j < m.cols(); ++j) {
        double sum = 0.0;
        for (Count p = m.colPtr()[static_cast<std::size_t>(j)];
             p < m.colPtr()[static_cast<std::size_t>(j) + 1]; ++p)
            sum += static_cast<double>(
                m.val()[static_cast<std::size_t>(p)]);
        EXPECT_NEAR(sum, 1.0, 1e-5) << j;
    }
}

TEST(PagerankKernel, ReferenceConvergesAndSumsToOne)
{
    CscMatrix a = scaledAdjacency("cora", 0.3);
    kernels::PagerankResult ref =
        kernels::pagerankReference(a, 0.85, 1e-6, 200);
    EXPECT_TRUE(ref.converged);
    EXPECT_LE(ref.residual, 1e-6);
    EXPECT_EQ(ref.residuals.size(),
              static_cast<std::size_t>(ref.iterations));
    double sum = 0.0;
    for (Value s : ref.scores) sum += static_cast<double>(s);
    EXPECT_NEAR(sum, 1.0, 1e-3);
}

TEST(PagerankKernel, EngineBitMatchesReference)
{
    CscMatrix a = scaledAdjacency("cora", 0.3);
    kernels::PagerankResult ref =
        kernels::pagerankReference(a, 0.85, 1e-6, 200);
    for (const char *policy : {"baseline", "remote-d", "work-steal"}) {
        for (EngineKind kind : {EngineKind::Event, EngineKind::Batched}) {
            AccelConfig cfg = makePolicyConfig(policy, 32, 1);
            cfg.engine = kind;
            kernels::PagerankRun run =
                kernels::runPagerank(cfg, a, 0.85, 1e-6, 200);
            EXPECT_EQ(run.result.iterations, ref.iterations) << policy;
            EXPECT_EQ(run.result.converged, ref.converged) << policy;
            EXPECT_EQ(l1Diff(run.result.scores, ref.scores), 0.0)
                << policy;
        }
    }
}

TEST(PagerankKernel, ShardedScoresMatchUnsharded)
{
    CscMatrix a = scaledAdjacency("citeseer", 0.2);
    AccelConfig one = makePolicyConfig("baseline", 32, 1);
    kernels::PagerankRun r1 = kernels::runPagerank(one, a, 0.85, 1e-6, 200);
    AccelConfig two = one;
    two.chips = 2;
    kernels::PagerankRun r2 = kernels::runPagerank(two, a, 0.85, 1e-6, 200);
    EXPECT_EQ(r2.result.iterations, r1.result.iterations);
    EXPECT_LE(l1Diff(r2.result.scores, r1.result.scores), 1e-6);
    EXPECT_GT(r2.stats.scaleout.haloBytes, 0);
}

TEST(PagerankKernel, ModelTwinMatchesEngineIterationCount)
{
    CscMatrix a = scaledAdjacency("cora", 0.2);
    AccelConfig cfg = makePolicyConfig("baseline", 32, 1);
    kernels::PagerankRun run = kernels::runPagerank(cfg, a, 0.85, 1e-6, 50);
    kernels::FrontierRunStats m =
        kernels::modelPagerank(cfg, a, 0.85, 1e-6, 50);
    EXPECT_EQ(m.iterations.size(), run.stats.iterations.size());
    EXPECT_EQ(m.traffic.sparseBytes, run.stats.traffic.sparseBytes);
    EXPECT_EQ(m.traffic.bRowBytes, run.stats.traffic.bRowBytes);
}

TEST(FrontierRunner, RejectsBadFrontiers)
{
    EXPECT_DEATH(kernels::frontierVector(4, {{1, 1.0f}, {1, 2.0f}}),
                 "strictly ascending");
    EXPECT_DEATH(kernels::frontierVector(4, {{5, 1.0f}}), "out of range");
}

// ------------------------------------------------- SpGEMM round replay

namespace {

/** Leaves the round-state cache the way library users see it:
 *  disabled and empty. */
struct RoundCacheGuard
{
    RoundCacheGuard() { reset(); }
    ~RoundCacheGuard() { reset(); }

    static void
    reset()
    {
        RoundStateCache::instance().setEnabled(false);
        RoundStateCache::instance().clear();
    }
};

void
expectSameTraffic(const MemoryTraffic &x, const MemoryTraffic &y,
                  const std::string &what)
{
    EXPECT_EQ(x.sparseBytes, y.sparseBytes) << what;
    EXPECT_EQ(x.denseBytes, y.denseBytes) << what;
    EXPECT_EQ(x.outputBytes, y.outputBytes) << what;
    EXPECT_EQ(x.migrationBytes, y.migrationBytes) << what;
    EXPECT_EQ(x.haloBytes, y.haloBytes) << what;
    EXPECT_EQ(x.bRowBytes, y.bRowBytes) << what;
    EXPECT_EQ(x.outputIndexBytes, y.outputIndexBytes) << what;
}

/** Every FrontierRunStats field, compared with ==. */
void
expectSameRunStats(const kernels::FrontierRunStats &x,
                   const kernels::FrontierRunStats &y,
                   const std::string &what)
{
    ASSERT_EQ(x.iterations.size(), y.iterations.size()) << what;
    for (std::size_t i = 0; i < x.iterations.size(); ++i) {
        const kernels::FrontierIteration &xi = x.iterations[i];
        const kernels::FrontierIteration &yi = y.iterations[i];
        const std::string at = what + " iteration " + std::to_string(i);
        EXPECT_EQ(xi.frontierNnz, yi.frontierNnz) << at;
        EXPECT_EQ(xi.cycles, yi.cycles) << at;
        EXPECT_EQ(xi.tasks, yi.tasks) << at;
        EXPECT_EQ(xi.rowsSwitched, yi.rowsSwitched) << at;
    }
    EXPECT_EQ(x.cycles, y.cycles) << what;
    EXPECT_EQ(x.tasks, y.tasks) << what;
    EXPECT_EQ(x.rowsSwitched, y.rowsSwitched) << what;
    EXPECT_EQ(x.rounds, y.rounds) << what;
    EXPECT_EQ(x.roundsSimulated, y.roundsSimulated) << what;
    expectSameTraffic(x.traffic, y.traffic, what);
    EXPECT_EQ(x.memoryCycles, y.memoryCycles) << what;
    EXPECT_EQ(x.bwBoundRounds, y.bwBoundRounds) << what;
    EXPECT_EQ(x.scaleout.haloBytes, y.scaleout.haloBytes) << what;
    EXPECT_EQ(x.scaleout.haloCycles, y.scaleout.haloCycles) << what;
    EXPECT_EQ(x.scaleout.haloBoundRounds, y.scaleout.haloBoundRounds)
        << what;
    EXPECT_EQ(x.scaleout.chipImbalance, y.scaleout.chipImbalance) << what;
    EXPECT_EQ(x.peakQueueDepth, y.peakQueueDepth) << what;
    EXPECT_EQ(x.convergedRound, y.convergedRound) << what;
}

void
expectSamePagerank(const kernels::PagerankRun &x,
                   const kernels::PagerankRun &y, const std::string &what)
{
    EXPECT_EQ(x.result.scores, y.result.scores) << what;
    EXPECT_EQ(x.result.iterations, y.result.iterations) << what;
    EXPECT_EQ(x.result.residuals, y.result.residuals) << what;
    EXPECT_EQ(x.result.converged, y.result.converged) << what;
    expectSameRunStats(x.stats, y.stats, what);
}

void
expectSameBfs(const kernels::BfsRun &x, const kernels::BfsRun &y,
              const std::string &what)
{
    EXPECT_EQ(x.result.parent, y.result.parent) << what;
    EXPECT_EQ(x.result.depth, y.result.depth) << what;
    EXPECT_EQ(x.result.frontierSizes, y.result.frontierSizes) << what;
    expectSameRunStats(x.stats, y.stats, what);
}

void
expectSameSpmmStats(const SpmmStats &x, const SpmmStats &y,
                    const std::string &what)
{
    EXPECT_EQ(x.cycles, y.cycles) << what;
    EXPECT_EQ(x.tasks, y.tasks) << what;
    EXPECT_EQ(x.idealCycles, y.idealCycles) << what;
    EXPECT_EQ(x.rounds, y.rounds) << what;
    EXPECT_EQ(x.roundsSimulated, y.roundsSimulated) << what;
    EXPECT_EQ(x.rowsSwitched, y.rowsSwitched) << what;
    EXPECT_EQ(x.convergedRound, y.convergedRound) << what;
    EXPECT_EQ(x.peakQueueDepth, y.peakQueueDepth) << what;
    EXPECT_EQ(x.peakNetworkDepth, y.peakNetworkDepth) << what;
    expectSameTraffic(x.traffic, y.traffic, what);
    EXPECT_EQ(x.roundCycles, y.roundCycles) << what;
    EXPECT_EQ(x.perPeTasks, y.perPeTasks) << what;
}

} // namespace

// Every PageRank iteration streams the same n-entry frontier, so the
// cache replays all but the first two (first sighting, then the admitted
// miss that fills the entry). Runs must not notice.
TEST(FrontierReplay, RunsMatchWithTheRoundCacheOffColdAndWarm)
{
    RoundCacheGuard guard;
    RoundStateCache &cache = RoundStateCache::instance();
    const CscMatrix a = scaledAdjacency("cora", 1.0);
    for (const char *policy : {"baseline", "remote-d"}) {
        for (EngineKind engine : {EngineKind::Event, EngineKind::Batched}) {
            for (int chips : {1, 2}) {
                AccelConfig cfg = makePolicyConfig(policy, 64, 1);
                cfg.engine = engine;
                cfg.chips = chips;
                const std::string what =
                    std::string(policy) +
                    (engine == EngineKind::Event ? " event" : " batched") +
                    " chips " + std::to_string(chips);
                auto pagerank = [&] {
                    return kernels::runPagerank(cfg, a, 0.85, 1e-6, 200);
                };
                auto bfs = [&] { return kernels::runBfs(cfg, a, 0); };

                RoundCacheGuard::reset();
                const kernels::PagerankRun pr_off = pagerank();
                const kernels::BfsRun bfs_off = bfs();
                EXPECT_EQ(cache.size(), 0u) << what;

                cache.setEnabled(true);
                const std::uint64_t hits_cold = cache.hits();
                expectSamePagerank(pagerank(), pr_off, what + " cold");
                const std::uint64_t hits_warm = cache.hits();
                if (std::string(policy) == "baseline") {
                    // A static map keeps every entry key equal.
                    EXPECT_GE(hits_warm - hits_cold,
                              static_cast<std::uint64_t>(
                                  pr_off.result.iterations - 2))
                        << what;
                }
                cache.clear();
                expectSameBfs(bfs(), bfs_off, what + " cold");

                // Pre-warmed: both kernels' entries are in the cache.
                pagerank();
                expectSamePagerank(pagerank(), pr_off, what + " warm");
                expectSameBfs(bfs(), bfs_off, what + " warm");
            }
        }
    }
}

// PageRank's entries live under its own stream digest: a BFS over the
// same operand (frontiers of other structure, but the same entry key on
// a static map) and a TDQ-2 SPMM over it must replay none of them.
TEST(FrontierReplay, PagerankEntriesDoNotLeakIntoOtherStreams)
{
    RoundCacheGuard guard;
    RoundStateCache &cache = RoundStateCache::instance();
    // runPagerank multiplies by columnStochastic(a); BFS and the SPMM
    // run on that matrix too, so all three share one structure.
    const CscMatrix m =
        kernels::columnStochastic(scaledAdjacency("cora", 1.0));
    AccelConfig cfg = makePolicyConfig("baseline", 64, 1);
    cfg.engine = EngineKind::Batched;
    auto spmm = [&] {
        RowPartition part =
            makePartitionPolicy(cfg)->build(m.rows(), m.rowNnz(), cfg);
        return SpmmEngine(cfg).simulate(m, 16, TdqKind::Tdq2OmegaCsc,
                                        part);
    };
    const kernels::BfsRun bfs_off = kernels::runBfs(cfg, m, 0);
    const SpmmStats spmm_off = spmm();
    // Some BFS level carries enough tasks to be cacheable, so a digest
    // that ignored the frontier would hand it PageRank's entry.
    ASSERT_TRUE(std::any_of(bfs_off.stats.iterations.begin(),
                            bfs_off.stats.iterations.end(),
                            [&](const kernels::FrontierIteration &it) {
                                return it.tasks >= m.rows();
                            }));

    cache.setEnabled(true);
    kernels::runPagerank(cfg, m, 0.85, 1e-6, 200);
    ASSERT_GT(cache.size(), 0u);
    expectSameBfs(kernels::runBfs(cfg, m, 0), bfs_off, "bfs after pagerank");
    expectSameSpmmStats(spmm(), spmm_off, "spmm after pagerank");
}

// A × A streams n distinct columns once each: nothing may be cached
// until a stream is seen again, or exact k-hop would fill the cache
// with one owner vector per column.
TEST(FrontierReplay, OneOffSpgemmStreamsAreNotCached)
{
    RoundCacheGuard guard;
    RoundStateCache &cache = RoundStateCache::instance();
    // Column j holds every row but j: distinct columns whose A × A
    // rounds carry (n-1)^2 >= n tasks each.
    constexpr Index kN = 16;
    CooMatrix coo(kN, kN);
    for (Index j = 0; j < kN; ++j)
        for (Index i = 0; i < kN; ++i)
            if (i != j) coo.add(i, j, 1.0f);
    const CscMatrix a = CscMatrix::fromCoo(coo);
    const AccelConfig cfg = makePolicyConfig("baseline", 8, 1);
    auto run = [&] {
        RowPartition part =
            makePartitionPolicy(cfg)->build(a.rows(), a.rowNnz(), cfg);
        return SpmmEngine(cfg).executeSpgemm(a, a, part).stats;
    };
    const SpmmStats off = run();
    EXPECT_EQ(off.roundsSimulated, off.rounds);

    cache.setEnabled(true);
    expectSameSpmmStats(run(), off, "first sighting");
    EXPECT_EQ(cache.size(), 0u);
    // The second sighting admits every column; the third replays them.
    expectSameSpmmStats(run(), off, "second sighting");
    EXPECT_EQ(cache.size(), static_cast<std::size_t>(kN));
    const std::uint64_t hits = cache.hits();
    expectSameSpmmStats(run(), off, "replayed");
    EXPECT_EQ(cache.hits() - hits, static_cast<std::uint64_t>(kN));

    // A stream with fewer tasks than the entry key has owners is never
    // cached, however often it repeats: hashing would cost more than
    // stepping it.
    const CscMatrix x = kernels::frontierVector(kN, {{0, 1.0f}});
    ASSERT_LT(a.colNnz(0), a.rows());
    for (int i = 0; i < 3; ++i) {
        RowPartition part =
            makePartitionPolicy(cfg)->build(a.rows(), a.rowNnz(), cfg);
        SpmmEngine(cfg).executeSpgemm(a, x, part);
    }
    EXPECT_EQ(cache.size(), static_cast<std::size_t>(kN));
}
