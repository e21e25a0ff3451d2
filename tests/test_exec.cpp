/**
 * @file
 * Unit tests of the unified execution core (DESIGN.md §13): the
 * process-wide WorkloadCache (hit/miss accounting, bit-identical
 * results, single-flight concurrency), the shared round-entry-state
 * cache (stats equivalence on fresh engines, both engine kinds), the
 * Runner's centralized utilization derivation, deterministic intra-point
 * parallelism (bit-identical functional SPMM at any thread count), an
 * engine output C independent of engine, cache, threads and platform,
 * and the cache-independence of sweep JSON output.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "accel/policy.hpp"
#include "accel/round_cache.hpp"
#include "accel/spmm_engine.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "driver/driver.hpp"
#include "driver/sweep.hpp"
#include "exec/run.hpp"
#include "exec/workload_cache.hpp"
#include "graph/datasets.hpp"
#include "sparse/convert.hpp"
#include "sparse/dense.hpp"
#include "sparse/spmm.hpp"

using namespace awb;
using namespace awb::driver;

namespace {

/** Every test leaves the process-wide caches the way library users see
 *  them: disabled and empty. */
struct CacheGuard
{
    CacheGuard()
    {
        exec::setCachesEnabled(false);
        exec::WorkloadCache::instance().clear();
        RoundStateCache::instance().clear();
    }
    ~CacheGuard()
    {
        exec::setCachesEnabled(false);
        exec::WorkloadCache::instance().clear();
        RoundStateCache::instance().clear();
        setIntraThreads(0);
    }
};

bool
sameMatrix(const CscMatrix &x, const CscMatrix &y)
{
    return x.rows() == y.rows() && x.cols() == y.cols() &&
           x.colPtr() == y.colPtr() && x.rowId() == y.rowId() &&
           x.val() == y.val();
}

bool
sameStats(const SpmmStats &x, const SpmmStats &y)
{
    return x.cycles == y.cycles && x.tasks == y.tasks &&
           x.idealCycles == y.idealCycles &&
           x.syncCycles == y.syncCycles &&
           x.utilization == y.utilization &&
           x.peakQueueDepth == y.peakQueueDepth &&
           x.peakNetworkDepth == y.peakNetworkDepth &&
           x.rounds == y.rounds &&
           x.roundsSimulated == y.roundsSimulated &&
           x.rowsSwitched == y.rowsSwitched &&
           x.convergedRound == y.convergedRound &&
           x.traffic.total() == y.traffic.total() &&
           x.memoryCycles == y.memoryCycles &&
           x.bwBoundRounds == y.bwBoundRounds &&
           x.roundCycles == y.roundCycles && x.perPeTasks == y.perPeTasks;
}

SpmmStats
runTdq2(EngineKind engine, int pes)
{
    const DatasetSpec &spec = findDataset("cora");
    CscMatrix a = loadSyntheticAdjacency(spec, /*seed=*/3, /*scale=*/0.5);
    Rng rng(3, /*seq=*/2);
    DenseMatrix b(a.cols(), 8);
    b.fillUniform(rng, -1.0f, 1.0f);
    AccelConfig cfg = makePolicyConfig("remote-d", pes, hopBase(spec));
    cfg.engine = engine;
    RowPartition part =
        makePartitionPolicy(cfg)->build(a.rows(), a.rowNnz(), cfg);
    return SpmmEngine(cfg).execute(a, b, TdqKind::Tdq2OmegaCsc, part).stats;
}

// ------------------------------------------------- workload cache

TEST(WorkloadCache, CountsHitsAndMissesAndReturnsSharedInstance)
{
    CacheGuard guard;
    exec::setCachesEnabled(true);
    auto &cache = exec::WorkloadCache::instance();
    const DatasetSpec &spec = findDataset("cora");

    auto a1 = cache.adjacency(spec, 5, 0.5);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 0u);
    auto a2 = cache.adjacency(spec, 5, 0.5);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(a1.get(), a2.get());  // one shared instance, not a copy

    // Every key axis separates: seed, scale, kind.
    cache.adjacency(spec, 6, 0.5);
    cache.adjacency(spec, 5, 0.25);
    cache.profile(spec, 5, 0.5);
    EXPECT_EQ(cache.misses(), 4u);
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(WorkloadCache, CachedResultsAreBitIdenticalToFreshLoads)
{
    CacheGuard guard;
    exec::setCachesEnabled(true);
    const DatasetSpec &spec = findDataset("citeseer");
    auto cached = exec::cachedAdjacency(spec, 9, 0.5);
    CscMatrix fresh = loadSyntheticAdjacency(spec, 9, 0.5);
    EXPECT_TRUE(sameMatrix(*cached, fresh));

    auto prof = exec::cachedProfile(spec, 9, 0.5);
    WorkloadProfile fresh_prof = loadProfile(spec, 9, 0.5);
    EXPECT_EQ(prof->aRowNnz, fresh_prof.aRowNnz);
    EXPECT_EQ(prof->x1RowNnz, fresh_prof.x1RowNnz);
    EXPECT_EQ(prof->x2RowNnz, fresh_prof.x2RowNnz);
}

TEST(WorkloadCache, DisabledCacheBuildsFreshAndCountsNothing)
{
    CacheGuard guard;
    auto &cache = exec::WorkloadCache::instance();
    const DatasetSpec &spec = findDataset("cora");
    auto a1 = cache.adjacency(spec, 5, 0.5);
    auto a2 = cache.adjacency(spec, 5, 0.5);
    EXPECT_NE(a1.get(), a2.get());  // distinct fresh instances
    EXPECT_TRUE(sameMatrix(*a1, *a2));
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
}

TEST(WorkloadCache, ConcurrentRequestersShareOneSynthesis)
{
    CacheGuard guard;
    exec::setCachesEnabled(true);
    auto &cache = exec::WorkloadCache::instance();
    const DatasetSpec &spec = findDataset("pubmed");

    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const CscMatrix>> got(kThreads);
    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back(
            [&, t] { got[t] = cache.adjacency(spec, 11, 0.25); });
    for (auto &t : pool) t.join();

    EXPECT_EQ(cache.misses(), 1u);  // single flight: one synthesis
    EXPECT_EQ(cache.hits(), static_cast<std::uint64_t>(kThreads - 1));
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(got[0].get(), got[t].get());
}

// ------------------------------------------------- round-state cache

TEST(RoundStateCache, SharedReplayReproducesEveryStatBitForBit)
{
    CacheGuard guard;
    SpmmStats plain_event = runTdq2(EngineKind::Event, 16);
    SpmmStats plain_batched = runTdq2(EngineKind::Batched, 16);

    RoundStateCache::instance().setEnabled(true);
    SpmmStats warm = runTdq2(EngineKind::Event, 16);  // fills the cache
    EXPECT_TRUE(sameStats(plain_event, warm));
    EXPECT_GT(RoundStateCache::instance().size(), 0u);

    // Fresh engines replaying shared entries: identical stats, including
    // the peak depths (restored from per-round peaks) and
    // roundsSimulated (counts local-memo misses, not shared replays).
    std::uint64_t hits_before = RoundStateCache::instance().hits();
    SpmmStats replay_event = runTdq2(EngineKind::Event, 16);
    SpmmStats replay_batched = runTdq2(EngineKind::Batched, 16);
    EXPECT_GT(RoundStateCache::instance().hits(), hits_before);
    EXPECT_TRUE(sameStats(plain_event, replay_event));
    EXPECT_TRUE(sameStats(plain_batched, replay_batched));
}

// The shared key is {owners, parity}, so a static map leaves one entry
// per parity: exactly one on TDQ-1, which has no fabric, and at most
// two on TDQ-2. The stats equal a cache-off run, cold and warm.
TEST(RoundStateCache, SharedKeyIsOwnersAndParity)
{
    CacheGuard guard;
    RoundStateCache &cache = RoundStateCache::instance();
    const DatasetSpec &spec = findDataset("cora");
    const CscMatrix a = loadSyntheticAdjacency(spec, /*seed=*/3, 0.5);
    auto run = [&](TdqKind kind, EngineKind engine) {
        AccelConfig cfg = makePolicyConfig("baseline", 16, hopBase(spec));
        cfg.engine = engine;
        RowPartition part =
            makePartitionPolicy(cfg)->build(a.rows(), a.rowNnz(), cfg);
        return SpmmEngine(cfg).simulate(a, 16, kind, part);
    };
    for (EngineKind engine : {EngineKind::Event, EngineKind::Batched}) {
        for (TdqKind kind : {TdqKind::Tdq1DenseScan, TdqKind::Tdq2OmegaCsc}) {
            const std::string what =
                "kind " + std::to_string(static_cast<int>(kind)) +
                (engine == EngineKind::Event ? " event" : " batched");
            cache.setEnabled(false);
            const SpmmStats off = run(kind, engine);
            cache.clear();
            cache.setEnabled(true);
            EXPECT_TRUE(sameStats(run(kind, engine), off)) << what;
            // One entry per parity the rounds can start at.
            const std::size_t entries = cache.size();
            if (kind == TdqKind::Tdq1DenseScan)
                EXPECT_EQ(entries, 1u) << what;
            else
                EXPECT_LE(entries, 2u) << what;
            EXPECT_TRUE(sameStats(run(kind, engine), off)) << what << " warm";
            EXPECT_EQ(cache.size(), entries) << what << " warm";
        }
    }
}

// ------------------------------------------------- functional invariance

// C is computed outside the timing loop, so it is bit-identical under
// either engine, any shared-cache state, any intra-point thread count
// and any platform — even when the schedules differ.
TEST(EngineValues, OutputIsBitIdenticalAcrossEngineCacheThreadsPlatform)
{
    CacheGuard guard;
    const DatasetSpec &spec = findDataset("cora");
    CscMatrix a = loadSyntheticAdjacency(spec, /*seed=*/13, /*scale=*/1.0);
    Rng rng(13, /*seq=*/2);
    DenseMatrix b(a.cols(), 96);
    b.fillUniform(rng, -1.0f, 1.0f);
    // Big enough that the functional SPMM runs chunked at 4 threads.
    ASSERT_GE(a.nnz() * static_cast<Count>(b.cols()),
              static_cast<Count>(kParallelMinWork));

    auto run = [&](const char *policy, EngineKind engine,
                   const char *platform) {
        AccelConfig cfg = makePolicyConfig(policy, 16, hopBase(spec));
        cfg.engine = engine;
        cfg.platform = platform;
        RowPartition part =
            makePartitionPolicy(cfg)->build(a.rows(), a.rowNnz(), cfg);
        return SpmmEngine(cfg).execute(a, b, TdqKind::Tdq2OmegaCsc, part).c;
    };
    const DenseMatrix ref =
        run("remote-d", EngineKind::Event, "unconstrained");

    EXPECT_EQ(ref.maxAbsDiff(
                  run("remote-d", EngineKind::Batched, "unconstrained")),
              0.0f)
        << "event vs batched";
    EXPECT_EQ(
        ref.maxAbsDiff(run("remote-d", EngineKind::Event, "ddr4-2400")),
        0.0f)
        << "capped vs unconstrained";

    // local-b shares remote-d's timing context, so its rounds pre-fill
    // entries the remote-d run then replays.
    RoundStateCache &cache = RoundStateCache::instance();
    cache.setEnabled(true);
    run("local-b", EngineKind::Event, "unconstrained");
    const std::uint64_t hits_before = cache.hits();
    EXPECT_EQ(ref.maxAbsDiff(
                  run("remote-d", EngineKind::Event, "unconstrained")),
              0.0f)
        << "round cache on (pre-filled) vs off";
    EXPECT_GT(cache.hits(), hits_before);
    cache.setEnabled(false);

    setIntraThreads(1);
    const DenseMatrix serial =
        run("remote-d", EngineKind::Event, "unconstrained");
    setIntraThreads(4);
    EXPECT_EQ(serial.maxAbsDiff(
                  run("remote-d", EngineKind::Event, "unconstrained")),
              0.0f)
        << "intra-threads 1 vs 4";
}

// ------------------------------------------------- runner + utilization

TEST(ExecRun, UtilizationIsDerivedInOnePlaceForEveryMode)
{
    CacheGuard guard;
    for (exec::Mode mode :
         {exec::Mode::Model, exec::Mode::SpmmTdq2, exec::Mode::Bfs,
          exec::Mode::ChurnGcn}) {
        exec::RunRequest req;
        req.dataset = "cora";
        req.policy = "remote-d";
        req.pes = 16;
        req.mode = mode;
        req.seed = 3;
        req.scale = 0.5;
        exec::RunResult r = exec::run(req);
        ASSERT_TRUE(r.ok) << exec::modeName(mode) << ": " << r.error;
        ASSERT_GT(r.cycles, 0) << exec::modeName(mode);
        EXPECT_DOUBLE_EQ(r.utilization,
                         static_cast<double>(r.tasks) /
                             (16.0 * static_cast<double>(r.cycles)))
            << exec::modeName(mode);
    }
}

TEST(ExecRun, ErrorsComeBackAsResultsNotAborts)
{
    CacheGuard guard;
    exec::RunRequest req;
    req.dataset = "cora";
    req.pes = 48;  // not a power of two: Omega network rejects it
    req.mode = exec::Mode::SpmmTdq2;
    exec::RunResult r = exec::run(req);
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.error.empty());
}

TEST(ExecRun, ModeNamesRoundTripThroughTheCore)
{
    for (exec::Mode m :
         {exec::Mode::Model, exec::Mode::Cycle, exec::Mode::SpmmTdq1,
          exec::Mode::SpmmTdq2, exec::Mode::GraphSage, exec::Mode::Gin,
          exec::Mode::KhopGcn, exec::Mode::Bfs, exec::Mode::Pagerank,
          exec::Mode::ChurnGcn})
        EXPECT_EQ(exec::parseMode(exec::modeName(m)), m);
}

// ------------------------------------------------- cache-independent sweeps

TEST(ExecSweep, JsonIsByteIdenticalWithCachesOnOrOff)
{
    CacheGuard guard;
    SweepOptions opts;
    opts.datasets = {"cora"};
    opts.designs = {"baseline", "remote-d"};
    opts.peCounts = {32};
    opts.modes = {exec::Mode::Model, exec::Mode::Cycle};
    opts.scale = 0.4;
    opts.seed = 7;
    opts.threads = 2;

    std::string off = sweepToJson(opts, runSweep(opts)).dump(2);
    exec::setCachesEnabled(true);
    std::string on = sweepToJson(opts, runSweep(opts)).dump(2);
    EXPECT_EQ(off, on);
    EXPECT_GT(exec::WorkloadCache::instance().hits(), 0u);
}

TEST(ExecSweep, JsonIsByteIdenticalAtAnyIntraThreadCount)
{
    CacheGuard guard;
    SweepOptions opts;
    opts.datasets = {"cora"};
    opts.designs = {"remote-d"};
    opts.peCounts = {32};
    opts.modes = {exec::Mode::Cycle};
    opts.scale = 0.4;
    opts.seed = 7;
    opts.threads = 1;

    setIntraThreads(1);
    std::string serial = sweepToJson(opts, runSweep(opts)).dump(2);
    setIntraThreads(7);
    std::string wide = sweepToJson(opts, runSweep(opts)).dump(2);
    EXPECT_EQ(serial, wide);
}

// ------------------------------------------------- parallel determinism

TEST(Parallel, ChunkedSpmmIsBitIdenticalAtAnyThreadCount)
{
    CacheGuard guard;
    // Big enough that nnz(A) * cols(B) crosses kParallelMinWork, so the
    // parallel path genuinely runs at intra-threads > 1.
    const DatasetSpec &spec = findDataset("cora");
    CscMatrix a = loadSyntheticAdjacency(spec, 13, 1.0);
    Rng rng(13, 2);
    DenseMatrix b(a.cols(), 128);
    b.fillUniform(rng, -1.0f, 1.0f);
    ASSERT_GE(a.nnz() * static_cast<Count>(b.cols()),
              static_cast<Count>(kParallelMinWork));

    setIntraThreads(1);
    DenseMatrix serial_csc = spmmCsc(a, b);
    CsrMatrix a_csr = cscToCsr(a);
    DenseMatrix serial_csr = spmmCsr(a_csr, b);
    for (int threads : {2, 3, 8}) {
        setIntraThreads(threads);
        DenseMatrix par_csc = spmmCsc(a, b);
        DenseMatrix par_csr = spmmCsr(a_csr, b);
        ASSERT_EQ(par_csc.data().size(), serial_csc.data().size());
        EXPECT_EQ(std::memcmp(par_csc.data().data(),
                              serial_csc.data().data(),
                              serial_csc.data().size() * sizeof(Value)),
                  0)
            << "spmmCsc diverged at " << threads << " threads";
        EXPECT_EQ(std::memcmp(par_csr.data().data(),
                              serial_csr.data().data(),
                              serial_csr.data().size() * sizeof(Value)),
                  0)
            << "spmmCsr diverged at " << threads << " threads";
    }
}

/** A pool of two or more workers (a sweep's, one point per chunk)
 *  marks every chunk, the caller's included, so the dense loops inside
 *  a point run inline instead of spawning threads of their own; a
 *  one-worker call runs inline and marks nothing. */
TEST(Parallel, ChunksOfAPoolRunNestedLoopsInline)
{
    CacheGuard guard;
    setIntraThreads(4);
    for (int workers : {2, 3, 8}) {
        std::vector<int> nested_parallel(16, -1);
        parallelFor(
            nested_parallel.size(), 1,
            [&](std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i)
                    nested_parallel[i] = shouldParallelize(kParallelMinWork);
            },
            workers);
        for (int v : nested_parallel) EXPECT_EQ(v, 0) << workers;
    }
    bool inline_parallel = false;
    parallelFor(
        4, 1,
        [&](std::size_t, std::size_t) {
            inline_parallel = shouldParallelize(kParallelMinWork);
        },
        1);
    EXPECT_TRUE(inline_parallel);
}

// ------------------------------------------------- CLI surfaces

TEST(ExecCliDeath, UnknownDatasetSuggestsNearestName)
{
    EXPECT_EXIT(findDataset("coraa"), ::testing::ExitedWithCode(1),
                "did you mean 'cora'");
    EXPECT_EXIT(findDataset("redit"), ::testing::ExitedWithCode(1),
                "did you mean 'reddit'");
}

TEST(ExecCli, ListDatasetsSucceedsAndGlobalFlagsAreStripped)
{
    CacheGuard guard;
    {
        const char *argv[] = {"awbsim", "--list-datasets"};
        EXPECT_EQ(driverMain(2, const_cast<char **>(argv)), 0);
        EXPECT_TRUE(exec::cachesEnabled());  // driver default: caches on
    }
    {
        const char *argv[] = {"awbsim", "--no-cache", "--list-datasets",
                              "--intra-threads", "2"};
        EXPECT_EQ(driverMain(5, const_cast<char **>(argv)), 0);
        EXPECT_FALSE(exec::cachesEnabled());  // escape hatch honored
        EXPECT_EQ(intraThreads(), 2);
    }
}

} // namespace
