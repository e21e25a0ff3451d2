/**
 * @file
 * Cross-module property tests (parameterized sweeps):
 *  - Omega network conservation and routing over random traffic at every
 *    supported width;
 *  - degree samplers hit totals across exponents and caps;
 *  - the cycle engine's functional exactness and exact task delivery are
 *    insensitive to every distribution-path knob (queue count, network
 *    speedup, row map), and each knob's timing fields match a recorded
 *    digest, with the shared round cache off, cold and warm; the
 *    batched engine misses its within-run memo as often with that cache
 *    on as off;
 *  - water-filling monotonicity and bounds;
 *  - workload conservation under arbitrary remote-switching sequences;
 *  - randomized CSR/CSC churn mutation: structural invariants and
 *    dense-equality of the DeltaCsr against an incrementally maintained
 *    reference across seeds and insert:delete mixes (DESIGN.md §12).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>

#include "engine_checks.hpp"

#include "accel/omega.hpp"
#include "accel/perf_model.hpp"
#include "accel/policy.hpp"
#include "accel/rebalance.hpp"
#include "accel/round_cache.hpp"
#include "accel/spmm_engine.hpp"
#include "common/rng.hpp"
#include "dynamic/churn.hpp"
#include "dynamic/delta_csr.hpp"
#include "graph/datasets.hpp"
#include "graph/degree_dist.hpp"
#include "sparse/convert.hpp"
#include "sparse/spmm.hpp"

using namespace awb;

/** Omega: under random traffic every port receives exactly the flits
 *  injected for it, for every width/speedup combination. */
class OmegaConservation
    : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(OmegaConservation, DeliversEveryFlitOnce)
{
    auto [ports, speedup] = GetParam();
    OmegaNetwork net(ports, 4, speedup);
    Rng rng(static_cast<std::uint64_t>(ports * 131 + speedup));

    const int n = 500;
    std::vector<int> sent_to(static_cast<std::size_t>(ports), 0);
    std::vector<int> delivered(static_cast<std::size_t>(ports), 0);
    int sent = 0;
    Count received = 0;
    int cycles = 0;
    while ((sent < n || !net.empty()) && cycles < 100000) {
        ++cycles;
        net.tick([&](int dest, int port) {
            EXPECT_EQ(port, dest);
            ++delivered[static_cast<std::size_t>(dest)];
            ++received;
            return true;
        });
        for (int s = 0; s < ports && sent < n; ++s) {
            const int d = static_cast<int>(rng.nextIndex(ports));
            if (net.inject(d, s)) {
                ++sent;
                ++sent_to[static_cast<std::size_t>(d)];
            }
        }
    }
    EXPECT_EQ(received, n);
    EXPECT_EQ(delivered, sent_to);
}

INSTANTIATE_TEST_SUITE_P(Widths, OmegaConservation,
                         ::testing::Combine(::testing::Values(2, 4, 8, 32),
                                            ::testing::Values(1, 2, 4)));

/** Degree sampler: totals hit across exponents and caps. */
class DegreeSweep
    : public ::testing::TestWithParam<std::tuple<double, Count>>
{};

TEST_P(DegreeSweep, TotalWithinTolerance)
{
    auto [alpha, dmax] = GetParam();
    Rng rng(99);
    const Count target = 20000;
    auto deg = samplePowerLawDegrees(rng, 4000, alpha, 1, dmax, target);
    Count total = std::accumulate(deg.begin(), deg.end(), Count(0));
    EXPECT_NEAR(static_cast<double>(total), static_cast<double>(target),
                0.02 * static_cast<double>(target));
    for (Count d : deg) {
        EXPECT_GE(d, 0);
        EXPECT_LE(d, dmax);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Params, DegreeSweep,
    ::testing::Combine(::testing::Values(1.6, 2.1, 2.8),
                       ::testing::Values(Count(50), Count(400))));

/** Engine exactness across every distribution-path knob. */
struct KnobCase
{
    const char *name;
    void (*apply)(AccelConfig &);
};

class EngineKnobs : public ::testing::TestWithParam<int> {};

TEST_P(EngineKnobs, FunctionalUnderAllKnobs)
{
    static const KnobCase cases[] = {
        {"oneQueue", [](AccelConfig &c) { c.numQueuesPerPe = 1; }},
        {"eightQueues", [](AccelConfig &c) { c.numQueuesPerPe = 8; }},
        {"slowFabric", [](AccelConfig &c) { c.networkSpeedup = 1; }},
        {"cyclicMap", [](AccelConfig &c) {
             c.mapPolicy = RowMapPolicy::Cyclic;
         }},
    };
    const KnobCase &kc = cases[static_cast<std::size_t>(GetParam())];

    Rng rng(55);
    CooMatrix coo(60, 60);
    for (Index i = 0; i < 60; ++i)
        for (Index j = 0; j < 60; ++j)
            if (rng.nextBool(0.12)) coo.add(i, j, rng.nextFloat(-1, 1));
    coo.canonicalize();
    auto a = CscMatrix::fromCoo(coo);
    DenseMatrix b(60, 5);
    b.fillUniform(rng, -1.0f, 1.0f);
    auto golden = spmmCsc(a, b);

    // One run's timing fields, folded into `timing`; its within-run
    // memo misses, added to `simulated`.
    auto addRun = [&](TdqKind kind, const char *design, EngineKind engine,
                      int pes, Digest &timing, Count &simulated) {
        SCOPED_TRACE(std::string(kc.name) +
                     " kind=" + std::to_string(static_cast<int>(kind)) +
                     " design=" + design + " pes=" + std::to_string(pes));
        AccelConfig cfg = makePolicyConfig(design, pes);
        kc.apply(cfg);
        cfg.engine = engine;
        RowPartition part(60, pes, cfg.mapPolicy);
        auto [c, stats] = SpmmEngine(cfg).execute(a, b, kind, part);
        EXPECT_LT(golden.maxAbsDiff(c), 1e-4);
        expectExactDelivery(a, 5, cfg, part, stats);
        timing.add(static_cast<std::uint64_t>(stats.cycles));
        timing.addAll(stats.roundCycles);
        timing.addAll(stats.perPeTasks);
        timing.add(0);  // the RaW stall count, always 0 at a one-cycle MAC
        timing.add(stats.peakQueueDepth);
        timing.add(stats.peakNetworkDepth);
        timing.add(static_cast<std::uint64_t>(stats.rowsSwitched));
        simulated += stats.roundsSimulated;
    };
    // Both TDQ paths. Remote-D exercises sharing and row moves; the
    // baseline pins every task to its home PE, so per-PE counts are
    // exact too.
    struct Runs
    {
        std::uint64_t digest;
        Count simulated;
    };
    auto digestRuns = [&](EngineKind engine, int pes = 8) {
        Digest timing;
        Count simulated = 0;
        for (TdqKind kind : {TdqKind::Tdq1DenseScan, TdqKind::Tdq2OmegaCsc})
            for (const char *design : {"remote-d", "baseline"})
                addRun(kind, design, engine, pes, timing, simulated);
        return Runs{timing.h, simulated};
    };
    // Every timing field of the four runs, recorded per knob case before
    // the event step was made work-proportional; the slow fabric's once
    // the router depth became fixed at 8. A fabric at the PE clock never
    // runs in the default workloads, so its digest is its only lock.
    static const std::uint64_t recorded[] = {
        0x4176e2a4448fa4daULL,
        0x83cdcb8fac87457fULL,
        0xcf7b788fa1fdef66ULL,
        0x2f0b8f41ac990e4fULL,
    };
    const std::uint64_t want = recorded[static_cast<std::size_t>(GetParam())];
    const std::uint64_t off = digestRuns(EngineKind::Event).digest;
    EXPECT_EQ(off, want) << kc.name << " 0x" << std::hex << off;
    // The batched engine's memo keys on the arbiter cursors. With the
    // shared cache off they come from one queue model per PE, started at
    // its real entry cursor; with it on, from the cursor tables. A wrong
    // entry cursor shows as a different count of memo misses. At 8 PEs
    // no knob case's count moves when the one-copy models start at
    // cursor 0, so the runs are repeated at 16 PEs, where three do.
    const Runs batched_off = digestRuns(EngineKind::Batched);
    EXPECT_EQ(batched_off.digest, want)
        << kc.name << " batched, cache off 0x" << std::hex
        << batched_off.digest;
    const Count wide_off = digestRuns(EngineKind::Batched, 16).simulated;

    // The same digest with the shared round cache on: cold, warm, and
    // warm under the batched engine's within-run memo. These knobs are
    // where the shared key's argument has edges (DESIGN.md §13).
    struct CacheOn
    {
        CacheOn()
        {
            RoundStateCache::instance().clear();
            RoundStateCache::instance().setEnabled(true);
        }
        ~CacheOn()
        {
            RoundStateCache::instance().setEnabled(false);
            RoundStateCache::instance().clear();
        }
    } cache_on;
    const std::uint64_t cold = digestRuns(EngineKind::Event).digest;
    EXPECT_EQ(cold, want) << kc.name << " cold 0x" << std::hex << cold;
    const std::uint64_t warm = digestRuns(EngineKind::Event).digest;
    EXPECT_EQ(warm, want) << kc.name << " warm 0x" << std::hex << warm;
    const Runs memo = digestRuns(EngineKind::Batched);
    EXPECT_EQ(memo.digest, want)
        << kc.name << " batched 0x" << std::hex << memo.digest;
    EXPECT_EQ(memo.simulated, batched_off.simulated) << kc.name;
    EXPECT_EQ(digestRuns(EngineKind::Batched, 16).simulated, wide_off)
        << kc.name;
}

INSTANTIATE_TEST_SUITE_P(AllKnobs, EngineKnobs, ::testing::Range(0, 4));

TEST(WaterFill, MonotoneInHops)
{
    Rng rng(77);
    std::vector<Count> w(64);
    for (auto &v : w) v = rng.nextIndex(100);
    Cycle prev = PerfModel::balancedDrain(w, 0);
    for (int h = 1; h <= 8; ++h) {
        Cycle d = PerfModel::balancedDrain(w, h);
        EXPECT_LE(d, prev) << "hops=" << h;
        prev = d;
    }
    // Never below the perfect-balance floor.
    Count total = std::accumulate(w.begin(), w.end(), Count(0));
    EXPECT_GE(prev, (total + 63) / 64);
}

TEST(WaterFill, FullWindowReachesPerfectBalance)
{
    std::vector<Count> w = {100, 0, 0, 0, 0, 0, 0, 0};
    EXPECT_EQ(PerfModel::balancedDrain(w, 7), 13);  // ceil(100/8)
}

TEST(RemoteSwitchProperty, WorkloadConservedUnderAnySequence)
{
    Rng rng(88);
    const Index rows = 200;
    const int pes = 16;
    std::vector<Count> work(static_cast<std::size_t>(rows));
    for (auto &v : work) v = rng.nextIndex(40);
    Count total = std::accumulate(work.begin(), work.end(), Count(0));

    AccelConfig cfg = makePolicyConfig("remote-c", pes);
    cfg.sharingHops = 0;
    RowPartition part(rows, pes, cfg.mapPolicy);
    RemoteSwitcher sw(cfg, rows);

    for (int round = 0; round < 40; ++round) {
        RoundObservation obs;
        obs.peWork = part.workload(work);
        obs.drainCycle.assign(obs.peWork.begin(), obs.peWork.end());
        sw.observeAndAdjust(obs, work, part);

        ASSERT_TRUE(part.consistent());
        auto pw = part.workload(work);
        EXPECT_EQ(std::accumulate(pw.begin(), pw.end(), Count(0)), total);
    }
}

TEST(RemoteSwitchProperty, NeverIncreasesMaxLoadAfterConvergence)
{
    Rng rng(89);
    const Index rows = 128;
    const int pes = 8;
    std::vector<Count> work(static_cast<std::size_t>(rows), 1);
    for (int i = 0; i < 12; ++i)
        work[static_cast<std::size_t>(rng.nextIndex(rows))] = 30;

    AccelConfig cfg = makePolicyConfig("remote-c", pes);
    cfg.sharingHops = 0;
    RowPartition part(rows, pes, cfg.mapPolicy);
    RemoteSwitcher sw(cfg, rows);

    auto max_load = [&]() {
        auto pw = part.workload(work);
        return *std::max_element(pw.begin(), pw.end());
    };
    Count initial = max_load();
    for (int round = 0; round < 50 && !sw.converged(); ++round) {
        RoundObservation obs;
        obs.peWork = part.workload(work);
        obs.drainCycle.assign(obs.peWork.begin(), obs.peWork.end());
        sw.observeAndAdjust(obs, work, part);
    }
    EXPECT_LE(max_load(), initial);
}

/**
 * Streaming churn mutation (DESIGN.md §12): drive randomized
 * insert/delete batches through a DeltaCsr and check, after every
 * batch, the invariants a from-scratch build would enjoy — nnz
 * conservation against the accepted-event count, monotone row pointers,
 * sorted in-range column ids, structural validity of both snapshot
 * formats, and element-exact dense equality with an incrementally
 * maintained reference matrix. Parameterized over seeds; the seed is
 * logged so a failure replays deterministically.
 */
class ChurnMutationProperty
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(ChurnMutationProperty, InvariantsSurviveRandomChurn)
{
    const std::uint64_t seed = GetParam();
    SCOPED_TRACE("churn seed " + std::to_string(seed));

    Rng rng(seed, 0xc0ffee);
    const Index n = 80;
    CooMatrix coo(n, n);
    for (Index i = 0; i < n; ++i)
        for (Index j = 0; j < n; ++j)
            if (rng.nextBool(0.06)) coo.add(i, j, rng.nextFloat(-1, 1));
    coo.canonicalize();
    const CscMatrix a = CscMatrix::fromCoo(coo);

    dynamic::ChurnParams params;
    params.seed = seed;
    // Sweep the mix with the seed: delete-heavy through insert-heavy.
    params.insertFrac = 0.2 + 0.1 * static_cast<double>(seed % 7);
    dynamic::EdgeChurnStream stream(a, params);
    dynamic::DeltaCsr delta(a);
    DenseMatrix ref = cscToDense(a);

    Count live = a.nnz();
    for (int batch = 0; batch < 10; ++batch) {
        SCOPED_TRACE("batch " + std::to_string(batch));
        const std::vector<dynamic::EdgeEvent> events =
            stream.nextBatch(60);
        for (const dynamic::EdgeEvent &e : events) {
            if (e.op == dynamic::ChurnOp::Insert) {
                ref.at(e.row, e.col) = e.val;
                ++live;
            } else {
                ref.at(e.row, e.col) = Value(0);
                --live;
            }
        }
        ASSERT_EQ(delta.apply(events),
                  static_cast<Count>(events.size()));

        // nnz conservation: accepted inserts minus accepted deletes.
        ASSERT_EQ(delta.nnz(), live);

        const CsrMatrix csr = delta.toCsr();
        ASSERT_TRUE(csr.valid());
        for (Index r = 0; r < csr.rows(); ++r) {
            const Count lo = csr.rowPtr()[static_cast<std::size_t>(r)];
            const Count hi =
                csr.rowPtr()[static_cast<std::size_t>(r) + 1];
            ASSERT_LE(lo, hi);
            for (Count k = lo; k < hi; ++k) {
                const Index c =
                    csr.colId()[static_cast<std::size_t>(k)];
                ASSERT_GE(c, 0);
                ASSERT_LT(c, csr.cols());
                if (k > lo) {
                    // Strictly sorted within the row.
                    ASSERT_LT(
                        csr.colId()[static_cast<std::size_t>(k) - 1],
                        c);
                }
            }
        }

        const CscMatrix csc = delta.toCsc();
        ASSERT_TRUE(csc.valid());
        // Element-exact: values are only ever copied, never recomputed.
        ASSERT_EQ(cscToDense(csc).maxAbsDiff(ref), 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnMutationProperty,
                         ::testing::Values(1, 2, 3, 17, 42, 99, 1234));

TEST(ProfileVsDataset, WorkloadTotalsAgreeAcrossScales)
{
    for (double scale : {0.1, 0.3}) {
        auto ds = loadSyntheticByName("citeseer", 21, scale);
        auto prof = loadProfile(findDataset("citeseer"), 21, scale);
        Count ds_nnz = ds.adjacency.nnz();
        Count prof_nnz = std::accumulate(prof.aRowNnz.begin(),
                                         prof.aRowNnz.end(), Count(0));
        EXPECT_NEAR(static_cast<double>(prof_nnz),
                    static_cast<double>(ds_nnz),
                    0.05 * static_cast<double>(ds_nnz))
            << "scale=" << scale;
    }
}
