/**
 * @file
 * Round-batched cycle engine tests (DESIGN.md §6): the batched engine
 * must reproduce the event engine's timing statistics bit for bit —
 * cycles, rowsSwitched, convergedRound and every derived count — on all
 * six paper policies across Cora, Citeseer and Pubmed (the acceptance
 * lock), at the single-SPMM level including per-round durations and
 * per-PE tallies, while actually event-stepping fewer rounds than it
 * reports (the speedup mechanism), and deterministically.
 */

#include <gtest/gtest.h>

#include "accel/policy.hpp"
#include "accel/spmm_engine.hpp"
#include "common/rng.hpp"
#include "driver/sweep.hpp"
#include "graph/datasets.hpp"
#include "sparse/convert.hpp"

using namespace awb;

namespace {

AccelConfig
configFor(const std::string &policy, int pes, EngineKind engine)
{
    AccelConfig cfg = makePolicyConfig(policy, pes);
    cfg.engine = engine;
    return cfg;
}

SpmmResult
runAdjacencySpmm(const AccelConfig &cfg, const Dataset &ds,
                 const DenseMatrix &b, TdqKind kind)
{
    const CscMatrix &a = ds.adjacency;
    RowPartition part =
        makePartitionPolicy(cfg)->build(a.rows(), a.rowNnz(), cfg);
    return SpmmEngine(cfg).execute(a, b, kind, part);
}

/** Every timing statistic of the two engines must agree exactly. */
void
expectStatsIdentical(const SpmmStats &event, const SpmmStats &batched,
                     const std::string &what)
{
    EXPECT_EQ(event.cycles, batched.cycles) << what;
    EXPECT_EQ(event.tasks, batched.tasks) << what;
    EXPECT_EQ(event.idealCycles, batched.idealCycles) << what;
    EXPECT_EQ(event.syncCycles, batched.syncCycles) << what;
    EXPECT_EQ(event.rounds, batched.rounds) << what;
    EXPECT_EQ(event.rowsSwitched, batched.rowsSwitched) << what;
    EXPECT_EQ(event.convergedRound, batched.convergedRound) << what;
    EXPECT_EQ(event.peakQueueDepth, batched.peakQueueDepth) << what;
    EXPECT_EQ(event.peakNetworkDepth, batched.peakNetworkDepth) << what;
    EXPECT_EQ(event.roundCycles, batched.roundCycles) << what;
    EXPECT_EQ(event.perPeTasks, batched.perPeTasks) << what;
    EXPECT_DOUBLE_EQ(event.utilization, batched.utilization) << what;
}

} // namespace

TEST(EngineKindNames, ParseAndNameRoundTrip)
{
    EXPECT_EQ(engineKindName(EngineKind::Event), "event");
    EXPECT_EQ(engineKindName(EngineKind::Batched), "batched");
    EXPECT_EQ(parseEngineKind("event"), EngineKind::Event);
    EXPECT_EQ(parseEngineKind("batched"), EngineKind::Batched);
}

TEST(EngineKindNamesDeath, UnknownEngineIsFatal)
{
    EXPECT_EXIT(parseEngineKind("fast"), ::testing::ExitedWithCode(1),
                "event\\|batched");
}

// Single-SPMM level: full stats vectors (per-round durations, per-PE
// task tallies) must match on both distribution paths, and the batched
// engine must have replayed at least one round to earn its keep.
TEST(BatchedEngine, SpmmLevelBitIdenticalOnBothTdqPaths)
{
    Dataset ds = loadSyntheticByName("cora", /*seed=*/5);
    Rng rng(5, /*seq=*/2);
    DenseMatrix b(ds.adjacency.cols(), 24);
    b.fillUniform(rng, -1.0f, 1.0f);

    for (const char *policy : {"baseline", "local-b", "remote-d"}) {
        for (TdqKind kind :
             {TdqKind::Tdq1DenseScan, TdqKind::Tdq2OmegaCsc}) {
            std::string what = std::string(policy) +
                (kind == TdqKind::Tdq1DenseScan ? " tdq1" : " tdq2");
            SpmmResult ev = runAdjacencySpmm(
                configFor(policy, 32, EngineKind::Event), ds, b, kind);
            SpmmResult ba = runAdjacencySpmm(
                configFor(policy, 32, EngineKind::Batched), ds, b, kind);

            expectStatsIdentical(ev.stats, ba.stats, what);
            EXPECT_EQ(ev.stats.roundsSimulated, ev.stats.rounds) << what;
            EXPECT_LT(ba.stats.roundsSimulated, ba.stats.rounds) << what;
            EXPECT_GT(ba.stats.roundsSimulated, 0) << what;

            // C is computed outside the timing loop: bit-identical.
            EXPECT_EQ(ev.c.maxAbsDiff(ba.c), 0.0f) << what;
        }
    }
}

// The acceptance lock: all six paper policies on Cora, Citeseer and
// Pubmed, full cycle-mode GCN inference (both SPMMs of both layers,
// chained through sim::Session), batched == event on every reported
// count.
TEST(BatchedEngine, CycleModeGcnBitIdenticalOnSixPoliciesThreeDatasets)
{
    driver::SweepOptions opts;
    opts.datasets = {"cora", "citeseer", "pubmed"};
    opts.designs = {"baseline", "local-a", "local-b",
                    "remote-c", "remote-d", "eie-like"};
    opts.peCounts = {64};
    opts.modes = {exec::Mode::Cycle};
    opts.seed = 7;

    auto points = driver::expandGrid(opts);
    opts.engine = EngineKind::Event;
    auto event = driver::runSweep(opts, points);
    opts.engine = EngineKind::Batched;
    auto batched = driver::runSweep(opts, points);

    ASSERT_EQ(event.size(), 18u);
    ASSERT_EQ(batched.size(), 18u);
    for (std::size_t i = 0; i < event.size(); ++i) {
        const auto &e = event[i];
        const auto &b = batched[i];
        std::string what = e.point.dataset + " " + e.point.policy;
        ASSERT_TRUE(e.ok) << what << ": " << e.error;
        ASSERT_TRUE(b.ok) << what << ": " << b.error;
        EXPECT_EQ(e.cycles, b.cycles) << what;
        EXPECT_EQ(e.tasks, b.tasks) << what;
        EXPECT_EQ(e.idealCycles, b.idealCycles) << what;
        EXPECT_EQ(e.syncCycles, b.syncCycles) << what;
        EXPECT_EQ(e.rowsSwitched, b.rowsSwitched) << what;
        EXPECT_EQ(e.convergedRound, b.convergedRound) << what;
        EXPECT_EQ(e.peakTqDepth, b.peakTqDepth) << what;
        EXPECT_EQ(e.rounds, b.rounds) << what;
        // The speedup mechanism engaged: fewer rounds were event-stepped
        // than executed.
        EXPECT_EQ(e.roundsSimulated, e.rounds) << what;
        EXPECT_LT(b.roundsSimulated, b.rounds) << what;
    }
}

// Two batched runs of the same point are identical down to the result
// bits (the sweep's determinism contract holds for the new engine).
TEST(BatchedEngine, BatchedRunsAreDeterministic)
{
    Dataset ds = loadSyntheticByName("citeseer", /*seed=*/9);
    Rng rng(9, /*seq=*/2);
    DenseMatrix b(ds.adjacency.cols(), 16);
    b.fillUniform(rng, -1.0f, 1.0f);

    AccelConfig cfg = configFor("remote-c", 16, EngineKind::Batched);
    SpmmResult r1 =
        runAdjacencySpmm(cfg, ds, b, TdqKind::Tdq2OmegaCsc);
    SpmmResult r2 =
        runAdjacencySpmm(cfg, ds, b, TdqKind::Tdq2OmegaCsc);
    expectStatsIdentical(r1.stats, r2.stats, "repeat");
    EXPECT_EQ(r1.stats.roundsSimulated, r2.stats.roundsSimulated);
    EXPECT_EQ(r1.c.maxAbsDiff(r2.c), 0.0f);
}

// The partition tuned by a batched run is the same partition the event
// engine would have produced (auto-tuning trajectories are
// engine-invariant, so carried row maps stay exchangeable).
TEST(BatchedEngine, TunedPartitionMatchesEventEngine)
{
    Dataset ds = loadSyntheticByName("cora", /*seed=*/3);
    Rng rng(3, /*seq=*/2);
    DenseMatrix b(ds.adjacency.cols(), 16);
    b.fillUniform(rng, -1.0f, 1.0f);

    const CscMatrix &a = ds.adjacency;
    AccelConfig ev_cfg = configFor("remote-d", 32, EngineKind::Event);
    AccelConfig ba_cfg = configFor("remote-d", 32, EngineKind::Batched);
    RowPartition ev_part =
        makePartitionPolicy(ev_cfg)->build(a.rows(), a.rowNnz(), ev_cfg);
    RowPartition ba_part =
        makePartitionPolicy(ba_cfg)->build(a.rows(), a.rowNnz(), ba_cfg);
    SpmmEngine(ev_cfg).execute(a, b, TdqKind::Tdq2OmegaCsc, ev_part);
    SpmmEngine(ba_cfg).execute(a, b, TdqKind::Tdq2OmegaCsc, ba_part);
    EXPECT_EQ(ev_part.owners(), ba_part.owners());
}
