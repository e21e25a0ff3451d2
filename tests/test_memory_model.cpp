/**
 * @file
 * Memory-model tests (DESIGN.md §8): platform registry and floor
 * arithmetic, exact traffic accounting in both fidelities, the roofline
 * composition on bandwidth-capped platforms, event/batched equivalence
 * under a constrained platform — and the acceptance lock: on the
 * `unconstrained` platform every timing statistic is bit-identical to a
 * platform-less run on all six paper policies × Cora/Citeseer/Pubmed,
 * in full cycle-mode GCN inference through the sweep engine.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "accel/perf_model.hpp"
#include "accel/policy.hpp"
#include "accel/spmm_engine.hpp"
#include "common/rng.hpp"
#include "driver/sweep.hpp"
#include "graph/datasets.hpp"
#include "model/memory_model.hpp"
#include "sim/factories.hpp"
#include "sim/session.hpp"

using namespace awb;

namespace {

AccelConfig
configFor(const std::string &policy, int pes, const std::string &platform)
{
    AccelConfig cfg = makePolicyConfig(policy, pes);
    cfg.platform = platform;
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

/** Every timing statistic of two runs must agree exactly. */
void
expectStatsIdentical(const SpmmStats &a, const SpmmStats &b,
                     const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.tasks, b.tasks) << what;
    EXPECT_EQ(a.idealCycles, b.idealCycles) << what;
    EXPECT_EQ(a.syncCycles, b.syncCycles) << what;
    EXPECT_EQ(a.rounds, b.rounds) << what;
    EXPECT_EQ(a.rowsSwitched, b.rowsSwitched) << what;
    EXPECT_EQ(a.convergedRound, b.convergedRound) << what;
    EXPECT_EQ(a.peakQueueDepth, b.peakQueueDepth) << what;
    EXPECT_EQ(a.peakNetworkDepth, b.peakNetworkDepth) << what;
    EXPECT_EQ(a.roundCycles, b.roundCycles) << what;
    EXPECT_EQ(a.perPeTasks, b.perPeTasks) << what;
    EXPECT_DOUBLE_EQ(a.utilization, b.utilization) << what;
}

} // namespace

// ---------------------------------------------------------- registry

TEST(PlatformRegistry, KnownPlatformsResolveAndEmptyIsUnconstrained)
{
    EXPECT_GE(knownPlatforms().size(), 4u);
    EXPECT_EQ(knownPlatforms().front().name, "unconstrained");
    EXPECT_EQ(knownPlatforms().front().bandwidthGBs, 0.0);

    EXPECT_EQ(findPlatform("").name, "unconstrained");
    EXPECT_EQ(findPlatform("unconstrained").name, "unconstrained");
    EXPECT_EQ(findPlatform("d5005-ddr4").bandwidthGBs, 76.8);
    EXPECT_EQ(findPlatform("p100-hbm2").bandwidthGBs, 732.0);
    EXPECT_EQ(findPlatformOrNull("hbm9"), nullptr);
}

TEST(PlatformRegistryDeath, UnknownPlatformIsFatal)
{
    EXPECT_EXIT(findPlatform("hbm9"), ::testing::ExitedWithCode(1),
                "unknown platform");
}

TEST(PlatformRegistryDeath, UnknownPlatformSuggestsNearMiss)
{
    EXPECT_EXIT(findPlatform("d5005-ddr5"), ::testing::ExitedWithCode(1),
                "did you mean 'd5005-ddr4'");
    EXPECT_EXIT(findPlatform("p100-hbm"), ::testing::ExitedWithCode(1),
                "did you mean 'p100-hbm2'");
}

TEST(PlatformRegistry, ConfigValidateRejectsUnknownPlatform)
{
    AccelConfig cfg;
    cfg.platform = "hbm9";
    EXPECT_NE(cfg.validate().find("unknown platform"), std::string::npos);
    cfg.platform = "vcu128-hbm2";
    EXPECT_EQ(cfg.validate(), "");
}

// --------------------------------------------------- floor arithmetic

TEST(MemoryModelUnit, BytesPerCycleAndFloor)
{
    // 76.8 GB/s at 275 MHz = 279.27.. bytes per cycle.
    MemoryModel mem(findPlatform("d5005-ddr4"), 275.0);
    EXPECT_FALSE(mem.unconstrained());
    EXPECT_NEAR(mem.bytesPerCycle(), 76.8e3 / 275.0, 1e-9);
    EXPECT_EQ(mem.floorCycles(0), 0);
    EXPECT_EQ(mem.floorCycles(1), 1);          // ceil rounding
    EXPECT_EQ(mem.floorCycles(280), 2);        // just over one cycle
    EXPECT_EQ(mem.floorCycles(279270), 1000);  // ~1000 cycles

    MemoryModel inf(findPlatform("unconstrained"), 275.0);
    EXPECT_TRUE(inf.unconstrained());
    EXPECT_EQ(inf.floorCycles(1'000'000'000), 0);
}

TEST(MemoryModelUnit, RoundTrafficAndMigrationAccounting)
{
    MemoryModel mem(findPlatform("ddr4-2400"), 275.0);
    MemoryTraffic t = mem.roundTraffic(/*nnz=*/100, /*inner=*/32,
                                       /*rows=*/50);
    EXPECT_EQ(t.sparseBytes, 100 * 8);
    EXPECT_EQ(t.denseBytes, 32 * 4);
    EXPECT_EQ(t.outputBytes, 50 * 4);
    EXPECT_EQ(t.migrationBytes, 0);
    EXPECT_EQ(t.total(), 800 + 128 + 200);

    // Rows 1 and 3 change owner: their nnz re-streams at 8 B/non-zero.
    std::vector<int> before = {0, 0, 1, 1};
    std::vector<int> after = {0, 2, 1, 0};
    std::vector<Count> row_work = {5, 7, 9, 11};
    EXPECT_EQ(mem.migrationBytes(before, after, row_work), (7 + 11) * 8);
    EXPECT_EQ(mem.migrationBytes(before, before, row_work), 0);
}

// ------------------------------------------- traffic in the fidelities

TEST(MemoryModelTraffic, EngineAccountsClosedFormBytesOnStaticPolicy)
{
    Dataset ds = loadSyntheticByName("cora", /*seed=*/3, /*scale=*/0.5);
    Rng rng(3, /*seq=*/2);
    const Index k = 8;
    DenseMatrix b(ds.adjacency.cols(), k);
    b.fillUniform(rng, -1.0f, 1.0f);

    AccelConfig cfg = configFor("baseline", 16, "d5005-ddr4");
    SpmmResult r = runAdjacencySpmm(cfg, ds, b, TdqKind::Tdq2OmegaCsc);

    // Static policy: no migration; per-round traffic is closed-form.
    const Count nnz = ds.adjacency.nnz();
    const Count rows = ds.adjacency.rows();
    EXPECT_EQ(r.stats.traffic.sparseBytes, k * nnz * 8);
    EXPECT_EQ(r.stats.traffic.denseBytes, k * rows * 4);  // square A
    EXPECT_EQ(r.stats.traffic.outputBytes, k * rows * 4);
    EXPECT_EQ(r.stats.traffic.migrationBytes, 0);
    EXPECT_GT(r.stats.memoryCycles, 0);
}

TEST(MemoryModelTraffic, TrafficIsAccountedEvenWhenUnconstrained)
{
    Dataset ds = loadSyntheticByName("cora", /*seed=*/3, /*scale=*/0.5);
    Rng rng(3, /*seq=*/2);
    DenseMatrix b(ds.adjacency.cols(), 8);
    b.fillUniform(rng, -1.0f, 1.0f);

    AccelConfig cfg = configFor("remote-d", 16, "unconstrained");
    SpmmResult r = runAdjacencySpmm(cfg, ds, b, TdqKind::Tdq2OmegaCsc);
    EXPECT_GT(r.stats.traffic.total(), 0);
    if (r.stats.rowsSwitched > 0) {
        EXPECT_GT(r.stats.traffic.migrationBytes, 0);
    }
    // ... but the floor never engages.
    EXPECT_EQ(r.stats.memoryCycles, 0);
    EXPECT_EQ(r.stats.bwBoundRounds, 0);
}

TEST(MemoryModelTraffic, PerfModelMatchesEngineByteAccounting)
{
    Dataset ds = loadSyntheticByName("citeseer", /*seed=*/5, /*scale=*/0.5);
    Rng rng(5, /*seq=*/2);
    const Index k = 6;
    DenseMatrix b(ds.adjacency.cols(), k);
    b.fillUniform(rng, -1.0f, 1.0f);

    AccelConfig cfg = configFor("baseline", 16, "ddr4-2400");
    SpmmResult engine = runAdjacencySpmm(cfg, ds, b, TdqKind::Tdq2OmegaCsc);

    RowPartition part = makePartitionPolicy(cfg)->build(
        ds.adjacency.rows(), ds.adjacency.rowNnz(), cfg);
    PerfSpmmResult model =
        PerfModel(cfg).runSpmm(ds.adjacency.rowNnz(), k, part);

    // Same accounting rules in both fidelities: identical steady bytes
    // for identical operands (baseline moves no rows in either).
    EXPECT_EQ(engine.stats.traffic.sparseBytes, model.traffic.sparseBytes);
    EXPECT_EQ(engine.stats.traffic.denseBytes, model.traffic.denseBytes);
    EXPECT_EQ(engine.stats.traffic.outputBytes, model.traffic.outputBytes);
    EXPECT_EQ(engine.stats.traffic.migrationBytes,
              model.traffic.migrationBytes);
    EXPECT_EQ(engine.stats.memoryCycles, model.memoryCycles);
}

// --------------------------------------------- roofline composition

TEST(MemoryModelRoofline, CappedPlatformStretchesRoundsMonotonically)
{
    Dataset ds = loadSyntheticByName("cora", /*seed=*/7, /*scale=*/0.5);
    Rng rng(7, /*seq=*/2);
    DenseMatrix b(ds.adjacency.cols(), 12);
    b.fillUniform(rng, -1.0f, 1.0f);

    SpmmResult inf = runAdjacencySpmm(configFor("remote-d", 16,
                                                "unconstrained"),
                                      ds, b, TdqKind::Tdq2OmegaCsc);
    SpmmResult cap = runAdjacencySpmm(configFor("remote-d", 16,
                                                "ddr4-2400"),
                                      ds, b, TdqKind::Tdq2OmegaCsc);

    EXPECT_GT(cap.stats.bwBoundRounds, 0);
    EXPECT_GT(cap.stats.memoryCycles, 0);
    EXPECT_GT(cap.stats.cycles, inf.stats.cycles);
    ASSERT_EQ(cap.stats.roundCycles.size(), inf.stats.roundCycles.size());
    // Durations compose per round: the total is exactly the sum of the
    // (possibly stretched) round durations in both runs.
    Cycle cap_sum = 0, inf_sum = 0;
    for (Cycle c : cap.stats.roundCycles) cap_sum += c;
    for (Cycle c : inf.stats.roundCycles) inf_sum += c;
    EXPECT_EQ(cap_sum, cap.stats.cycles);
    EXPECT_EQ(inf_sum, inf.stats.cycles);
    // Memory stalls shift the Omega arbitration parity between rounds,
    // but C is computed outside the timing loop: bit-identical.
    EXPECT_EQ(cap.c.maxAbsDiff(inf.c), 0.0f);
}

TEST(MemoryModelRoofline, CappedRunsAreDeterministic)
{
    Dataset ds = loadSyntheticByName("citeseer", /*seed=*/9, /*scale=*/0.5);
    Rng rng(9, /*seq=*/2);
    DenseMatrix b(ds.adjacency.cols(), 8);
    b.fillUniform(rng, -1.0f, 1.0f);

    AccelConfig cfg = configFor("remote-c", 16, "ddr4-2400");
    SpmmResult r1 = runAdjacencySpmm(cfg, ds, b, TdqKind::Tdq2OmegaCsc);
    SpmmResult r2 = runAdjacencySpmm(cfg, ds, b, TdqKind::Tdq2OmegaCsc);
    expectStatsIdentical(r1.stats, r2.stats, "capped repeat");
    EXPECT_EQ(r1.stats.bwBoundRounds, r2.stats.bwBoundRounds);
    EXPECT_EQ(r1.stats.memoryCycles, r2.stats.memoryCycles);
}

// Event and batched engines must stay bit-identical when the platform
// is constrained: the floor composes outside the round dynamics, so the
// batched replay reproduces the same stretched durations.
TEST(MemoryModelRoofline, EventAndBatchedAgreeOnCappedPlatform)
{
    Dataset ds = loadSyntheticByName("cora", /*seed=*/11, /*scale=*/0.5);
    Rng rng(11, /*seq=*/2);
    DenseMatrix b(ds.adjacency.cols(), 16);
    b.fillUniform(rng, -1.0f, 1.0f);

    for (const char *policy : {"baseline", "remote-d"}) {
        AccelConfig ev = configFor(policy, 16, "ddr4-2400");
        ev.engine = EngineKind::Event;
        AccelConfig ba = configFor(policy, 16, "ddr4-2400");
        ba.engine = EngineKind::Batched;
        SpmmResult r_ev = runAdjacencySpmm(ev, ds, b,
                                           TdqKind::Tdq2OmegaCsc);
        SpmmResult r_ba = runAdjacencySpmm(ba, ds, b,
                                           TdqKind::Tdq2OmegaCsc);
        expectStatsIdentical(r_ev.stats, r_ba.stats, policy);
        EXPECT_EQ(r_ev.stats.bwBoundRounds, r_ba.stats.bwBoundRounds)
            << policy;
        EXPECT_EQ(r_ev.stats.memoryCycles, r_ba.stats.memoryCycles)
            << policy;
        EXPECT_LT(r_ba.stats.roundsSimulated, r_ba.stats.rounds) << policy;
    }
}

// ------------------------------------------------ Session threading

TEST(MemoryModelSession, WorkloadGraphReportsTrafficPerLayer)
{
    Dataset ds = loadSyntheticByName("cora", /*seed=*/13, /*scale=*/0.3);
    sim::WorkloadBundle w = sim::buildGraphSage(
        ds, ds.spec.f2, ds.spec.f3, /*meanAggregate=*/true, 13);
    AccelConfig cfg = configFor("remote-d", 16, "d5005-ddr4");
    sim::Session session(cfg);
    sim::SessionResult res = sim::runWorkload(session, std::move(w));

    ASSERT_FALSE(res.nodeStats.empty());
    MemoryTraffic sum;
    Cycle mem_cycles = 0;
    Count bw_rounds = 0;
    for (const SpmmStats &s : res.nodeStats) {
        EXPECT_GT(s.traffic.total(), 0) << s.label;
        sum += s.traffic;
        mem_cycles += s.memoryCycles;
        bw_rounds += s.bwBoundRounds;
    }
    EXPECT_EQ(res.traffic.total(), sum.total());
    EXPECT_EQ(res.memoryCycles, mem_cycles);
    EXPECT_EQ(res.bwBoundRounds, bw_rounds);
    EXPECT_GT(res.memoryCycles, 0);
}

// ------------------------------------------------ the acceptance lock

// Unconstrained platform ⇒ bit-identical to a platform-less run (the
// exact configs every pre-memory-model call site builds): all six paper
// policies × Cora/Citeseer/Pubmed, full cycle-mode GCN through the
// sweep engine, on both cycle engines. One case per engine × dataset,
// so `ctest -j` runs them side by side.
class MemoryModelEquivalence
    : public ::testing::TestWithParam<std::tuple<EngineKind, std::string>>
{
};

TEST_P(MemoryModelEquivalence, UnconstrainedIsBitIdenticalOnSixPolicies)
{
    const auto &[engine, dataset] = GetParam();
    driver::SweepOptions opts;
    opts.datasets = {dataset};
    opts.designs = {"baseline", "local-a", "local-b",
                    "remote-c", "remote-d", "eie-like"};
    opts.peCounts = {64};
    opts.modes = {exec::Mode::Cycle};
    opts.seed = 7;
    opts.engine = engine;
    opts.platforms = {"unconstrained"};
    auto points = driver::expandGrid(opts);
    auto swept = driver::runSweep(opts, points);
    ASSERT_EQ(swept.size(), 6u);
    // The platform-less twins: the same points executed through the
    // exact config a pre-memory-model sweep built (platform field left
    // empty), same derived seeds.
    for (auto &p : points) p.platform = "";
    auto twins = driver::runSweep(opts, points);

    for (std::size_t i = 0; i < swept.size(); ++i) {
        const auto &o = swept[i];
        std::string what = o.point.dataset + " " + o.point.policy + " " +
                           engineKindName(engine);
        ASSERT_TRUE(o.ok) << what << ": " << o.error;
        const driver::SweepOutcome &base = twins[i];
        ASSERT_TRUE(base.ok) << what << ": " << base.error;

        EXPECT_EQ(o.cycles, base.cycles) << what;
        EXPECT_EQ(o.tasks, base.tasks) << what;
        EXPECT_EQ(o.idealCycles, base.idealCycles) << what;
        EXPECT_EQ(o.syncCycles, base.syncCycles) << what;
        EXPECT_EQ(o.rowsSwitched, base.rowsSwitched) << what;
        EXPECT_EQ(o.convergedRound, base.convergedRound) << what;
        EXPECT_EQ(o.peakTqDepth, base.peakTqDepth) << what;
        EXPECT_EQ(o.rounds, base.rounds) << what;
        EXPECT_EQ(o.roundsSimulated, base.roundsSimulated) << what;
        // The unconstrained floor never engages.
        EXPECT_EQ(o.memoryCycles, 0) << what;
        EXPECT_EQ(o.bwBoundRounds, 0) << what;
        // ... while traffic is still accounted.
        EXPECT_GT(o.bytesTotal, 0) << what;
    }
}

INSTANTIATE_TEST_SUITE_P(
    EngineByDataset, MemoryModelEquivalence,
    ::testing::Combine(::testing::Values(EngineKind::Event,
                                         EngineKind::Batched),
                       ::testing::Values("cora", "citeseer", "pubmed")),
    [](const auto &info) {
        return engineKindName(std::get<0>(info.param)) + "_" +
               std::get<1>(info.param);
    });
