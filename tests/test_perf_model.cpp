/**
 * @file
 * Tests for the round-level performance model: the water-filling bound,
 * cross-validation against the cycle-accurate engine (the two fidelities
 * must agree on cycles and utilization within tolerance), full-scale
 * tractability, and the area/energy/platform models.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "accel/gcn_accel.hpp"
#include "accel/perf_model.hpp"
#include "accel/policy.hpp"
#include "accel/spmm_engine.hpp"
#include "common/rng.hpp"
#include "gcn/ops_count.hpp"
#include "graph/datasets.hpp"
#include "model/area_model.hpp"
#include "model/energy_model.hpp"
#include "model/platforms.hpp"
#include "sparse/convert.hpp"

using namespace awb;

TEST(BalancedDrain, NoSharingIsMax)
{
    std::vector<Count> w = {10, 2, 2, 2};
    EXPECT_EQ(PerfModel::balancedDrain(w, 0), 10);
}

TEST(BalancedDrain, FullSharingReachesMean)
{
    std::vector<Count> w = {16, 0, 0, 0};
    // hops >= P-1: work can spread everywhere -> ceil(16/4) = 4.
    EXPECT_EQ(PerfModel::balancedDrain(w, 3), 4);
}

TEST(BalancedDrain, OneHopSpreadsToNeighbours)
{
    std::vector<Count> w = {12, 0, 0, 0};
    // PE0's work reaches PEs {0,1}: drain 6.
    EXPECT_EQ(PerfModel::balancedDrain(w, 1), 6);
    // Middle hotspot reaches three PEs: drain 4.
    std::vector<Count> w2 = {0, 12, 0, 0};
    EXPECT_EQ(PerfModel::balancedDrain(w2, 1), 4);
}

TEST(BalancedDrain, ClusterNeedsMoreHops)
{
    // Two adjacent hot PEs: 1 hop reaches 4 PEs -> 24/4 = 6;
    // 2 hops reach 6 PEs -> 4.
    std::vector<Count> w = {0, 0, 12, 12, 0, 0, 0, 0};
    EXPECT_EQ(PerfModel::balancedDrain(w, 1), 6);
    EXPECT_EQ(PerfModel::balancedDrain(w, 2), 4);
}

TEST(BalancedDrain, ServedConservesWork)
{
    std::vector<Count> w = {9, 1, 7, 0, 3, 3, 0, 5};
    std::vector<Count> served;
    Cycle t = PerfModel::balancedDrain(w, 1, &served);
    Count total = 0;
    for (Count s : served) {
        total += s;
        EXPECT_LE(s, t);
    }
    EXPECT_EQ(total, 28);
}

namespace {

/** Results of running both fidelities on the same matrix. */
struct FidelityPair
{
    SpmmStats cyc;
    PerfSpmmResult prf;
};

FidelityPair
runBoth(const std::string &design, const char *dataset, double scale,
        int pes, Index rounds)
{
    auto ds = loadSyntheticByName(dataset, 11, scale);
    AccelConfig cfg = makePolicyConfig(design, pes, hopBase(ds.spec));

    DenseMatrix b(ds.spec.nodes, rounds);
    Rng rng(3);
    b.fillUniform(rng, -1.0f, 1.0f);

    FidelityPair out;
    {
        RowPartition part(ds.spec.nodes, pes, cfg.mapPolicy);
        out.cyc = SpmmEngine(cfg)
                      .execute(ds.adjacency, b, TdqKind::Tdq2OmegaCsc, part)
                      .stats;
    }
    {
        RowPartition part(ds.spec.nodes, pes, cfg.mapPolicy);
        out.prf = PerfModel(cfg).runSpmm(ds.adjacency.rowNnz(), rounds,
                                         part);
    }
    EXPECT_EQ(out.prf.tasks, out.cyc.tasks);
    return out;
}

} // namespace

/** Without rebalancing the two fidelities must agree tightly: the round
 *  duration is just the slowest PE's drain plus fixed overheads. */
class CrossValidateBaseline
    : public ::testing::TestWithParam<std::tuple<const char *, double>>
{};

TEST_P(CrossValidateBaseline, ModelMatchesCycleEngine)
{
    auto [dataset, scale] = GetParam();
    auto pair = runBoth("baseline", dataset, scale, 16, 8);
    double ratio = static_cast<double>(pair.prf.cycles) /
                   static_cast<double>(pair.cyc.cycles);
    // 35% band: the round model cannot see stream-order effects — e.g.
    // the +I diagonal of the normalized adjacency sends a run of
    // consecutive columns' flits to the same PE (a slow hotspot wave),
    // which costs the cycle engine extra queueing on diagonal-dominated
    // matrices like Pubmed.
    EXPECT_NEAR(ratio, 1.0, 0.35)
        << dataset << ": cycle=" << pair.cyc.cycles
        << " model=" << pair.prf.cycles;
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, CrossValidateBaseline,
    ::testing::Values(std::make_tuple("cora", 0.5),
                      std::make_tuple("citeseer", 0.4),
                      std::make_tuple("pubmed", 0.15),
                      std::make_tuple("nell", 0.05)));

/** With rebalancing the round model is the optimistic envelope (optimal
 *  water-filling vs the engine's greedy online sharing; the paper itself
 *  reports a 4-10% utilization loss to the auto-tuning phase). Validate
 *  that it brackets the engine from below but stays within 2x, and that
 *  both fidelities agree rebalancing beats the baseline. */
class CrossValidateRebalanced
    : public ::testing::TestWithParam<std::tuple<std::string, const char *,
                                                 double>>
{};

TEST_P(CrossValidateRebalanced, ModelIsTightLowerEnvelope)
{
    auto [design, dataset, scale] = GetParam();
    auto base = runBoth("baseline", dataset, scale, 16, 8);
    auto reb = runBoth(design, dataset, scale, 16, 8);

    // Envelope: model <= engine <= 2x model.
    EXPECT_LE(reb.prf.cycles, reb.cyc.cycles + 8);
    EXPECT_LE(reb.cyc.cycles, 2 * reb.prf.cycles);
    // Both fidelities: rebalancing does not lose to baseline (allow a
    // 10% noise band in the engine: on near-balanced workloads diversion
    // decisions on instantaneous queue depths add small jitter).
    EXPECT_LE(reb.cyc.cycles,
              static_cast<Cycle>(1.10 *
                                 static_cast<double>(base.cyc.cycles)));
    EXPECT_LE(reb.prf.cycles, base.prf.cycles);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CrossValidateRebalanced,
    ::testing::Combine(::testing::Values(std::string("local-a"),
                                         std::string("remote-d")),
                       ::testing::Values("cora", "pubmed"),
                       ::testing::Values(0.2)));

TEST(PerfModel, RebalancingHelpsSkewAtScale)
{
    // Full-scale Nell profile: baseline utilization must collapse (the
    // paper reports 13%) and Design(D) must recover most of it (77%).
    auto prof = loadProfile(findDataset("nell"), 1, 1.0);
    auto base = PerfModel(makePolicyConfig("baseline", 1024)).runGcn(prof);
    auto d = PerfModel(makePolicyConfig("remote-d", 1024, 2)).runGcn(prof);

    EXPECT_LT(base.utilization, 0.45);
    EXPECT_GT(d.utilization, 2.0 * base.utilization);
    EXPECT_LT(d.totalCycles, base.totalCycles / 2);
}

TEST(PerfModel, RedditAlreadyBalanced)
{
    auto prof = loadProfile(findDataset("reddit"), 1, 0.25);
    auto base = PerfModel(makePolicyConfig("baseline", 1024)).runGcn(prof);
    auto d = PerfModel(makePolicyConfig("remote-d", 1024)).runGcn(prof);
    EXPECT_GT(base.utilization, 0.7);
    double speedup = static_cast<double>(base.totalCycles) /
                     static_cast<double>(d.totalCycles);
    EXPECT_LT(speedup, 1.5);
}

TEST(PerfModel, FullScaleRedditRuns)
{
    auto prof = loadProfile(findDataset("reddit"), 1, 1.0);
    auto res = PerfModel(makePolicyConfig("remote-d", 1024)).runGcn(prof);
    EXPECT_GT(res.totalTasks, Count(1000000000));  // ~6.6G per Table 2
    EXPECT_GT(res.totalCycles, 0);
    EXPECT_LE(res.utilization, 1.0);
}

TEST(PerfModel, PipelineNeverSlowerThanSerial)
{
    auto prof = loadProfile(findDataset("citeseer"), 2, 0.3);
    auto res = PerfModel(makePolicyConfig("remote-c", 64)).runGcn(prof);
    EXPECT_LE(res.totalCycles, res.totalCyclesSerial);
}

namespace {

/**
 * PerfModel::runSpmm as it was before it carried per-PE work across
 * rounds, verbatim: every round rebuilds the per-PE work from every row,
 * re-runs the drain search and diffs a fresh owner snapshot for the
 * migration bill. The carried version must reproduce it exactly.
 */
PerfSpmmResult
recomputeRunSpmm(const AccelConfig &cfg, const std::vector<Count> &row_work,
                 Index rounds, RowPartition &partition, Index inner_dim)
{
    constexpr double kSharingInefficiency = 1.15;
    const int P = cfg.numPes;
    PerfSpmmResult res;
    res.rounds = rounds;
    res.roundCycles.reserve(static_cast<std::size_t>(rounds));

    std::unique_ptr<RebalancePolicy> rebalance =
        makeRebalancePolicy(cfg, partition.rows());
    res.perPeTasks.assign(static_cast<std::size_t>(P), 0);
    int log2p = 0;
    while ((1 << log2p) < P) ++log2p;
    const Cycle overhead = 1 + log2p + 2;  // one-cycle MAC

    const MemoryModel mem(findPlatform(cfg.platform), policyClockMhz(cfg));
    const Count total_nnz =
        std::accumulate(row_work.begin(), row_work.end(), Count(0));
    const MemoryTraffic steady_traffic = mem.roundTraffic(
        total_nnz, inner_dim > 0 ? inner_dim : partition.rows(),
        partition.rows());
    Count pending_migration_bytes = 0;

    std::vector<Count> served;
    for (Index k = 0; k < rounds; ++k) {
        std::vector<Count> pe_work = partition.workload(row_work);
        Count total = std::accumulate(pe_work.begin(), pe_work.end(),
                                      Count(0));
        Cycle no_share = *std::max_element(pe_work.begin(), pe_work.end());
        Cycle drain =
            PerfModel::balancedDrain(pe_work, cfg.sharingHops, &served);
        if (cfg.sharingHops > 0) {
            drain = std::min(no_share,
                             static_cast<Cycle>(static_cast<double>(drain) *
                                                kSharingInefficiency));
        }
        Cycle inject = (total + P - 1) / P;
        Cycle round_cycles = std::max(drain, inject) + overhead;

        MemoryTraffic round_traffic = steady_traffic;
        round_traffic.migrationBytes = pending_migration_bytes;
        pending_migration_bytes = 0;
        res.traffic += round_traffic;
        const Cycle bw_floor = mem.floorCycles(round_traffic.total());
        res.memoryCycles += bw_floor;
        if (bw_floor > round_cycles) {
            ++res.bwBoundRounds;
            round_cycles = bw_floor;
        }

        res.roundCycles.push_back(round_cycles);
        res.cycles += round_cycles;
        res.tasks += total;
        res.idealCycles += inject;

        for (int p = 0; p < P; ++p) {
            res.perPeTasks[static_cast<std::size_t>(p)] +=
                served[static_cast<std::size_t>(p)];
            Count backlog = served[static_cast<std::size_t>(p)] - inject;
            if (backlog > 0) {
                res.peakQueueDepth = std::max(
                    res.peakQueueDepth, static_cast<std::size_t>(backlog));
            }
        }

        if (k + 1 < rounds && rebalance->wantsObservations()) {
            RoundObservation obs;
            obs.peWork = std::move(pe_work);
            obs.drainCycle.assign(served.begin(), served.end());
            std::vector<int> owners_before = partition.owners();
            rebalance->observeAndAdjust(obs, row_work, partition);
            pending_migration_bytes = mem.migrationBytes(
                owners_before, partition.owners(), row_work);
        }
    }

    res.peakQueueDepth = std::max<std::size_t>(
        res.peakQueueDepth,
        static_cast<std::size_t>(cfg.numQueuesPerPe));
    res.syncCycles = std::max<Cycle>(0, res.cycles - res.idealCycles);
    res.utilization = res.cycles > 0
        ? static_cast<double>(res.tasks) /
          (static_cast<double>(P) * static_cast<double>(res.cycles))
        : 0.0;
    res.rowsSwitched = rebalance->totalRowsMoved();
    res.convergedRound = rebalance->convergedRound();
    return res;
}

void
expectSameResult(const PerfSpmmResult &got, const PerfSpmmResult &want)
{
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.tasks, want.tasks);
    EXPECT_EQ(got.idealCycles, want.idealCycles);
    EXPECT_EQ(got.syncCycles, want.syncCycles);
    EXPECT_EQ(got.utilization, want.utilization);
    EXPECT_EQ(got.rounds, want.rounds);
    EXPECT_EQ(got.rowsSwitched, want.rowsSwitched);
    EXPECT_EQ(got.convergedRound, want.convergedRound);
    EXPECT_EQ(got.peakQueueDepth, want.peakQueueDepth);
    EXPECT_EQ(got.traffic.sparseBytes, want.traffic.sparseBytes);
    EXPECT_EQ(got.traffic.denseBytes, want.traffic.denseBytes);
    EXPECT_EQ(got.traffic.outputBytes, want.traffic.outputBytes);
    EXPECT_EQ(got.traffic.migrationBytes, want.traffic.migrationBytes);
    EXPECT_EQ(got.traffic.haloBytes, want.traffic.haloBytes);
    EXPECT_EQ(got.traffic.bRowBytes, want.traffic.bRowBytes);
    EXPECT_EQ(got.traffic.outputIndexBytes, want.traffic.outputIndexBytes);
    EXPECT_EQ(got.memoryCycles, want.memoryCycles);
    EXPECT_EQ(got.bwBoundRounds, want.bwBoundRounds);
    EXPECT_EQ(got.roundCycles, want.roundCycles);
    EXPECT_EQ(got.perPeTasks, want.perPeTasks);
}

} // namespace

/**
 * runSpmm carries the per-PE work and re-models a round only when rows
 * moved; it must match the per-round recompute in every result field and
 * in the partition it leaves behind. Every registered policy, three
 * full-scale adjacency profiles, with and without a bandwidth floor. The
 * adjacency partition is carried from a 64-round SPMM into a second one,
 * as runGcn carries it across layers.
 */
TEST(PerfModel, CarriedWorkMatchesPerRoundRecompute)
{
    int moved_runs = 0;
    int bw_bound_runs = 0;
    for (const char *dataset : {"cora", "citeseer", "pubmed"}) {
        const DatasetSpec &spec = findDataset(dataset);
        const WorkloadProfile prof = loadProfile(spec, 1, 1.0);
        const Index n = prof.spec.nodes;
        for (const char *platform : {"unconstrained", "d5005-ddr4"}) {
            for (const BalancePolicy *policy :
                 PolicyRegistry::instance().all()) {
                // Policies other tests register need not be complete.
                if (policy->name.rfind("test-", 0) == 0) continue;
                SCOPED_TRACE(std::string(dataset) + " " + platform + " " +
                             policy->name);
                AccelConfig cfg =
                    makePolicyConfig(policy->name, 256, hopBase(spec));
                cfg.platform = platform;
                const PerfModel model(cfg);
                auto partitioner = makePartitionPolicy(cfg);

                RowPartition got = partitioner->build(n, prof.aRowNnz, cfg);
                RowPartition want = got;
                for (Index rounds : {Index(64), prof.spec.f3}) {
                    PerfSpmmResult g =
                        model.runSpmm(prof.aRowNnz, rounds, got, n);
                    PerfSpmmResult w = recomputeRunSpmm(
                        cfg, prof.aRowNnz, rounds, want, n);
                    expectSameResult(g, w);
                    EXPECT_EQ(got.owners(), want.owners());
                    if (w.traffic.migrationBytes > 0) ++moved_runs;
                    if (w.bwBoundRounds > 0) ++bw_bound_runs;
                }

                RowPartition x_got = partitioner->build(n, prof.x1RowNnz, cfg);
                RowPartition x_want = x_got;
                expectSameResult(
                    model.runSpmm(prof.x1RowNnz, prof.spec.f2, x_got,
                                  prof.spec.f1),
                    recomputeRunSpmm(cfg, prof.x1RowNnz, prof.spec.f2,
                                     x_want, prof.spec.f1));
                EXPECT_EQ(x_got.owners(), x_want.owners());
            }
        }
    }
    // The grid exercises moved rows and bandwidth-bound rounds.
    EXPECT_GT(moved_runs, 0);
    EXPECT_GT(bw_bound_runs, 0);
}

TEST(PerfModelDeath, RowWorkSizeMustMatchPartition)
{
    PerfModel model(makePolicyConfig("baseline", 4));
    RowPartition part(16, 4, RowMapPolicy::Blocked);
    std::vector<Count> short_work(15, 1);
    EXPECT_DEATH(model.runSpmm(short_work, 4, part),
                 "partition rows != row_work size");
}

TEST(AreaModel, TqDominatedByDepth)
{
    AccelConfig cfg = makePolicyConfig("baseline", 64);
    auto small = estimateArea(cfg, 64);
    auto big = estimateArea(cfg, 65128);
    EXPECT_GT(big.tqClb, 100.0 * small.tqClb);
    EXPECT_DOUBLE_EQ(big.otherClb, small.otherClb);
}

TEST(AreaModel, RebalancingLogicOverheadSmall)
{
    auto base = estimateArea(makePolicyConfig("baseline", 64), 100);
    auto d = estimateArea(makePolicyConfig("remote-d", 64), 100);
    double frac = d.otherClb / base.otherClb;
    EXPECT_NEAR(frac, 1.0 + 0.043 + 0.019, 1e-9);
}

TEST(AreaModel, NetAreaCanShrinkWithRebalancing)
{
    // Paper: rebalancing REDUCES total area because the TQ savings dwarf
    // the logic overhead (Fig. 14 K-O).
    auto base = estimateArea(makePolicyConfig("baseline", 64), 65128);
    auto d = estimateArea(makePolicyConfig("remote-d", 64), 2675);
    EXPECT_LT(d.totalClb, base.totalClb);
}

TEST(EnergyModel, LatencyFromCycles)
{
    auto rep = evaluateEnergy(275000, 1000, 275.0);
    EXPECT_NEAR(rep.latencyMs, 1.0, 1e-9);
    EXPECT_GT(rep.energyJ, 0.0);
}

TEST(EnergyModel, FasterIsMoreEfficient)
{
    auto slow = evaluateEnergy(10000000, 1000000, 275.0);
    auto fast = evaluateEnergy(1000000, 1000000, 275.0);
    EXPECT_GT(fast.inferencesPerKj, slow.inferencesPerKj);
}

TEST(EnergyModel, FixedPowerPlatform)
{
    auto rep = evaluateFixedPower(10.0, 100.0);  // 10 ms at 100 W = 1 J
    EXPECT_NEAR(rep.energyJ, 1.0, 1e-12);
    EXPECT_NEAR(rep.inferencesPerKj, 1000.0, 1e-9);
}

TEST(Platforms, CpuMeasurementSane)
{
    auto ds = loadSyntheticByName("cora", 1, 0.1);
    auto model = makeGcnModel(ds.spec.f1, ds.spec.f2, ds.spec.f3);
    double ms = measureCpuLatencyMs(ds, model, 3);
    EXPECT_GT(ms, 0.0);
    EXPECT_LT(ms, 10000.0);
}

TEST(Platforms, AnalyticOrdering)
{
    // CPU slower than GPU; both far slower than what the accelerator's
    // cycle counts imply — the Table 3 ordering.
    auto prof = loadProfile(findDataset("pubmed"), 1, 1.0);
    auto ops = countOpsProfile(prof);
    double cpu = modelCpuLatencyMs(ops);
    double gpu = modelGpuLatencyMs(ops, 2);
    EXPECT_GT(cpu, gpu);

    auto accel = PerfModel(makePolicyConfig("remote-d", 1024)).runGcn(prof);
    double accel_ms =
        evaluateEnergy(accel.totalCycles, accel.totalTasks, 275.0).latencyMs;
    EXPECT_GT(gpu, accel_ms);
}
