/**
 * @file
 * Multi-chip scale-out tests (DESIGN.md §9): both GCN front ends, which
 * run every SPMM through the sharded SPMM step, match the hand-rolled
 * sharded GCN recipes they replaced (kept below as references) field by
 * field at 1, 2 and 4 chips; halo-byte accounting matches a closed-form
 * count on a hand-built adjacency; sharded Sessions stay functionally
 * exact and refuse what they cannot shard; and the halo curve is
 * monotone in the chip count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "accel/chip_partition.hpp"
#include "accel/gcn_accel.hpp"
#include "accel/perf_model.hpp"
#include "accel/policy.hpp"
#include "accel/scaleout.hpp"
#include "accel/spmm_engine.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "driver/sweep.hpp"
#include "gcn/model.hpp"
#include "graph/datasets.hpp"
#include "model/memory_model.hpp"
#include "sim/session.hpp"
#include "sparse/convert.hpp"
#include "sparse/coo.hpp"
#include "sparse/spmm.hpp"

using namespace awb;

namespace {

/** The six policies tied to paper figures (Fig. 14 designs + Table 3). */
const std::vector<std::string> kPaperPolicies = {
    "baseline", "local-a", "local-b", "remote-c", "remote-d", "eie-like",
};

// ------------------------------------------------ reference orchestration
//
// The hand-rolled sharded GCN recipes the SPMM step replaced, kept
// verbatim (minus their chips <= 1 short-circuit, so chips == 1 runs
// the one-shard combine too) as references for both fidelities.

/** Stat fields only the cycle engine tracks. */
void
refFoldExtras(SpmmStats &out, const SpmmStats &s)
{
    out.peakNetworkDepth =
        std::max(out.peakNetworkDepth, s.peakNetworkDepth);
    out.roundsSimulated += s.roundsSimulated;
}

void
refFoldExtras(PerfSpmmResult &, const PerfSpmmResult &)
{
}

/** Round-barrier combination of one SPMM's per-chip results. */
template <class T>
T
refCombineShards(const std::vector<T> &per_chip,
                 const std::vector<Count> &halo_rows,
                 const MemoryModel &mem, int num_pes,
                 ScaleOutSummary &scale)
{
    const int chips = static_cast<int>(per_chip.size());
    T out;
    const std::size_t K = per_chip.front().roundCycles.size();
    for (const T &s : per_chip)
        if (s.roundCycles.size() != K)
            fatal("scale-out: chips disagree on round count");

    const Count bpv = mem.platform().bytesPerValue;
    Cycle link_floor = 0;
    Count halo_per_round = 0;
    for (Count h : halo_rows) {
        halo_per_round += h * bpv;
        link_floor = std::max(link_floor, mem.haloFloorCycles(h * bpv));
    }

    out.roundCycles.reserve(K);
    for (std::size_t k = 0; k < K; ++k) {
        Cycle sys = 0;
        for (const T &s : per_chip) sys = std::max(sys, s.roundCycles[k]);
        scale.haloCycles += link_floor;
        if (link_floor > sys) {
            ++scale.haloBoundRounds;
            sys = link_floor;
        }
        out.roundCycles.push_back(sys);
        out.cycles += sys;
    }
    scale.haloBytes += static_cast<Count>(K) * halo_per_round;

    out.convergedRound = 0;
    for (const T &s : per_chip) {
        out.tasks += s.tasks;
        out.rowsSwitched += s.rowsSwitched;
        out.traffic += s.traffic;
        out.memoryCycles += s.memoryCycles;
        out.bwBoundRounds += s.bwBoundRounds;
        out.peakQueueDepth =
            std::max(out.peakQueueDepth, s.peakQueueDepth);
        out.convergedRound =
            (s.convergedRound < 0 || out.convergedRound < 0)
                ? -1
                : std::max(out.convergedRound, s.convergedRound);
        out.perPeTasks.insert(out.perPeTasks.end(), s.perPeTasks.begin(),
                              s.perPeTasks.end());
        refFoldExtras(out, s);
    }
    out.traffic.haloBytes += static_cast<Count>(K) * halo_per_round;
    out.rounds = static_cast<Count>(K);

    if (K > 0) {
        const Count per_round = out.tasks / static_cast<Count>(K);
        const Count total_pes =
            static_cast<Count>(chips) * static_cast<Count>(num_pes);
        out.idealCycles = static_cast<Cycle>(K) *
                          ((per_round + total_pes - 1) / total_pes);
    }
    out.syncCycles = std::max<Cycle>(0, out.cycles - out.idealCycles);
    out.utilization = out.cycles > 0
        ? static_cast<double>(out.tasks) /
          (static_cast<double>(chips) * static_cast<double>(num_pes) *
           static_cast<double>(out.cycles))
        : 0.0;
    return out;
}

struct RefGcn
{
    GcnRunResult result;
    ScaleOutSummary scaleout;
};

/** Cycle-fidelity reference: the former runGcnSharded body. */
RefGcn
referenceGcnSharded(const AccelConfig &cfg, const Dataset &ds,
                    const GcnModel &model)
{
    RefGcn out;
    out.scaleout.chips = std::max(1, cfg.chips);
    if (ds.features.cols() != model.inDim(0))
        fatal("referenceGcnSharded: feature dim mismatch");

    AccelConfig sub = cfg;
    sub.chips = 1;
    const CscMatrix &a = ds.adjacency;
    const Index n = a.rows();
    const std::vector<Count> a_work = a.rowNnz();
    ChipPartition cp = ChipPartition::build(cfg, n, a_work);
    const std::vector<Count> halo = cp.haloRows(a);
    const std::vector<Count> no_halo(static_cast<std::size_t>(cfg.chips),
                                     0);
    const MemoryModel mem(findPlatform(cfg.platform), policyClockMhz(cfg));
    out.scaleout.chipImbalance = cp.imbalance(a_work);
    std::unique_ptr<PartitionPolicy> partitioner = makePartitionPolicy(sub);

    std::vector<SpmmEngine> engines;
    std::vector<CscMatrix> a_shard;
    std::vector<RowPartition> a_part;
    for (int c = 0; c < cfg.chips; ++c) {
        engines.emplace_back(sub);
        a_shard.push_back(cp.extractRows(a, c));
        a_part.push_back(partitioner->build(
            a_shard.back().rows(), a_shard.back().rowNnz(), sub));
    }

    GcnRunResult &res = out.result;
    const CsrMatrix a_csr = cscToCsr(a);
    CscMatrix h = csrToCsc(ds.features);
    for (Index l = 0; l < model.layers(); ++l) {
        const std::string tag = "L" + std::to_string(l + 1);
        const DenseMatrix &w =
            model.weights[static_cast<std::size_t>(l)];
        GcnLayerResult layer;

        {
            const std::vector<Count> h_work = h.rowNnz();
            std::vector<SpmmStats> per_chip;
            for (int c = 0; c < cfg.chips; ++c) {
                CscMatrix shard = cp.extractRows(h, c);
                std::vector<Count> work = cp.extractWork(h_work, c);
                RowPartition part =
                    partitioner->build(shard.rows(), work, sub);
                per_chip.push_back(
                    engines[static_cast<std::size_t>(c)].simulate(
                        shard, w.cols(), TdqKind::Tdq1DenseScan, part));
            }
            layer.xw = refCombineShards(per_chip, no_halo, mem,
                                        cfg.numPes, out.scaleout);
            layer.xw.label = tag + ".XW";
        }

        DenseMatrix z = spmmCsr(cscToCsr(h), w);
        for (Index hop = 0; hop < model.adjHops; ++hop) {
            std::vector<SpmmStats> per_chip;
            for (int c = 0; c < cfg.chips; ++c) {
                per_chip.push_back(
                    engines[static_cast<std::size_t>(c)].simulate(
                        a_shard[static_cast<std::size_t>(c)], z.cols(),
                        TdqKind::Tdq2OmegaCsc,
                        a_part[static_cast<std::size_t>(c)]));
            }
            SpmmStats combined = refCombineShards(
                per_chip, halo, mem, cfg.numPes, out.scaleout);
            combined.label =
                hop == 0 ? tag + ".A(XW)"
                         : tag + ".A^" + std::to_string(hop + 1) + "(XW)";
            if (hop == 0) {
                layer.ax = std::move(combined);
            } else {
                layer.extraHops.push_back(std::move(combined));
            }
            z = spmmCsr(a_csr, z);
        }

        std::vector<const std::vector<Cycle> *> stages;
        stages.push_back(&layer.xw.roundCycles);
        stages.push_back(&layer.ax.roundCycles);
        for (const SpmmStats &e : layer.extraHops)
            stages.push_back(&e.roundCycles);
        layer.pipelinedCycles = pipelineCyclesMulti(stages);

        res.totalCycles += layer.pipelinedCycles;
        res.totalCyclesSerial += layer.xw.cycles + layer.ax.cycles;
        res.totalTasks += layer.xw.tasks + layer.ax.tasks;
        for (const SpmmStats &e : layer.extraHops) {
            res.totalCyclesSerial += e.cycles;
            res.totalTasks += e.tasks;
        }

        const bool last = l == model.layers() - 1;
        if (!last) {
            z.relu();
            h = denseToCsc(z);
        } else {
            res.output = std::move(z);
        }
        res.layers.push_back(std::move(layer));
    }

    res.utilization = res.totalCyclesSerial > 0
        ? static_cast<double>(res.totalTasks) /
          (static_cast<double>(cfg.chips) *
           static_cast<double>(cfg.numPes) *
           static_cast<double>(res.totalCyclesSerial))
        : 0.0;
    return out;
}

struct RefPerfGcn
{
    PerfGcnResult result;
    ScaleOutSummary scaleout;
};

/** Model-fidelity reference: the former modelGcnSharded body. */
RefPerfGcn
referenceModelGcnSharded(const AccelConfig &cfg,
                         const WorkloadProfile &profile,
                         const CscMatrix &structure)
{
    RefPerfGcn out;
    out.scaleout.chips = std::max(1, cfg.chips);
    const Index n = profile.spec.nodes;

    AccelConfig sub = cfg;
    sub.chips = 1;
    ChipPartition cp = ChipPartition::build(cfg, n, profile.aRowNnz);
    const std::vector<Count> halo = cp.haloRows(structure);
    const std::vector<Count> no_halo(static_cast<std::size_t>(cfg.chips),
                                     0);
    const MemoryModel mem(findPlatform(cfg.platform), policyClockMhz(cfg));
    out.scaleout.chipImbalance = cp.imbalance(profile.aRowNnz);

    const PerfModel pm(sub);
    std::unique_ptr<PartitionPolicy> partitioner = makePartitionPolicy(sub);

    std::vector<std::vector<Count>> a_work;
    std::vector<RowPartition> a_part;
    for (int c = 0; c < cfg.chips; ++c) {
        a_work.push_back(cp.extractWork(profile.aRowNnz, c));
        a_part.push_back(partitioner->build(
            static_cast<Index>(a_work.back().size()), a_work.back(), sub));
    }

    struct LayerIn
    {
        const std::vector<Count> *xRow;
        Index rounds;
        Index innerDim;
    };
    const LayerIn layers[2] = {
        {&profile.x1RowNnz, profile.spec.f2, profile.spec.f1},
        {&profile.x2RowNnz, profile.spec.f3, profile.spec.f2},
    };

    PerfGcnResult &res = out.result;
    auto fold = [&res](const PerfSpmmResult &s) {
        res.traffic += s.traffic;
        res.memoryCycles += s.memoryCycles;
        res.bwBoundRounds += s.bwBoundRounds;
    };
    for (const LayerIn &li : layers) {
        PerfGcnResult::Layer layer;
        std::vector<PerfSpmmResult> xws, axs;
        for (int c = 0; c < cfg.chips; ++c) {
            std::vector<Count> x_work = cp.extractWork(*li.xRow, c);
            RowPartition part_x = partitioner->build(
                static_cast<Index>(x_work.size()), x_work, sub);
            xws.push_back(
                pm.runSpmm(x_work, li.rounds, part_x, li.innerDim));
            axs.push_back(pm.runSpmm(a_work[static_cast<std::size_t>(c)],
                                     li.rounds,
                                     a_part[static_cast<std::size_t>(c)],
                                     n));
        }
        layer.xw = refCombineShards(xws, no_halo, mem, cfg.numPes,
                                    out.scaleout);
        layer.ax =
            refCombineShards(axs, halo, mem, cfg.numPes, out.scaleout);
        layer.pipelinedCycles =
            pipelineCycles(layer.xw.roundCycles, layer.ax.roundCycles);
        res.totalCycles += layer.pipelinedCycles;
        res.totalCyclesSerial += layer.xw.cycles + layer.ax.cycles;
        res.totalTasks += layer.xw.tasks + layer.ax.tasks;
        fold(layer.xw);
        fold(layer.ax);
        res.layers.push_back(std::move(layer));
    }

    res.utilization = res.totalCyclesSerial > 0
        ? static_cast<double>(res.totalTasks) /
          (static_cast<double>(cfg.chips) *
           static_cast<double>(cfg.numPes) *
           static_cast<double>(res.totalCyclesSerial))
        : 0.0;
    return out;
}

void
expectTrafficIdentical(const MemoryTraffic &a, const MemoryTraffic &b)
{
    EXPECT_EQ(a.sparseBytes, b.sparseBytes);
    EXPECT_EQ(a.denseBytes, b.denseBytes);
    EXPECT_EQ(a.outputBytes, b.outputBytes);
    EXPECT_EQ(a.migrationBytes, b.migrationBytes);
    EXPECT_EQ(a.haloBytes, b.haloBytes);
    EXPECT_EQ(a.bRowBytes, b.bRowBytes);
    EXPECT_EQ(a.outputIndexBytes, b.outputIndexBytes);
}

/** Every field the two fidelities' SPMM results share. */
template <class T>
void
expectSpmmIdentical(const T &a, const T &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.tasks, b.tasks);
    EXPECT_EQ(a.idealCycles, b.idealCycles);
    EXPECT_EQ(a.syncCycles, b.syncCycles);
    EXPECT_EQ(a.utilization, b.utilization);  // same bits
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.rowsSwitched, b.rowsSwitched);
    EXPECT_EQ(a.convergedRound, b.convergedRound);
    EXPECT_EQ(a.peakQueueDepth, b.peakQueueDepth);
    expectTrafficIdentical(a.traffic, b.traffic);
    EXPECT_EQ(a.memoryCycles, b.memoryCycles);
    EXPECT_EQ(a.bwBoundRounds, b.bwBoundRounds);
    EXPECT_EQ(a.roundCycles, b.roundCycles);
    EXPECT_EQ(a.perPeTasks, b.perPeTasks);
}

void
expectStatsIdentical(const SpmmStats &a, const SpmmStats &b)
{
    expectSpmmIdentical(a, b);
    EXPECT_EQ(a.peakNetworkDepth, b.peakNetworkDepth);
    EXPECT_EQ(a.roundsSimulated, b.roundsSimulated);
}

void
expectScaleoutIdentical(const ScaleOutSummary &a, const ScaleOutSummary &b)
{
    EXPECT_EQ(a.chips, b.chips);
    EXPECT_EQ(a.haloBytes, b.haloBytes);
    EXPECT_EQ(a.haloCycles, b.haloCycles);
    EXPECT_EQ(a.haloBoundRounds, b.haloBoundRounds);
    EXPECT_EQ(a.chipImbalance, b.chipImbalance);  // same bits
}

void
expectGcnIdentical(const GcnRunResult &a, const GcnRunResult &b)
{
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.totalCyclesSerial, b.totalCyclesSerial);
    EXPECT_EQ(a.totalTasks, b.totalTasks);
    EXPECT_EQ(a.utilization, b.utilization);  // same bits
    EXPECT_EQ(0.0, a.output.maxAbsDiff(b.output));
    ASSERT_EQ(a.layers.size(), b.layers.size());
    for (std::size_t l = 0; l < a.layers.size(); ++l) {
        expectStatsIdentical(a.layers[l].xw, b.layers[l].xw);
        expectStatsIdentical(a.layers[l].ax, b.layers[l].ax);
        ASSERT_EQ(a.layers[l].extraHops.size(),
                  b.layers[l].extraHops.size());
        for (std::size_t h = 0; h < a.layers[l].extraHops.size(); ++h)
            expectStatsIdentical(a.layers[l].extraHops[h],
                                 b.layers[l].extraHops[h]);
        EXPECT_EQ(a.layers[l].pipelinedCycles, b.layers[l].pipelinedCycles);
    }
}

void
expectPerfGcnIdentical(const PerfGcnResult &a, const PerfGcnResult &b)
{
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.totalCyclesSerial, b.totalCyclesSerial);
    EXPECT_EQ(a.totalTasks, b.totalTasks);
    EXPECT_EQ(a.utilization, b.utilization);  // same bits
    expectTrafficIdentical(a.traffic, b.traffic);
    EXPECT_EQ(a.memoryCycles, b.memoryCycles);
    EXPECT_EQ(a.bwBoundRounds, b.bwBoundRounds);
    ASSERT_EQ(a.layers.size(), b.layers.size());
    for (std::size_t l = 0; l < a.layers.size(); ++l) {
        expectSpmmIdentical(a.layers[l].xw, b.layers[l].xw);
        expectSpmmIdentical(a.layers[l].ax, b.layers[l].ax);
        EXPECT_EQ(a.layers[l].pipelinedCycles, b.layers[l].pipelinedCycles);
    }
}

/** Hand-built 4x4 adjacency whose boundary rows are countable by hand:
 *
 *        columns j:   0  1  2  3
 *      row 0:         x     x        (nnz: j=0, j=2)
 *      row 1:            x           (nnz: j=1)
 *      row 2:            x           (nnz: j=1)
 *      row 3:         x        x     (nnz: j=0, j=3)
 *
 * With the baseline blocked split over 2 chips (rows {0,1} on chip 0,
 * {2,3} on chip 1): chip 0 references remote dense row j=2 -> halo 1;
 * chip 1 references remote rows j=0 and j=1 -> halo 2.
 */
CscMatrix
handAdjacency()
{
    CooMatrix coo(4, 4);
    coo.add(0, 0, 1.0f);
    coo.add(0, 2, 2.0f);
    coo.add(1, 1, 3.0f);
    coo.add(2, 1, 4.0f);
    coo.add(3, 0, 5.0f);
    coo.add(3, 3, 6.0f);
    coo.canonicalize();
    return CscMatrix::fromCoo(coo);
}


/** One TDQ-2 SPMM C = A × B as a one-node Session graph. */
sim::SessionResult
sessionSpmm(const AccelConfig &cfg, const CscMatrix &a, const DenseMatrix &b)
{
    sim::WorkloadBuilder wb;
    sim::WorkloadGraph g = wb.build(
        wb.spmm(wb.input("A"), wb.input("B"), TdqKind::Tdq2OmegaCsc));
    sim::Session session(cfg);
    session.bindSparse("A", a);
    session.bindDense("B", b);
    return session.run(g);
}

} // namespace

// ---------------------------------------------------------------- no-op

/** chips=1 must be bit-identical to the one-chip reference (one shard,
 *  combined at the barrier): every paper policy x dataset x engine. */
class ChipsOneNoOp
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string, EngineKind>>
{};

TEST_P(ChipsOneNoOp, CycleGcnBitIdentical)
{
    auto [policy, dataset, engine] = GetParam();
    auto ds = loadSyntheticByName(dataset, 11, 0.04);
    auto model = makeGcnModel(ds.spec.f1, ds.spec.f2, ds.spec.f3, 11);

    AccelConfig cfg = makePolicyConfig(policy, 16, hopBase(ds.spec));
    cfg.engine = engine;
    cfg.chips = 1;

    GcnRunResult plain = runGcn(cfg, ds, model);
    RefGcn ref = referenceGcnSharded(cfg, ds, model);

    EXPECT_EQ(plain.scaleout.chips, 1);
    EXPECT_EQ(plain.scaleout.haloBytes, 0);
    EXPECT_EQ(plain.scaleout.haloCycles, 0);
    expectScaleoutIdentical(plain.scaleout, ref.scaleout);
    EXPECT_EQ(plain.totalCycles, ref.result.totalCycles);
    EXPECT_EQ(plain.totalCyclesSerial, ref.result.totalCyclesSerial);
    EXPECT_EQ(plain.totalTasks, ref.result.totalTasks);
    EXPECT_DOUBLE_EQ(plain.utilization, ref.result.utilization);
    ASSERT_EQ(plain.layers.size(), ref.result.layers.size());
    for (std::size_t l = 0; l < plain.layers.size(); ++l) {
        expectStatsIdentical(plain.layers[l].xw, ref.result.layers[l].xw);
        expectStatsIdentical(plain.layers[l].ax, ref.result.layers[l].ax);
        EXPECT_EQ(plain.layers[l].pipelinedCycles,
                  ref.result.layers[l].pipelinedCycles);
    }
    EXPECT_EQ(0.0, plain.output.maxAbsDiff(ref.result.output));
}

INSTANTIATE_TEST_SUITE_P(
    PaperPolicies, ChipsOneNoOp,
    ::testing::Combine(::testing::ValuesIn(kPaperPolicies),
                       ::testing::Values("cora", "citeseer", "pubmed"),
                       ::testing::Values(EngineKind::Event,
                                         EngineKind::Batched)),
    [](const auto &info) {
        std::string s = std::get<0>(info.param) + "_" +
                        std::get<1>(info.param) + "_" +
                        engineKindName(std::get<2>(info.param));
        for (auto &c : s)
            if (c == '-') c = '_';
        return s;
    });

/** The same no-op for the round-level model, which runs no cycle
 *  engine: every paper policy x dataset. */
class ChipsOneModelNoOp
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>>
{};

TEST_P(ChipsOneModelNoOp, PerfModelBitIdentical)
{
    auto [policy, dataset] = GetParam();
    const DatasetSpec &spec = findDataset(dataset);
    auto prof = loadProfile(spec, 11, 0.2);
    auto a = loadSyntheticAdjacency(spec, 11, 0.2);

    AccelConfig cfg = makePolicyConfig(policy, 64, hopBase(spec));
    cfg.platform = "d5005-ddr4";  // exercise the memory model too
    cfg.chips = 1;

    PerfGcnResult plain = PerfModel(cfg).runGcn(prof);
    RefPerfGcn ref = referenceModelGcnSharded(cfg, prof, a);

    EXPECT_EQ(plain.scaleout.haloBytes, 0);
    expectScaleoutIdentical(plain.scaleout, ref.scaleout);
    EXPECT_EQ(plain.totalCycles, ref.result.totalCycles);
    EXPECT_EQ(plain.totalTasks, ref.result.totalTasks);
    EXPECT_EQ(plain.traffic.total(), ref.result.traffic.total());
    EXPECT_EQ(plain.memoryCycles, ref.result.memoryCycles);
    EXPECT_EQ(plain.bwBoundRounds, ref.result.bwBoundRounds);
    EXPECT_DOUBLE_EQ(plain.utilization, ref.result.utilization);
    expectPerfGcnIdentical(plain, ref.result);
}

INSTANTIATE_TEST_SUITE_P(
    PaperPolicies, ChipsOneModelNoOp,
    ::testing::Combine(::testing::ValuesIn(kPaperPolicies),
                       ::testing::Values("cora", "citeseer", "pubmed")),
    [](const auto &info) {
        std::string s = std::get<0>(info.param) + "_" +
                        std::get<1>(info.param);
        for (auto &c : s)
            if (c == '-') c = '_';
        return s;
    });

// ------------------------------------------------ sharded vs reference

/** chips x dataset x policy x platform x engine. */
class ShardedGcnVsReference
    : public ::testing::TestWithParam<std::tuple<int, std::string,
                                                 std::string, std::string,
                                                 EngineKind>>
{};

TEST_P(ShardedGcnVsReference, CycleGcnBitIdentical)
{
    auto [chips, dataset, policy, platform, engine] = GetParam();
    auto ds = loadSyntheticByName(dataset, 11, 0.04);
    auto model = makeGcnModel(ds.spec.f1, ds.spec.f2, ds.spec.f3, 11);

    AccelConfig cfg = makePolicyConfig(policy, 16, hopBase(ds.spec));
    cfg.engine = engine;
    cfg.platform = platform;
    cfg.chips = chips;

    GcnRunResult run = runGcn(cfg, ds, model);
    RefGcn ref = referenceGcnSharded(cfg, ds, model);
    expectGcnIdentical(run, ref.result);
    expectScaleoutIdentical(run.scaleout, ref.scaleout);
    EXPECT_EQ(run.layers.front().xw.perPeTasks.size(),
              static_cast<std::size_t>(chips) * 16u);
}

INSTANTIATE_TEST_SUITE_P(
    ChipsDatasetsPolicies, ShardedGcnVsReference,
    ::testing::Combine(::testing::Values(2, 4),
                       ::testing::Values("cora", "citeseer"),
                       ::testing::Values("baseline", "remote-d"),
                       ::testing::Values("unconstrained", "d5005-ddr4"),
                       ::testing::Values(EngineKind::Event,
                                         EngineKind::Batched)),
    [](const auto &info) {
        std::string s = std::to_string(std::get<0>(info.param)) +
                        "chips_" + std::get<1>(info.param) + "_" +
                        std::get<2>(info.param) + "_" +
                        std::get<3>(info.param) + "_" +
                        engineKindName(std::get<4>(info.param));
        for (auto &c : s)
            if (c == '-') c = '_';
        return s;
    });

/** The sharded round-level model against its reference: chips x
 *  dataset x policy x platform (the model runs no cycle engine). */
class ShardedModelVsReference
    : public ::testing::TestWithParam<
          std::tuple<int, std::string, std::string, std::string>>
{};

TEST_P(ShardedModelVsReference, PerfModelBitIdentical)
{
    auto [chips, dataset, policy, platform] = GetParam();
    const DatasetSpec &spec = findDataset(dataset);
    auto prof = loadProfile(spec, 11, 0.2);
    auto a = loadSyntheticAdjacency(spec, 11, 0.2);

    AccelConfig cfg = makePolicyConfig(policy, 64, hopBase(spec));
    cfg.platform = platform;
    cfg.chips = chips;

    PerfGcnResult run = PerfModel(cfg).runGcn(prof, &a);
    RefPerfGcn ref = referenceModelGcnSharded(cfg, prof, a);
    expectPerfGcnIdentical(run, ref.result);
    expectScaleoutIdentical(run.scaleout, ref.scaleout);
    EXPECT_GT(run.scaleout.haloBytes, 0);
}

INSTANTIATE_TEST_SUITE_P(
    ChipsDatasetsPolicies, ShardedModelVsReference,
    ::testing::Combine(::testing::Values(2, 4),
                       ::testing::Values("cora", "citeseer"),
                       ::testing::Values("baseline", "remote-d"),
                       ::testing::Values("unconstrained", "d5005-ddr4")),
    [](const auto &info) {
        std::string s = std::to_string(std::get<0>(info.param)) +
                        "chips_" + std::get<1>(info.param) + "_" +
                        std::get<2>(info.param) + "_" +
                        std::get<3>(info.param);
        for (auto &c : s)
            if (c == '-') c = '_';
        return s;
    });

TEST(ShardedGcn, ModelNeedsTheAdjacencyStructure)
{
    const DatasetSpec &spec = findDataset("cora");
    auto prof = loadProfile(spec, 11, 0.2);
    AccelConfig cfg = makePolicyConfig("remote-d", 64, hopBase(spec));
    cfg.chips = 2;
    EXPECT_EXIT(PerfModel(cfg).runGcn(prof),
                ::testing::ExitedWithCode(1), "adjacency structure");
}

// ------------------------------------------------------------ halo math

TEST(ChipPartitionHalo, ClosedFormOnHandBuiltAdjacency)
{
    CscMatrix a = handAdjacency();
    AccelConfig cfg = makePolicyConfig("baseline", 4, 1);
    cfg.chips = 2;

    ChipPartition cp = ChipPartition::build(cfg, a.rows(), a.rowNnz());
    ASSERT_EQ(cp.chips(), 2);
    // Baseline = blocked split: rows {0,1} / {2,3}.
    EXPECT_EQ(cp.chipOf(0), 0);
    EXPECT_EQ(cp.chipOf(1), 0);
    EXPECT_EQ(cp.chipOf(2), 1);
    EXPECT_EQ(cp.chipOf(3), 1);

    // Counted by hand (see handAdjacency's comment).
    std::vector<Count> halo = cp.haloRows(a);
    ASSERT_EQ(halo.size(), 2u);
    EXPECT_EQ(halo[0], 1);
    EXPECT_EQ(halo[1], 2);

    // One element of every halo row crosses the link per streamed
    // column: K columns x (1 + 2) rows x 4 bytes.
    DenseMatrix b(4, 5);
    Rng rng(3);
    b.fillUniform(rng, -1.0f, 1.0f);
    ShardedSpmmResult res =
        executeSpmmSharded(cfg, a, b.cols(), TdqKind::Tdq2OmegaCsc);
    EXPECT_EQ(res.scaleout.haloBytes, 5 * 3 * 4);
    EXPECT_EQ(res.stats.traffic.haloBytes, 5 * 3 * 4);
    // Unconstrained link (default platform): bytes counted, no floor.
    EXPECT_EQ(res.scaleout.haloCycles, 0);
    EXPECT_EQ(res.scaleout.haloBoundRounds, 0);

    // The same SPMM as a sharded Session node: the same timing and
    // halo, and a functionally exact C (same per-row add order).
    sim::SessionResult s = sessionSpmm(cfg, a, b);
    ASSERT_EQ(s.nodeStats.size(), 1u);
    expectStatsIdentical(s.nodeStats.front(), res.stats);
    expectScaleoutIdentical(s.scaleout, res.scaleout);
    EXPECT_EQ(0.0, s.output.maxAbsDiff(spmmCsc(a, b)));
}

TEST(ChipPartitionHalo, RectangularOperandHasNoHalo)
{
    // X x W: rectangular sparse operand, W replicated on every chip.
    CooMatrix coo(4, 3);
    coo.add(0, 0, 1.0f);
    coo.add(1, 2, 1.0f);
    coo.add(3, 1, 1.0f);
    coo.canonicalize();
    CscMatrix x = CscMatrix::fromCoo(coo);

    AccelConfig cfg = makePolicyConfig("baseline", 4, 1);
    cfg.chips = 2;
    ChipPartition cp = ChipPartition::build(cfg, x.rows(), x.rowNnz());
    for (Count h : cp.haloRows(x)) EXPECT_EQ(h, 0);
}

TEST(ChipPartitionHalo, SingleChipHasNoHalo)
{
    CscMatrix a = handAdjacency();
    AccelConfig cfg = makePolicyConfig("remote-d", 4, 1);
    cfg.chips = 1;
    ChipPartition cp = ChipPartition::build(cfg, a.rows(), a.rowNnz());
    for (Count h : cp.haloRows(a)) EXPECT_EQ(h, 0);
}

// ------------------------------------------------------- sharded exact

TEST(ShardedSpmm, FunctionallyExactAndConservesTasks)
{
    auto ds = loadSyntheticByName("cora", 5, 0.1);
    const CscMatrix &a = ds.adjacency;
    DenseMatrix b(a.cols(), 7);
    Rng rng(5);
    b.fillUniform(rng, -1.0f, 1.0f);
    DenseMatrix ref = spmmCsc(a, b);

    for (int chips : {2, 3, 4}) {
        AccelConfig cfg = makePolicyConfig("remote-d", 8, 1);
        cfg.chips = chips;
        ShardedSpmmResult res = executeSpmmSharded(cfg, a, b.cols(),
                                                   TdqKind::Tdq2OmegaCsc);
        EXPECT_EQ(res.scaleout.chips, chips);
        EXPECT_EQ(res.stats.tasks, a.nnz() * b.cols());
        EXPECT_EQ(res.stats.perPeTasks.size(),
                  static_cast<std::size_t>(chips) * 8u);
        // The event engine steps every round of every chip, and
        // roundsSimulated sums over chips while rounds counts the
        // system's barrier rounds.
        ASSERT_EQ(cfg.engine, EngineKind::Event);
        EXPECT_EQ(res.stats.roundsSimulated, chips * res.stats.rounds);
        EXPECT_GT(res.scaleout.haloBytes, 0);
        EXPECT_GE(res.scaleout.chipImbalance, 1.0);

        sim::SessionResult s = sessionSpmm(cfg, a, b);
        EXPECT_LE(s.output.maxAbsDiff(ref), 1e-5) << chips << " chips";
        ASSERT_EQ(s.nodeStats.size(), 1u);
        expectStatsIdentical(s.nodeStats.front(), res.stats);
        expectScaleoutIdentical(s.scaleout, res.scaleout);
    }
}

TEST(ShardedSpmm, HaloBytesMonotoneInChipCount)
{
    auto ds = loadSyntheticByName("citeseer", 7, 0.2);
    const CscMatrix &a = ds.adjacency;

    Count prev = -1;
    for (int chips : {1, 2, 4, 8}) {
        AccelConfig cfg = makePolicyConfig("remote-d", 8, 1);
        cfg.chips = chips;
        ShardedSpmmResult res =
            executeSpmmSharded(cfg, a, 4, TdqKind::Tdq2OmegaCsc);
        if (chips == 1) {
            EXPECT_EQ(res.scaleout.haloBytes, 0);
        }
        EXPECT_GE(res.scaleout.haloBytes, prev) << chips << " chips";
        prev = res.scaleout.haloBytes;
    }
}

TEST(ShardedSession, RefusesWhatItCannotShard)
{
    auto ds = loadSyntheticByName("cora", 5, 0.05);
    const CscMatrix &a = ds.adjacency;
    AccelConfig cfg = makePolicyConfig("remote-d", 8, 1);
    cfg.chips = 2;

    // Sparse-output SpGEMM runs unsharded only.
    {
        sim::WorkloadBuilder wb;
        sim::WorkloadGraph g =
            wb.build(wb.spgemm(wb.input("A"), wb.input("A")));
        sim::Session session(cfg);
        session.bindSparse("A", a);
        EXPECT_EXIT(session.run(g), ::testing::ExitedWithCode(1),
                    "Spgemm node .* chips > 1");
    }
    // Every costed operand must share the node ownership's row count.
    {
        sim::WorkloadBuilder wb;
        sim::TensorId az = wb.spmm(wb.input("A"), wb.input("B"),
                              TdqKind::Tdq2OmegaCsc);
        sim::TensorId wz = wb.spmm(wb.input("X"), wb.input("W"),
                              TdqKind::Tdq1DenseScan);
        sim::WorkloadGraph g = wb.build(wb.concat(az, wz));
        sim::Session session(cfg);
        session.bindSparse("A", a);
        session.bindDense("B", DenseMatrix(a.cols(), 2));
        CooMatrix coo(3, 2);
        coo.add(0, 0, 1.0f);
        coo.canonicalize();
        session.bindSparse("X", CscMatrix::fromCoo(coo));
        session.bindDense("W", DenseMatrix(2, 2));
        EXPECT_EXIT(session.run(g), ::testing::ExitedWithCode(1),
                    "'X' has 3 rows");
    }
}

// -------------------------------------------------------------- sweep

TEST(ScaleoutSweep, ChipsAxisSurfacesInJson)
{
    driver::SweepOptions opts;
    opts.datasets = {"cora"};
    opts.designs = {"remote-d"};
    opts.peCounts = {16};
    opts.modes = {exec::Mode::Model};
    opts.chipCounts = {1, 2};
    opts.scale = 0.3;
    opts.threads = 1;

    auto outcomes = driver::runSweep(opts);
    ASSERT_EQ(outcomes.size(), 2u);
    for (const auto &o : outcomes) EXPECT_TRUE(o.ok) << o.error;
    EXPECT_EQ(outcomes[0].haloBytes, 0);
    EXPECT_GT(outcomes[1].haloBytes, 0);

    std::string json = driver::sweepToJson(opts, outcomes).dump(2);
    for (const char *key :
         {"\"chip_counts\"", "\"chips\"", "\"halo_bytes\"",
          "\"halo_cycles\"", "\"halo_bound_rounds\"",
          "\"chip_imbalance\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;
}

// More chips than the operand has rows leaves a chip without a row map.
// Each such GCN point is an error row, not a fatal that ends the sweep;
// the frontier kernels skip empty shards and still run.
TEST(ScaleoutSweep, ChipsBeyondRowsAreErrorRows)
{
    driver::SweepOptions opts;
    opts.datasets = {"cora"};
    opts.modes = {exec::Mode::Model, exec::Mode::Cycle,
                  exec::Mode::SpmmTdq1, exec::Mode::SpmmTdq2};
    opts.chipCounts = {64};
    opts.scale = 0.005;  // 16 rows
    opts.threads = 2;

    auto outcomes = driver::runSweep(opts);
    ASSERT_EQ(outcomes.size(), opts.designs.size() * opts.modes.size());
    for (const auto &o : outcomes) {
        EXPECT_FALSE(o.ok) << exec::modeName(o.point.mode);
        EXPECT_NE(o.error.find("chips=64 exceeds the operand's 16 rows"),
                  std::string::npos)
            << o.error;
    }
    const std::string json = driver::sweepToJson(opts, outcomes).dump(2);
    std::size_t errors = 0;
    for (std::size_t at = json.find("\"ok\": false"); at != std::string::npos;
         at = json.find("\"ok\": false", at + 1))
        ++errors;
    EXPECT_EQ(errors, outcomes.size());

    opts.designs = {"remote-d"};
    opts.peCounts = {16};
    opts.modes = {exec::Mode::Bfs};
    outcomes = driver::runSweep(opts);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
}
