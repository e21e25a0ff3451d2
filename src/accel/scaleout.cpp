#include "accel/scaleout.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "accel/policy.hpp"
#include "common/log.hpp"
#include "sparse/convert.hpp"
#include "sparse/spmm.hpp"

namespace awb {

namespace {

/** Stat fields only the cycle engine tracks. */
void
foldExtras(SpmmStats &out, const SpmmStats &s)
{
    out.peakNetworkDepth =
        std::max(out.peakNetworkDepth, s.peakNetworkDepth);
    out.roundsSimulated += s.roundsSimulated;
    out.rawStalls += s.rawStalls;
}

void
foldExtras(PerfSpmmResult &, const PerfSpmmResult &)
{
}

/**
 * Round-barrier combination of one SPMM's per-chip results (DESIGN.md
 * §9): system round k is the slowest chip's round k, stretched to the
 * halo link floor when boundary-row exchange dominates. Works on both
 * fidelities' stat structs (shared field names).
 */
template <class T>
T
combineShards(const std::vector<T> &per_chip,
              const std::vector<Count> &halo_rows, const MemoryModel &mem,
              int num_pes, ScaleOutSummary &scale)
{
    const int chips = static_cast<int>(per_chip.size());
    T out;
    const std::size_t K = per_chip.front().roundCycles.size();
    for (const T &s : per_chip)
        if (s.roundCycles.size() != K)
            fatal("scale-out: chips disagree on round count");

    // Per round, chip c receives one element of each halo row over its
    // link; the slowest link bounds the barrier.
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
        // The system has converged once every chip has (-1 = never).
        out.convergedRound =
            (s.convergedRound < 0 || out.convergedRound < 0)
                ? -1
                : std::max(out.convergedRound, s.convergedRound);
        out.perPeTasks.insert(out.perPeTasks.end(), s.perPeTasks.begin(),
                              s.perPeTasks.end());
        foldExtras(out, s);
    }
    out.traffic.haloBytes += static_cast<Count>(K) * halo_per_round;
    out.rounds = static_cast<Count>(K);

    // Every round streams the full non-zero set, so the combined ideal
    // is the perfectly balanced drain over all chips × PEs.
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

} // namespace

ShardedSpmmResult
executeSpmmSharded(const AccelConfig &cfg, const CscMatrix &a,
                   const DenseMatrix &b, TdqKind kind)
{
    ShardedSpmmResult out;
    out.scaleout.chips = std::max(1, cfg.chips);
    const std::vector<Count> row_work = a.rowNnz();
    if (cfg.chips <= 1) {
        // Timing no-op: the plain single-accelerator path, bit for bit.
        SpmmEngine engine(cfg);
        RowPartition part =
            makePartitionPolicy(cfg)->build(a.rows(), row_work, cfg);
        out.result = engine.execute(a, b, kind, part);
        return out;
    }

    AccelConfig sub = cfg;
    sub.chips = 1;
    ChipPartition cp = ChipPartition::build(cfg, a.rows(), row_work);
    const std::vector<Count> halo = cp.haloRows(a);
    const MemoryModel mem(findPlatform(cfg.platform), policyClockMhz(cfg));
    std::unique_ptr<PartitionPolicy> partitioner = makePartitionPolicy(sub);

    // Sharding moves rows between chips, never the products summed into
    // a row, so C is the unsharded product.
    out.result.c = spmmCsr(cscToCsr(a), b);
    std::vector<SpmmStats> per_chip;
    per_chip.reserve(static_cast<std::size_t>(cfg.chips));
    for (int c = 0; c < cfg.chips; ++c) {
        CscMatrix shard = cp.extractRows(a, c);
        std::vector<Count> work = cp.extractWork(row_work, c);
        RowPartition part = partitioner->build(shard.rows(), work, sub);
        per_chip.push_back(
            SpmmEngine(sub).simulate(shard, b.cols(), kind, part));
    }
    out.result.stats =
        combineShards(per_chip, halo, mem, cfg.numPes, out.scaleout);
    out.scaleout.chipImbalance = cp.imbalance(row_work);
    return out;
}

ShardedGcnResult
runGcnSharded(const AccelConfig &cfg, const Dataset &ds,
              const GcnModel &model)
{
    ShardedGcnResult out;
    out.scaleout.chips = std::max(1, cfg.chips);
    if (cfg.chips <= 1) {
        // Timing no-op: the Session-backed single-accelerator inference.
        out.result = runGcn(cfg, ds, model);
        return out;
    }
    if (ds.features.cols() != model.inDim(0))
        fatal("runGcnSharded: feature dim mismatch");

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

    // Per-chip persistent state: engine plus the adjacency shard and its
    // tuned row map, carried across layers (auto-tuning, §4).
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

        // X×W via TDQ-1: W is replicated on every chip, no halo. Values
        // are the unsharded products (sharding only moves rows).
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
            layer.xw = combineShards(per_chip, no_halo, mem, cfg.numPes,
                                     out.scaleout);
            layer.xw.label = tag + ".XW";
        }

        // A×(XW) (+ extra hops) via TDQ-2: boundary XW rows produced on
        // other chips cross the inter-chip link each round.
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
            SpmmStats combined = combineShards(per_chip, halo, mem,
                                               cfg.numPes, out.scaleout);
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

ShardedPerfGcnResult
modelGcnSharded(const AccelConfig &cfg, const WorkloadProfile &profile,
                const CscMatrix *structure)
{
    ShardedPerfGcnResult out;
    out.scaleout.chips = std::max(1, cfg.chips);
    if (cfg.chips <= 1) {
        // Timing no-op: the plain round-level model.
        out.result = PerfModel(cfg).runGcn(profile);
        return out;
    }
    if (structure == nullptr)
        fatal("modelGcnSharded: chips > 1 needs the adjacency structure "
              "for halo counting (loadSyntheticAdjacency)");
    const Index n = profile.spec.nodes;
    if (structure->rows() != n || structure->cols() != n)
        fatal("modelGcnSharded: adjacency structure does not match the "
              "profile's node count");

    AccelConfig sub = cfg;
    sub.chips = 1;
    ChipPartition cp = ChipPartition::build(cfg, n, profile.aRowNnz);
    const std::vector<Count> halo = cp.haloRows(*structure);
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
        layer.xw = combineShards(xws, no_halo, mem, cfg.numPes,
                                 out.scaleout);
        layer.ax =
            combineShards(axs, halo, mem, cfg.numPes, out.scaleout);
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

} // namespace awb
