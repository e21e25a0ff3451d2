#include "accel/scaleout.hpp"

#include <algorithm>
#include <memory>
#include <numeric>

#include "accel/policy.hpp"
#include "common/log.hpp"

namespace awb {

namespace {

/** What each chip runs: the configuration with the chip axis removed. */
AccelConfig
oneChip(const AccelConfig &cfg)
{
    AccelConfig one = cfg;
    one.chips = 1;
    return one;
}

/**
 * Round-barrier combination of one SPMM's per-chip results (DESIGN.md
 * §9): system round k is the slowest chip's round k, stretched to the
 * halo link floor when boundary-row exchange dominates. Works on both
 * fidelities' stat structs (RunCounters plus per-round and per-PE
 * vectors).
 */
template <class T>
T
combineShards(const std::vector<T> &per_chip,
              const std::vector<Count> &halo_rows, const AccelConfig &cfg,
              ScaleOutSummary &scale)
{
    const int chips = static_cast<int>(per_chip.size());
    const int num_pes = cfg.numPes;
    const MemoryModel mem(findPlatform(cfg.platform), policyClockMhz(cfg));
    T out;
    const std::size_t K = per_chip.front().roundCycles.size();
    for (const T &s : per_chip) {
        if (s.roundCycles.size() != K)
            fatal("scale-out: chips disagree on round count");
        out.mergeRow(s);
        out.perPeTasks.insert(out.perPeTasks.end(), s.perPeTasks.begin(),
                              s.perPeTasks.end());
    }

    // Per round, chip c receives one element of each halo row over its
    // link; the slowest link bounds the barrier.
    const Count bpv = mem.platform().bytesPerValue;
    Cycle link_floor = 0;
    Count halo_per_round = 0;
    for (Count h : halo_rows) {
        halo_per_round += h * bpv;
        link_floor = std::max(link_floor, mem.haloFloorCycles(h * bpv));
    }

    // The chips meet at every round barrier, so the system's rounds are
    // each chip's rounds and its cycles the per-round max over chips.
    out.rounds = static_cast<Count>(K);
    out.cycles = 0;
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
    out.traffic.haloBytes += static_cast<Count>(K) * halo_per_round;
    // The system has converged once every chip has (-1 = never).
    for (const T &s : per_chip)
        if (s.convergedRound < 0) out.convergedRound = -1;

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

RowPartition
chipOwners(const AccelConfig &cfg, Index rows,
           const std::vector<Count> &row_work)
{
    if (cfg.chips < 1) fatal("chipOwners: chips must be >= 1");
    // The registered policy partitions rows over "PEs"; running it on a
    // config whose array size is the chip count makes chip sharding an
    // outer application of the same policy.
    AccelConfig chip_cfg = oneChip(cfg);
    chip_cfg.numPes = cfg.chips;
    return makePartitionPolicy(chip_cfg)->build(rows, row_work, chip_cfg);
}

double
chipImbalance(const RowPartition &owners, const std::vector<Count> &row_work)
{
    const std::vector<Count> w = owners.workload(row_work);
    const Count total = std::accumulate(w.begin(), w.end(), Count(0));
    if (total == 0) return 1.0;
    const Count worst = *std::max_element(w.begin(), w.end());
    const double mean =
        static_cast<double>(total) / static_cast<double>(owners.numPes());
    return static_cast<double>(worst) / mean;
}

std::vector<Count>
haloRows(const RowPartition &owners, const CscMatrix &a)
{
    const int chips = owners.numPes();
    std::vector<Count> halo(static_cast<std::size_t>(chips), 0);
    if (chips <= 1) return halo;
    // Rectangular operand: the dense operand is a replicated small
    // matrix (X×W), nothing crosses the link.
    if (a.rows() != a.cols() || a.rows() != owners.rows()) return halo;

    // Column j of A is dense-operand row j. Every chip with a non-zero
    // in column j needs row j; those that do not own j fetch it.
    std::vector<char> needs(static_cast<std::size_t>(chips), 0);
    for (Index j = 0; j < a.cols(); ++j) {
        const Count begin = a.colPtr()[static_cast<std::size_t>(j)];
        const Count end = a.colPtr()[static_cast<std::size_t>(j) + 1];
        if (begin == end) continue;
        std::fill(needs.begin(), needs.end(), 0);
        for (Count p = begin; p < end; ++p) {
            const Index i = a.rowId()[static_cast<std::size_t>(p)];
            needs[static_cast<std::size_t>(owners.owner(i))] = 1;
        }
        const int owner = owners.owner(j);
        for (int c = 0; c < chips; ++c)
            if (needs[static_cast<std::size_t>(c)] && c != owner)
                ++halo[static_cast<std::size_t>(c)];
    }
    return halo;
}

CscMatrix
extractRows(const RowPartition &owners, const CscMatrix &a, int chip)
{
    if (a.rows() != owners.rows())
        fatal("extractRows: row-count mismatch");
    const std::vector<Index> &mine = owners.rowsOf(chip);
    std::vector<Index> local(static_cast<std::size_t>(a.rows()), 0);
    for (std::size_t l = 0; l < mine.size(); ++l)
        local[static_cast<std::size_t>(mine[l])] = static_cast<Index>(l);

    std::vector<Count> col_ptr(static_cast<std::size_t>(a.cols()) + 1, 0);
    std::vector<Index> row_id;
    std::vector<Value> val;
    for (Index j = 0; j < a.cols(); ++j) {
        const Count begin = a.colPtr()[static_cast<std::size_t>(j)];
        const Count end = a.colPtr()[static_cast<std::size_t>(j) + 1];
        for (Count p = begin; p < end; ++p) {
            const Index i = a.rowId()[static_cast<std::size_t>(p)];
            if (owners.owner(i) != chip) continue;
            // Local ids ascend with global ids (rowsOf is ascending), so
            // sortedness within each column is preserved.
            row_id.push_back(local[static_cast<std::size_t>(i)]);
            val.push_back(a.val()[static_cast<std::size_t>(p)]);
        }
        col_ptr[static_cast<std::size_t>(j) + 1] =
            static_cast<Count>(row_id.size());
    }
    return CscMatrix::fromParts(static_cast<Index>(mine.size()), a.cols(),
                                std::move(col_ptr), std::move(row_id),
                                std::move(val));
}

std::vector<Count>
extractWork(const RowPartition &owners, const std::vector<Count> &row_work,
            int chip)
{
    const std::vector<Index> &mine = owners.rowsOf(chip);
    std::vector<Count> w;
    w.reserve(mine.size());
    for (Index r : mine) w.push_back(row_work[static_cast<std::size_t>(r)]);
    return w;
}

ShardedOperand
shardOperand(const AccelConfig &cfg, const RowPartition *owners,
             const std::vector<Count> &row_work)
{
    const AccelConfig one = oneChip(cfg);
    std::unique_ptr<PartitionPolicy> partitioner = makePartitionPolicy(one);
    ShardedOperand op;
    op.rows = static_cast<Index>(row_work.size());
    if (owners == nullptr) {
        op.maps.push_back(partitioner->build(op.rows, row_work, one));
        return op;
    }
    for (int c = 0; c < owners->numPes(); ++c) {
        op.work.push_back(extractWork(*owners, row_work, c));
        op.maps.push_back(partitioner->build(
            static_cast<Index>(op.work.back().size()), op.work.back(), one));
    }
    return op;
}

ShardedOperand
shardOperand(const AccelConfig &cfg, const RowPartition *owners,
             const CscMatrix &a)
{
    ShardedOperand op = shardOperand(cfg, owners, a.rowNnz());
    if (owners != nullptr)
        for (int c = 0; c < owners->numPes(); ++c)
            op.shards.push_back(extractRows(*owners, a, c));
    return op;
}

SpmmStats
simulateSpmm(const AccelConfig &cfg, const CscMatrix &a, Index cols,
             TdqKind kind, ShardedOperand &op,
             const std::vector<Count> &halo, ScaleOutSummary &scale)
{
    if (cfg.chips <= 1)
        return SpmmEngine(cfg).simulate(a, cols, kind, op.maps.front());
    SpmmEngine engine(oneChip(cfg));
    std::vector<SpmmStats> per_chip;
    for (std::size_t c = 0; c < op.maps.size(); ++c)
        per_chip.push_back(
            engine.simulate(op.shards[c], cols, kind, op.maps[c]));
    return combineShards(per_chip, halo, cfg, scale);
}

PerfSpmmResult
modelSpmm(const AccelConfig &cfg, const std::vector<Count> &row_work,
          Index rounds, Index inner_dim, ShardedOperand &op,
          const std::vector<Count> &halo, ScaleOutSummary &scale)
{
    if (cfg.chips <= 1)
        return PerfModel(cfg).runSpmm(row_work, rounds, op.maps.front(),
                                      inner_dim);
    const PerfModel model(oneChip(cfg));
    std::vector<PerfSpmmResult> per_chip;
    for (std::size_t c = 0; c < op.maps.size(); ++c)
        per_chip.push_back(
            model.runSpmm(op.work[c], rounds, op.maps[c], inner_dim));
    return combineShards(per_chip, halo, cfg, scale);
}

ShardedSpmmResult
executeSpmmSharded(const AccelConfig &cfg, const CscMatrix &a, Index cols,
                   TdqKind kind)
{
    ShardedSpmmResult out;
    out.scaleout.chips = cfg.chips;
    RowPartition owners;
    std::vector<Count> halo;
    if (cfg.chips > 1) {
        const std::vector<Count> row_work = a.rowNnz();
        owners = chipOwners(cfg, a.rows(), row_work);
        out.scaleout.chipImbalance = chipImbalance(owners, row_work);
        if (kind == TdqKind::Tdq2OmegaCsc) halo = haloRows(owners, a);
    }
    ShardedOperand op =
        shardOperand(cfg, cfg.chips > 1 ? &owners : nullptr, a);
    out.stats = simulateSpmm(cfg, a, cols, kind, op, halo, out.scaleout);
    return out;
}

} // namespace awb
