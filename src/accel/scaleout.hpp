/**
 * @file
 * Multi-chip scale-out execution (DESIGN.md §9).
 *
 * Shards one SPMM across `AccelConfig::chips` simulated accelerators.
 * Node ownership is a RowPartition whose owners are chips: the
 * configuration's registered partition policy builds it exactly as it
 * builds row→PE maps, so "chip" is just an outer level of partitioning.
 * Each chip runs its shard on its own numPes-wide array, and the chips
 * synchronize at the per-column round barrier (the same barrier that
 * separates rounds within one chip, §3.3, applied across chips):
 *
 *     system_round_k = max( max_c chip_round_c[k],  link_floor )
 *
 * where `link_floor` is the halo-exchange cycle floor: per round, chip c
 * receives one element of each of its halo rows (boundary dense-operand
 * rows owned by another chip) over the platform's inter-chip link,
 * composed roofline-style exactly like the off-chip DRAM floor (§8).
 * Halo bytes are accounted as a dedicated traffic class
 * (MemoryTraffic::haloBytes) on every platform; only the floor needs a
 * link-bandwidth figure (PlatformSpec::interChipGBs — 0 on
 * `unconstrained`, keeping it the no-op reference).
 *
 * The sharded SPMM step below is the only multi-chip SPMM path: both
 * fidelities' GCN front ends (sim::Session on the cycle engines,
 * PerfModel::runGcn on the round-level model) run every SPMM through
 * it. At `chips == 1` it is the unsharded engine call on the unsharded
 * operand, making the default a provable timing no-op (bit-identical
 * statistics, locked by tests/test_scaleout.cpp).
 */

#pragma once

#include <vector>

#include "accel/perf_model.hpp"
#include "accel/row_map.hpp"
#include "accel/spmm_engine.hpp"

namespace awb {

/**
 * Node ownership of `rows` sparse-operand rows by `cfg.chips` chips: the
 * configuration's registered partition policy run with `numPes = chips`.
 * Every row of chip c is in owners.rowsOf(c) in ascending order (no row
 * of a chip map ever moves), which shard extraction relies on.
 *
 * @param row_work  per-row task count (row-nnz), for load-aware policies
 */
RowPartition chipOwners(const AccelConfig &cfg, Index rows,
                        const std::vector<Count> &row_work);

/** Load imbalance across chips: max(W_c) / mean(W_c) over
 *  owners.workload(row_work); 1.0 when the total work is zero. */
double chipImbalance(const RowPartition &owners,
                     const std::vector<Count> &row_work);

/**
 * Per-chip halo-row counts for a square sparse operand: the number of
 * distinct dense-operand rows j referenced by chip c's non-zeros
 * (A[i][j] != 0 with owners.owner(i) == c) but owned by another chip.
 * All zeros when `a` is rectangular (replicated dense operand, no halo)
 * or when there is one chip.
 */
std::vector<Count> haloRows(const RowPartition &owners, const CscMatrix &a);

/**
 * Chip c's shard of the sparse operand: the sub-matrix of the rows it
 * owns, renumbered 0..|rowsOf(c)|-1 in ascending global order, all
 * columns kept. Column-sortedness is preserved.
 */
CscMatrix extractRows(const RowPartition &owners, const CscMatrix &a,
                      int chip);

/** Chip c's slice of a per-row vector, in owners.rowsOf(c) order. */
std::vector<Count> extractWork(const RowPartition &owners,
                               const std::vector<Count> &row_work, int chip);

/**
 * A sparse operand as the SPMM step runs it, carried across every SPMM
 * over that operand the way one RowPartition is carried on a single
 * chip (auto-tuning, §4). Unsharded it holds only the operand's row map;
 * sharded, chip c's slice of the row work, its rows of the operand (cycle
 * engine only) and the map chip c tunes over its own PEs.
 */
struct ShardedOperand
{
    Index rows = 0;                        ///< rows of the whole operand
    std::vector<RowPartition> maps;        ///< per chip; one unsharded
    std::vector<std::vector<Count>> work;  ///< per chip, sharded only
    std::vector<CscMatrix> shards;         ///< per chip, cycle engine only
};

/**
 * Build an operand's step state from its per-row work (the model's view).
 * `owners` is the node ownership (chipOwners) when cfg.chips > 1,
 * nullptr otherwise (no ownership, no shard copies).
 */
ShardedOperand shardOperand(const AccelConfig &cfg,
                            const RowPartition *owners,
                            const std::vector<Count> &row_work);

/** The same for the cycle engine, which also runs each chip's rows. */
ShardedOperand shardOperand(const AccelConfig &cfg,
                            const RowPartition *owners,
                            const CscMatrix &a);

/**
 * The sharded SPMM step, cycle fidelity: the timing of C = a × B for a
 * dense B of `cols` columns. At cfg.chips == 1 this is
 * SpmmEngine::simulate on `a` with op's one map. Otherwise every chip
 * runs its shard on a one-chip engine and the chips meet at the round
 * barrier: the combined statistics cover the whole system (perPeTasks
 * has chips × numPes entries, utilization is over all PEs) and `scale`
 * accumulates the halo.
 *
 * @param halo  per-chip halo rows (haloRows for a TDQ-2 operand); empty
 *              for none, as for TDQ-1 and chips == 1
 */
SpmmStats simulateSpmm(const AccelConfig &cfg, const CscMatrix &a,
                       Index cols, TdqKind kind, ShardedOperand &op,
                       const std::vector<Count> &halo,
                       ScaleOutSummary &scale);

/** The sharded SPMM step, model fidelity: PerfModel::runSpmm on
 *  `row_work` at cfg.chips == 1, per-chip runs combined otherwise. */
PerfSpmmResult modelSpmm(const AccelConfig &cfg,
                         const std::vector<Count> &row_work, Index rounds,
                         Index inner_dim, ShardedOperand &op,
                         const std::vector<Count> &halo,
                         ScaleOutSummary &scale);

/** Timing of one standalone sharded SPMM plus its scale-out view. */
struct ShardedSpmmResult
{
    SpmmStats stats;
    ScaleOutSummary scaleout;
};

/**
 * Time C = a × B (B with `cols` columns) across cfg.chips chips with a
 * fresh row map, the ownership built from `a`'s own rows. chips == 1 is
 * the plain SpmmEngine::simulate path, bit for bit.
 */
ShardedSpmmResult executeSpmmSharded(const AccelConfig &cfg,
                                     const CscMatrix &a, Index cols,
                                     TdqKind kind);

} // namespace awb
