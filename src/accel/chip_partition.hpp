/**
 * @file
 * Chip-level row sharding for multi-chip scale-out (DESIGN.md §9).
 *
 * A graph too large for one accelerator is sharded by rows of the sparse
 * operand across `AccelConfig::chips` simulated chips. Sharding reuses
 * the balance-policy registry: "chip" is just an outer level of
 * partitioning, so the configuration's registered PartitionPolicy builds
 * the row→chip map exactly as it builds row→PE maps (blocked for the
 * paper designs, LPT for `degree-sorted`, ...), with `numPes` swapped
 * for the chip count.
 *
 * The partition also answers the halo question: chip c computes output
 * rows it owns, which for a square operand (the adjacency A×(XW) case)
 * requires dense-operand rows j referenced by its non-zeros; rows j
 * owned by another chip are c's *halo* and must cross the inter-chip
 * link once per round (one element of each boundary row per streamed
 * column). Rectangular operands (X×W: the small dense W is replicated
 * on every chip) have no halo.
 */

#pragma once

#include <vector>

#include "accel/config.hpp"
#include "common/types.hpp"
#include "sparse/csc.hpp"

namespace awb {

/** Scale-out-specific aggregates of a run on one or more chips. */
struct ScaleOutSummary
{
    int chips = 1;
    /** Inter-chip bytes moved (all rounds, all chips). */
    Count haloBytes = 0;
    /** Summed per-round link floors (0 on an unconstrained link). */
    Cycle haloCycles = 0;
    /** Rounds stretched to the link floor at the barrier. */
    Count haloBoundRounds = 0;
    /** Chip-level load imbalance: max(W_c) / mean(W_c). */
    double chipImbalance = 1.0;
};

/** Ownership of sparse-operand rows by chips, plus shard extraction. */
class ChipPartition
{
  public:
    ChipPartition() = default;

    /**
     * Shard `rows` rows across `cfg.chips` chips with the
     * configuration's registered partition policy (cfg.balancePolicy /
     * cfg.mapPolicy applied at chip granularity).
     *
     * @param row_work  per-row task count (row-nnz), for load-aware
     *                  policies
     */
    static ChipPartition build(const AccelConfig &cfg, Index rows,
                               const std::vector<Count> &row_work);

    int chips() const { return chips_; }
    Index rows() const { return static_cast<Index>(chipOf_.size()); }

    int chipOf(Index row) const
    {
        return chipOf_[static_cast<std::size_t>(row)];
    }

    /** Rows owned by chip c, sorted ascending (deterministic shard
     *  extraction order). */
    const std::vector<Index> &rowsOf(int chip) const
    {
        return rowsOf_[static_cast<std::size_t>(chip)];
    }

    /** Per-chip workload: W_c = sum of row_work over rows owned by c. */
    std::vector<Count> chipWork(const std::vector<Count> &row_work) const;

    /** Load imbalance across chips: max(W_c) / mean(W_c); 1.0 when
     *  perfectly balanced or when total work is zero. */
    double imbalance(const std::vector<Count> &row_work) const;

    /**
     * Per-chip halo-row counts for a square sparse operand: the number
     * of distinct dense-operand rows j referenced by chip c's non-zeros
     * (A[i][j] != 0 with chipOf(i) == c) but owned by another chip.
     * Returns all zeros when `a` is rectangular (replicated dense
     * operand, no halo) or when chips() == 1.
     */
    std::vector<Count> haloRows(const CscMatrix &a) const;

    /**
     * Extract chip c's shard of the sparse operand: the sub-matrix of
     * the rows it owns, renumbered 0..|rowsOf(c)|-1 in ascending global
     * order, all columns kept. Column-sortedness is preserved.
     */
    CscMatrix extractRows(const CscMatrix &a, int chip) const;

    /** Chip c's slice of a per-row vector, in rowsOf(c) order. */
    std::vector<Count> extractWork(const std::vector<Count> &row_work,
                                   int chip) const;

    bool operator==(const ChipPartition &o) const
    {
        return chips_ == o.chips_ && chipOf_ == o.chipOf_;
    }

  private:
    int chips_ = 1;
    std::vector<int> chipOf_;
    std::vector<std::vector<Index>> rowsOf_;
};

} // namespace awb
