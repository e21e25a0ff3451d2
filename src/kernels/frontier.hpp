/**
 * @file
 * Frontier-kernel runner (DESIGN.md §11): drives iterated 1-column
 * SpGEMMs y = A × x on the cycle-accurate engine, the execution shape
 * shared by BFS and PageRank. The frontier vector x is an n×1 CSC
 * matrix, so each iteration is one SpmmEngine::executeSpgemm round; the
 * row partition is carried across iterations, which is exactly how a
 * rebalance policy's adjustments from iteration t reach iteration t+1
 * (and why executeSpgemm observes after its last round).
 *
 * Multi-chip runs shard A's rows with ChipPartition (DESIGN.md §9): each
 * chip owns a persistent shard + partition, the whole frontier is
 * broadcast (all columns are kept in every shard), and frontier entries
 * a chip needs but does not own cross the inter-chip link — a *dynamic*
 * halo, recomputed per iteration from the live frontier, unlike the
 * static boundary-row halo of the SPMM scale-out path.
 */

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "accel/chip_partition.hpp"
#include "accel/config.hpp"
#include "accel/perf_model.hpp"
#include "accel/row_map.hpp"
#include "accel/spmm_engine.hpp"
#include "model/memory_model.hpp"
#include "sparse/csc.hpp"

namespace awb::kernels {

/** One frontier iteration's accounting. */
struct FrontierIteration
{
    Count frontierNnz = 0;   ///< non-zeros of the processed frontier
    Cycle cycles = 0;        ///< system cycles (max over chips, halo incl.)
    Count tasks = 0;         ///< MACs executed (summed over chips)
    Count rowsSwitched = 0;  ///< rows the rebalance policy moved
};

/** Aggregated statistics of one frontier-kernel run: rounds counts
 *  iterations, convergedRound is the last SpGEMM's. */
struct FrontierRunStats : RunCounters
{
    std::vector<FrontierIteration> iterations;
    ScaleOutSummary scaleout;  ///< frontier halo (DESIGN.md §11); chips unset
};

/** Build an n×1 CSC frontier vector from (row, value) entries, which
 *  must be strictly ascending by row; fatal() otherwise. */
CscMatrix frontierVector(Index rows,
                         const std::vector<std::pair<Index, Value>> &entries);

/** Fold one whole-operand SpGEMM, the cycle engine's or the model's
 *  (modelBfs / modelPagerank), into run stats as one iteration. */
void foldIteration(FrontierRunStats &stats, const RunCounters &s,
                   Count frontier_nnz);

/**
 * Executes a sequence of frontier SpGEMMs against one sparse operand,
 * carrying partitions (and chip shards) across iterations.
 */
class FrontierRunner
{
  public:
    /** fatal() on an invalid config; shards `a` when cfg.chips > 1. */
    FrontierRunner(const AccelConfig &cfg, const CscMatrix &a);

    /** One iteration y = A × x; x must be an a.cols()×1 CSC vector.
     *  Returns the sparse result with *global* row numbering and folds
     *  the iteration into stats(). */
    CscMatrix step(const CscMatrix &x);

    /** Replace the sparse operand between iterations (a churned
     *  adjacency, DESIGN.md §12) while *keeping* the carried partition
     *  — the streaming scenario where the policy's tuning must survive
     *  graph mutation. Single-chip only (shard boundaries are static),
     *  and the new operand must keep the old one's shape; fatal()
     *  otherwise. */
    void setOperand(const CscMatrix &a);

    const FrontierRunStats &stats() const { return stats_; }

  private:
    AccelConfig cfg_;
    SpmmEngine engine_;
    MemoryModel mem_;
    Index rows_ = 0;
    // chips == 1; aContext_ is engine_.spgemmContext(a_), hashed once
    // per operand instead of once per iteration
    CscMatrix a_;
    std::uint64_t aContext_ = 0;
    RowPartition part_;
    // chips > 1: non-empty shards only (chips may exceed rows)
    ChipPartition chipPart_;
    std::vector<int> shardChip_;
    std::vector<CscMatrix> shards_;
    std::vector<std::uint64_t> shardContexts_;
    std::vector<RowPartition> shardParts_;
    FrontierRunStats stats_;
};

} // namespace awb::kernels
