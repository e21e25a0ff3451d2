/**
 * @file
 * Round-level performance model of the AWB-SPMM engine.
 *
 * Per processed column ("round") the engine's behaviour is determined by
 * the per-PE task counts: a PE's tasks equal the summed row-nnz of the
 * rows it owns, local sharing spreads a PE's surplus to PEs within `hops`
 * positions, and the round ends when the slowest PE drains (per-column
 * barrier, §3.3). This model computes those quantities directly instead of
 * simulating every cycle, which makes full-scale Reddit (≈24M non-zeros ×
 * 64 columns) tractable; DESIGN.md §4 explains the validation against the
 * cycle-accurate engine.
 *
 * It drives the *same* RebalancePolicy objects (accel/policy.hpp — the
 * paper's RemoteSwitcher for Designs C/D, arbitrary registered policies
 * otherwise) as the cycle engine, so auto-tuning decisions are identical
 * between fidelities.
 */

#pragma once

#include <vector>

#include "accel/config.hpp"
#include "accel/row_map.hpp"
#include "accel/run_counters.hpp"
#include "graph/datasets.hpp"
#include "model/memory_model.hpp"
#include "sparse/csc.hpp"

namespace awb {

/** Round-level results of one SPMM (mirrors SpmmStats). */
struct PerfSpmmResult : RunCounters
{
    double utilization = 0.0;
    std::vector<Cycle> roundCycles;
    std::vector<Count> perPeTasks;  ///< modelled executed tasks per PE
};

/** Round-level results of a full GCN inference. */
struct PerfGcnResult
{
    struct Layer
    {
        PerfSpmmResult xw;
        PerfSpmmResult ax;
        Cycle pipelinedCycles = 0;
    };
    std::vector<Layer> layers;
    Cycle totalCycles = 0;        ///< with inter-SPMM column pipelining
    Cycle totalCyclesSerial = 0;
    Count totalTasks = 0;
    double utilization = 0.0;
    MemoryTraffic traffic;        ///< summed over every SPMM
    Cycle memoryCycles = 0;
    Count bwBoundRounds = 0;
    ScaleOutSummary scaleout;     ///< halo and chip balance (§9)
};

/** The model. Stateless between runs apart from configuration. */
class PerfModel
{
  public:
    explicit PerfModel(const AccelConfig &cfg);

    /**
     * Model one SPMM.
     *
     * @param row_work   tasks per sparse-operand row (its row-nnz); one
     *                   entry per partition row, else fatal()
     * @param rounds     dense-operand column count
     * @param partition  row map, mutated by remote switching
     * @param inner_dim  columns of the sparse operand == length of the
     *                   streamed dense column (memory-traffic
     *                   accounting); 0 = square operand, use the
     *                   partition's row count (the adjacency case)
     */
    PerfSpmmResult runSpmm(const std::vector<Count> &row_work, Index rounds,
                           RowPartition &partition,
                           Index inner_dim = 0) const;

    /**
     * Model one sparse-output SpGEMM C = a × b (DESIGN.md §11). Rounds
     * are B's sparse columns; round k's per-PE work is the per-row task
     * count of the A columns that B column k references (the work
     * distribution shifts every round — unlike runSpmm's fixed row_work).
     * Shares the cycle engine's traffic accounting
     * (MemoryModel::spgemmRoundTraffic, output fill from
     * kernels::spgemmColumnNnz) and its observe-after-every-round
     * rebalance schedule, so accumulated traffic bytes are byte-equal to
     * SpmmEngine::executeSpgemm under static (non-rebalancing) policies;
     * dynamic policies see fidelity-specific observations and may
     * diverge, as across fidelities everywhere else.
     */
    PerfSpmmResult runSpgemm(const CscMatrix &a, const CscMatrix &b,
                             RowPartition &partition) const;

    /**
     * Model a full 2-layer GCN inference from a workload profile
     * (full-scale capable). The adjacency partition persists across
     * layers, as in the cycle-accurate accelerator. Every SPMM runs
     * through the sharded SPMM step (accel/scaleout.hpp), so cfg.chips
     * > 1 shards the inference by node ownership (DESIGN.md §9).
     *
     * @param structure  adjacency structure for halo counting; required
     *                   when cfg.chips > 1 (pass loadSyntheticAdjacency
     *                   — the profile alone cannot locate boundary
     *                   rows), else fatal(); ignored otherwise
     */
    PerfGcnResult runGcn(const WorkloadProfile &profile,
                         const CscMatrix *structure = nullptr) const;

    /**
     * Given per-PE workloads and the sharing hop distance, the minimum
     * achievable drain time (water-filling with locality): the smallest t
     * such that every PE's work can be served by PEs within `hops` of it
     * with per-PE capacity t. Exposed for testing.
     */
    static Cycle balancedDrain(const std::vector<Count> &pe_work, int hops,
                               std::vector<Count> *served = nullptr);

  private:
    AccelConfig cfg_;
};

} // namespace awb
