/**
 * @file
 * Session: the single execution interface for workload graphs. A Session
 * owns an accelerator configuration, the tensor bindings of a workload,
 * and — crucially — one tuned RowPartition per distinct sparse operand
 * name, carried across every node, layer and run() call. This generalizes
 * the manual adjacency-map reuse the legacy GcnAccelerator hand-coded:
 * any operand that appears in several SPMM nodes (the adjacency in every
 * GCN layer, A^k chains, multi-graph batches) keeps benefiting from the
 * remote-switching auto-tuning work done in earlier nodes (paper §4).
 *
 * Chained SPMMs are column-pipelined automatically (paper Fig. 8 / §3.3):
 * consecutive costed nodes where each consumes the previous node's output
 * as its *streamed dense operand* form a chain, whose end-to-end delay is
 * pipelineCyclesMulti over the per-round durations. Elementwise and
 * Concat nodes are free (inline datapath units) and break chains.
 *
 * With cfg.chips > 1 every costed node runs sharded (DESIGN.md §9): one
 * node ownership, a RowPartition whose owners are chips (chipOwners),
 * is cut from the first TDQ-2 node's sparse operand and carried while
 * it stays the same, together with the per-chip row maps it sharded.
 *
 * Results are reported through the StatsSink interface — no out-params.
 */

#pragma once

#include <map>
#include <vector>

#include "accel/config.hpp"
#include "accel/row_map.hpp"
#include "accel/scaleout.hpp"
#include "accel/spmm_engine.hpp"
#include "sim/workload.hpp"
#include "sparse/csc.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"

namespace awb::sim {

/** One maximal column-pipelined run of chained SPMM nodes. */
struct ChainStats
{
    /** Indices into SessionResult::nodeStats of the chained stages. */
    std::vector<std::size_t> stages;
    Cycle pipelinedCycles = 0;  ///< end-to-end delay under pipelining
    Cycle serialCycles = 0;     ///< sum of the stages' cycles
};

/** Everything one Session::run produces. */
struct SessionResult
{
    DenseMatrix output;                ///< value of the graph output tensor
    /** When the graph output is a Spgemm node's tensor, its sparse value
     *  (outputSparse == true); `output` then holds the densified copy so
     *  dense-only consumers keep working (DESIGN.md §11). */
    CscMatrix sparseOutput;
    bool outputSparse = false;
    std::vector<SpmmStats> nodeStats;  ///< per costed node, schedule order
    std::vector<std::size_t> nodeIds;  ///< graph node index per stats entry
    std::vector<ChainStats> chains;    ///< pipelined chain decomposition
    Cycle totalCycles = 0;        ///< sum of pipelined chain delays
    Cycle totalCyclesSerial = 0;  ///< without inter-SPMM pipelining
    Count totalTasks = 0;         ///< MACs executed
    double utilization = 0.0;     ///< tasks / (chips * P * serial cycles)
    /** Off-chip traffic summed over every costed node; per-node (per
     *  layer) figures live in nodeStats[i].traffic (DESIGN.md §8). */
    MemoryTraffic traffic;
    Cycle memoryCycles = 0;       ///< summed per-round bandwidth floors
    Count bwBoundRounds = 0;      ///< rounds stretched to their floor
    ScaleOutSummary scaleout;     ///< halo and chip balance (§9)
};

/**
 * Observer of a run's progress. Override what you need; the default
 * implementations discard. onNode fires after each costed node completes,
 * onChain when a pipelined chain is sealed, onRunComplete once at the end.
 */
class StatsSink
{
  public:
    virtual ~StatsSink() = default;
    virtual void onNode(const WorkloadNode &node, const SpmmStats &stats)
    {
        (void)node;
        (void)stats;
    }
    virtual void onChain(const ChainStats &chain) { (void)chain; }
    virtual void onRunComplete(const SessionResult &result) { (void)result; }
};

/** StatsSink that records everything it sees (tests, reporting). */
class CollectingSink : public StatsSink
{
  public:
    void onNode(const WorkloadNode &node, const SpmmStats &s) override
    {
        nodes.push_back(node);
        stats.push_back(s);
    }
    void onChain(const ChainStats &chain) override { chains.push_back(chain); }
    void onRunComplete(const SessionResult &) override { ++runs; }

    std::vector<WorkloadNode> nodes;
    std::vector<SpmmStats> stats;
    std::vector<ChainStats> chains;
    int runs = 0;
};

/** Executes workload graphs on the cycle-accurate engine. */
class Session
{
  public:
    /** fatal() with a descriptive message when the config is invalid. */
    explicit Session(const AccelConfig &cfg);

    /** Bind a sparse operand (TDQ-2 input, or a pre-sparsified TDQ-1
     *  left operand such as the layer-1 feature matrix). */
    void bindSparse(const TensorId &name, CscMatrix m);
    /** Convenience: bind CSR content (e.g. Dataset::features) as CSC. */
    void bindSparse(const TensorId &name, const CsrMatrix &m);
    /** Bind a dense tensor (weights, dense features). */
    void bindDense(const TensorId &name, DenseMatrix m);

    /**
     * Topologically schedule and execute the graph. All graph inputs must
     * be bound. Row maps tuned during the run persist in the Session, so
     * a later run() (another inference over the same operands) starts
     * from the tuned maps.
     */
    SessionResult run(const WorkloadGraph &graph, StatsSink *sink = nullptr);

    /** The tuned row map carried for a sparse operand (chip 0's when
     *  cfg.chips > 1); nullptr before the operand's first SPMM. Only
     *  operands bound via bindSparse carry across run() calls — maps for
     *  produced intermediates are per-run (their content changes between
     *  runs). */
    const RowPartition *rowMap(const TensorId &name) const;

    const AccelConfig &config() const { return cfg_; }

  private:
    AccelConfig cfg_;
    std::map<TensorId, CscMatrix> sparse_;
    std::map<TensorId, DenseMatrix> dense_;
    /** Row maps (per chip when sharded) of the sparse-bound operands,
     *  built on first touch by cfg_'s balance policy. */
    std::map<TensorId, ShardedOperand> operands_;
    /** The row→chip ownership operands_ were sharded by (chips > 1). */
    RowPartition owners_;
};

} // namespace awb::sim
