/**
 * @file
 * Dynamic-graph streaming runner (DESIGN.md §12): the FrontierRunner-
 * style loop of the churn experiments. Each epoch applies one churn
 * batch to a DeltaCsr-maintained adjacency, lets the configuration's
 * RebalancePolicy digest the per-row work delta at the epoch boundary
 * (one synthetic observation: per-PE home-attributed work), then runs
 * an inference epoch — an SPMM of the live adjacency against a fixed
 * dense feature block — on the chosen fidelity with the *carried*
 * partition.
 *
 * Alongside the carried partition the runner keeps a freshly tuned
 * reference: every epoch it re-tunes a partition from scratch against
 * the live row work (policy.hpp's tuneToConvergence) and executes the
 * same epoch on it. The per-epoch drift carried/fresh − 1 measures how
 * stale the carried map has become; the **convergence half-life** is
 * the first epoch at which drift reaches the configured tolerance
 * (−1 when it never does). Execution inside an epoch uses a static
 * derivative of the config (no rebalancing), so cycles reflect
 * partition quality alone and both fidelities see identical partition
 * trajectories.
 */

#pragma once

#include <vector>

#include "accel/config.hpp"
#include "accel/policy.hpp"
#include "accel/row_map.hpp"
#include "dynamic/churn.hpp"
#include "dynamic/delta_csr.hpp"
#include "model/memory_model.hpp"

namespace awb::dynamic {

/** Which simulator executes the per-epoch SPMMs. */
enum class DynamicFidelity
{
    Cycle,  ///< cycle-accurate SpmmEngine (TDQ-2/Omega path)
    Model,  ///< round-level PerfModel
};

/** Knobs of one streaming run. */
struct DynamicOptions
{
    Count epochs = 8;           ///< churn batches to apply
    Count eventsPerEpoch = 256; ///< churn events per batch
    Index denseCols = 16;       ///< feature-block columns per epoch
    /** Carried-vs-fresh cycle drift declaring the carried partition
     *  stale (0.10 == 10%). */
    double driftTolerance = 0.10;
    DynamicFidelity fidelity = DynamicFidelity::Cycle;
    std::uint64_t seed = 1;     ///< dense feature block fill
};

/** One epoch's accounting. */
struct DynamicEpoch
{
    Count inserts = 0;      ///< accepted edge inserts this batch
    Count deletes = 0;      ///< accepted edge deletes this batch
    Count nnz = 0;          ///< live non-zeros after the batch
    Count rowsChanged = 0;  ///< distinct rows the batch touched
    Count rowsMoved = 0;    ///< rows the boundary policy migrated
    Cycle cycles = 0;       ///< epoch cycles on the carried partition
    Cycle freshCycles = 0;  ///< epoch cycles on the fresh partition
    double drift = 0.0;     ///< cycles / freshCycles - 1
    Count tasks = 0;        ///< MACs executed (carried run)
};

/** Aggregated statistics of one streaming run. */
struct DynamicRunStats
{
    std::vector<DynamicEpoch> epochs;
    Cycle totalCycles = 0;  ///< summed carried-partition epoch cycles
    Count totalTasks = 0;
    Count rowsMoved = 0;    ///< summed boundary-policy migrations
    Count rowsChanged = 0;  ///< summed distinct-row churn footprint
    /** First epoch (1-based) whose drift reached the tolerance; -1
     *  when the carried partition never went stale. */
    Count halfLifeEpochs = -1;
    Count rounds = 0;           ///< SPMM rounds executed (carried runs)
    Count roundsSimulated = 0;  ///< event-stepped rounds (0 for model)
    MemoryTraffic traffic;      ///< summed over carried runs
    Cycle memoryCycles = 0;
    Count bwBoundRounds = 0;
    std::size_t peakQueueDepth = 0;
};

/**
 * The runner. Construct, then step() per epoch (or run() them all);
 * stats() aggregates as epochs complete.
 */
class DynamicRunner
{
  public:
    /** fatal() on an invalid config; `initial` seeds both the DeltaCsr
     *  and the churn stream. Multi-chip configs are rejected — churn
     *  invalidates static shard boundaries (future work, §12). */
    DynamicRunner(const AccelConfig &cfg, const CscMatrix &initial,
                  const ChurnParams &churn, const DynamicOptions &opts);

    /** Apply one churn batch, rebalance, execute the epoch on carried
     *  and fresh partitions. Also folds the epoch into stats(). */
    DynamicEpoch step();

    /** step() through opts.epochs epochs; returns stats(). */
    const DynamicRunStats &run();

    const DynamicRunStats &stats() const { return stats_; }

    /** Live adjacency snapshot (for rebuild-equivalence checks). */
    const DeltaCsr &matrix() const { return delta_; }

    const RowPartition &partition() const { return partition_; }

  private:
    Cycle executeEpoch(const CscMatrix &a,
                       const std::vector<Count> &row_work,
                       RowPartition &partition, DynamicEpoch *out);

    AccelConfig cfg_;      ///< as given (boundary-policy resolution)
    AccelConfig execCfg_;  ///< static derivative (epoch execution)
    DynamicOptions opts_;
    EdgeChurnStream stream_;
    DeltaCsr delta_;
    RowPartition partition_;  ///< the carried row map
    std::unique_ptr<RebalancePolicy> policy_;  ///< boundary policy
    DynamicRunStats stats_;
};

/** Convenience: construct a runner over `initial` and run every epoch
 *  (the churn-gcn sweep mode and bench entry point). */
DynamicRunStats runChurnGcn(const AccelConfig &cfg,
                            const CscMatrix &initial,
                            const ChurnParams &churn,
                            const DynamicOptions &opts);

} // namespace awb::dynamic
