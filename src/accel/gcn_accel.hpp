/**
 * @file
 * The full AWB-GCN accelerator: chains the two SPMMs of every GCN layer
 * (X×W via TDQ-1, then A×(XW) via TDQ-2) with coarse-grained column
 * pipelining (paper Fig. 8: a column of XW feeds the A-multiply as soon as
 * it completes, so only one column of XW is ever buffered on chip), and
 * applies ReLU between layers.
 *
 * The adjacency matrix is identical in every layer, so the row map tuned
 * by remote switching during layer 1's A×(XW) is carried into layer 2
 * (hardware performance auto-tuning, §4).
 *
 * Since the Session API redesign this is a thin front-end over the
 * sim::Session workload-graph executor (sim/session.hpp); arbitrary
 * SPMM pipelines (GraphSAGE, GIN, k-hop GCN) compose through that API.
 */

#pragma once

#include <vector>

#include "accel/spmm_engine.hpp"
#include "gcn/model.hpp"
#include "graph/datasets.hpp"

namespace awb {

/** Cycle results of one GCN layer on the accelerator. */
struct GcnLayerResult
{
    SpmmStats xw;  ///< X(l) × W(l), TDQ-1
    SpmmStats ax;  ///< A × (XW), TDQ-2
    /** Further adjacency multiplications for multi-hop aggregation
     *  (A²(XW), A³(XW), ... — paper §3.3's three-way pipelining). */
    std::vector<SpmmStats> extraHops;
    /** Layer delay when all chained SPMMs are column-pipelined (Fig. 8). */
    Cycle pipelinedCycles = 0;
};

/** Cycle results of a full inference. */
struct GcnRunResult
{
    DenseMatrix output;
    std::vector<GcnLayerResult> layers;
    Cycle totalCycles = 0;        ///< sum of pipelined layer delays
    Cycle totalCyclesSerial = 0;  ///< without inter-SPMM pipelining
    Count totalTasks = 0;
    double utilization = 0.0;     ///< tasks / (chips · P · serial cycles)
    ScaleOutSummary scaleout;     ///< halo and chip balance (§9)
};

/**
 * Run multi-layer GCN inference cycle-accurately; functionally exact
 * (validated against inferGcn). Thin builder over the sim::Session
 * workload-graph API (sim/factories.hpp): it composes the per-layer
 * X×W → A^hops(XW) → ReLU graph and maps the SessionResult back onto
 * the historical per-layer result layout, cycle-for-cycle identical to
 * the original hand-rolled orchestration. cfg.chips > 1 shards every
 * SPMM by node ownership (Session, DESIGN.md §9).
 */
GcnRunResult runGcn(const AccelConfig &cfg, const Dataset &ds,
                    const GcnModel &model);

/**
 * Combine per-round durations of two chained SPMMs under column
 * pipelining: stage-2 round k starts when stage 1 finished column k and
 * stage 2 finished column k-1. Returns the end-to-end delay.
 */
Cycle pipelineCycles(const std::vector<Cycle> &stage1,
                     const std::vector<Cycle> &stage2);

/** N-stage generalization: stage s round k starts when stage s-1 finished
 *  column k and stage s finished column k-1. */
Cycle pipelineCyclesMulti(
    const std::vector<const std::vector<Cycle> *> &stages);

} // namespace awb
