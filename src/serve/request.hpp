/**
 * @file
 * Inference-serving request types (DESIGN.md §10).
 *
 * A request is one user's inference: either an ego-subgraph query (the
 * k-hop neighbourhood around a seed node — "classify this user from
 * their local graph") or a full-graph inference whose result is shared
 * by every request batched with it. Requests carry the induced
 * subgraph's per-row non-zero profile so both service fidelities and
 * the sjf-by-nnz discipline can cost them without touching the dataset
 * again; the node list lets the cycle-fidelity service re-extract the
 * actual matrices deterministically at batch-launch time.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace awb::serve {

/** GNN family a request asks to be evaluated with (sim/factories.hpp). */
enum class WorkloadKind
{
    Gcn,       ///< 2-layer GCN (paper workload)
    GraphSage, ///< 2-layer GraphSAGE-mean over an input projection
    Gin,       ///< 2-layer GIN sum-and-MLP over an input projection
};

/** How much of the graph one request touches. */
enum class RequestScope
{
    Ego,        ///< induced k-hop subgraph around a seed node
    FullGraph,  ///< whole-graph inference (result shared across a batch)
};

std::string workloadKindName(WorkloadKind k);

/** One timestamped per-user inference request. */
struct Request
{
    std::uint64_t id = 0;   ///< generation order (unique per run)
    Cycle arrival = 0;      ///< arrival time on the serving clock
    WorkloadKind kind = WorkloadKind::Gcn;
    RequestScope scope = RequestScope::Ego;
    Index seedNode = 0;     ///< ego center (Ego scope)
    int hops = 2;           ///< ego neighbourhood radius (Ego scope)
    /** Induced-subgraph node ids, sorted ascending (Ego scope; empty for
     *  FullGraph). The cycle-fidelity service re-extracts matrices from
     *  this list, so it fully determines the request's work. */
    std::vector<Index> nodes;
    /** Induced sub-adjacency non-zeros per subgraph row (Ego scope). */
    std::vector<Count> aRowNnz;
    /** Feature-matrix non-zeros per subgraph row (Ego scope). */
    std::vector<Count> xRowNnz;
    /** Total induced adjacency non-zeros — the sjf-by-nnz cost key (for
     *  FullGraph scope: the full adjacency nnz). */
    Count nnz = 0;
    /** Closed-loop client that issued this request; -1 = open loop. */
    int client = -1;
};

} // namespace awb::serve
