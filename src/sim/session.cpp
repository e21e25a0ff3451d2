#include "sim/session.hpp"

#include <algorithm>
#include <unordered_map>

#include "accel/gcn_accel.hpp"
#include "common/log.hpp"
#include "sparse/convert.hpp"
#include "sparse/spmm.hpp"

namespace awb::sim {

Session::Session(const AccelConfig &cfg) : cfg_(cfg)
{
    std::string err = cfg.validate();
    if (!err.empty()) fatal("Session: " + err);
}

void
Session::bindSparse(const TensorId &name, CscMatrix m)
{
    // PE load depends only on the sparsity structure, so a rebind with
    // the same structure (e.g. runWorkload called again on the same
    // bundle) keeps the tuned row map; a structurally different operand
    // starts untuned.
    auto it = sparse_.find(name);
    bool same_structure = it != sparse_.end() &&
                          it->second.rows() == m.rows() &&
                          it->second.cols() == m.cols() &&
                          it->second.colPtr() == m.colPtr() &&
                          it->second.rowId() == m.rowId();
    if (!same_structure) operands_.erase(name);
    sparse_.insert_or_assign(name, std::move(m));
}

void
Session::bindSparse(const TensorId &name, const CsrMatrix &m)
{
    bindSparse(name, csrToCsc(m));
}

void
Session::bindDense(const TensorId &name, DenseMatrix m)
{
    dense_.insert_or_assign(name, std::move(m));
}

const RowPartition *
Session::rowMap(const TensorId &name) const
{
    auto it = operands_.find(name);
    return it == operands_.end() ? nullptr : &it->second.maps.front();
}

SessionResult
Session::run(const WorkloadGraph &graph, StatsSink *sink)
{
    std::vector<std::size_t> order = graph.schedule();

    // Per-run tensor environment: produced dense tensors, produced
    // *sparse* tensors (Spgemm outputs), plus CSC conversions of
    // produced tensors used as sparse operands.
    std::unordered_map<TensorId, DenseMatrix> env;
    std::unordered_map<TensorId, CscMatrix> sparseEnv;
    std::unordered_map<TensorId, CscMatrix> cscCache;

    auto denseOf = [&](const TensorId &name) -> const DenseMatrix & {
        auto it = env.find(name);
        if (it != env.end()) return it->second;
        auto bound = dense_.find(name);
        if (bound != dense_.end()) return bound->second;
        auto sprod = sparseEnv.find(name);
        if (sprod != sparseEnv.end()) {
            // A Spgemm output consumed densely: materialize once.
            return env.emplace(name, cscToDense(sprod->second))
                .first->second;
        }
        auto sp = sparse_.find(name);
        if (sp != sparse_.end()) {
            // Rare: a sparse-bound tensor consumed densely (e.g. as the
            // streamed operand of a chain head). Materialize once.
            return env.emplace(name, cscToDense(sp->second)).first->second;
        }
        fatal("Session: tensor '" + name + "' is not bound or produced");
    };

    auto sparseOf = [&](const TensorId &name) -> const CscMatrix & {
        auto sprod = sparseEnv.find(name);
        if (sprod != sparseEnv.end()) return sprod->second;
        auto bound = sparse_.find(name);
        if (bound != sparse_.end()) return bound->second;
        auto cached = cscCache.find(name);
        if (cached != cscCache.end()) return cached->second;
        auto it = env.find(name);
        if (it != env.end())
            return cscCache.emplace(name, denseToCsc(it->second))
                .first->second;
        auto dbound = dense_.find(name);  // dense-bound left operand
        if (dbound != dense_.end())
            return cscCache.emplace(name, denseToCsc(dbound->second))
                .first->second;
        fatal("Session: sparse operand '" + name +
              "' is not bound or produced");
    };

    SessionResult res;
    res.scaleout.chips = cfg_.chips;

    // Multi-chip runs (DESIGN.md §9): one node ownership, cut from the
    // rows of the first TDQ-2 node's sparse operand, shards every costed
    // node, so chip c produces exactly the XW rows its A×(XW) rows need
    // locally and the halo is the boundary rows produced elsewhere.
    const RowPartition *owners = nullptr;
    if (cfg_.chips > 1) {
        const WorkloadNode *first = nullptr;
        for (std::size_t id : order) {
            const WorkloadNode &n = graph.nodes()[id];
            if (n.kind == OpKind::Spgemm)
                fatal("Session: Spgemm node '" + n.out +
                      "' runs unsharded only, not at chips > 1");
            if (!first && n.costed() && n.tdq == TdqKind::Tdq2OmegaCsc)
                first = &n;
        }
        if (!first || (!sparse_.count(first->a) && !dense_.count(first->a)))
            fatal("Session: chips > 1 cuts node ownership from the first "
                  "TDQ-2 node's sparse operand, which must be bound");
        const CscMatrix &a = sparseOf(first->a);
        const std::vector<Count> row_work = a.rowNnz();
        RowPartition cut = chipOwners(cfg_, a.rows(), row_work);
        // Carried per-chip maps are only valid under the ownership that
        // cut them.
        if (cut.owners() != owners_.owners()) {
            operands_.clear();
            owners_ = std::move(cut);
        }
        owners = &owners_;
        res.scaleout.chipImbalance = chipImbalance(owners_, row_work);
    }

    // Only sparse-bound operands (stable across run() calls, e.g. the
    // adjacency) carry their tuned row maps in the Session; maps for
    // produced or dense-bound left operands live for this run only —
    // their content (and possibly shape) changes between runs/graphs.
    // Both engines (cfg_.engine) tune the maps bit-identically (§6), so
    // Sessions may switch engines between runs.
    std::map<TensorId, ShardedOperand> localOperands;
    auto operandOf = [&](const TensorId &name,
                         const CscMatrix &a) -> ShardedOperand & {
        if (owners != nullptr && a.rows() != owners->rows())
            fatal("Session: sparse operand '" + name + "' has " +
                  std::to_string(a.rows()) + " rows, node ownership " +
                  std::to_string(owners->rows()));
        auto &ops = sparse_.count(name) ? operands_ : localOperands;
        auto it = ops.find(name);
        if (it == ops.end())
            return ops.emplace(name, shardOperand(cfg_, owners, a))
                .first->second;
        if (it->second.rows != a.rows())
            fatal("Session: sparse operand '" + name +
                  "' changed row count; rebind it under a new name");
        return it->second;
    };

    // Chain tracking: the open chain's nodeStats indices and the tensor
    // its tail produced.
    ChainStats chain;
    TensorId chainTail;
    auto flushChain = [&]() {
        if (chain.stages.empty()) return;
        std::vector<const std::vector<Cycle> *> stages;
        stages.reserve(chain.stages.size());
        for (std::size_t s : chain.stages)
            stages.push_back(&res.nodeStats[s].roundCycles);
        chain.pipelinedCycles = pipelineCyclesMulti(stages);
        chain.serialCycles = 0;
        for (std::size_t s : chain.stages)
            chain.serialCycles += res.nodeStats[s].cycles;
        res.totalCycles += chain.pipelinedCycles;
        if (sink) sink->onChain(chain);
        res.chains.push_back(std::move(chain));
        chain = ChainStats{};
        chainTail.clear();
    };

    // A costed node extends the open chain when it streams the chain
    // tail's output as its dense operand — column k of the tail feeds
    // stage k+1 as soon as it completes (Fig. 8). A Spgemm completes
    // output column k at the end of round k, so it chains the same way
    // (the A×A-power case). A mismatched round count (re-tiled operand)
    // breaks the chain.
    auto record = [&](std::size_t id, const WorkloadNode &n,
                      SpmmStats stats) {
        stats.label = n.label.empty() ? n.out : n.label;
        bool extends = !chain.stages.empty() && n.b == chainTail &&
                       res.nodeStats[chain.stages.back()]
                               .roundCycles.size() ==
                           stats.roundCycles.size();
        if (!extends) flushChain();

        res.totalCyclesSerial += stats.cycles;
        res.totalTasks += stats.tasks;
        res.traffic += stats.traffic;
        res.memoryCycles += stats.memoryCycles;
        res.bwBoundRounds += stats.bwBoundRounds;
        res.nodeIds.push_back(id);
        res.nodeStats.push_back(std::move(stats));
        chain.stages.push_back(res.nodeStats.size() - 1);
        chainTail = n.out;
        if (sink) sink->onNode(n, res.nodeStats.back());
    };

    for (std::size_t id : order) {
        const WorkloadNode &n = graph.nodes()[id];
        switch (n.kind) {
          case OpKind::Spmm:
          case OpKind::DenseMm: {
            const CscMatrix &a = sparseOf(n.a);
            const DenseMatrix &b = denseOf(n.b);
            if (a.cols() != b.rows())
                fatal("Session: node '" + n.out +
                      "': inner dimensions differ");
            const std::vector<Count> halo =
                owners != nullptr && n.tdq == TdqKind::Tdq2OmegaCsc
                    ? haloRows(*owners, a)
                    : std::vector<Count>{};
            SpmmStats stats = simulateSpmm(cfg_, a, b.cols(), n.tdq,
                                           operandOf(n.a, a), halo,
                                           res.scaleout);
            DenseMatrix c = spmmCsr(cscToCsr(a), b);
            record(id, n, std::move(stats));
            env.insert_or_assign(n.out, std::move(c));
            break;
          }
          case OpKind::Spgemm: {
            const CscMatrix &a = sparseOf(n.a);
            SpgemmResult r = SpmmEngine(cfg_).executeSpgemm(
                a, sparseOf(n.b), operandOf(n.a, a).maps.front());
            record(id, n, std::move(r.stats));
            sparseEnv.insert_or_assign(n.out, std::move(r.c));
            break;
          }
          case OpKind::Elementwise: {
            flushChain();
            const DenseMatrix &a = denseOf(n.a);
            const DenseMatrix *b2 = n.unary() ? nullptr : &denseOf(n.b);
            env.insert_or_assign(n.out, evalElementwise(n, a, b2));
            break;
          }
          case OpKind::Concat: {
            flushChain();
            env.insert_or_assign(n.out,
                                 evalConcat(n, denseOf(n.a), denseOf(n.b)));
            break;
          }
        }
    }
    flushChain();

    res.utilization = res.totalCyclesSerial > 0
        ? static_cast<double>(res.totalTasks) /
          (static_cast<double>(cfg_.chips) *
           static_cast<double>(cfg_.numPes) *
           static_cast<double>(res.totalCyclesSerial))
        : 0.0;

    auto sparseOut = sparseEnv.find(graph.output());
    if (sparseOut != sparseEnv.end()) {
        res.outputSparse = true;
        res.output = cscToDense(sparseOut->second);
        res.sparseOutput = std::move(sparseOut->second);
    } else {
        auto outIt = env.find(graph.output());
        if (outIt != env.end()) {
            res.output = std::move(outIt->second);
        } else {
            // Output is a bound tensor.
            res.output = denseOf(graph.output());
        }
    }
    if (sink) sink->onRunComplete(res);
    return res;
}

} // namespace awb::sim
