#include "dynamic/dynamic_runner.hpp"

#include <unordered_set>
#include <utility>

#include "accel/perf_model.hpp"
#include "accel/spmm_engine.hpp"
#include "common/log.hpp"

namespace awb::dynamic {

namespace {

/** Static derivative of `cfg` for epoch execution: same engine, PEs,
 *  sharing hops and platform, but no between-round rebalancing — the
 *  carried/fresh partitions must pass through an epoch untouched so
 *  cycles measure partition quality, and both fidelities see the same
 *  partition trajectory. */
AccelConfig
staticExecConfig(AccelConfig cfg)
{
    cfg.balancePolicy.clear();
    cfg.remoteSwitching = false;
    cfg.approximateEq5 = false;
    return cfg;
}

} // namespace

DynamicRunner::DynamicRunner(const AccelConfig &cfg,
                             const CscMatrix &initial,
                             const ChurnParams &churn,
                             const DynamicOptions &opts)
    : cfg_(cfg), execCfg_(staticExecConfig(cfg)), opts_(opts),
      stream_(initial, churn), delta_(initial),
      partition_(initial.rows(), cfg.numPes, cfg.mapPolicy)
{
    std::string err = cfg_.validate();
    if (!err.empty()) fatal("DynamicRunner: " + err);
    if (cfg_.chips > 1)
        fatal("DynamicRunner: multi-chip streaming is unsupported — "
              "churn invalidates static shard boundaries");
    if (initial.rows() != initial.cols())
        fatal("DynamicRunner: adjacency must be square");
    if (opts_.epochs <= 0 || opts_.eventsPerEpoch <= 0)
        fatal("DynamicRunner: epochs and eventsPerEpoch must be > 0");
    if (opts_.denseCols <= 0)
        fatal("DynamicRunner: denseCols must be > 0");
    if (opts_.driftTolerance <= 0.0)
        fatal("DynamicRunner: driftTolerance must be > 0");

    const std::vector<Count> &row_work = delta_.rowNnz();
    partition_ = makePartitionPolicy(cfg_)->build(initial.rows(),
                                                  row_work, cfg_);
    policy_ = makeRebalancePolicy(cfg_, initial.rows());
    // Warm the persistent policy up on the initial graph so the first
    // epoch's carried partition is already tuned: without this, epoch-1
    // drift measures the policy's own warm-up transient (one
    // observation vs a converged fresh reference) instead of
    // churn-induced staleness.
    tuneWithPolicy(*policy_, row_work, partition_);
}

Cycle
DynamicRunner::executeEpoch(const CscMatrix &a,
                            const std::vector<Count> &row_work,
                            RowPartition &partition, DynamicEpoch *out)
{
    // The epoch's dense block only sets the round count: operand values
    // never affect timing.
    const RunCounters c =
        opts_.fidelity == DynamicFidelity::Cycle
            ? RunCounters(SpmmEngine(execCfg_).simulate(
                  a, opts_.denseCols, TdqKind::Tdq2OmegaCsc, partition))
            : RunCounters(PerfModel(execCfg_).runSpmm(
                  row_work, opts_.denseCols, partition));
    if (out != nullptr) {
        out->tasks = c.tasks;
        stats_.mergeWork(c);
        stats_.rounds += c.rounds;
    }
    return c.cycles;
}

DynamicEpoch
DynamicRunner::step()
{
    DynamicEpoch ep;

    // 1. Churn: one batch against the live edge set. Every event is
    // valid by stream construction, so apply() accepts all of them.
    std::vector<EdgeEvent> batch = stream_.nextBatch(opts_.eventsPerEpoch);
    delta_.apply(batch);
    std::unordered_set<Index> touched;
    for (const EdgeEvent &ev : batch) {
        touched.insert(ev.row);
        if (ev.op == ChurnOp::Insert)
            ++ep.inserts;
        else
            ++ep.deletes;
    }
    ep.rowsChanged = static_cast<Count>(touched.size());
    ep.nnz = delta_.nnz();

    // 2. Boundary rebalance: the persistent policy digests the work
    // delta through one synthetic observation (home-attributed per-PE
    // work; drain == work, the same shape the round-level model feeds).
    const std::vector<Count> &row_work = delta_.rowNnz();
    if (policy_->wantsObservations()) {
        RoundObservation obs;
        obs.peWork = partition_.workload(row_work);
        obs.drainCycle.assign(obs.peWork.begin(), obs.peWork.end());
        ep.rowsMoved = policy_->observeAndAdjust(obs, row_work, partition_);
    }

    // 3. Execute the epoch on the carried partition, and on a freshly
    // tuned one as the drift reference (same matrix, same features).
    const CscMatrix a = delta_.toCsc();
    ep.cycles = executeEpoch(a, row_work, partition_, &ep);
    RowPartition fresh = tuneToConvergence(cfg_, row_work);
    ep.freshCycles = executeEpoch(a, row_work, fresh, nullptr);
    ep.drift = ep.freshCycles > 0
                   ? static_cast<double>(ep.cycles) /
                             static_cast<double>(ep.freshCycles) -
                         1.0
                   : 0.0;

    stats_.epochs.push_back(ep);
    stats_.cycles += ep.cycles;
    stats_.tasks += ep.tasks;
    stats_.rowsSwitched += ep.rowsMoved;
    stats_.rowsChanged += ep.rowsChanged;
    if (stats_.halfLifeEpochs < 0 && ep.drift >= opts_.driftTolerance)
        stats_.halfLifeEpochs = static_cast<Count>(stats_.epochs.size());
    return ep;
}

const DynamicRunStats &
DynamicRunner::run()
{
    while (static_cast<Count>(stats_.epochs.size()) < opts_.epochs)
        step();
    return stats_;
}

DynamicRunStats
runChurnGcn(const AccelConfig &cfg, const CscMatrix &initial,
            const ChurnParams &churn, const DynamicOptions &opts)
{
    DynamicRunner runner(cfg, initial, churn, opts);
    return runner.run();
}

} // namespace awb::dynamic
