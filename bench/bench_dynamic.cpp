/**
 * @file
 * Implementation of `awbsim --bench-dynamic`: the dynamic-graph streaming
 * benchmark producing the tracked BENCH_dynamic.json document. See
 * DESIGN.md §12 for the churn model, the slack-slot incremental CSR and
 * the convergence-half-life methodology the gates here enforce.
 */

#include <chrono>
#include <unordered_map>

#include "accel/policy.hpp"
#include "driver/bench.hpp"
#include "dynamic/dynamic_runner.hpp"
#include "exec/workload_cache.hpp"
#include "graph/datasets.hpp"
#include "sparse/coo.hpp"
#include "sparse/convert.hpp"

namespace awb::driver {

namespace {

using dynamic::ChurnOp;
using dynamic::ChurnParams;
using dynamic::DeltaCsr;
using dynamic::DynamicFidelity;
using dynamic::DynamicOptions;
using dynamic::DynamicRunStats;
using dynamic::EdgeChurnStream;
using dynamic::EdgeEvent;

/** Grid axes and knobs of one streaming benchmark run. */
struct Options
{
    std::vector<std::string> datasets = {"cora", "citeseer"};
    /** Balance-policy axis; "baseline" is prepended when absent (its
     *  carried partition equals the fresh one, anchoring drift 0). */
    std::vector<std::string> policies = {"baseline", "rescratch", "rechunk",
                                         "delta-greedy", "delta-threshold",
                                         "work-steal", "remote-d"};
    /** 256 PEs (few rows per PE) with growth-dominated churn is the
     *  regime where a frozen partition visibly ages: hub rows fatten
     *  under preferential attachment and single PEs go hot. At 64 PEs
     *  the same churn averages out and every half-life is "never". */
    int pes = 256;             ///< PE-array size (power of two for Omega)
    Count epochs = 10;         ///< churn batches per run
    Count eventsPerEpoch = 1024;
    Index denseCols = 8;       ///< feature-block columns per epoch
    double insertFrac = 0.9;   ///< churn insert:delete mix (growth-heavy)
    double driftTolerance = 0.10;
    std::uint64_t seed = 1;
    double scale = 1.0;
    std::string platform = "unconstrained";
    std::string jsonPath = "BENCH_dynamic.json";
};

bool
sameRun(const DynamicRunStats &x, const DynamicRunStats &y)
{
    if (x.cycles != y.cycles || x.tasks != y.tasks ||
        x.rowsSwitched != y.rowsSwitched ||
        x.halfLifeEpochs != y.halfLifeEpochs ||
        x.traffic.total() != y.traffic.total() ||
        x.epochs.size() != y.epochs.size())
        return false;
    for (std::size_t e = 0; e < x.epochs.size(); ++e) {
        if (x.epochs[e].cycles != y.epochs[e].cycles ||
            x.epochs[e].freshCycles != y.epochs[e].freshCycles)
            return false;
    }
    return true;
}

/** Epoch boundaries are fidelity-independent: churn, per-row work and
 *  the boundary policy's migrations must agree between the cycle
 *  engine and the round-level model. */
bool
sameTrajectory(const DynamicRunStats &x, const DynamicRunStats &y)
{
    if (x.epochs.size() != y.epochs.size()) return false;
    for (std::size_t e = 0; e < x.epochs.size(); ++e) {
        const dynamic::DynamicEpoch &a = x.epochs[e];
        const dynamic::DynamicEpoch &b = y.epochs[e];
        if (a.inserts != b.inserts || a.deletes != b.deletes ||
            a.nnz != b.nnz || a.rowsChanged != b.rowsChanged ||
            a.rowsMoved != b.rowsMoved)
            return false;
    }
    return true;
}

/** Replay the dataset's churn schedule through a DeltaCsr and check the
 *  incremental matrix after *every* batch against a from-scratch CSR
 *  rebuild of the live edge set (DESIGN.md §12). */
bool
rebuildIdentical(const CscMatrix &initial, const ChurnParams &churn,
                 Count epochs, Count events_per_epoch)
{
    auto key = [](Index r, Index c) {
        return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(r))
                << 32U) |
               static_cast<std::uint32_t>(c);
    };
    EdgeChurnStream stream(initial, churn);
    DeltaCsr delta(initial);
    std::unordered_map<std::uint64_t, Value> live;
    const CsrMatrix seed = cscToCsr(initial);
    for (Index r = 0; r < seed.rows(); ++r) {
        for (Count p = seed.rowPtr()[static_cast<std::size_t>(r)];
             p < seed.rowPtr()[static_cast<std::size_t>(r) + 1]; ++p) {
            live[key(r, seed.colId()[static_cast<std::size_t>(p)])] =
                seed.val()[static_cast<std::size_t>(p)];
        }
    }
    for (Count e = 0; e < epochs; ++e) {
        std::vector<EdgeEvent> batch = stream.nextBatch(events_per_epoch);
        delta.apply(batch);
        for (const EdgeEvent &ev : batch) {
            if (ev.op == ChurnOp::Insert)
                live[key(ev.row, ev.col)] = ev.val;
            else
                live.erase(key(ev.row, ev.col));
        }
        CooMatrix coo(initial.rows(), initial.cols());
        for (const auto &[k, v] : live)
            coo.add(static_cast<Index>(k >> 32U),
                    static_cast<Index>(k & 0xffffffffU), v);
        coo.canonicalize();
        const CsrMatrix rebuilt = CsrMatrix::fromCoo(coo);
        const CsrMatrix inc = delta.toCsr();
        if (inc.rowPtr() != rebuilt.rowPtr() ||
            inc.colId() != rebuilt.colId() || inc.val() != rebuilt.val())
            return false;
    }
    return true;
}

int
runBenchDynamic(const Options &opts)
{
    const std::vector<std::string> policies = withBaseline(opts.policies);

    ChurnParams churn;
    churn.insertFrac = opts.insertFrac;
    churn.seed = opts.seed;

    DynamicOptions dopts;
    dopts.epochs = opts.epochs;
    dopts.eventsPerEpoch = opts.eventsPerEpoch;
    dopts.denseCols = opts.denseCols;
    dopts.driftTolerance = opts.driftTolerance;
    dopts.fidelity = DynamicFidelity::Cycle;
    dopts.seed = opts.seed;

    BenchDoc doc("bench-dynamic",
                 {{"schema", "awbsim-bench-dynamic-v1"},
                  {"pes", opts.pes},
                  {"seed", opts.seed},
                  {"scale", opts.scale},
                  {"epochs", opts.epochs},
                  {"events_per_epoch", opts.eventsPerEpoch},
                  {"dense_cols", opts.denseCols},
                  {"insert_frac", opts.insertFrac},
                  {"drift_tolerance", opts.driftTolerance},
                  {"platform", opts.platform}},
                 {"dataset", "design", "epochs", "cycles", "moved",
                  "end drift", "half-life"});
    bool &deterministic = doc.gate("deterministic");
    bool &engines_identical = doc.gate("engines_identical");
    bool &rebuild_identical = doc.gate("rebuild_identical");
    bool &trajectory_ok = doc.gate("trajectory_ok");
    Json half_life = Json::object();
    for (const auto &dataset : opts.datasets) {
        const DatasetSpec &spec = findDataset(dataset);
        const auto a_p = exec::cachedAdjacency(spec, opts.seed, opts.scale);
        const CscMatrix &a = *a_p;

        // Gate 3: the incremental matrix equals a from-scratch rebuild
        // after every batch (policy-independent, once per dataset).
        if (!rebuildIdentical(a, churn, opts.epochs, opts.eventsPerEpoch))
            rebuild_identical = false;

        Json dataset_half_life = Json::object();
        for (const auto &policy : policies) {
            AccelConfig cfg =
                makePolicyConfig(policy, opts.pes, hopBase(spec));
            cfg.platform = opts.platform;
            cfg.engine = EngineKind::Event;

            const auto t0 = std::chrono::steady_clock::now();
            DynamicRunStats ev = dynamic::runChurnGcn(cfg, a, churn, dopts);
            const double wall_ms =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();

            // Gate 1: a second event run must reproduce the first.
            DynamicRunStats again =
                dynamic::runChurnGcn(cfg, a, churn, dopts);
            if (!sameRun(ev, again)) deterministic = false;

            // Gate 2: the batched engine must match the event engine.
            AccelConfig bcfg = cfg;
            bcfg.engine = EngineKind::Batched;
            DynamicRunStats bat =
                dynamic::runChurnGcn(bcfg, a, churn, dopts);
            if (!sameRun(ev, bat)) engines_identical = false;

            // Gate 4: the round-level model walks the same epoch
            // trajectory (churn counts, work deltas, migrations).
            DynamicOptions mopts = dopts;
            mopts.fidelity = DynamicFidelity::Model;
            DynamicRunStats mod =
                dynamic::runChurnGcn(cfg, a, churn, mopts);
            if (!sameTrajectory(ev, mod)) trajectory_ok = false;

            std::vector<double> drift;        // per-epoch carried/fresh - 1
            std::vector<Cycle> epoch_cycles;  // per-epoch carried cycles
            std::vector<Cycle> fresh_cycles;  // per-epoch fresh-tune cycles
            for (const auto &e : ev.epochs) {
                drift.push_back(e.drift);
                epoch_cycles.push_back(e.cycles);
                fresh_cycles.push_back(e.freshCycles);
            }
            dataset_half_life.set(policy, ev.halfLifeEpochs);

            const auto epochs = static_cast<Count>(ev.epochs.size());
            doc.point(
                Json::object(
                    {{"dataset", spec.name},
                     {"policy", policy},
                     {"epochs", epochs},
                     {"cycles", ev.cycles},
                     {"tasks", ev.tasks},
                     {"rows_moved", ev.rowsSwitched},
                     {"rows_changed", ev.rowsChanged},
                     {"half_life_epochs", ev.halfLifeEpochs},
                     {"drift", Json::array(drift)},
                     {"epoch_cycles", Json::array(epoch_cycles)},
                     {"fresh_cycles", Json::array(fresh_cycles)},
                     {"bytes_total", ev.traffic.total()},
                     {"wall_ms", wall_ms}}),
                {spec.name, PolicyRegistry::instance().get(policy).label,
                 std::to_string(epochs),
                 humanCount(static_cast<double>(ev.cycles)),
                 std::to_string(ev.rowsSwitched),
                 fixed(drift.empty() ? 0.0 : drift.back(), 3),
                 ev.halfLifeEpochs < 0
                     ? "never"
                     : std::to_string(ev.halfLifeEpochs)});
        }
        half_life.set(dataset, std::move(dataset_half_life));
    }
    doc.summary().set("half_life", std::move(half_life));
    return doc.finish(opts.jsonPath);
}

} // namespace

int
runBenchDynamicCli(CommandLine &cl)
{
    Options o;
    const std::vector<Flag> flags = {
        texts({"--datasets"}, "a,b,..", o.datasets,
              "graphs the churn streams mutate", checkDataset),
        texts({"--policies", "--designs"}, "p1,..", o.policies,
              "policies carried across epochs (baseline is prepended if "
              "absent)",
              resolvePolicy),
        number({"--pes"}, "N", o.pes, "PE-array size", 1),
        number({"--epochs"}, "N", o.epochs, "churn batches per run", 1),
        number({"--events"}, "N", o.eventsPerEpoch, "events per batch", 1),
        number({"--dense-cols"}, "N", o.denseCols, "columns per epoch"),
        number({"--insert-frac"}, "F", o.insertFrac, "insert:delete mix"),
        number({"--drift-tol"}, "F", o.driftTolerance,
               "drift that defines the half-life"),
        number({"--seed"}, "N", o.seed, "global seed"),
        number({"--scale"}, "S", o.scale, "dataset node-count scale"),
        text({"--platform"}, "P", o.platform, "memory platform",
             resolvePlatform),
        text({"--json"}, "FILE", o.jsonPath,
             "output ('-' = stdout, no table)")};
    if (!cl.bind("Churn-gcn epochs across the policy axis: carried-vs-fresh "
                 "drift curves and half-lives; exits 1 on a determinism, "
                 "engine, rebuild or model-trajectory gate.",
                 flags))
        return 0;
    return runBenchDynamic(o);
}

} // namespace awb::driver
