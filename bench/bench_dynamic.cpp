/**
 * @file
 * Implementation of `awbsim --bench-dynamic`: the dynamic-graph streaming
 * benchmark producing the tracked BENCH_dynamic.json document. See
 * DESIGN.md §12 for the churn model, the slack-slot incremental CSR and
 * the convergence-half-life methodology the gates here enforce.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

#include "accel/policy.hpp"
#include "common/table.hpp"
#include "driver/bench.hpp"
#include "driver/json.hpp"
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

/** One dataset × policy point of the benchmark. */
struct DynamicPoint
{
    std::string dataset;
    std::string policy;
    Count epochs = 0;
    Cycle cycles = 0;       ///< summed carried-partition epoch cycles
    Count tasks = 0;
    Count rowsMoved = 0;
    Count rowsChanged = 0;
    Count halfLifeEpochs = -1;
    std::vector<double> drift;       ///< per-epoch carried/fresh - 1
    std::vector<Cycle> epochCycles;  ///< per-epoch carried cycles
    std::vector<Cycle> freshCycles;  ///< per-epoch fresh-tune cycles
    Count bytesTotal = 0;
    double wallMs = 0.0;
};

bool
sameRun(const DynamicRunStats &x, const DynamicRunStats &y)
{
    if (x.totalCycles != y.totalCycles || x.totalTasks != y.totalTasks ||
        x.rowsMoved != y.rowsMoved ||
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
    std::vector<std::string> policies = opts.policies;  // canonical names
    if (std::find(policies.begin(), policies.end(), "baseline") ==
        policies.end())
        policies.insert(policies.begin(), "baseline");

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

    bool deterministic = true;
    bool engines_identical = true;
    bool rebuild_identical = true;
    bool trajectory_ok = true;
    std::vector<DynamicPoint> points;

    Table t({"dataset", "design", "epochs", "cycles", "moved",
             "end drift", "half-life"});
    for (const auto &dataset : opts.datasets) {
        const DatasetSpec &spec = findDataset(dataset);
        const auto a_p = exec::cachedAdjacency(spec, opts.seed, opts.scale);
        const CscMatrix &a = *a_p;

        // Gate 3: the incremental matrix equals a from-scratch rebuild
        // after every batch (policy-independent, once per dataset).
        if (!rebuildIdentical(a, churn, opts.epochs, opts.eventsPerEpoch))
            rebuild_identical = false;

        for (const auto &policy : policies) {
            AccelConfig cfg =
                makePolicyConfig(policy, opts.pes, hopBase(spec));
            cfg.platform = opts.platform;
            cfg.engine = EngineKind::Event;

            auto t0 = std::chrono::steady_clock::now();
            DynamicRunStats ev = dynamic::runChurnGcn(cfg, a, churn, dopts);
            auto t1 = std::chrono::steady_clock::now();

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

            DynamicPoint pt;
            pt.dataset = spec.name;
            pt.policy = policy;
            pt.epochs = static_cast<Count>(ev.epochs.size());
            pt.cycles = ev.totalCycles;
            pt.tasks = ev.totalTasks;
            pt.rowsMoved = ev.rowsMoved;
            pt.rowsChanged = ev.rowsChanged;
            pt.halfLifeEpochs = ev.halfLifeEpochs;
            for (const auto &e : ev.epochs) {
                pt.drift.push_back(e.drift);
                pt.epochCycles.push_back(e.cycles);
                pt.freshCycles.push_back(e.freshCycles);
            }
            pt.bytesTotal = ev.traffic.total();
            pt.wallMs =
                std::chrono::duration<double, std::milli>(t1 - t0).count();

            t.addRow({pt.dataset,
                      PolicyRegistry::instance().get(pt.policy).label,
                      std::to_string(pt.epochs),
                      humanCount(static_cast<double>(pt.cycles)),
                      std::to_string(pt.rowsMoved),
                      fixed(pt.drift.empty() ? 0.0 : pt.drift.back(), 3),
                      pt.halfLifeEpochs < 0
                          ? "never"
                          : std::to_string(pt.halfLifeEpochs)});
            points.push_back(std::move(pt));
        }
    }
    std::printf("%s", t.render().c_str());

    Json doc = Json::object();
    doc.set("schema", "awbsim-bench-dynamic-v1");
    doc.set("pes", opts.pes);
    doc.set("seed", opts.seed);
    doc.set("scale", opts.scale);
    doc.set("epochs", opts.epochs);
    doc.set("events_per_epoch", opts.eventsPerEpoch);
    doc.set("dense_cols", opts.denseCols);
    doc.set("insert_frac", opts.insertFrac);
    doc.set("drift_tolerance", opts.driftTolerance);
    doc.set("platform", opts.platform);
    Json jpoints = Json::array();
    for (const auto &pt : points) {
        Json p = Json::object();
        p.set("dataset", pt.dataset);
        p.set("policy", pt.policy);
        p.set("epochs", pt.epochs);
        p.set("cycles", pt.cycles);
        p.set("tasks", pt.tasks);
        p.set("rows_moved", pt.rowsMoved);
        p.set("rows_changed", pt.rowsChanged);
        p.set("half_life_epochs", pt.halfLifeEpochs);
        Json drift = Json::array();
        for (double d : pt.drift) drift.push(d);
        p.set("drift", std::move(drift));
        Json epoch_cycles = Json::array();
        for (Cycle c : pt.epochCycles) epoch_cycles.push(c);
        p.set("epoch_cycles", std::move(epoch_cycles));
        Json fresh_cycles = Json::array();
        for (Cycle c : pt.freshCycles) fresh_cycles.push(c);
        p.set("fresh_cycles", std::move(fresh_cycles));
        p.set("bytes_total", pt.bytesTotal);
        p.set("wall_ms", pt.wallMs);
        jpoints.push(std::move(p));
    }
    doc.set("points", std::move(jpoints));
    Json summary = Json::object();
    summary.set("deterministic", deterministic);
    summary.set("engines_identical", engines_identical);
    summary.set("rebuild_identical", rebuild_identical);
    summary.set("trajectory_ok", trajectory_ok);
    Json half_life = Json::object();
    for (const auto &dataset : opts.datasets) {
        Json per = Json::object();
        for (const auto &pt : points)
            if (pt.dataset == dataset)
                per.set(pt.policy, pt.halfLifeEpochs);
        half_life.set(dataset, std::move(per));
    }
    summary.set("half_life", std::move(half_life));
    doc.set("summary", std::move(summary));

    writeDoc(doc, opts.jsonPath, "bench-dynamic");
    return gateExit("bench-dynamic",
                    {{"deterministic", deterministic},
                     {"engines_identical", engines_identical},
                     {"rebuild_identical", rebuild_identical},
                     {"trajectory_ok", trajectory_ok}});
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
        text({"--json"}, "FILE", o.jsonPath, "output ('-' = stdout)")};
    if (!cl.bind("Churn-gcn epochs across the policy axis: carried-vs-fresh "
                 "drift curves and half-lives; exits 1 on a determinism, "
                 "engine, rebuild or model-trajectory gate.",
                 flags))
        return 0;
    return runBenchDynamic(o);
}

} // namespace awb::driver
