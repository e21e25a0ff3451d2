/**
 * @file
 * Implementation of `awbsim --bench-engine`: the event-vs-batched
 * cycle-engine benchmark producing the tracked BENCH_engine.json perf
 * baseline. See DESIGN.md §6 for why the two engines are bit-identical on
 * every timing statistic and why the batched one is the only way to run
 * Reddit-scale cycle sweeps.
 */

#include <cstdio>
#include <optional>

#include "common/log.hpp"
#include "common/table.hpp"
#include "driver/bench.hpp"
#include "driver/json.hpp"
#include "exec/run.hpp"
#include "exec/workload_cache.hpp"
#include "graph/datasets.hpp"

namespace awb::driver {

namespace {

/** Grid axes and knobs of one benchmark run. */
struct Options
{
    std::vector<std::string> datasets = {"cora", "citeseer", "pubmed"};
    std::vector<int> peCounts = {64, 256};
    std::vector<std::string> policies = {"baseline", "remote-d"};
    /** Dense-operand column count (rounds). One uniform K makes engine
     *  wall-clocks comparable across datasets; 64 is the Reddit/Nell
     *  hidden dimension, the scale the batched engine exists for. */
    Index k = 64;
    /** When > 0, append a Reddit point at this PE count, run on the
     *  batched engine only. */
    int redditPes = 0;
    std::string redditPolicy = "remote-d";
    std::uint64_t seed = 1;
    double scale = 1.0;
    std::string jsonPath = "BENCH_engine.json";
};

/** One engine's run of one grid point. */
struct EngineRun
{
    double wallMs = 0.0;
    Cycle cycles = 0;
    Count tasks = 0;
    Count rowsSwitched = 0;
    Count convergedRound = -1;
    Count rounds = 0;
    Count roundsSimulated = 0;
};

/** One dataset × PEs × policy point (event run absent for batched-only). */
struct BenchPoint
{
    std::string dataset;
    int pes = 0;
    std::string policy;
    Index nodes = 0;
    Count nnz = 0;
    std::optional<EngineRun> event;
    EngineRun batched;
    bool identical = true;  ///< event/batched stats agreed bit for bit
    double speedup = 0.0;   ///< event wall / batched wall (0 if no event)
};

/** One TDQ-2 engine run through the execution core (exec/run.hpp): the
 *  core's wallMs times only the engine execution, exactly what this
 *  bench has always measured (synthesis, the B fill and the partition
 *  build stay outside the clock). */
EngineRun
runOnce(const std::string &dataset, int pes, const std::string &policy,
        EngineKind engine, const Options &opts)
{
    exec::RunRequest req;
    req.dataset = dataset;
    req.policy = policy;
    req.pes = pes;
    req.mode = exec::Mode::SpmmTdq2;
    req.engine = engine;
    req.seed = opts.seed;
    req.scale = opts.scale;
    req.denseCols = opts.k;
    exec::RunResult r = exec::run(req);
    if (!r.ok)
        fatal("--bench-engine " + dataset + "@" + std::to_string(pes) +
              " " + policy + ": " + r.error);
    EngineRun run;
    run.wallMs = r.wallMs;
    run.cycles = r.cycles;
    run.tasks = r.tasks;
    run.rowsSwitched = r.rowsSwitched;
    run.convergedRound = r.convergedRound;
    run.rounds = r.rounds;
    run.roundsSimulated = r.roundsSimulated;
    return run;
}

BenchPoint
runPoint(const std::string &dataset, const DatasetSpec &spec, int pes,
         const std::string &policy, bool with_event,
         const Options &opts)
{
    BenchPoint pt;
    pt.dataset = dataset;
    pt.pes = pes;
    pt.policy = policy;
    auto adj = exec::WorkloadCache::instance().adjacency(spec, opts.seed,
                                                         opts.scale);
    pt.nodes = adj->rows();
    pt.nnz = adj->nnz();

    if (with_event)
        pt.event = runOnce(dataset, pes, policy, EngineKind::Event, opts);
    pt.batched = runOnce(dataset, pes, policy, EngineKind::Batched, opts);

    if (pt.event) {
        pt.identical = pt.event->cycles == pt.batched.cycles &&
                       pt.event->tasks == pt.batched.tasks &&
                       pt.event->rowsSwitched == pt.batched.rowsSwitched &&
                       pt.event->convergedRound ==
                           pt.batched.convergedRound;
        pt.speedup = pt.batched.wallMs > 0.0
            ? pt.event->wallMs / pt.batched.wallMs
            : 0.0;
    }
    return pt;
}

Json
engineJson(const EngineRun &run)
{
    Json j = Json::object();
    j.set("wall_ms", run.wallMs);
    j.set("cycles", run.cycles);
    j.set("tasks", run.tasks);
    j.set("rows_switched", run.rowsSwitched);
    j.set("converged_round", run.convergedRound);
    j.set("rounds", run.rounds);
    j.set("rounds_simulated", run.roundsSimulated);
    return j;
}

int
runBenchEngine(const Options &opts)
{
    std::vector<BenchPoint> points;

    for (const std::string &dataset : opts.datasets) {
        const DatasetSpec &spec = findDataset(dataset);
        for (int pes : opts.peCounts) {
            for (const std::string &policy : opts.policies) {
                std::fprintf(stderr, "bench-engine: %s @ %d PEs %s ...\n",
                             dataset.c_str(), pes, policy.c_str());
                points.push_back(runPoint(dataset, spec, pes, policy,
                                          /*with_event=*/true, opts));
            }
        }
    }

    if (opts.redditPes > 0) {
        const DatasetSpec &spec = findDataset("reddit");
        std::fprintf(stderr,
                     "bench-engine: reddit @ %d PEs %s (batched only, "
                     "%d nodes) ...\n",
                     opts.redditPes, opts.redditPolicy.c_str(), spec.nodes);
        points.push_back(runPoint("reddit", spec, opts.redditPes,
                                  opts.redditPolicy, /*with_event=*/false,
                                  opts));
    }

    // --- Table.
    Table t({"dataset", "PEs", "policy", "nnz", "event(ms)", "batched(ms)",
             "speedup", "cycles", "rounds sim", "identical"});
    bool all_identical = true;
    for (const BenchPoint &p : points) {
        all_identical = all_identical && p.identical;
        t.addRow({p.dataset, std::to_string(p.pes), p.policy,
                  humanCount(static_cast<double>(p.nnz)),
                  p.event ? fixed(p.event->wallMs, 1) : "-",
                  fixed(p.batched.wallMs, 1),
                  p.event ? fixed(p.speedup, 1) + "x" : "-",
                  humanCount(static_cast<double>(p.batched.cycles)),
                  std::to_string(p.batched.roundsSimulated) + "/" +
                      std::to_string(p.batched.rounds),
                  p.event ? (p.identical ? "yes" : "NO") : "n/a"});
    }
    std::printf("%s", t.render().c_str());

    // --- Headline perf-trajectory number: the largest event-vs-batched
    // config (nodes × PEs), aggregated over every policy run at that
    // size so slow-converging policies (whose rounds mostly have to be
    // event-stepped either way) cannot be cherry-picked away.
    const BenchPoint *largest = nullptr;
    for (const BenchPoint &p : points) {
        if (!p.event) continue;
        if (largest == nullptr ||
            static_cast<double>(p.nodes) * p.pes >
                static_cast<double>(largest->nodes) * largest->pes)
            largest = &p;
    }
    double largest_event_ms = 0.0;
    double largest_batched_ms = 0.0;
    double largest_speedup = 0.0;
    if (largest != nullptr) {
        for (const BenchPoint &p : points) {
            if (!p.event || p.dataset != largest->dataset ||
                p.pes != largest->pes)
                continue;
            largest_event_ms += p.event->wallMs;
            largest_batched_ms += p.batched.wallMs;
        }
        largest_speedup = largest_batched_ms > 0.0
            ? largest_event_ms / largest_batched_ms
            : 0.0;
        std::printf("largest paired config %s @ %d PEs (all policies): "
                    "%.1fx batched speedup\n",
                    largest->dataset.c_str(), largest->pes,
                    largest_speedup);
    }

    // --- JSON document.
    Json doc = Json::object();
    doc.set("schema", "awbsim-bench-engine-v1");
    doc.set("seed", opts.seed);
    doc.set("scale", opts.scale);
    doc.set("k", opts.k);
    Json arr = Json::array();
    for (const BenchPoint &p : points) {
        Json j = Json::object();
        j.set("dataset", p.dataset);
        j.set("pes", p.pes);
        j.set("policy", p.policy);
        j.set("nodes", p.nodes);
        j.set("nnz", p.nnz);
        j.set("k", opts.k);
        if (p.event) {
            j.set("event", engineJson(*p.event));
            j.set("speedup", p.speedup);
            j.set("identical", p.identical);
        }
        j.set("batched", engineJson(p.batched));
        arr.push(std::move(j));
    }
    doc.set("points", std::move(arr));
    Json summary = Json::object();
    if (largest != nullptr) {
        Json l = Json::object();
        l.set("dataset", largest->dataset);
        l.set("pes", largest->pes);
        l.set("event_wall_ms", largest_event_ms);
        l.set("batched_wall_ms", largest_batched_ms);
        l.set("speedup", largest_speedup);
        summary.set("largest_paired_config", std::move(l));
    }
    summary.set("all_identical", all_identical);
    doc.set("summary", std::move(summary));

    writeDoc(doc, opts.jsonPath, "bench-engine");
    return gateExit("bench-engine", {{"all_identical", all_identical}});
}

} // namespace

int
runBenchEngineCli(CommandLine &cl)
{
    Options o;
    const std::vector<Flag> flags = {
        texts({"--datasets"}, "a,b,..", o.datasets, "paired grid datasets",
              checkDataset),
        numbers({"--pes"}, "n1,n2,..", o.peCounts, "paired grid PE sizes"),
        texts({"--policies"}, "p1,..", o.policies,
              "policies run at every size", resolvePolicy),
        number({"--k"}, "N", o.k, "dense-operand columns", 1),
        number({"--reddit-pes"}, "N", o.redditPes,
               "add Reddit at N PEs, batched engine only (0 = skip)"),
        text({"--reddit-policy"}, "P", o.redditPolicy,
             "policy of the Reddit point", resolvePolicy),
        number({"--seed"}, "N", o.seed, "global seed"),
        number({"--scale"}, "S", o.scale, "dataset node-count scale"),
        text({"--json"}, "FILE", o.jsonPath, "output ('-' = stdout)")};
    if (!cl.bind("Event vs round-batched cycle engines on the TDQ-2 SPMM "
                 "(wall clock and simulated cycles per dataset x PE x "
                 "policy); exits 1 if the engines disagree.",
                 flags))
        return 0;
    return runBenchEngine(o);
}

} // namespace awb::driver
