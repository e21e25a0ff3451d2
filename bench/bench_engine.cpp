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

#include "driver/bench.hpp"
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

Json
engineJson(const exec::RunResult &run)
{
    return Json::object({{"wall_ms", run.wallMs},
                         {"cycles", run.cycles},
                         {"tasks", run.tasks},
                         {"rows_switched", run.rowsSwitched},
                         {"converged_round", run.convergedRound},
                         {"rounds", run.rounds},
                         {"rounds_simulated", run.roundsSimulated}});
}

int
runBenchEngine(const Options &opts)
{
    BenchDoc doc("bench-engine",
                 {{"schema", "awbsim-bench-engine-v1"},
                  {"seed", opts.seed},
                  {"scale", opts.scale},
                  {"k", opts.k}},
                 {"dataset", "PEs", "policy", "nnz", "event(ms)",
                  "batched(ms)", "speedup", "cycles", "rounds sim",
                  "identical"});
    bool all_identical = true;
    // Headline perf-trajectory number: the largest event-vs-batched
    // config (nodes × PEs), aggregated over every policy run at that
    // size so slow-converging policies (whose rounds mostly have to be
    // event-stepped either way) cannot be cherry-picked away.
    std::string largest_dataset;
    int largest_pes = 0;
    double largest_size = -1.0;
    double largest_event_ms = 0.0;
    double largest_batched_ms = 0.0;

    // One dataset × PEs × policy point; the event run is skipped for
    // the batched-only Reddit point. Each is one TDQ-2 run through the
    // execution core (exec/run.hpp), whose wallMs times only the engine
    // execution, exactly what this bench has always measured
    // (synthesis, the B fill and the partition build stay outside).
    auto runPoint = [&](const std::string &dataset, int pes,
                        const std::string &policy, bool with_event) {
        auto adj = exec::WorkloadCache::instance().adjacency(
            findDataset(dataset), opts.seed, opts.scale);
        exec::RunRequest req;
        req.dataset = dataset;
        req.policy = policy;
        req.pes = pes;
        req.mode = exec::Mode::SpmmTdq2;
        req.seed = opts.seed;
        req.scale = opts.scale;
        req.denseCols = opts.k;
        std::optional<exec::RunResult> event;
        if (with_event) {
            req.engine = EngineKind::Event;
            event = benchRun("bench-engine", req);
        }
        req.engine = EngineKind::Batched;
        const exec::RunResult batched = benchRun("bench-engine", req);

        Json entry = Json::object({{"dataset", dataset},
                                   {"pes", pes},
                                   {"policy", policy},
                                   {"nodes", adj->rows()},
                                   {"nnz", adj->nnz()},
                                   {"k", opts.k}});
        bool identical = true;
        double speedup = 0.0;  // event wall / batched wall
        if (event) {
            identical = event->cycles == batched.cycles &&
                        event->tasks == batched.tasks &&
                        event->rowsSwitched == batched.rowsSwitched &&
                        event->convergedRound == batched.convergedRound;
            all_identical = all_identical && identical;
            speedup = batched.wallMs > 0.0 ? event->wallMs / batched.wallMs
                                           : 0.0;
            entry.set("event", engineJson(*event));
            entry.set("speedup", speedup);
            entry.set("identical", identical);

            const double size = static_cast<double>(adj->rows()) * pes;
            if (size > largest_size) {
                largest_dataset = dataset;
                largest_pes = pes;
                largest_size = size;
                largest_event_ms = largest_batched_ms = 0.0;
            }
            if (dataset == largest_dataset && pes == largest_pes) {
                largest_event_ms += event->wallMs;
                largest_batched_ms += batched.wallMs;
            }
        }
        entry.set("batched", engineJson(batched));
        doc.point(std::move(entry),
                  {dataset, std::to_string(pes), policy,
                   humanCount(static_cast<double>(adj->nnz())),
                   event ? fixed(event->wallMs, 1) : "-",
                   fixed(batched.wallMs, 1),
                   event ? fixed(speedup, 1) + "x" : "-",
                   humanCount(static_cast<double>(batched.cycles)),
                   std::to_string(batched.roundsSimulated) + "/" +
                       std::to_string(batched.rounds),
                   event ? (identical ? "yes" : "NO") : "n/a"});
    };

    for (const std::string &dataset : opts.datasets) {
        for (int pes : opts.peCounts) {
            for (const std::string &policy : opts.policies) {
                std::fprintf(stderr, "bench-engine: %s @ %d PEs %s ...\n",
                             dataset.c_str(), pes, policy.c_str());
                runPoint(dataset, pes, policy, /*with_event=*/true);
            }
        }
    }
    if (opts.redditPes > 0) {
        std::fprintf(stderr,
                     "bench-engine: reddit @ %d PEs %s (batched only, "
                     "%d nodes) ...\n",
                     opts.redditPes, opts.redditPolicy.c_str(),
                     findDataset("reddit").nodes);
        runPoint("reddit", opts.redditPes, opts.redditPolicy,
                 /*with_event=*/false);
    }

    if (largest_size >= 0.0) {
        const double speedup = largest_batched_ms > 0.0
            ? largest_event_ms / largest_batched_ms
            : 0.0;
        std::fprintf(stderr,
                     "largest paired config %s @ %d PEs (all policies): "
                     "%.1fx batched speedup\n",
                     largest_dataset.c_str(), largest_pes, speedup);
        doc.summary().set(
            "largest_paired_config",
            Json::object({{"dataset", largest_dataset},
                          {"pes", largest_pes},
                          {"event_wall_ms", largest_event_ms},
                          {"batched_wall_ms", largest_batched_ms},
                          {"speedup", speedup}}));
    }
    doc.gate("all_identical", all_identical);
    return doc.finish(opts.jsonPath);
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
               "add Reddit at N PEs, batched engine only (0 = skip)", 0),
        text({"--reddit-policy"}, "P", o.redditPolicy,
             "policy of the Reddit point", resolvePolicy),
        number({"--seed"}, "N", o.seed, "global seed"),
        number({"--scale"}, "S", o.scale, "dataset node-count scale"),
        text({"--json"}, "FILE", o.jsonPath,
             "output ('-' = stdout, no table)")};
    if (!cl.bind("Event vs round-batched cycle engines on the TDQ-2 SPMM "
                 "(wall clock and simulated cycles per dataset x PE x "
                 "policy); exits 1 if the engines disagree.",
                 flags))
        return 0;
    return runBenchEngine(o);
}

} // namespace awb::driver
