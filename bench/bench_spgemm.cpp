/**
 * @file
 * Implementation of `awbsim --bench-spgemm`: the BFS/PageRank
 * graph-kernel benchmark producing the tracked BENCH_spgemm.json
 * document. See DESIGN.md §11 for the sparse-output SpGEMM cost model,
 * the frontier-kernel semantics and the rebalance-verdict methodology the
 * gates here enforce.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "accel/policy.hpp"
#include "common/log.hpp"
#include "common/table.hpp"
#include "driver/bench.hpp"
#include "driver/json.hpp"
#include "exec/workload_cache.hpp"
#include "graph/datasets.hpp"
#include "kernels/bfs.hpp"
#include "kernels/pagerank.hpp"
#include "model/memory_model.hpp"

namespace awb::driver {

namespace {

/** Grid axes and knobs of one graph-kernel benchmark run. */
struct Options
{
    std::string dataset = "cora";
    /** Balance-policy axis; "baseline" is prepended when absent (the
     *  helps/hurts verdict needs its cycle count). */
    std::vector<std::string> policies = {"baseline", "local-b", "remote-c",
                                         "remote-d", "work-steal"};
    int pes = 64;             ///< PE-array size (power of two for Omega)
    Index source = 0;         ///< BFS source vertex
    double damping = 0.85;    ///< PageRank damping factor
    double tol = 1e-6;        ///< PageRank L1 convergence threshold
    Count maxIters = 200;     ///< PageRank iteration cap
    std::uint64_t seed = 1;
    double scale = 1.0;
    std::string platform = "unconstrained";
    std::string jsonPath = "BENCH_spgemm.json";
};

/** One kernel × policy point of the benchmark. */
struct SpgemmPoint
{
    std::string kernel;
    std::string policy;
    Count iterations = 0;
    Cycle cycles = 0;
    Count tasks = 0;
    Count rowsSwitched = 0;
    std::vector<Count> frontier;    ///< per-iteration frontier non-zeros
    std::vector<Cycle> iterCycles;  ///< per-iteration system cycles
    Count bytesTotal = 0;
    Count bRowBytes = 0;
    Count outputIndexBytes = 0;
    Count migrationBytes = 0;
    double cyclesVsBaseline = 1.0;  ///< cycles / same-kernel baseline
    std::string verdict = "baseline";
    double wallMs = 0.0;
};

/** One engine execution of a kernel, reduced to what the gates need. */
struct KernelRun
{
    kernels::FrontierRunStats stats;
    bool functionalOk = false;
};

bool
sameStats(const kernels::FrontierRunStats &x,
          const kernels::FrontierRunStats &y)
{
    return x.totalCycles == y.totalCycles && x.totalTasks == y.totalTasks &&
           x.rowsSwitched == y.rowsSwitched && x.rounds == y.rounds &&
           x.traffic.total() == y.traffic.total() &&
           x.memoryCycles == y.memoryCycles;
}

bool
sameTraffic(const MemoryTraffic &x, const MemoryTraffic &y)
{
    return x.sparseBytes == y.sparseBytes && x.denseBytes == y.denseBytes &&
           x.outputBytes == y.outputBytes &&
           x.migrationBytes == y.migrationBytes &&
           x.haloBytes == y.haloBytes && x.bRowBytes == y.bRowBytes &&
           x.outputIndexBytes == y.outputIndexBytes;
}

std::string
verdictOf(Cycle cycles, Cycle baseline_cycles)
{
    const double ratio = static_cast<double>(cycles) /
                         static_cast<double>(baseline_cycles);
    if (ratio < 0.99) return "helps";
    if (ratio > 1.01) return "hurts";
    return "neutral";
}

int
runBenchSpgemm(const Options &opts)
{
    const DatasetSpec &spec = findDataset(opts.dataset);
    const auto a_p = exec::cachedAdjacency(spec, opts.seed, opts.scale);
    const CscMatrix &a = *a_p;
    if (opts.source < 0 || opts.source >= a.rows())
        fatal("bench-spgemm: --source out of range for the scaled graph");

    // The verdict needs the static baseline's cycle count first.
    std::vector<std::string> policies = opts.policies;  // canonical names
    if (std::find(policies.begin(), policies.end(), "baseline") ==
        policies.end())
        policies.insert(policies.begin(), "baseline");

    const kernels::BfsResult bfs_ref = kernels::bfsReference(a, opts.source);
    const kernels::PagerankResult pr_ref = kernels::pagerankReference(
        a, opts.damping, opts.tol, opts.maxIters);

    auto runOnce = [&](const std::string &kernel,
                       const AccelConfig &cfg) -> KernelRun {
        KernelRun out;
        if (kernel == "bfs") {
            kernels::BfsRun run = kernels::runBfs(cfg, a, opts.source);
            out.stats = run.stats;
            out.functionalOk = run.result.parent == bfs_ref.parent &&
                               run.result.depth == bfs_ref.depth &&
                               run.result.frontierSizes ==
                                   bfs_ref.frontierSizes;
            return out;
        }
        kernels::PagerankRun run = kernels::runPagerank(
            cfg, a, opts.damping, opts.tol, opts.maxIters);
        out.stats = run.stats;
        double l1 = 0.0;
        for (std::size_t v = 0; v < run.result.scores.size(); ++v)
            l1 += std::fabs(
                static_cast<double>(run.result.scores[v]) -
                static_cast<double>(pr_ref.scores[v]));
        out.functionalOk = run.result.converged == pr_ref.converged &&
                           run.result.iterations == pr_ref.iterations &&
                           l1 <= 1e-6;
        return out;
    };

    bool deterministic = true;
    bool engines_identical = true;
    bool functional_ok = true;
    bool model_traffic_ok = true;
    std::vector<SpgemmPoint> points;

    Table t({"kernel", "design", "iters", "cycles", "vs base", "switched",
             "bytes", "verdict"});
    for (const std::string kernel : {"bfs", "pagerank"}) {
        Cycle baseline_cycles = 0;
        for (const auto &policy : policies) {
            AccelConfig cfg =
                makePolicyConfig(policy, opts.pes, hopBase(spec));
            cfg.platform = opts.platform;
            cfg.engine = EngineKind::Event;

            auto t0 = std::chrono::steady_clock::now();
            KernelRun ev = runOnce(kernel, cfg);
            auto t1 = std::chrono::steady_clock::now();

            // Gate 1: a second event run must reproduce the first.
            KernelRun again = runOnce(kernel, cfg);
            if (!sameStats(ev.stats, again.stats)) deterministic = false;

            // Gate 2: the batched engine must match the event engine.
            AccelConfig bcfg = cfg;
            bcfg.engine = EngineKind::Batched;
            KernelRun bat = runOnce(kernel, bcfg);
            if (!sameStats(ev.stats, bat.stats)) engines_identical = false;

            // Gate 3: functional outputs match the scalar references
            // (checked on every run above).
            if (!ev.functionalOk || !again.functionalOk ||
                !bat.functionalOk)
                functional_ok = false;

            // Gate 4: the round-level model's traffic accounting is
            // byte-equal to the engine's — provable only for static
            // policies, so gated on the baseline (DESIGN.md §11).
            if (policy == "baseline") {
                kernels::FrontierRunStats m =
                    kernel == "bfs"
                        ? kernels::modelBfs(cfg, a, opts.source)
                        : kernels::modelPagerank(cfg, a, opts.damping,
                                                 opts.tol, opts.maxIters);
                if (!sameTraffic(m.traffic, ev.stats.traffic))
                    model_traffic_ok = false;
            }

            SpgemmPoint pt;
            pt.kernel = kernel;
            pt.policy = policy;
            pt.iterations =
                static_cast<Count>(ev.stats.iterations.size());
            pt.cycles = ev.stats.totalCycles;
            pt.tasks = ev.stats.totalTasks;
            pt.rowsSwitched = ev.stats.rowsSwitched;
            for (const auto &it : ev.stats.iterations) {
                pt.frontier.push_back(it.frontierNnz);
                pt.iterCycles.push_back(it.cycles);
            }
            pt.bytesTotal = ev.stats.traffic.total();
            pt.bRowBytes = ev.stats.traffic.bRowBytes;
            pt.outputIndexBytes = ev.stats.traffic.outputIndexBytes;
            pt.migrationBytes = ev.stats.traffic.migrationBytes;
            pt.wallMs =
                std::chrono::duration<double, std::milli>(t1 - t0).count();

            if (policy == "baseline") {
                baseline_cycles = pt.cycles;
            } else if (baseline_cycles > 0) {
                pt.cyclesVsBaseline =
                    static_cast<double>(pt.cycles) /
                    static_cast<double>(baseline_cycles);
                pt.verdict = verdictOf(pt.cycles, baseline_cycles);
            }

            t.addRow({pt.kernel,
                      PolicyRegistry::instance().get(pt.policy).label,
                      std::to_string(pt.iterations),
                      humanCount(static_cast<double>(pt.cycles)),
                      fixed(pt.cyclesVsBaseline, 3) + "x",
                      std::to_string(pt.rowsSwitched),
                      humanCount(static_cast<double>(pt.bytesTotal)),
                      pt.verdict});
            points.push_back(std::move(pt));
        }
    }
    std::printf("%s", t.render().c_str());

    Json doc = Json::object();
    doc.set("schema", "awbsim-bench-spgemm-v1");
    doc.set("dataset", spec.name);
    doc.set("pes", opts.pes);
    doc.set("seed", opts.seed);
    doc.set("scale", opts.scale);
    doc.set("source", opts.source);
    doc.set("damping", opts.damping);
    doc.set("tol", opts.tol);
    doc.set("platform", opts.platform);
    Json jpoints = Json::array();
    for (const auto &pt : points) {
        Json p = Json::object();
        p.set("kernel", pt.kernel);
        p.set("policy", pt.policy);
        p.set("iterations", pt.iterations);
        p.set("cycles", pt.cycles);
        p.set("tasks", pt.tasks);
        p.set("rows_switched", pt.rowsSwitched);
        Json frontier = Json::array();
        for (Count f : pt.frontier) frontier.push(f);
        p.set("frontier", std::move(frontier));
        Json iter_cycles = Json::array();
        for (Cycle c : pt.iterCycles) iter_cycles.push(c);
        p.set("iter_cycles", std::move(iter_cycles));
        p.set("bytes_total", pt.bytesTotal);
        p.set("b_row_bytes", pt.bRowBytes);
        p.set("output_index_bytes", pt.outputIndexBytes);
        p.set("migration_bytes", pt.migrationBytes);
        p.set("cycles_vs_baseline", pt.cyclesVsBaseline);
        p.set("verdict", pt.verdict);
        p.set("wall_ms", pt.wallMs);
        jpoints.push(std::move(p));
    }
    doc.set("points", std::move(jpoints));
    Json summary = Json::object();
    summary.set("deterministic", deterministic);
    summary.set("engines_identical", engines_identical);
    summary.set("functional_ok", functional_ok);
    summary.set("model_traffic_ok", model_traffic_ok);
    Json verdicts = Json::object();
    for (const std::string kernel : {"bfs", "pagerank"}) {
        Json per = Json::object();
        for (const auto &pt : points)
            if (pt.kernel == kernel) per.set(pt.policy, pt.verdict);
        verdicts.set(kernel, std::move(per));
    }
    summary.set("verdicts", std::move(verdicts));
    doc.set("summary", std::move(summary));

    writeDoc(doc, opts.jsonPath, "bench-spgemm");
    return gateExit("bench-spgemm",
                    {{"deterministic", deterministic},
                     {"engines_identical", engines_identical},
                     {"functional_ok", functional_ok},
                     {"model_traffic_ok", model_traffic_ok}});
}

} // namespace

int
runBenchSpgemmCli(CommandLine &cl)
{
    Options o;
    const std::vector<Flag> flags = {
        text({"--dataset"}, "D", o.dataset, "graph the kernels run on",
             checkDataset),
        texts({"--policies", "--designs"}, "p1,..", o.policies,
              "policies under test (baseline is prepended if absent)",
              resolvePolicy),
        number({"--pes"}, "N", o.pes, "PE-array size", 1),
        number({"--source"}, "N", o.source, "BFS source vertex"),
        number({"--damping"}, "F", o.damping, "PageRank damping factor"),
        number({"--tol"}, "F", o.tol, "PageRank L1 convergence threshold"),
        number({"--max-iters"}, "N", o.maxIters, "PageRank iteration cap",
               1),
        number({"--seed"}, "N", o.seed, "global seed"),
        number({"--scale"}, "S", o.scale, "dataset node-count scale"),
        text({"--platform"}, "P", o.platform, "memory platform",
             resolvePlatform),
        text({"--json"}, "FILE", o.jsonPath, "output ('-' = stdout)")};
    if (!cl.bind("BFS and PageRank as iterated SpGEMMs across the policy "
                 "axis with a helps/hurts verdict each; exits 1 on a "
                 "determinism, engine, functional or traffic gate.",
                 flags))
        return 0;
    return runBenchSpgemm(o);
}

} // namespace awb::driver
