/**
 * @file
 * Implementation of `awbsim --bench-spgemm`: the BFS/PageRank
 * graph-kernel benchmark producing the tracked BENCH_spgemm.json
 * document. See DESIGN.md §11 for the sparse-output SpGEMM cost model,
 * the frontier-kernel semantics and the rebalance-verdict methodology the
 * gates here enforce.
 */

#include <chrono>
#include <cmath>

#include "accel/policy.hpp"
#include "driver/bench.hpp"
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
    const std::vector<std::string> policies = withBaseline(opts.policies);

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

    BenchDoc doc("bench-spgemm",
                 {{"schema", "awbsim-bench-spgemm-v1"},
                  {"dataset", spec.name},
                  {"pes", opts.pes},
                  {"seed", opts.seed},
                  {"scale", opts.scale},
                  {"source", opts.source},
                  {"damping", opts.damping},
                  {"tol", opts.tol},
                  {"platform", opts.platform}},
                 {"kernel", "design", "iters", "cycles", "vs base",
                  "switched", "bytes", "verdict"});
    bool &deterministic = doc.gate("deterministic");
    bool &engines_identical = doc.gate("engines_identical");
    bool &functional_ok = doc.gate("functional_ok");
    bool &model_traffic_ok = doc.gate("model_traffic_ok");
    Json verdicts = Json::object();
    for (const std::string kernel : {"bfs", "pagerank"}) {
        Cycle baseline_cycles = 0;
        Json kernel_verdicts = Json::object();
        for (const auto &policy : policies) {
            AccelConfig cfg =
                makePolicyConfig(policy, opts.pes, hopBase(spec));
            cfg.platform = opts.platform;
            cfg.engine = EngineKind::Event;

            const auto t0 = std::chrono::steady_clock::now();
            KernelRun ev = runOnce(kernel, cfg);
            const double wall_ms =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();

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

            const kernels::FrontierRunStats &st = ev.stats;
            std::vector<Count> frontier;    // per-iteration non-zeros
            std::vector<Cycle> iter_cycles; // per-iteration system cycles
            for (const auto &it : st.iterations) {
                frontier.push_back(it.frontierNnz);
                iter_cycles.push_back(it.cycles);
            }
            double vs_baseline = 1.0;  // cycles / same-kernel baseline
            std::string verdict = "baseline";
            if (policy == "baseline") {
                baseline_cycles = st.totalCycles;
            } else if (baseline_cycles > 0) {
                vs_baseline = static_cast<double>(st.totalCycles) /
                              static_cast<double>(baseline_cycles);
                verdict = verdictOf(st.totalCycles, baseline_cycles);
            }
            kernel_verdicts.set(policy, verdict);

            const auto iterations = static_cast<Count>(frontier.size());
            doc.point(
                Json::object(
                    {{"kernel", kernel},
                     {"policy", policy},
                     {"iterations", iterations},
                     {"cycles", st.totalCycles},
                     {"tasks", st.totalTasks},
                     {"rows_switched", st.rowsSwitched},
                     {"frontier", Json::array(frontier)},
                     {"iter_cycles", Json::array(iter_cycles)},
                     {"bytes_total", st.traffic.total()},
                     {"b_row_bytes", st.traffic.bRowBytes},
                     {"output_index_bytes", st.traffic.outputIndexBytes},
                     {"migration_bytes", st.traffic.migrationBytes},
                     {"cycles_vs_baseline", vs_baseline},
                     {"verdict", verdict},
                     {"wall_ms", wall_ms}}),
                {kernel, PolicyRegistry::instance().get(policy).label,
                 std::to_string(iterations),
                 humanCount(static_cast<double>(st.totalCycles)),
                 fixed(vs_baseline, 3) + "x",
                 std::to_string(st.rowsSwitched),
                 humanCount(static_cast<double>(st.traffic.total())),
                 verdict});
        }
        verdicts.set(kernel, std::move(kernel_verdicts));
    }
    doc.summary().set("verdicts", std::move(verdicts));
    return doc.finish(opts.jsonPath);
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
        text({"--json"}, "FILE", o.jsonPath,
             "output ('-' = stdout, no table)")};
    if (!cl.bind("BFS and PageRank as iterated SpGEMMs across the policy "
                 "axis with a helps/hurts verdict each; exits 1 on a "
                 "determinism, engine, functional or traffic gate.",
                 flags))
        return 0;
    return runBenchSpgemm(o);
}

} // namespace awb::driver
