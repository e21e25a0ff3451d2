/**
 * @file
 * Graph-analytics kernel study (not a paper figure — the paper runs
 * GCN inference only): BFS and PageRank as iterated sparse-output
 * SpGEMMs on the AWB array (DESIGN.md §11). Prints the per-iteration
 * frontier-size and cycle curves under the static baseline and the
 * Design(D) rebalancer, showing when dynamic rebalancing of a
 * frontier workload helps (PageRank's all-hot frontier) and when it
 * hurts (BFS's shifting frontiers pay migration for structure that is
 * gone next level).
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "accel/policy.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "driver/scenario.hpp"
#include "exec/workload_cache.hpp"
#include "graph/datasets.hpp"
#include "kernels/bfs.hpp"
#include "kernels/pagerank.hpp"

using namespace awb;

namespace {

driver::Json
iterationCurve(const kernels::FrontierRunStats &stats)
{
    driver::Json curve = driver::Json::array();
    for (const auto &it : stats.iterations) {
        driver::Json p = driver::Json::object();
        p.set("frontier", it.frontierNnz);
        p.set("cycles", it.cycles);
        p.set("tasks", it.tasks);
        p.set("rows_switched", it.rowsSwitched);
        curve.push(std::move(p));
    }
    return curve;
}

void
runGraphKernels(driver::ScenarioContext &ctx)
{
    const DatasetSpec &spec = findDataset("cora");
    auto a_p = exec::cachedAdjacency(spec, ctx.seed, ctx.scale);
    const CscMatrix &a = *a_p;
    const std::vector<std::string> policies = {"baseline", "remote-d"};
    const int pes = 64;

    std::printf("%s, %d PEs, frontier kernels (DESIGN.md §11)\n",
                bench::datasetLabel(spec).c_str(), pes);

    driver::Json jkernels = driver::Json::object();
    for (const std::string kernel : {"bfs", "pagerank"}) {
        std::printf("\n%s:\n", kernel.c_str());
        Table t({"design", "iters", "cycles", "tasks", "switched",
                 "peak frontier"});
        driver::Json jpolicies = driver::Json::object();
        for (const auto &policy : policies) {
            AccelConfig cfg = makePolicyConfig(policy, pes, hopBase(spec));
            kernels::FrontierRunStats stats;
            if (kernel == "bfs") {
                stats = kernels::runBfs(cfg, a, /*source=*/0).stats;
            } else {
                stats = kernels::runPagerank(cfg, a, /*damping=*/0.85,
                                             /*tol=*/1e-6,
                                             /*maxIters=*/200)
                            .stats;
            }
            Count peak = 0;
            for (const auto &it : stats.iterations)
                peak = std::max(peak, it.frontierNnz);
            t.addRow({PolicyRegistry::instance().get(policy).label,
                      std::to_string(stats.iterations.size()),
                      humanCount(static_cast<double>(stats.cycles)),
                      humanCount(static_cast<double>(stats.tasks)),
                      std::to_string(stats.rowsSwitched),
                      std::to_string(peak)});

            driver::Json jp = driver::Json::object();
            jp.set("cycles", stats.cycles);
            jp.set("tasks", stats.tasks);
            jp.set("rows_switched", stats.rowsSwitched);
            jp.set("iterations", iterationCurve(stats));
            jpolicies.set(policy, std::move(jp));
        }
        std::printf("%s", t.render().c_str());
        jkernels.set(kernel, std::move(jpolicies));
    }
    ctx.result.set("dataset", spec.name);
    ctx.result.set("pes", pes);
    ctx.result.set("kernels", std::move(jkernels));
    std::printf(
        "\nShape targets: BFS frontiers ramp up then collapse in a few\n"
        "levels, so most iterations are tiny and rebalancing has little\n"
        "to amortize against; PageRank processes the full vertex set\n"
        "every iteration, the workload the rebalancer was built for.\n");
}

const driver::ScenarioRegistrar reg({
    "graph-kernels", "extension",
    "BFS/PageRank frontier SpGEMM kernels (DESIGN.md §11)",
    runGraphKernels});

} // namespace
