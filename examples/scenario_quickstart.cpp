/**
 * @file
 * Quickstart: build a small synthetic power-law graph, run 2-layer GCN
 * inference on the cycle-accurate AWB-GCN accelerator, validate the result
 * against the software golden model, and compare the baseline design with
 * Design(D) (2-hop local sharing + remote switching).
 *
 * Run:  awbsim run quickstart
 */

#include <cstdio>

#include "accel/gcn_accel.hpp"
#include "accel/policy.hpp"
#include "driver/scenario.hpp"
#include "gcn/reference.hpp"
#include "graph/datasets.hpp"

using namespace awb;

namespace {

void
runQuickstart(driver::ScenarioContext &ctx)
{
    // 1. A Cora-like dataset at 20% scale (fast enough for the
    //    cycle-accurate engine; use loadProfile + PerfModel for
    //    full-scale studies).
    Dataset ds = loadSyntheticByName("cora", ctx.seed + 41, 0.2 * ctx.scale);
    std::printf("dataset: %s, %d nodes, %lld adjacency non-zeros\n",
                ds.spec.name.c_str(), ds.spec.nodes,
                static_cast<long long>(ds.adjacency.nnz()));

    // 2. A 2-layer GCN with Glorot-initialized weights.
    GcnModel model =
        makeGcnModel(ds.spec.f1, ds.spec.f2, ds.spec.f3, ctx.seed + 41);

    // 3. Software golden inference.
    InferenceResult golden = inferGcn(ds, model);

    // 4. Run the cycle-accurate accelerator in two configurations.
    for (const char *policy : {"baseline", "remote-d"}) {
        GcnRunResult run =
            runGcn(makePolicyConfig(policy, /*num_pes=*/64), ds, model);

        double err = run.output.maxAbsDiff(golden.output);
        std::printf("\n%s (64 PEs):\n",
                    PolicyRegistry::instance().get(policy).label.c_str());
        std::printf("  total cycles (pipelined): %lld\n",
                    static_cast<long long>(run.totalCycles));
        std::printf("  PE utilization:           %.1f%%\n",
                    run.utilization * 100.0);
        std::printf("  max |output - golden|:    %.2e  (%s)\n", err,
                    err < 1e-3 ? "PASS" : "FAIL");
        for (std::size_t l = 0; l < run.layers.size(); ++l) {
            std::printf("  layer %zu: X*W %lld cycles, A*(XW) %lld cycles, "
                        "pipelined %lld\n",
                        l + 1,
                        static_cast<long long>(run.layers[l].xw.cycles),
                        static_cast<long long>(run.layers[l].ax.cycles),
                        static_cast<long long>(
                            run.layers[l].pipelinedCycles));
        }
    }
    std::printf("\nDesign(D) should finish in noticeably fewer cycles at "
                "higher PE utilization.\n");
}

const driver::ScenarioRegistrar reg({
    "quickstart", "walk-through",
    "cycle-accurate baseline vs Design(D) on a small Cora-like graph",
    runQuickstart});

} // namespace
