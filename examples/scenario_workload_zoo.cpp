/**
 * @file
 * Workload zoo: compose GraphSAGE-mean, GIN and a 2-hop GCN as workload
 * graphs, execute each through one sim::Session per design point, and
 * validate every cycle-accurate output against the dense software
 * reference (referenceEval). Demonstrates the Session API end to end:
 * builder-composed DAGs, automatic row-map carrying per sparse operand,
 * chained-SPMM column pipelining and StatsSink reporting.
 *
 * Run:  awbsim run workload-zoo [dataset]   (default cora)
 */

#include <cstdio>

#include "accel/policy.hpp"
#include "common/log.hpp"
#include "driver/scenario.hpp"
#include "gcn/model.hpp"
#include "graph/datasets.hpp"
#include "sim/factories.hpp"
#include "sim/session.hpp"

using namespace awb;

namespace {

void
runWorkloadZoo(driver::ScenarioContext &ctx)
{
    std::string name = ctx.args.empty() ? "cora" : ctx.args[0];
    const DatasetSpec &spec = findDataset(name);
    double scale = (spec.nodes > 10000 ? 0.01 : 0.05) * ctx.scale;
    Dataset ds = loadSynthetic(spec, ctx.seed + 7, scale);
    GcnModel gcn = makeGcnModel(ds.spec.f1, ds.spec.f2, ds.spec.f3,
                                ctx.seed + 7);

    std::vector<sim::WorkloadBundle> zoo;
    zoo.push_back(sim::buildGraphSage(ds, ds.spec.f2, ds.spec.f3,
                                      /*meanAggregate=*/true, ctx.seed));
    zoo.push_back(sim::buildGraphSage(ds, ds.spec.f2, ds.spec.f3,
                                      /*meanAggregate=*/false, ctx.seed));
    zoo.push_back(sim::buildGin(ds, ds.spec.f2, ds.spec.f3, /*eps=*/0.1,
                                ctx.seed));
    zoo.push_back(sim::buildMultiHopGcn(ds, gcn, 2));

    std::printf("dataset: %s, %d nodes, %lld adjacency non-zeros\n\n",
                ds.spec.name.c_str(), ds.spec.nodes,
                static_cast<long long>(ds.adjacency.nnz()));
    std::printf("%-18s %-10s %12s %12s %8s %6s %s\n", "workload", "design",
                "pipelined", "serial", "util", "SPMMs", "exact");

    bool all_exact = true;
    for (const auto &bundle : zoo) {
        DenseMatrix golden = sim::referenceEval(bundle);
        for (const char *policy : {"baseline", "remote-d"}) {
            sim::Session session(
                makePolicyConfig(policy, 16, hopBase(ds.spec)));
            sim::CollectingSink sink;
            sim::SessionResult res =
                sim::runWorkload(session, bundle, &sink);
            double err = res.output.maxAbsDiff(golden);
            bool exact = err < 1e-3;
            all_exact = all_exact && exact;
            std::printf("%-18s %-10s %12lld %12lld %7.1f%% %6zu %s\n",
                        bundle.name.c_str(),
                        PolicyRegistry::instance().get(policy).label.c_str(),
                        static_cast<long long>(res.totalCycles),
                        static_cast<long long>(res.totalCyclesSerial),
                        res.utilization * 100.0, sink.stats.size(),
                        exact ? "PASS" : "FAIL");
        }
    }
    std::printf("\nchained SPMMs pipeline automatically: pipelined < "
                "serial on every row above.\n");
    ctx.result.set("all_exact", all_exact);
    if (!all_exact)
        fatal("workload-zoo: cycle-accurate output diverged from the "
              "dense reference");
}

const driver::ScenarioRegistrar reg({
    "workload-zoo", "Session API",
    "GraphSAGE/GIN/2-hop GCN workload graphs vs the dense reference",
    runWorkloadZoo});

} // namespace
