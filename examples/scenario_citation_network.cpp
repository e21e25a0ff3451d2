/**
 * @file
 * Citation-network scenario (the paper's §1 motivation: papers linked by
 * citations, power-law hubs): evaluates a full-scale Pubmed-like workload
 * on every design point with the round-level performance model, and
 * reports what an accelerator architect would want to know — delay,
 * utilization, hotspot severity, and how deep the physical task queues
 * would have to be.
 *
 * Run:  awbsim run citation-network [dataset]   (default pubmed)
 */

#include <algorithm>
#include <cstdio>

#include "accel/perf_model.hpp"
#include "accel/policy.hpp"
#include "common/table.hpp"
#include "driver/scenario.hpp"
#include "graph/datasets.hpp"
#include "graph/degree_dist.hpp"
#include "model/area_model.hpp"

using namespace awb;

namespace {

void
runCitationNetwork(driver::ScenarioContext &ctx)
{
    const std::string name = ctx.args.empty() ? "pubmed" : ctx.args[0];
    const DatasetSpec &spec = findDataset(name);
    WorkloadProfile prof = loadProfile(spec, ctx.seed + 6, ctx.scale);

    Count max_row = *std::max_element(prof.aRowNnz.begin(),
                                      prof.aRowNnz.end());
    std::printf("citation graph '%s': %d papers, hub cites %lld, "
                "gini %.2f\n\n",
                spec.name.c_str(), spec.nodes,
                static_cast<long long>(max_row),
                giniCoefficient(prof.aRowNnz));

    Table t({"design", "cycles", "speedup", "util", "TQ depth",
             "area (CLB)"});
    const int pes = 512;
    Cycle base = 0;
    for (const std::string d :
         {"baseline", "local-a", "local-b", "remote-c", "remote-d"}) {
        AccelConfig cfg = makePolicyConfig(d, pes, hopBase(spec));
        auto res = PerfModel(cfg).runGcn(prof);
        if (d == "baseline") base = res.totalCycles;
        std::size_t depth = 0;
        for (const auto &layer : res.layers) {
            depth = std::max(depth, layer.xw.peakQueueDepth);
            depth = std::max(depth, layer.ax.peakQueueDepth);
        }
        auto area = estimateArea(cfg, depth);
        t.addRow({PolicyRegistry::instance().get(d).label,
                  humanCount(static_cast<double>(res.totalCycles)),
                  fixed(static_cast<double>(base) /
                        static_cast<double>(res.totalCycles), 2) + "x",
                  percent(res.utilization), std::to_string(depth),
                  humanCount(area.totalClb)});
    }
    std::printf("%s", t.render().c_str());
    std::printf("\nTakeaway: runtime rebalancing converts the citation\n"
                "hubs' queueing into spread work — more speed AND smaller\n"
                "queues, i.e. less silicon.\n");
}

const driver::ScenarioRegistrar reg({
    "citation-network", "paper §1",
    "full-scale citation workload on every design (arg: dataset name)",
    runCitationNetwork});

} // namespace
