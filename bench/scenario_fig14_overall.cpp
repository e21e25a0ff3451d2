/**
 * @file
 * Reproduces paper Figure 14 (A-E): overall GCN inference delay with
 * per-layer breakdown and average PE utilization for the five designs
 * (Baseline, 1-hop, 2-hop, 1-hop+remote, 2-hop+remote; 2/3-hop for Nell)
 * on the five datasets, from the round-level model at full dataset scale.
 *
 * PE count: 512. The paper does not state Fig. 14's PE count, but its own
 * numbers pin it down: Table 3's Nell latency (8.4 ms at 275 MHz, 782M
 * ops) implies ~33% utilization at 1024 PEs, while Fig. 14 reports 77%
 * for the same design — only consistent if Fig. 14 used fewer PEs.
 * 512 (the Fig. 15 sweep's starting point) reconciles the two.
 */

#include <cstdio>
#include <array>
#include <map>

#include "accel/perf_model.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "driver/scenario.hpp"
#include "exec/workload_cache.hpp"

using namespace awb;

namespace {

void
runFig14Overall(driver::ScenarioContext &ctx)
{
    // Paper-reported overall PE utilizations (percent) for shape checks:
    // {baseline, local-1, local-2, local-1+remote, local-2+remote}.
    const std::map<std::string, std::array<int, 5>> paper_util = {
        {"cora", {53, 83, 83, 90, 90}},
        {"citeseer", {71, 83, 83, 89, 89}},
        {"pubmed", {69, 93, 93, 96, 96}},
        {"nell", {13, 44, 53, 63, 77}},
        {"reddit", {92, 99, 99, 99, 99}},
    };

    for (const auto &spec : paperDatasets()) {
        auto prof_p = exec::cachedProfile(spec, ctx.seed, ctx.scale);
        const WorkloadProfile &prof = *prof_p;
        std::printf("\n%s (%d nodes, hop base %d):\n",
                    bench::datasetLabel(spec).c_str(), spec.nodes,
                    hopBase(spec));
        Table t({"design", "L1 cycles", "L2 cycles", "total", "speedup",
                 "util (meas)", "util (paper)"});
        Cycle base_total = 0;
        const auto &paper = paper_util.at(spec.name);
        driver::Json ds_json = driver::Json::object();
        for (std::size_t d = 0; d < bench::kFig14Designs.size(); ++d) {
            const std::string &policy = bench::kFig14Designs[d];
            AccelConfig cfg = makePolicyConfig(policy, 512, hopBase(spec));
            const std::string &label =
                PolicyRegistry::instance().get(policy).label;
            auto res = PerfModel(cfg).runGcn(prof);
            if (d == 0) base_total = res.totalCycles;
            driver::Json dj = driver::Json::object();
            dj.set("cycles", res.totalCycles);
            dj.set("utilization", res.utilization);
            dj.set("paper_utilization", paper[d] / 100.0);
            ds_json.set(label, std::move(dj));
            t.addRow({label,
                      humanCount(static_cast<double>(
                          res.layers[0].pipelinedCycles)),
                      humanCount(static_cast<double>(
                          res.layers[1].pipelinedCycles)),
                      humanCount(static_cast<double>(res.totalCycles)),
                      fixed(static_cast<double>(base_total) /
                            static_cast<double>(res.totalCycles), 2) + "x",
                      percent(res.utilization),
                      std::to_string(paper[d]) + "%"});
        }
        ctx.result.set(spec.name, std::move(ds_json));
        std::printf("%s", t.render().c_str());
    }
    std::printf(
        "\nShape targets: rebalancing lifts utilization everywhere; the gain\n"
        "is mild where the baseline is already balanced (REDDIT), large on\n"
        "power-law graphs (CORA/CITESEER/PUBMED), and extreme on the\n"
        "clustered NELL; Design(D) is never slower than Design(A).\n");
}

const driver::ScenarioRegistrar reg({
    "fig14-overall", "Figure 14 A-E",
    "overall delay and PE utilization per design (512 PEs)",
    runFig14Overall});

} // namespace
