/**
 * @file
 * Reproduces paper Figure 14 (K-O): hardware-resource consumption of the
 * five designs, normalized to CLB-equivalents and split the way the paper
 * plots it — task-queue buffering (sized by the worst occupancy the
 * workload produces) versus all other logic (constant per design up to
 * the small rebalancing-logic overheads). Also reports the Nell TQ-depth
 * headline (paper: 65128 slots baseline -> 2675 with Design(D)).
 */

#include <cstdio>

#include "accel/perf_model.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "driver/scenario.hpp"
#include "exec/workload_cache.hpp"
#include "model/area_model.hpp"

using namespace awb;

namespace {

void
runFig14Resources(driver::ScenarioContext &ctx)
{
    for (const auto &spec : paperDatasets()) {
        auto prof_p = exec::cachedProfile(spec, ctx.seed, ctx.scale);
        const WorkloadProfile &prof = *prof_p;
        std::printf("\n%s:\n", bench::datasetLabel(spec).c_str());
        Table t({"design", "peak TQ depth", "TQ CLB", "other CLB",
                 "total CLB", "vs baseline"});
        double base_total = 0.0;
        for (const std::string &d : bench::kFig14Designs) {
            AccelConfig cfg = makePolicyConfig(d, 512, hopBase(spec));
            auto res = PerfModel(cfg).runGcn(prof);
            std::size_t depth = 0;
            for (const auto &layer : res.layers) {
                depth = std::max(depth, layer.xw.peakQueueDepth);
                depth = std::max(depth, layer.ax.peakQueueDepth);
            }
            auto area = estimateArea(cfg, depth);
            if (d == "baseline") base_total = area.totalClb;
            t.addRow({PolicyRegistry::instance().get(d).label,
                      std::to_string(depth),
                      humanCount(area.tqClb), humanCount(area.otherClb),
                      humanCount(area.totalClb),
                      percent(area.totalClb / base_total)});
        }
        std::printf("%s", t.render().c_str());
    }
    std::printf(
        "\nShape targets: rebalancing shrinks the TQ component sharply\n"
        "(NELL most of all) while the added logic costs just 2.7/4.3/1.9%%\n"
        "(1-hop/2-hop/remote), so total area goes DOWN versus the baseline\n"
        "on the imbalanced datasets.\n");
}

const driver::ScenarioRegistrar reg({
    "fig14-resources", "Figure 14 K-O",
    "hardware resources (CLB-equivalents, 512 PEs)", runFig14Resources});

} // namespace
