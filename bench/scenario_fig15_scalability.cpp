/**
 * @file
 * Reproduces paper Figure 15: scalability of the baseline, local-sharing,
 * and local+remote designs from 512 to 768 to 1024 PEs — utilization,
 * performance (cycles and speedup over the 512-PE baseline), and area.
 * Uses the round-level model (768 is not a power of two, which only the
 * cycle-accurate Omega path requires). Local sharing uses 1 hop (3 for
 * Nell), as in the paper.
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
runFig15(driver::ScenarioContext &ctx)
{
    const int pe_counts[3] = {512, 768, 1024};
    for (const auto &spec : paperDatasets()) {
        auto prof_p = exec::cachedProfile(spec, ctx.seed, ctx.scale);
        const WorkloadProfile &prof = *prof_p;
        std::printf("\n%s:\n", bench::datasetLabel(spec).c_str());
        Table t({"design", "PEs", "cycles", "speedup", "util",
                 "area (CLB)"});
        double base512 = 0.0;
        for (const std::string d : {"baseline", "local-a", "remote-c"}) {
            for (int pes : pe_counts) {
                AccelConfig cfg = makePolicyConfig(d, pes, hopBase(spec));
                auto res = PerfModel(cfg).runGcn(prof);
                std::size_t depth = 0;
                for (const auto &layer : res.layers) {
                    depth = std::max(depth, layer.xw.peakQueueDepth);
                    depth = std::max(depth, layer.ax.peakQueueDepth);
                }
                auto area = estimateArea(cfg, depth);
                if (d == "baseline" && pes == 512)
                    base512 = static_cast<double>(res.totalCycles);
                t.addRow({PolicyRegistry::instance().get(d).label,
                          std::to_string(pes),
                          humanCount(static_cast<double>(res.totalCycles)),
                          fixed(base512 /
                                static_cast<double>(res.totalCycles), 2) +
                              "x",
                          percent(res.utilization),
                          humanCount(area.totalClb)});
            }
        }
        std::printf("%s", t.render().c_str());
    }
    std::printf(
        "\nShape targets (paper §5.3): baseline utilization DROPS as PEs\n"
        "grow (fewer rows per PE expose the imbalance); the rebalanced\n"
        "designs hold utilization nearly flat, so their performance scales\n"
        "almost linearly in PE count.\n");
}

const driver::ScenarioRegistrar reg({
    "fig15-scalability", "Figure 15",
    "scalability over 512/768/1024 PEs per design", runFig15});

} // namespace
