/**
 * @file
 * Multi-chip scale-out study (not a paper figure — the paper evaluates a
 * single accelerator): shards each evaluation graph across 1..16 chips
 * with the Design(D) policy and prints the scaling curve the round-level
 * model predicts — cycles, speedup over one chip, parallel efficiency,
 * halo traffic crossing the inter-chip link and the cross-chip load
 * imbalance of the row sharding (DESIGN.md §9).
 */

#include <cstdio>
#include <vector>

#include "accel/perf_model.hpp"
#include "accel/policy.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "driver/scenario.hpp"
#include "exec/workload_cache.hpp"
#include "graph/datasets.hpp"
#include "model/memory_model.hpp"

using namespace awb;

namespace {

void
runScaleOut(driver::ScenarioContext &ctx)
{
    const std::vector<int> chip_curve = {1, 2, 4, 8, 16};
    const std::string platform = "d5005-ddr4";

    std::printf("platform %s, policy remote-d, 1024 PEs per chip\n",
                platform.c_str());
    driver::Json jdatasets = driver::Json::object();
    for (const auto &spec : paperDatasets()) {
        auto prof_p = exec::cachedProfile(spec, ctx.seed, ctx.scale);
        const WorkloadProfile &prof = *prof_p;
        auto a_p = exec::cachedAdjacency(spec, ctx.seed, ctx.scale);
        const CscMatrix &a = *a_p;
        std::printf("\n%s:\n", bench::datasetLabel(spec).c_str());
        Table t({"chips", "cycles", "speedup", "efficiency", "halo MB",
                 "halo-bound", "imbalance"});
        Cycle one_chip = 0;
        driver::Json jcurve = driver::Json::array();
        for (int chips : chip_curve) {
            AccelConfig cfg =
                makePolicyConfig("remote-d", 1024, hopBase(spec));
            cfg.platform = platform;
            cfg.chips = chips;
            PerfGcnResult res = PerfModel(cfg).runGcn(prof, &a);

            if (chips == 1) one_chip = res.totalCycles;
            const double speedup =
                res.totalCycles > 0
                    ? static_cast<double>(one_chip) /
                          static_cast<double>(res.totalCycles)
                    : 0.0;
            t.addRow({std::to_string(chips),
                      humanCount(static_cast<double>(res.totalCycles)),
                      fixed(speedup, 2) + "x",
                      percent(speedup / static_cast<double>(chips)),
                      fixed(static_cast<double>(res.scaleout.haloBytes) / 1e6,
                            2),
                      std::to_string(res.scaleout.haloBoundRounds),
                      fixed(res.scaleout.chipImbalance, 3)});

            driver::Json p = driver::Json::object();
            p.set("chips", chips);
            p.set("cycles", res.totalCycles);
            p.set("speedup", speedup);
            p.set("halo_bytes", res.scaleout.haloBytes);
            p.set("chip_imbalance", res.scaleout.chipImbalance);
            jcurve.push(std::move(p));
        }
        std::printf("%s", t.render().c_str());
        jdatasets.set(spec.name, std::move(jcurve));
    }
    ctx.result.set("platform", platform);
    ctx.result.set("datasets", std::move(jdatasets));
    std::printf(
        "\nShape targets: speedup grows with the chip count but sub-linearly\n"
        "— the power-law graphs cut poorly, so halo traffic rises with\n"
        "every split while per-chip work shrinks, and the round barrier\n"
        "pays for the most-loaded chip (imbalance > 1).\n");
}

const driver::ScenarioRegistrar reg({
    "scale-out", "extension",
    "multi-chip sharding scaling curve (DESIGN.md §9)", runScaleOut});

} // namespace
