/**
 * @file
 * Reproduces paper Figure 14 (F-J): per-SPMM cycle breakdown — "Ideal"
 * cycles (perfect balance) vs "Sync" cycles (waiting at the per-column
 * barrier) — plus per-SPMM PE utilization, for the four SPMM operations of
 * the 2-layer GCN (X×W and A×(XW) in each layer) across the five designs.
 */

#include <cstdio>

#include "accel/perf_model.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "driver/scenario.hpp"
#include "exec/workload_cache.hpp"

using namespace awb;

namespace {

void
runFig14Spmm(driver::ScenarioContext &ctx)
{
    for (const auto &spec : paperDatasets()) {
        auto prof_p = exec::cachedProfile(spec, ctx.seed, ctx.scale);
        const WorkloadProfile &prof = *prof_p;
        std::printf("\n%s:\n", bench::datasetLabel(spec).c_str());
        Table t({"design", "SPMM", "ideal", "sync", "total", "util"});
        for (const std::string &d : bench::kFig14Designs) {
            AccelConfig cfg = makePolicyConfig(d, 512, hopBase(spec));
            auto res = PerfModel(cfg).runGcn(prof);
            const struct
            {
                const char *name;
                const PerfSpmmResult *r;
            } spmms[4] = {
                {"L1 X*W", &res.layers[0].xw},
                {"L1 A*(XW)", &res.layers[0].ax},
                {"L2 X*W", &res.layers[1].xw},
                {"L2 A*(XW)", &res.layers[1].ax},
            };
            for (const auto &s : spmms) {
                t.addRow({PolicyRegistry::instance().get(d).label, s.name,
                          humanCount(static_cast<double>(s.r->idealCycles)),
                          humanCount(static_cast<double>(s.r->syncCycles)),
                          humanCount(static_cast<double>(s.r->cycles)),
                          percent(s.r->utilization)});
            }
        }
        std::printf("%s", t.render().c_str());
    }
    std::printf(
        "\nShape targets (paper §5.2): the imbalance (sync share) sits in\n"
        "A*(XW) of layer 1 for CORA/CITESEER/PUBMED and of the hidden layer\n"
        "for NELL; REDDIT is nearly sync-free already; L2 X*W is dense-ish\n"
        "(post-ReLU) so its baseline utilization is high except CORA.\n");
}

const driver::ScenarioRegistrar reg({
    "fig14-spmm", "Figure 14 F-J",
    "per-SPMM ideal vs sync cycles per design (512 PEs)", runFig14Spmm});

} // namespace
