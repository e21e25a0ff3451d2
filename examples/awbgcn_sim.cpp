/**
 * @file
 * Command-line simulator driver: run any dataset x design x PE-count
 * configuration in either fidelity and print a full report (per-SPMM
 * cycles, utilization, Fig. 10-style per-PE heat maps, latency/energy at
 * the design's clock), optionally saving/restoring the auto-tuned row map.
 *
 * Usage:
 *   awbgcn_sim [--dataset cora|citeseer|pubmed|nell|reddit]
 *              [--design POLICY] [--pes N] [--scale S]
 *              [--mode model|cycle] [--seed N]
 *              [--save-map FILE] [--load-map FILE]
 *
 * `--design` takes any registered balance policy or alias (base, a, b,
 * c, d, eie, work-steal, ...; `awbsim --list-designs` shows them all).
 * `--mode model` (default) runs the round-level performance model at any
 * scale; `--mode cycle` runs the cycle-accurate engine (use --scale to
 * keep it tractable). Flags are parsed from one table, like every awbsim
 * command's (driver/cli.hpp): a malformed number or an unknown mode is
 * fatal.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "accel/gcn_accel.hpp"
#include "accel/perf_model.hpp"
#include "accel/policy.hpp"
#include "accel/report.hpp"
#include "common/log.hpp"
#include "common/text.hpp"
#include "driver/cli.hpp"
#include "gcn/reference.hpp"
#include "graph/datasets.hpp"
#include "model/energy_model.hpp"

using namespace awb;

namespace {

enum class Mode
{
    Model,  ///< round-level performance model, any scale
    Cycle,  ///< cycle-accurate engine
};

Mode
parseMode(const std::string &s)
{
    if (s == "model") return Mode::Model;
    if (s == "cycle") return Mode::Cycle;
    fatal("unknown --mode '" + s + "' — did you mean '" +
          nearestOf(s, {"model", "cycle"}) + "'? (model|cycle)");
}

std::string
modeName(Mode m)
{
    return m == Mode::Cycle ? "cycle" : "model";
}

struct Options
{
    std::string dataset = "cora";
    std::string design = "remote-d";
    int pes = 512;
    double scale = 1.0;
    Mode mode = Mode::Model;
    std::uint64_t seed = 1;
    std::string saveMap;
    std::string loadMap;
    bool help = false;
};

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    const std::vector<driver::Flag> flags = {
        driver::text({"--dataset"}, "D", opt.dataset, "registered dataset",
                     driver::checkDataset),
        driver::text({"--design"}, "P", opt.design,
                     "balance policy or alias", driver::resolvePolicy),
        driver::number({"--pes"}, "N", opt.pes, "PE-array size", 1),
        driver::number({"--scale"}, "S", opt.scale,
                       "dataset node-count scale"),
        driver::choice({"--mode"}, "M", opt.mode, "model or cycle",
                       parseMode, modeName),
        driver::number({"--seed"}, "N", opt.seed, "global seed"),
        driver::text({"--save-map"}, "FILE", opt.saveMap,
                     "save the tuned adjacency row map"),
        driver::text({"--load-map"}, "FILE", opt.loadMap,
                     "load a saved row map"),
        driver::toggle({"--help", "-h"}, opt.help, "print this help")};
    const char *summary = "Run one dataset x design x PE-count "
                          "configuration and print its report.";
    driver::CommandLine("awbgcn_sim",
                        std::vector<std::string>(argv + 1, argv + argc))
        .bind(summary, flags);
    if (opt.help) {
        std::printf("usage: awbgcn_sim [options]\n    %s\n%s", summary,
                    driver::flagUsage(flags).c_str());
        std::exit(0);
    }
    return opt;
}

void
printSpmm(const char *name, Cycle cycles, double util, Count tasks,
          const std::vector<Count> &pe_tasks)
{
    std::printf("  %-12s %10lld cycles  util %5.1f%%  %10lld MACs\n",
                name, static_cast<long long>(cycles), util * 100.0,
                static_cast<long long>(tasks));
    std::printf("    PE heat %s\n", utilizationHeatmap(pe_tasks).c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    const DatasetSpec &spec = findDataset(opt.dataset);
    AccelConfig cfg = makePolicyConfig(opt.design, opt.pes, hopBase(spec));

    std::printf("AWB-GCN simulator — %s on %s (%d PEs, scale %.2f, %s)\n",
                PolicyRegistry::instance().get(opt.design).label.c_str(),
                spec.name.c_str(), opt.pes, opt.scale,
                opt.mode == Mode::Cycle ? "cycle-accurate" : "round model");

    Cycle total = 0;
    Count tasks = 0;
    if (opt.mode == Mode::Cycle) {
        Dataset ds = loadSynthetic(spec, opt.seed, opt.scale);
        GcnModel model =
            makeGcnModel(ds.spec.f1, ds.spec.f2, ds.spec.f3, opt.seed);
        GcnRunResult run = runGcn(cfg, ds, model);
        auto golden = inferGcn(ds, model);
        for (std::size_t l = 0; l < run.layers.size(); ++l) {
            std::printf("layer %zu:\n", l + 1);
            const auto &lr = run.layers[l];
            printSpmm("X*W", lr.xw.cycles, lr.xw.utilization, lr.xw.tasks,
                      lr.xw.perPeTasks);
            printSpmm("A*(XW)", lr.ax.cycles, lr.ax.utilization,
                      lr.ax.tasks, lr.ax.perPeTasks);
            std::printf("  pipelined: %lld cycles\n",
                        static_cast<long long>(lr.pipelinedCycles));
        }
        total = run.totalCycles;
        tasks = run.totalTasks;
        std::printf("functional check vs golden model: max err %.2e\n",
                    run.output.maxAbsDiff(golden.output));
    } else {
        WorkloadProfile prof = loadProfile(spec, opt.seed, opt.scale);
        PerfModel model(cfg);
        PerfGcnResult run = model.runGcn(prof);
        for (std::size_t l = 0; l < run.layers.size(); ++l) {
            std::printf("layer %zu:\n", l + 1);
            const auto &lr = run.layers[l];
            printSpmm("X*W", lr.xw.cycles, lr.xw.utilization, lr.xw.tasks,
                      lr.xw.perPeTasks);
            printSpmm("A*(XW)", lr.ax.cycles, lr.ax.utilization,
                      lr.ax.tasks, lr.ax.perPeTasks);
            std::printf("  pipelined: %lld cycles\n",
                        static_cast<long long>(lr.pipelinedCycles));
        }
        total = run.totalCycles;
        tasks = run.totalTasks;
    }

    const double mhz = policyClockMhz(cfg);
    auto energy = evaluateEnergy(total, tasks, mhz);
    std::printf("\ntotal: %lld cycles -> %.4f ms at %g MHz, "
                "%.3g inferences/kJ\n",
                static_cast<long long>(total), energy.latencyMs, mhz,
                energy.inferencesPerKj);

    // Row-map persistence demo: save/restore a tuned adjacency map.
    if (!opt.saveMap.empty()) {
        RowPartition part(spec.nodes, cfg.numPes, cfg.mapPolicy);
        WorkloadProfile prof = loadProfile(spec, opt.seed, opt.scale);
        PerfModel(cfg).runSpmm(prof.aRowNnz, spec.f2, part);
        savePartitionFile(opt.saveMap, part);
        std::printf("tuned adjacency row map saved to %s\n",
                    opt.saveMap.c_str());
    }
    if (!opt.loadMap.empty()) {
        RowPartition part = loadPartitionFile(opt.loadMap);
        std::printf("row map loaded: %d rows over %d PEs\n", part.rows(),
                    part.numPes());
    }
    return 0;
}
