#include "driver/driver.hpp"

#include <cstdio>
#include <string>
#include <vector>

#include "accel/policy.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "driver/bench.hpp"
#include "driver/scenario.hpp"
#include "driver/serve_cli.hpp"
#include "driver/sweep.hpp"
#include "exec/workload_cache.hpp"
#include "graph/datasets.hpp"
#include "model/memory_model.hpp"

namespace awb::driver {

namespace {

void printUsage();

int
listScenarios()
{
    auto all = ScenarioRegistry::instance().all();
    std::printf("%zu scenarios:\n", all.size());
    for (const Scenario *s : all)
        std::printf("  %-24s %-16s %s\n", s->name.c_str(),
                    ("[" + s->figure + "]").c_str(), s->summary.c_str());
    return 0;
}

int
listDesigns()
{
    auto all = PolicyRegistry::instance().all();
    std::printf("%zu registered balance policies:\n", all.size());
    for (const BalancePolicy *p : all) {
        std::string aliases;
        for (const auto &a : p->aliases)
            aliases += (aliases.empty() ? "" : ",") + a;
        std::printf("  %-14s %-10s %s%s%s\n", p->name.c_str(),
                    ("[" + p->label + "]").c_str(), p->description.c_str(),
                    aliases.empty() ? "" : "  alias: ", aliases.c_str());
    }
    return 0;
}

int
listDatasets()
{
    const auto &all = paperDatasets();
    std::printf("%zu registered datasets:\n", all.size());
    for (const DatasetSpec &d : all)
        std::printf("  %-10s %8lld nodes  f1=%lld f2=%lld f3=%lld  "
                    "densityA=%g\n",
                    d.name.c_str(), static_cast<long long>(d.nodes),
                    static_cast<long long>(d.f1),
                    static_cast<long long>(d.f2),
                    static_cast<long long>(d.f3), d.densityA);
    return 0;
}

int
listPlatforms()
{
    const auto &all = knownPlatforms();
    std::printf("%zu registered platforms:\n", all.size());
    for (const PlatformSpec &p : all) {
        if (p.bandwidthGBs > 0.0)
            std::printf("  %-14s %7.1f GB/s  %s\n", p.name.c_str(),
                        p.bandwidthGBs, p.description.c_str());
        else
            std::printf("  %-14s %12s  %s\n", p.name.c_str(), "--",
                        p.description.c_str());
    }
    return 0;
}

int
runSweepCli(CommandLine &cl)
{
    SweepOptions o;
    std::string json_path = "awbsim_sweep.json";
    bool no_table = false;
    const std::vector<Flag> flags = {
        texts({"--datasets"}, "a,b,..", o.datasets, "dataset axis"),
        texts({"--designs"}, "p1,p2,..", o.designs,
              "balance-policy axis (see --list-designs)", resolvePolicy),
        numbers({"--pes"}, "n1,n2,..", o.peCounts, "PE-array sizes"),
        numbers({"--chips"}, "n1,n2,..", o.chipCounts,
                "chips the graph is row-sharded across (DESIGN.md §9)"),
        choices({"--modes"}, "m1,m2,..", o.modes,
                "model, cycle, tdq1, tdq2, graphsage, gin, khop, bfs, "
                "pagerank or churn",
                exec::parseMode, exec::modeName),
        choice({"--engine"}, "E", o.engine,
               "event or batched cycle engine (DESIGN.md §6)",
               parseEngineKind, engineKindName),
        texts({"--platforms", "--platform"}, "p1,p2,..", o.platforms,
              "memory platform axis (DESIGN.md §8)", resolvePlatform),
        number({"--scale"}, "S", o.scale, "dataset node-count scale"),
        number({"--seed"}, "N", o.seed, "global seed"),
        number({"--threads"}, "N", o.threads, "workers (0 = hardware)"),
        number({"--repeats"}, "N", o.repeats,
               "per-point repeats, checked for identical cycles"),
        text({"--json"}, "FILE", json_path, "output ('-' = stdout, no table)"),
        toggle({"--no-table"}, no_table, "suppress the result table"),
        toggle({"--progress"}, o.progress, "per-point progress on stderr")};
    if (!cl.bind("Expand a dataset x design x PE x mode x platform x chips "
                 "grid and run it on a worker pool.",
                 flags))
        return 0;

    std::vector<SweepPoint> points = expandGrid(o);
    std::fprintf(stderr, "sweep: %zu grid points, %u worker threads\n",
                 points.size(), resolveThreads(o.threads, points.size()));

    auto outcomes = runSweep(o, points);
    if (!no_table && json_path != "-")
        std::printf("%s", sweepTable(outcomes).c_str());
    writeDoc(sweepToJson(o, outcomes), json_path, "sweep");

    int failed = 0;
    for (const auto &out : outcomes)
        if (!out.ok) ++failed;
    if (failed)
        std::fprintf(stderr, "%d of %zu points failed\n", failed,
                     outcomes.size());
    return failed ? 1 : 0;
}

int
runCli(CommandLine &cl)
{
    ScenarioCli cli;
    if (!bindScenarioCli(cl, cli)) return 0;
    if (cli.help) {
        printUsage();
        return 0;
    }
    return runScenarioCli(cli);
}

/** The global execution-core flags (DESIGN.md §13). */
std::vector<Flag>
globalFlags(bool &no_cache, int &intra_threads)
{
    return {toggle({"--no-cache"}, no_cache,
                   "disable the process-wide workload and round-entry-state "
                   "caches; results are bit-identical either way"),
            number({"--intra-threads"}, "N", intra_threads,
                   "worker threads for intra-point dense SPMM loops; 0 = "
                   "hardware concurrency (deterministic at any value)")};
}

void
printUsage()
{
    bool no_cache = false;
    int intra_threads = 0;
    std::string out =
        "awbsim — AWB-GCN unified experiment driver\n\n"
        "  awbsim --list-scenarios | --list-designs | --list-platforms |\n"
        "         --list-datasets | --list-disciplines\n"
        "    List the registered scenarios, balance policies "
        "(--list-policies\n"
        "    is a synonym), memory platforms, datasets or serving batch\n"
        "    disciplines.\n\n"
        "  Global flags (any command):\n" +
        flagUsage(globalFlags(no_cache, intra_threads));
    for (const Command &c : commands()) {
        CommandLine describe(c.name,
                             [&out](const std::string &usage,
                                    const std::vector<Flag> &) {
                                 out += "\n" + usage;
                             });
        c.main(describe);
    }
    std::printf("%s", out.c_str());
}

} // namespace

const std::vector<Command> &
commands()
{
    static const std::vector<Command> all = {
        {"run", runCli},
        {"--sweep", runSweepCli},
        {"--serve", runServeCli},
        {"--serve-sweep", runServeSweepCli},
        {"--bench-engine", runBenchEngineCli},
        {"--bench-memory", runBenchMemoryCli},
        {"--bench-scaleout", runBenchScaleoutCli},
        {"--bench-serving", runBenchServingCli},
        {"--bench-spgemm", runBenchSpgemmCli},
        {"--bench-dynamic", runBenchDynamicCli},
    };
    return all;
}

int
driverMain(int argc, char **argv)
{
    // Global execution-core flags (DESIGN.md §13) may appear anywhere on
    // the command line; strip them before command dispatch. The caches
    // default ON in the driver — library users and unit tests see plain
    // uncached behavior unless they opt in via exec::setCachesEnabled.
    bool no_cache = false;
    int intra_threads = 0;
    const std::vector<std::string> args =
        takeFlags(globalFlags(no_cache, intra_threads),
                  std::vector<std::string>(argv, argv + argc));
    exec::setCachesEnabled(!no_cache);
    setIntraThreads(intra_threads);

    if (args.size() < 2) {
        printUsage();
        return 2;
    }
    const std::string &cmd = args[1];
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
        printUsage();
        return 0;
    }
    if (cmd == "--list-scenarios" || cmd == "list") return listScenarios();
    if (cmd == "--list-designs" || cmd == "--list-policies")
        return listDesigns();
    if (cmd == "--list-platforms") return listPlatforms();
    if (cmd == "--list-datasets") return listDatasets();
    if (cmd == "--list-disciplines") return listDisciplines();
    for (const Command &c : commands()) {
        // Every command but `run` also answers to its name without "--".
        if (cmd == c.name || "--" + cmd == c.name) {
            CommandLine cl(c.name,
                           std::vector<std::string>(args.begin() + 2,
                                                    args.end()));
            return c.main(cl);
        }
    }
    printUsage();
    fatal("unknown command: " + cmd);
}

} // namespace awb::driver
