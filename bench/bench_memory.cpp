/**
 * @file
 * Implementation of `awbsim --bench-memory`: the cross-platform
 * memory-model baseline producing the tracked BENCH_memory.json document.
 * See DESIGN.md §8 for the traffic accounting rules, the roofline
 * composition and the no-op equivalence argument the gate here enforces.
 */

#include "driver/bench.hpp"
#include "graph/datasets.hpp"
#include "model/memory_model.hpp"

namespace awb::driver {

namespace {

/** Grid axes and knobs of one memory-model benchmark run. */
struct Options
{
    std::vector<std::string> datasets = {"cora", "citeseer", "pubmed",
                                         "nell", "reddit"};
    std::vector<std::string> policies = {"baseline", "remote-d"};
    /** Platform axis; empty = every registered platform. */
    std::vector<std::string> platforms;
    int pes = 1024;  ///< PE-array size (the paper's Table 3 operating point)
    std::uint64_t seed = 1;
    double scale = 1.0;
    std::string jsonPath = "BENCH_memory.json";
};

int
runBenchMemory(const Options &opts)
{
    std::vector<std::string> platforms = opts.platforms;
    if (platforms.empty())
        for (const PlatformSpec &p : knownPlatforms())
            platforms.push_back(p.name);

    BenchDoc doc("bench-memory",
                 {{"schema", "awbsim-bench-memory-v1"},
                  {"seed", opts.seed},
                  {"scale", opts.scale},
                  {"pes", opts.pes}},
                 {"dataset", "policy", "platform", "cycles", "mem floor",
                  "bw-bound", "GB moved", "latency(ms)"});
    bool &noop_ok = doc.gate("noop_identical");
    Count bw_bound_points = 0;
    for (const auto &dataset : opts.datasets) {
        const std::string &name = findDataset(dataset).name;
        for (const auto &policy : opts.policies) {
            for (const auto &platform : platforms) {
                exec::RunRequest req;
                req.dataset = dataset;
                req.policy = policy;
                req.platform = platform;
                req.pes = opts.pes;
                req.seed = opts.seed;
                req.scale = opts.scale;
                const exec::RunResult r = benchRun("bench-memory", req);
                // The no-op gate: on an unconstrained platform the
                // bandwidth floor must never have engaged, which is what
                // makes the composition provably the identity (DESIGN.md
                // §8; the bit-identity to platform-less configs is locked
                // by tests/test_memory_model.cpp).
                bool noop = true;
                if (findPlatform(platform).bandwidthGBs <= 0.0) {
                    noop = r.memoryCycles == 0 && r.bwBoundRounds == 0;
                    noop_ok = noop_ok && noop;
                }
                if (r.bwBoundRounds > 0) ++bw_bound_points;
                doc.point(
                    Json::object({{"dataset", name},
                                  {"policy", policy},
                                  {"platform", platform},
                                  {"cycles", r.cycles},
                                  {"memory_cycles", r.memoryCycles},
                                  {"rounds", r.rounds},
                                  {"bw_bound_rounds", r.bwBoundRounds},
                                  {"rows_switched", r.rowsSwitched},
                                  {"converged_round", r.convergedRound},
                                  {"bytes_total", r.bytesTotal},
                                  {"bytes_migrated", r.migrationBytes},
                                  {"latency_ms", r.latencyMs},
                                  {"noop_identical", noop}}),
                    {name, policy, platform,
                     humanCount(static_cast<double>(r.cycles)),
                     humanCount(static_cast<double>(r.memoryCycles)),
                     std::to_string(r.bwBoundRounds) + "/" +
                         std::to_string(r.rounds),
                     fixed(static_cast<double>(r.bytesTotal) / 1e9, 3),
                     fixed(r.latencyMs, 3)});
            }
        }
    }
    doc.summary().set("bw_bound_points", bw_bound_points);
    return doc.finish(opts.jsonPath);
}

} // namespace

int
runBenchMemoryCli(CommandLine &cl)
{
    Options o;
    const std::vector<Flag> flags = {
        texts({"--datasets"}, "a,b,..", o.datasets, "dataset axis",
              checkDataset),
        texts({"--policies"}, "p1,..", o.policies, "policy axis",
              resolvePolicy),
        texts({"--platforms", "--platform"}, "p1,..", o.platforms,
              "platform axis (default every registered platform)",
              resolvePlatform),
        number({"--pes"}, "N", o.pes, "PE-array size", 1),
        number({"--seed"}, "N", o.seed, "global seed"),
        number({"--scale"}, "S", o.scale, "dataset node-count scale"),
        text({"--json"}, "FILE", o.jsonPath,
             "output ('-' = stdout, no table)")};
    if (!cl.bind("Round-level GCN model across dataset x policy x "
                 "platform; exits 1 if the bandwidth floor engages on an "
                 "unconstrained platform (the no-op gate).",
                 flags))
        return 0;
    return runBenchMemory(o);
}

} // namespace awb::driver
