/**
 * @file
 * Implementation of `awbsim --bench-memory`: the cross-platform
 * memory-model baseline producing the tracked BENCH_memory.json document.
 * See DESIGN.md §8 for the traffic accounting rules, the roofline
 * composition and the no-op equivalence argument the gate here enforces.
 */

#include <cstdio>

#include "accel/perf_model.hpp"
#include "accel/policy.hpp"
#include "common/table.hpp"
#include "driver/bench.hpp"
#include "driver/json.hpp"
#include "exec/workload_cache.hpp"
#include "graph/datasets.hpp"
#include "model/energy_model.hpp"
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

/** One dataset × policy × platform grid point. */
struct MemoryPoint
{
    std::string dataset;
    std::string policy;
    std::string platform;
    Cycle cycles = 0;
    Cycle memoryCycles = 0;
    Count rounds = 0;
    Count bwBoundRounds = 0;
    Count rowsSwitched = 0;
    Count convergedRound = -1;
    Count bytesTotal = 0;
    Count bytesMigrated = 0;
    double latencyMs = 0.0;
    bool noopIdentical = true;  ///< unconstrained == platform-less twin
};

MemoryPoint
runPoint(const DatasetSpec &spec, const std::string &policy,
         const std::string &platform, const WorkloadProfile &prof,
         int pes)
{
    AccelConfig cfg = makePolicyConfig(policy, pes, hopBase(spec));
    cfg.platform = platform;
    PerfGcnResult res = PerfModel(cfg).runGcn(prof);

    MemoryPoint pt;
    pt.dataset = spec.name;
    pt.policy = policy;
    pt.platform = platform;
    pt.cycles = res.totalCycles;
    pt.memoryCycles = res.memoryCycles;
    pt.bwBoundRounds = res.bwBoundRounds;
    pt.bytesTotal = res.traffic.total();
    pt.bytesMigrated = res.traffic.migrationBytes;
    for (const auto &layer : res.layers) {
        pt.rounds += layer.xw.rounds + layer.ax.rounds;
        pt.rowsSwitched += layer.xw.rowsSwitched + layer.ax.rowsSwitched;
        pt.convergedRound = std::max(
            pt.convergedRound,
            std::max(layer.xw.convergedRound, layer.ax.convergedRound));
    }
    pt.latencyMs = evaluateEnergy(res.totalCycles, res.totalTasks,
                                  policyClockMhz(cfg))
                       .latencyMs;
    return pt;
}

int
runBenchMemory(const Options &opts)
{
    std::vector<std::string> platforms = opts.platforms;
    if (platforms.empty())
        for (const PlatformSpec &p : knownPlatforms())
            platforms.push_back(p.name);

    std::vector<MemoryPoint> points;
    bool noop_ok = true;
    Count bw_bound_points = 0;

    Table t({"dataset", "policy", "platform", "cycles", "mem floor",
             "bw-bound", "GB moved", "latency(ms)"});
    for (const auto &dataset : opts.datasets) {
        const DatasetSpec &spec = findDataset(dataset);
        const auto prof_p = exec::cachedProfile(spec, opts.seed, opts.scale);
        const WorkloadProfile &prof = *prof_p;
        for (const auto &policy : opts.policies) {
            for (const auto &platform : platforms) {
                MemoryPoint pt =
                    runPoint(spec, policy, platform, prof, opts.pes);
                if (findPlatform(platform).bandwidthGBs <= 0.0) {
                    // The no-op gate: on an unconstrained platform the
                    // bandwidth floor must never have engaged, which is
                    // what makes the composition provably the identity
                    // (DESIGN.md §8; the bit-identity to platform-less
                    // configs is locked by tests/test_memory_model.cpp).
                    pt.noopIdentical =
                        pt.memoryCycles == 0 && pt.bwBoundRounds == 0;
                    noop_ok = noop_ok && pt.noopIdentical;
                }
                if (pt.bwBoundRounds > 0) ++bw_bound_points;
                t.addRow({pt.dataset, pt.policy, pt.platform,
                          humanCount(static_cast<double>(pt.cycles)),
                          humanCount(static_cast<double>(pt.memoryCycles)),
                          std::to_string(pt.bwBoundRounds) + "/" +
                              std::to_string(pt.rounds),
                          fixed(static_cast<double>(pt.bytesTotal) / 1e9,
                                3),
                          fixed(pt.latencyMs, 3)});
                points.push_back(std::move(pt));
            }
        }
    }
    std::printf("%s", t.render().c_str());

    Json doc = Json::object();
    doc.set("schema", "awbsim-bench-memory-v1");
    doc.set("seed", opts.seed);
    doc.set("scale", opts.scale);
    doc.set("pes", opts.pes);
    Json jpoints = Json::array();
    for (const auto &pt : points) {
        Json p = Json::object();
        p.set("dataset", pt.dataset);
        p.set("policy", pt.policy);
        p.set("platform", pt.platform);
        p.set("cycles", pt.cycles);
        p.set("memory_cycles", pt.memoryCycles);
        p.set("rounds", pt.rounds);
        p.set("bw_bound_rounds", pt.bwBoundRounds);
        p.set("rows_switched", pt.rowsSwitched);
        p.set("converged_round", pt.convergedRound);
        p.set("bytes_total", pt.bytesTotal);
        p.set("bytes_migrated", pt.bytesMigrated);
        p.set("latency_ms", pt.latencyMs);
        p.set("noop_identical", pt.noopIdentical);
        jpoints.push(std::move(p));
    }
    doc.set("points", std::move(jpoints));
    Json summary = Json::object();
    summary.set("noop_identical", noop_ok);
    summary.set("bw_bound_points", bw_bound_points);
    doc.set("summary", std::move(summary));

    writeDoc(doc, opts.jsonPath, "bench-memory");
    return gateExit("bench-memory", {{"noop_identical", noop_ok}});
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
        text({"--json"}, "FILE", o.jsonPath, "output ('-' = stdout)")};
    if (!cl.bind("Round-level GCN model across dataset x policy x "
                 "platform; exits 1 if the bandwidth floor engages on an "
                 "unconstrained platform (the no-op gate).",
                 flags))
        return 0;
    return runBenchMemory(o);
}

} // namespace awb::driver
