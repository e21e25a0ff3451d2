/**
 * @file
 * Implementation of `awbsim --bench-scaleout`: the multi-chip scaling
 * baseline producing the tracked BENCH_scaleout.json document. See
 * DESIGN.md §9 for the sharding model, the halo accounting rules and the
 * monotonicity argument the gate here enforces.
 */

#include <chrono>
#include <cstdio>

#include "accel/policy.hpp"
#include "accel/scaleout.hpp"
#include "common/table.hpp"
#include "driver/bench.hpp"
#include "driver/json.hpp"
#include "exec/workload_cache.hpp"
#include "graph/datasets.hpp"
#include "model/energy_model.hpp"
#include "model/memory_model.hpp"

namespace awb::driver {

namespace {

/** Grid axes and knobs of one scale-out benchmark run. */
struct Options
{
    std::string dataset = "reddit";
    std::vector<int> chipCounts = {1, 2, 4, 8, 16};
    std::vector<std::string> platforms = {"d5005-ddr4", "p100-hbm2"};
    std::string policy = "remote-d";
    int pes = 1024;  ///< PE-array size per chip
    std::uint64_t seed = 1;
    double scale = 1.0;
    std::string jsonPath = "BENCH_scaleout.json";
};

/** One chips × platform point of the scaling curve. */
struct ScaleoutPoint
{
    std::string platform;
    int chips = 1;
    Cycle cycles = 0;
    Count haloBytes = 0;
    Cycle haloCycles = 0;
    Count haloBoundRounds = 0;
    double chipImbalance = 1.0;
    Count bytesTotal = 0;
    Cycle memoryCycles = 0;
    Count bwBoundRounds = 0;
    double latencyMs = 0.0;
    double speedup = 1.0;  ///< 1-chip cycles / cycles, same platform
    double wallMs = 0.0;
};

int
runBenchScaleout(const Options &opts)
{
    const DatasetSpec &spec = findDataset(opts.dataset);
    const auto prof_p = exec::cachedProfile(spec, opts.seed, opts.scale);
    const WorkloadProfile &prof = *prof_p;
    const auto adj_p = exec::cachedAdjacency(spec, opts.seed, opts.scale);
    const CscMatrix &adjacency = *adj_p;

    std::vector<ScaleoutPoint> points;
    bool halo_ok = true;

    Table t({"platform", "chips", "cycles", "speedup", "halo GB",
             "halo cycles", "imbalance", "latency(ms)"});
    for (const auto &platform : opts.platforms) {
        Cycle one_chip_cycles = 0;
        Count prev_halo = 0;
        for (std::size_t i = 0; i < opts.chipCounts.size(); ++i) {
            const int chips = opts.chipCounts[i];
            AccelConfig cfg =
                makePolicyConfig(opts.policy, opts.pes, hopBase(spec));
            cfg.platform = platform;
            cfg.chips = chips;

            auto t0 = std::chrono::steady_clock::now();
            ShardedPerfGcnResult res =
                modelGcnSharded(cfg, prof, &adjacency);
            auto t1 = std::chrono::steady_clock::now();

            ScaleoutPoint pt;
            pt.platform = platform;
            pt.chips = chips;
            pt.cycles = res.result.totalCycles;
            pt.haloBytes = res.scaleout.haloBytes;
            pt.haloCycles = res.scaleout.haloCycles;
            pt.haloBoundRounds = res.scaleout.haloBoundRounds;
            pt.chipImbalance = res.scaleout.chipImbalance;
            pt.bytesTotal = res.result.traffic.total();
            pt.memoryCycles = res.result.memoryCycles;
            pt.bwBoundRounds = res.result.bwBoundRounds;
            pt.latencyMs =
                evaluateEnergy(res.result.totalCycles,
                               res.result.totalTasks, policyClockMhz(cfg))
                    .latencyMs;
            pt.wallMs =
                std::chrono::duration<double, std::milli>(t1 - t0).count();

            if (chips == 1) one_chip_cycles = pt.cycles;
            if (one_chip_cycles > 0 && pt.cycles > 0)
                pt.speedup = static_cast<double>(one_chip_cycles) /
                             static_cast<double>(pt.cycles);

            // The halo gate (DESIGN.md §9): one chip has no boundary,
            // and cutting the graph into more shards can only turn more
            // edges into boundary edges.
            if (chips == 1 && pt.haloBytes != 0) halo_ok = false;
            if (i > 0 && opts.chipCounts[i] > opts.chipCounts[i - 1] &&
                pt.haloBytes < prev_halo)
                halo_ok = false;
            prev_halo = pt.haloBytes;

            t.addRow({pt.platform, std::to_string(pt.chips),
                      humanCount(static_cast<double>(pt.cycles)),
                      fixed(pt.speedup, 2) + "x",
                      fixed(static_cast<double>(pt.haloBytes) / 1e9, 3),
                      humanCount(static_cast<double>(pt.haloCycles)),
                      fixed(pt.chipImbalance, 3), fixed(pt.latencyMs, 3)});
            points.push_back(std::move(pt));
        }
    }
    std::printf("%s", t.render().c_str());

    Json doc = Json::object();
    doc.set("schema", "awbsim-bench-scaleout-v1");
    doc.set("dataset", spec.name);
    doc.set("policy", opts.policy);
    doc.set("pes", opts.pes);
    doc.set("seed", opts.seed);
    doc.set("scale", opts.scale);
    Json jpoints = Json::array();
    for (const auto &pt : points) {
        Json p = Json::object();
        p.set("platform", pt.platform);
        p.set("chips", pt.chips);
        p.set("cycles", pt.cycles);
        p.set("halo_bytes", pt.haloBytes);
        p.set("halo_cycles", pt.haloCycles);
        p.set("halo_bound_rounds", pt.haloBoundRounds);
        p.set("chip_imbalance", pt.chipImbalance);
        p.set("bytes_total", pt.bytesTotal);
        p.set("memory_cycles", pt.memoryCycles);
        p.set("bw_bound_rounds", pt.bwBoundRounds);
        p.set("latency_ms", pt.latencyMs);
        p.set("speedup", pt.speedup);
        p.set("wall_ms", pt.wallMs);
        jpoints.push(std::move(p));
    }
    doc.set("points", std::move(jpoints));
    Json summary = Json::object();
    summary.set("halo_monotone", halo_ok);
    doc.set("summary", std::move(summary));

    writeDoc(doc, opts.jsonPath, "bench-scaleout");
    return gateExit("bench-scaleout", {{"halo_monotone", halo_ok}});
}

} // namespace

int
runBenchScaleoutCli(CommandLine &cl)
{
    Options o;
    const std::vector<Flag> flags = {
        text({"--dataset"}, "D", o.dataset, "the sharded dataset",
             checkDataset),
        numbers({"--chips"}, "n1,n2,..", o.chipCounts, "chip-count curve", 1),
        texts({"--platforms", "--platform"}, "p1,..", o.platforms,
              "platform axis (DRAM and link bandwidth)", resolvePlatform),
        text({"--policy"}, "P", o.policy, "balance policy", resolvePolicy),
        number({"--pes"}, "N", o.pes, "PE-array size per chip", 1),
        number({"--seed"}, "N", o.seed, "global seed"),
        number({"--scale"}, "S", o.scale, "dataset node-count scale"),
        text({"--json"}, "FILE", o.jsonPath, "output ('-' = stdout)")};
    if (!cl.bind("One dataset sharded across a chip-count curve on the "
                 "round-level model; exits 1 unless halo traffic is zero "
                 "at 1 chip and monotone along the curve.",
                 flags))
        return 0;
    return runBenchScaleout(o);
}

} // namespace awb::driver
