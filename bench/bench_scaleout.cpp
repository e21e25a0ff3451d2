/**
 * @file
 * Implementation of `awbsim --bench-scaleout`: the multi-chip scaling
 * baseline producing the tracked BENCH_scaleout.json document. See
 * DESIGN.md §9 for the sharding model, the halo accounting rules and the
 * monotonicity argument the gate here enforces.
 */

#include "driver/bench.hpp"
#include "graph/datasets.hpp"

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

int
runBenchScaleout(const Options &opts)
{
    BenchDoc doc("bench-scaleout",
                 {{"schema", "awbsim-bench-scaleout-v1"},
                  {"dataset", findDataset(opts.dataset).name},
                  {"policy", opts.policy},
                  {"pes", opts.pes},
                  {"seed", opts.seed},
                  {"scale", opts.scale}},
                 {"platform", "chips", "cycles", "speedup", "halo GB",
                  "halo cycles", "imbalance", "latency(ms)"});
    bool &halo_ok = doc.gate("halo_monotone");
    for (const auto &platform : opts.platforms) {
        Cycle one_chip_cycles = 0;
        Count prev_halo = 0;
        for (std::size_t i = 0; i < opts.chipCounts.size(); ++i) {
            const int chips = opts.chipCounts[i];
            exec::RunRequest req;
            req.dataset = opts.dataset;
            req.policy = opts.policy;
            req.platform = platform;
            req.pes = opts.pes;
            req.chips = chips;
            req.seed = opts.seed;
            req.scale = opts.scale;
            const exec::RunResult r = benchRun("bench-scaleout", req);

            // 1-chip cycles / cycles, same platform.
            double speedup = 1.0;
            if (chips == 1) one_chip_cycles = r.cycles;
            if (one_chip_cycles > 0 && r.cycles > 0)
                speedup = static_cast<double>(one_chip_cycles) /
                          static_cast<double>(r.cycles);

            // The halo gate (DESIGN.md §9): one chip has no boundary,
            // and cutting the graph into more shards can only turn more
            // edges into boundary edges.
            if (chips == 1 && r.haloBytes != 0) halo_ok = false;
            if (i > 0 && opts.chipCounts[i] > opts.chipCounts[i - 1] &&
                r.haloBytes < prev_halo)
                halo_ok = false;
            prev_halo = r.haloBytes;

            doc.point(
                Json::object({{"platform", platform},
                              {"chips", chips},
                              {"cycles", r.cycles},
                              {"halo_bytes", r.haloBytes},
                              {"halo_cycles", r.haloCycles},
                              {"halo_bound_rounds", r.haloBoundRounds},
                              {"chip_imbalance", r.chipImbalance},
                              {"bytes_total", r.bytesTotal},
                              {"memory_cycles", r.memoryCycles},
                              {"bw_bound_rounds", r.bwBoundRounds},
                              {"latency_ms", r.latencyMs},
                              {"speedup", speedup},
                              {"wall_ms", r.wallMs}}),
                {platform, std::to_string(chips),
                 humanCount(static_cast<double>(r.cycles)),
                 fixed(speedup, 2) + "x",
                 fixed(static_cast<double>(r.haloBytes) / 1e9, 3),
                 humanCount(static_cast<double>(r.haloCycles)),
                 fixed(r.chipImbalance, 3), fixed(r.latencyMs, 3)});
        }
    }
    return doc.finish(opts.jsonPath);
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
