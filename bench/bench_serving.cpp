/**
 * @file
 * Implementation of `awbsim --bench-serving`: the serving baseline
 * producing the tracked BENCH_serving.json document. See DESIGN.md §10
 * for the arrival model, the batching semantics and the determinism
 * argument the double-run gate leans on.
 */

#include <chrono>
#include <cstdio>

#include "driver/bench.hpp"
#include "driver/serve_cli.hpp"
#include "serve/serve.hpp"

namespace awb::driver {

namespace {

/** Grid axes and knobs of one serving benchmark run. */
struct Options
{
    std::vector<std::string> datasets = {"cora", "pubmed"};
    /** Open-loop offered rates (requests/s) of the latency curve; the
     *  span brackets both datasets' saturation knees at 2 devices. */
    std::vector<double> rates = {25000.0,  50000.0,  100000.0,
                                 200000.0, 400000.0, 800000.0};
    std::string discipline = "dyn-batch";
    int devices = 2;
    double durationMs = 10.0;  ///< admission horizon per point
    int clients = 16;          ///< closed-loop saturation population
    std::string policy = "remote-d";
    int pes = 64;
    std::uint64_t seed = 1;
    std::string jsonPath = "BENCH_serving.json";
};

serve::ServeOptions
baseOptions(const Options &opts, const std::string &dataset)
{
    serve::ServeOptions o;
    o.dataset = dataset;
    o.fidelity = serve::ServeFidelity::Model;
    o.durationMs = opts.durationMs;
    o.devices = opts.devices;
    o.discipline = opts.discipline;
    o.design = opts.policy;
    o.numPes = opts.pes;
    o.seed = opts.seed;
    return o;
}

bool
percentilesOrdered(const serve::LatencySummary &s)
{
    return s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.p999 &&
           s.p999 <= s.max;
}

bool
conserved(const serve::ServeResult &r)
{
    return r.offered == r.completed + r.dropped + r.timedOut;
}

int
runBenchServing(const Options &opts)
{
    const auto bench_t0 = std::chrono::steady_clock::now();
    BenchDoc doc("bench-serving",
                 {{"schema", "awbsim-bench-serving-v1"},
                  {"discipline", opts.discipline},
                  {"devices", opts.devices},
                  {"duration_ms", opts.durationMs},
                  {"policy", opts.policy},
                  {"pes", opts.pes},
                  {"seed", opts.seed}},
                 {"dataset", "rate", "offered", "done", "lost", "p50(ms)",
                  "p99(ms)", "batch", "rps"});
    bool &gates_ok = doc.gate("gates_ok");
    std::string gate_error;
    auto fail = [&](const std::string &why) {
        gates_ok = false;
        if (gate_error.empty()) gate_error = why;
    };

    // The saturation knee of each open-loop curve: the first rate whose
    // p99 is at least twice the lowest rate's p99 (0 = no knee in range).
    Json knees = Json::object();
    for (const auto &dataset : opts.datasets) {
        Cycle base_p99 = -1;
        double knee = 0.0;
        for (double rate : opts.rates) {
            serve::ServeOptions o = baseOptions(opts, dataset);
            o.ratePerSec = rate;
            const serve::ServeResult r = serve::runServe(o);

            // Determinism gate: a second run of the same options must
            // render byte-identical JSON (DESIGN.md §10).
            const serve::ServeResult again = serve::runServe(o);
            const bool deterministic = serveToJson(o, r).dump(2) ==
                                       serveToJson(o, again).dump(2);
            if (!deterministic)
                fail(dataset + " rate " + fixed(rate, 0) +
                     ": double run diverged");
            if (!conserved(r))
                fail(dataset + " rate " + fixed(rate, 0) +
                     ": request conservation violated");
            if (r.completed > 0 && !percentilesOrdered(r.latency))
                fail(dataset + " rate " + fixed(rate, 0) +
                     ": latency percentiles out of order");
            if (r.completed > 0) {
                if (base_p99 < 0) base_p99 = r.latency.p99;
                if (knee == 0.0 && r.latency.p99 >= 2 * base_p99)
                    knee = rate;
            }

            const double p99_ms = serve::cyclesToMs(r.latency.p99,
                                                    r.clockMhz);
            doc.point(Json::object({{"dataset", dataset},
                                    {"rate_rps", rate},
                                    {"offered", r.offered},
                                    {"completed", r.completed},
                                    {"dropped", r.dropped},
                                    {"timed_out", r.timedOut},
                                    {"batches", r.batches},
                                    {"mean_batch_size", r.meanBatchSize},
                                    {"end_cycle", r.endCycle},
                                    {"p50_cycles", r.latency.p50},
                                    {"p95_cycles", r.latency.p95},
                                    {"p99_cycles", r.latency.p99},
                                    {"p999_cycles", r.latency.p999},
                                    {"p99_ms", p99_ms},
                                    {"throughput_rps", r.throughputRps},
                                    {"peak_queue_depth", r.peakQueueDepth},
                                    {"deterministic", deterministic}}),
                      {dataset, fixed(rate, 0), std::to_string(r.offered),
                       std::to_string(r.completed),
                       std::to_string(r.dropped + r.timedOut),
                       fixed(serve::cyclesToMs(r.latency.p50, r.clockMhz),
                             3),
                       fixed(p99_ms, 3), fixed(r.meanBatchSize, 2),
                       fixed(r.throughputRps, 1)});
        }
        knees.set(dataset, knee);
    }

    // Closed-loop saturation point per dataset: C clients issuing
    // back-to-back measure the device pool's peak service throughput.
    Json saturation = Json::array();
    for (const auto &dataset : opts.datasets) {
        serve::ServeOptions o = baseOptions(opts, dataset);
        o.arrivals = serve::ArrivalMode::Closed;
        o.clients = opts.clients;
        const serve::ServeResult r = serve::runServe(o);
        if (!conserved(r))
            fail(dataset + " closed loop: request conservation violated");
        std::fprintf(stderr,
                     "%s closed loop: %lld done, %.1f rps saturation, "
                     "p99 %.3f ms\n",
                     dataset.c_str(), static_cast<long long>(r.completed),
                     r.throughputRps,
                     serve::cyclesToMs(r.latency.p99, r.clockMhz));
        saturation.push(Json::object({{"dataset", dataset},
                                      {"clients", opts.clients},
                                      {"completed", r.completed},
                                      {"saturation_rps", r.throughputRps},
                                      {"p99_cycles", r.latency.p99},
                                      {"mean_batch_size", r.meanBatchSize}}));
    }
    doc.set("closed_loop", std::move(saturation));

    doc.summary().set("knee_rate_rps", std::move(knees));
    doc.summary().set("wall_ms",
                      std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - bench_t0)
                          .count());
    return doc.finish(opts.jsonPath, gate_error);
}

} // namespace

int
runBenchServingCli(CommandLine &cl)
{
    Options o;
    const std::vector<Flag> flags = {
        texts({"--datasets"}, "a,b,..", o.datasets,
              "curve datasets (at least 2)", checkDataset),
        numbers({"--rates"}, "r1,..", o.rates, "open-loop rates, requests/s"),
        text({"--discipline"}, "D", o.discipline, "batch discipline",
             resolveDiscipline),
        number({"--devices"}, "N", o.devices, "simulated accelerators", 1),
        number({"--duration-ms"}, "D", o.durationMs,
               "admission horizon per point", 0.0),
        number({"--clients"}, "N", o.clients, "closed-loop population"),
        text({"--policy"}, "P", o.policy, "balance policy", resolvePolicy),
        number({"--pes"}, "N", o.pes, "PE-array size"),
        number({"--seed"}, "N", o.seed, "global seed"),
        text({"--json"}, "FILE", o.jsonPath,
             "output ('-' = stdout, no table)")};
    if (!cl.bind("Open-loop throughput-vs-p99 curves plus a closed-loop "
                 "saturation point per dataset; exits 1 on a request "
                 "conservation, percentile-order or double-run gate.",
                 flags))
        return 0;
    if (o.datasets.size() < 2)
        fatal("--bench-serving needs at least 2 datasets (the tracked "
              "curve covers multiple non-zero distributions)");
    return runBenchServing(o);
}

} // namespace awb::driver
