/**
 * @file
 * Implementation of `awbsim --bench-serving`: the serving baseline
 * producing the tracked BENCH_serving.json document. See DESIGN.md §10
 * for the arrival model, the batching semantics and the determinism
 * argument the double-run gate leans on.
 */

#include <chrono>
#include <cstdio>

#include "common/log.hpp"
#include "common/table.hpp"
#include "driver/bench.hpp"
#include "driver/json.hpp"
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

/** One dataset × rate point of the latency curve. */
struct ServingPoint
{
    std::string dataset;
    double rate = 0.0;
    serve::ServeOptions opts;
    serve::ServeResult result;
    bool deterministic = true;  ///< double-run byte-identical JSON
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
    std::vector<ServingPoint> points;
    bool gates_ok = true;
    std::string gate_error;
    auto fail = [&](const std::string &why) {
        gates_ok = false;
        if (gate_error.empty()) gate_error = why;
    };

    Table t({"dataset", "rate", "offered", "done", "lost", "p50(ms)",
             "p99(ms)", "batch", "rps"});
    for (const auto &dataset : opts.datasets) {
        for (double rate : opts.rates) {
            ServingPoint pt;
            pt.dataset = dataset;
            pt.rate = rate;
            pt.opts = baseOptions(opts, dataset);
            pt.opts.ratePerSec = rate;
            pt.result = serve::runServe(pt.opts);

            // Determinism gate: a second run of the same options must
            // render byte-identical JSON (DESIGN.md §10).
            const serve::ServeResult again = serve::runServe(pt.opts);
            pt.deterministic = serveToJson(pt.opts, pt.result).dump(2) ==
                               serveToJson(pt.opts, again).dump(2);
            if (!pt.deterministic)
                fail(dataset + " rate " + fixed(rate, 0) +
                     ": double run diverged");
            if (!conserved(pt.result))
                fail(dataset + " rate " + fixed(rate, 0) +
                     ": request conservation violated");
            if (pt.result.completed > 0 &&
                !percentilesOrdered(pt.result.latency))
                fail(dataset + " rate " + fixed(rate, 0) +
                     ": latency percentiles out of order");

            t.addRow({dataset, fixed(rate, 0),
                      std::to_string(pt.result.offered),
                      std::to_string(pt.result.completed),
                      std::to_string(pt.result.dropped +
                                     pt.result.timedOut),
                      fixed(serve::cyclesToMs(pt.result.latency.p50,
                                              pt.result.clockMhz),
                            3),
                      fixed(serve::cyclesToMs(pt.result.latency.p99,
                                              pt.result.clockMhz),
                            3),
                      fixed(pt.result.meanBatchSize, 2),
                      fixed(pt.result.throughputRps, 1)});
            points.push_back(std::move(pt));
        }
    }
    std::printf("%s", t.render().c_str());

    // Closed-loop saturation point per dataset: C clients issuing
    // back-to-back measure the device pool's peak service throughput.
    struct Saturation
    {
        std::string dataset;
        serve::ServeResult result;
    };
    std::vector<Saturation> saturation;
    for (const auto &dataset : opts.datasets) {
        serve::ServeOptions o = baseOptions(opts, dataset);
        o.arrivals = serve::ArrivalMode::Closed;
        o.clients = opts.clients;
        Saturation s{dataset, serve::runServe(o)};
        if (!conserved(s.result))
            fail(dataset + " closed loop: request conservation violated");
        std::printf("%s closed loop: %lld done, %.1f rps saturation, "
                    "p99 %.3f ms\n",
                    dataset.c_str(),
                    static_cast<long long>(s.result.completed),
                    s.result.throughputRps,
                    serve::cyclesToMs(s.result.latency.p99,
                                      s.result.clockMhz));
        saturation.push_back(std::move(s));
    }

    Json doc = Json::object();
    doc.set("schema", "awbsim-bench-serving-v1");
    doc.set("discipline", opts.discipline);
    doc.set("devices", opts.devices);
    doc.set("duration_ms", opts.durationMs);
    doc.set("policy", opts.policy);
    doc.set("pes", opts.pes);
    doc.set("seed", opts.seed);
    Json jpoints = Json::array();
    for (const auto &pt : points) {
        Json p = Json::object();
        p.set("dataset", pt.dataset);
        p.set("rate_rps", pt.rate);
        p.set("offered", pt.result.offered);
        p.set("completed", pt.result.completed);
        p.set("dropped", pt.result.dropped);
        p.set("timed_out", pt.result.timedOut);
        p.set("batches", pt.result.batches);
        p.set("mean_batch_size", pt.result.meanBatchSize);
        p.set("end_cycle", pt.result.endCycle);
        p.set("p50_cycles", pt.result.latency.p50);
        p.set("p95_cycles", pt.result.latency.p95);
        p.set("p99_cycles", pt.result.latency.p99);
        p.set("p999_cycles", pt.result.latency.p999);
        p.set("p99_ms", serve::cyclesToMs(pt.result.latency.p99,
                                          pt.result.clockMhz));
        p.set("throughput_rps", pt.result.throughputRps);
        p.set("peak_queue_depth", pt.result.peakQueueDepth);
        p.set("deterministic", pt.deterministic);
        jpoints.push(std::move(p));
    }
    doc.set("points", std::move(jpoints));

    Json jsat = Json::array();
    for (const auto &s : saturation) {
        Json p = Json::object();
        p.set("dataset", s.dataset);
        p.set("clients", opts.clients);
        p.set("completed", s.result.completed);
        p.set("saturation_rps", s.result.throughputRps);
        p.set("p99_cycles", s.result.latency.p99);
        p.set("mean_batch_size", s.result.meanBatchSize);
        jsat.push(std::move(p));
    }
    doc.set("closed_loop", std::move(jsat));

    // The saturation knee of each open-loop curve: the first rate whose
    // p99 is at least twice the lowest rate's p99 (0 = no knee in range).
    Json knees = Json::object();
    for (const auto &dataset : opts.datasets) {
        Cycle base_p99 = -1;
        double knee = 0.0;
        for (const auto &pt : points) {
            if (pt.dataset != dataset || pt.result.completed == 0)
                continue;
            if (base_p99 < 0) base_p99 = pt.result.latency.p99;
            if (knee == 0.0 && pt.result.latency.p99 >= 2 * base_p99)
                knee = pt.rate;
        }
        knees.set(dataset, knee);
    }
    const auto bench_t1 = std::chrono::steady_clock::now();
    Json summary = Json::object();
    summary.set("gates_ok", gates_ok);
    summary.set("knee_rate_rps", std::move(knees));
    summary.set("wall_ms",
                std::chrono::duration<double, std::milli>(bench_t1 -
                                                          bench_t0)
                    .count());
    doc.set("summary", std::move(summary));

    writeDoc(doc, opts.jsonPath, "bench-serving");
    return gateExit("bench-serving", {{"gates_ok", gates_ok}}, gate_error);
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
               "admission horizon per point"),
        number({"--clients"}, "N", o.clients, "closed-loop population"),
        text({"--policy"}, "P", o.policy, "balance policy", resolvePolicy),
        number({"--pes"}, "N", o.pes, "PE-array size"),
        number({"--seed"}, "N", o.seed, "global seed"),
        text({"--json"}, "FILE", o.jsonPath, "output ('-' = stdout)")};
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
