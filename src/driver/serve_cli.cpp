#include "driver/serve_cli.hpp"

#include <cstdio>

#include "common/parallel.hpp"
#include "common/table.hpp"
#include "driver/sweep.hpp"
#include "graph/datasets.hpp"

namespace awb::driver {

namespace {

/** Latency summary as JSON: exact cycle fields plus derived ms. */
Json
latencyJson(const serve::LatencySummary &s, double clock_mhz)
{
    Json j = Json::object();
    j.set("count", s.count);
    j.set("p50", s.p50);
    j.set("p95", s.p95);
    j.set("p99", s.p99);
    j.set("p999", s.p999);
    j.set("min", s.min);
    j.set("max", s.max);
    j.set("mean", s.mean);
    j.set("p50_ms", serve::cyclesToMs(s.p50, clock_mhz));
    j.set("p99_ms", serve::cyclesToMs(s.p99, clock_mhz));
    return j;
}

/** The knobs --serve and --serve-sweep have in common, bound to `o`. */
std::vector<Flag>
serveFlags(serve::ServeOptions &o)
{
    return {
        text({"--dataset"}, "D", o.dataset, "the served dataset"),
        choice({"--fidelity"}, "F", o.fidelity, "model or cycle",
               serve::parseServeFidelity, serve::serveFidelityName),
        choice({"--arrivals"}, "A", o.arrivals, "open or closed loop",
               serve::parseArrivalMode, serve::arrivalModeName),
        number({"--rate"}, "R", o.ratePerSec, "open-loop requests/s"),
        number({"--clients"}, "N", o.clients, "closed-loop clients"),
        number({"--think-cycles"}, "N", o.thinkCycles,
               "closed-loop gap before reissue"),
        number({"--duration-ms"}, "D", o.durationMs, "admission horizon",
               0.0),
        number({"--requests"}, "N", o.requestCap,
               "stop after N requests (0 = horizon only)"),
        text({"--discipline"}, "D", o.discipline, "batch discipline",
             resolveDiscipline),
        number({"--max-batch"}, "N", o.disciplineParams.maxBatch,
               "dyn-batch size cap"),
        number({"--max-wait"}, "CYCLES", o.disciplineParams.maxWait,
               "dyn-batch wait for the queue front"),
        number({"--queue-cap"}, "N", o.queueCapacity,
               "queue bound (0 = unbounded)"),
        number({"--timeout-cycles"}, "N", o.timeoutCycles,
               "queue-age eviction deadline (0 = off)"),
        number({"--slo-ms"}, "S", o.sloMs, "latency SLO (0 = none)"),
        number({"--ego-frac"}, "F", o.mix.egoFraction, "ego-query share"),
        number({"--hops"}, "N", o.mix.hops, "ego neighbourhood radius"),
        number({"--max-ego-nodes"}, "N", o.mix.maxEgoNodes, "ego node cap"),
        number({"--seed"}, "N", o.seed, "global seed"),
        text({"--design"}, "P", o.design, "policy of each device"),
        number({"--pes"}, "N", o.numPes, "PEs of each device"),
        number({"--scale"}, "S", o.scale, "dataset scale"),
    };
}

void
serveTableRow(const serve::ServeResult &r, std::vector<std::string> *row)
{
    row->push_back(std::to_string(r.offered));
    row->push_back(std::to_string(r.completed));
    row->push_back(std::to_string(r.dropped + r.timedOut));
    row->push_back(fixed(serve::cyclesToMs(r.latency.p50, r.clockMhz), 3));
    row->push_back(fixed(serve::cyclesToMs(r.latency.p99, r.clockMhz), 3));
    double util = 0.0;
    for (const auto &d : r.devices) util += d.utilization;
    if (!r.devices.empty()) util /= static_cast<double>(r.devices.size());
    row->push_back(percent(util));
    row->push_back(fixed(r.throughputRps, 1));
}

} // namespace

Json
serveToJson(const serve::ServeOptions &opts, const serve::ServeResult &res)
{
    Json doc = Json::object();
    doc.set("schema", "awbsim-serve-v1");
    doc.set("dataset", findDataset(opts.dataset).name);
    doc.set("fidelity", serve::serveFidelityName(opts.fidelity));
    doc.set("arrivals", serve::arrivalModeName(opts.arrivals));
    if (opts.arrivals == serve::ArrivalMode::Open) {
        doc.set("rate_rps", opts.ratePerSec);
    } else {
        doc.set("clients", opts.clients);
        doc.set("think_cycles", opts.thinkCycles);
    }
    doc.set("duration_ms", opts.durationMs);
    doc.set("devices", static_cast<int>(res.devices.size()));
    doc.set("discipline", opts.discipline);
    doc.set("max_batch", opts.disciplineParams.maxBatch);
    doc.set("max_wait_cycles", opts.disciplineParams.maxWait);
    doc.set("queue_capacity", opts.queueCapacity);
    doc.set("timeout_cycles", opts.timeoutCycles);
    doc.set("slo_ms", opts.sloMs);
    doc.set("seed", opts.seed);
    doc.set("design", opts.design);
    doc.set("pes", opts.numPes);
    doc.set("scale", opts.scale);
    Json mix = Json::object();
    mix.set("gcn", opts.mix.gcn);
    mix.set("graphsage", opts.mix.graphsage);
    mix.set("gin", opts.mix.gin);
    mix.set("ego_fraction", opts.mix.egoFraction);
    mix.set("hops", opts.mix.hops);
    mix.set("max_ego_nodes", opts.mix.maxEgoNodes);
    doc.set("mix", std::move(mix));

    doc.set("clock_mhz", res.clockMhz);
    doc.set("horizon_cycles", res.horizonCycles);
    doc.set("end_cycle", res.endCycle);
    doc.set("offered", res.offered);
    doc.set("admitted", res.admitted);
    doc.set("dropped", res.dropped);
    doc.set("timed_out", res.timedOut);
    doc.set("completed", res.completed);
    doc.set("batches", res.batches);
    doc.set("mean_batch_size", res.meanBatchSize);
    doc.set("offered_rps", res.offeredRps);
    doc.set("throughput_rps", res.throughputRps);
    doc.set("latency", latencyJson(res.latency, res.clockMhz));

    Json queue = Json::object();
    queue.set("peak_depth", res.peakQueueDepth);
    queue.set("mean_depth", res.meanQueueDepth);
    queue.set("wait", latencyJson(res.queueWait, res.clockMhz));
    doc.set("queue", std::move(queue));

    Json trace = Json::array();
    for (const auto &s : res.depthTrace) {
        Json p = Json::object();
        p.set("at", s.at);
        p.set("depth", s.depth);
        trace.push(std::move(p));
    }
    doc.set("depth_trace", std::move(trace));

    Json kinds = Json::object();
    for (std::size_t k = 0; k < res.kindLatency.size(); ++k)
        kinds.set(serve::workloadKindName(
                      static_cast<serve::WorkloadKind>(k)),
                  latencyJson(res.kindLatency[k], res.clockMhz));
    doc.set("kinds", std::move(kinds));

    Json scopes = Json::object();
    scopes.set("ego_completed", res.egoCompleted);
    scopes.set("full_completed", res.fullCompleted);
    doc.set("scopes", std::move(scopes));

    Json slo = Json::object();
    slo.set("slo_cycles", res.sloCycles);
    slo.set("violations", res.sloViolations);
    slo.set("violation_rate",
            res.offered > 0 ? static_cast<double>(res.sloViolations) /
                                  static_cast<double>(res.offered)
                            : 0.0);
    doc.set("slo", std::move(slo));

    Json devices = Json::array();
    for (const auto &d : res.devices) {
        Json p = Json::object();
        p.set("id", d.id);
        p.set("batches", d.batches);
        p.set("requests", d.requests);
        p.set("busy_cycles", d.busyCycles);
        p.set("utilization", d.utilization);
        devices.push(std::move(p));
    }
    doc.set("device_stats", std::move(devices));
    return doc;
}

std::vector<ServeSweepOutcome>
runServeSweep(const ServeSweepOptions &opts)
{
    // Expand the grid in a fixed order: rate-major, then discipline,
    // then device count — the JSON point order is part of the contract.
    std::vector<serve::ServeOptions> points;
    for (double rate : opts.rates)
        for (const auto &disc : opts.disciplines)
            for (int devices : opts.deviceCounts) {
                serve::ServeOptions o = opts.base;
                o.ratePerSec = rate;
                o.discipline = disc;
                o.devices = devices;
                points.push_back(std::move(o));
            }

    // One grid point per chunk (a one-worker pool runs them all
    // inline): each writes outcomes[i], so results land by position and
    // the thread count cannot reorder (or otherwise perturb) the
    // document.
    std::vector<ServeSweepOutcome> outcomes(points.size());
    parallelFor(
        points.size(), 1,
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                outcomes[i].opts = points[i];
                outcomes[i].result = serve::runServe(points[i]);
            }
        },
        static_cast<int>(resolveThreads(opts.threads, points.size())));
    return outcomes;
}

int
listDisciplines()
{
    auto all = serve::DisciplineRegistry::instance().all();
    std::printf("%zu registered batch disciplines:\n", all.size());
    for (const serve::DisciplineSpec *d : all)
        std::printf("  %-10s %s\n", d->name.c_str(),
                    d->description.c_str());
    return 0;
}

int
runServeCli(CommandLine &cl)
{
    serve::ServeOptions opts;
    bool no_table = false;
    std::string json_path = "awbsim_serve.json";
    std::vector<Flag> flags = serveFlags(opts);
    flags.insert(
        flags.end(),
        {number({"--devices"}, "N", opts.devices, "devices"),
         text({"--json"}, "FILE", json_path,
              "output ('-' = stdout, no table)"),
         toggle({"--no-table"}, no_table, "suppress the table")});
    if (!cl.bind("Serve an inference request stream on simulated "
                 "accelerators; report SLO-percentile latency "
                 "(DESIGN.md §10).",
                 flags))
        return 0;

    const serve::ServeResult res = serve::runServe(opts);

    if (!no_table && json_path != "-") {
        Table t({"dataset", "discipline", "devices", "offered", "done",
                 "lost", "p50(ms)", "p99(ms)", "util", "rps"});
        std::vector<std::string> row{opts.dataset, opts.discipline,
                                     std::to_string(opts.devices)};
        serveTableRow(res, &row);
        t.addRow(std::move(row));
        std::printf("%s", t.render().c_str());
    }
    writeDoc(serveToJson(opts, res), json_path, "serve");
    return 0;
}

int
runServeSweepCli(CommandLine &cl)
{
    ServeSweepOptions opts;
    bool no_table = false;
    std::string json_path = "awbsim_serve_sweep.json";
    std::vector<Flag> flags = serveFlags(opts.base);
    flags.insert(
        flags.end(),
        {numbers({"--rates"}, "r1,r2,..", opts.rates, "rate axis"),
         texts({"--disciplines"}, "d1,d2,..", opts.disciplines,
               "discipline axis", resolveDiscipline),
         numbers({"--devices"}, "n1,n2,..", opts.deviceCounts,
                 "device-count axis"),
         number({"--threads"}, "N", opts.threads, "workers (0 = hardware)"),
         text({"--json"}, "FILE", json_path,
              "output ('-' = stdout, no table)"),
         toggle({"--no-table"}, no_table, "suppress the table")});
    if (!cl.bind("A rate x discipline x device-count grid of --serve runs "
                 "on a worker pool (same JSON at any thread count).",
                 flags))
        return 0;

    const auto outcomes = runServeSweep(opts);

    if (!no_table && json_path != "-") {
        Table t({"rate", "discipline", "devices", "offered", "done",
                 "lost", "p50(ms)", "p99(ms)", "util", "rps"});
        for (const auto &o : outcomes) {
            std::vector<std::string> row{fixed(o.opts.ratePerSec, 0),
                                         o.opts.discipline,
                                         std::to_string(o.opts.devices)};
            serveTableRow(o.result, &row);
            t.addRow(std::move(row));
        }
        std::printf("%s", t.render().c_str());
    }

    Json doc = Json::object();
    doc.set("schema", "awbsim-serve-sweep-v1");
    doc.set("dataset", opts.base.dataset);
    doc.set("fidelity", serve::serveFidelityName(opts.base.fidelity));
    doc.set("seed", opts.base.seed);
    Json jpoints = Json::array();
    for (const auto &o : outcomes)
        jpoints.push(serveToJson(o.opts, o.result));
    doc.set("points", std::move(jpoints));
    writeDoc(doc, json_path, "serve-sweep");
    return 0;
}

} // namespace awb::driver
