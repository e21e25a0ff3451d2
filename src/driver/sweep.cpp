#include "driver/sweep.hpp"

#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>

#include "accel/policy.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "graph/datasets.hpp"
#include "model/memory_model.hpp"

namespace awb::driver {

namespace {

/** One execution of a point's workload; everything but repeat checking.
 *  All plumbing (dataset resolution through the WorkloadCache, policy
 *  config, mode dispatch, folding, utilization/energy/area) lives in
 *  the execution core (exec/run.hpp). */
SweepOutcome
executeOnce(const SweepPoint &p, const SweepOptions &opts)
{
    SweepOutcome out;
    out.point = p;
    exec::RunRequest req;
    req.dataset = p.dataset;
    req.policy = p.policy;
    req.platform = p.platform;
    req.pes = p.pes;
    req.chips = p.chips;
    req.mode = p.mode;
    req.engine = opts.engine;
    req.seed = p.seed;
    req.scale = opts.scale;
    static_cast<exec::RunResult &>(out) = exec::run(req);
    return out;
}

} // namespace

std::uint64_t
derivePointSeed(std::uint64_t global_seed, std::size_t index)
{
    return splitmix64(splitmix64(global_seed) ^
                      splitmix64(static_cast<std::uint64_t>(index) + 1));
}

std::uint64_t
deriveWorkloadSeed(std::uint64_t global_seed, const std::string &dataset)
{
    // FNV-1a over the name (not std::hash: its value is implementation-
    // defined, and workload seeds must be stable across builds).
    std::uint64_t name_hash = 1469598103934665603ULL;
    for (unsigned char c : dataset) {
        name_hash ^= c;
        name_hash *= 1099511628211ULL;
    }
    return splitmix64(splitmix64(global_seed) ^ splitmix64(name_hash));
}

std::vector<SweepPoint>
expandGrid(const SweepOptions &opts)
{
    std::vector<SweepPoint> points;
    for (const auto &dataset : opts.datasets) {
        findDataset(dataset);  // validate early; fatal() on unknown
        for (const std::string &design : opts.designs) {
            // Resolve aliases ("d" → "remote-d") up front; fatal() with a
            // near-miss suggestion on an unknown policy.
            const BalancePolicy &pol =
                PolicyRegistry::instance().get(design);
            for (int pes : opts.peCounts) {
                for (exec::Mode mode : opts.modes) {
                    for (const std::string &platform : opts.platforms) {
                        // Validate early; fatal() on an unknown name.
                        findPlatform(platform);
                        for (int chips : opts.chipCounts) {
                            SweepPoint p;
                            p.index = points.size();
                            p.dataset = dataset;
                            p.policy = pol.name;
                            p.platform = platform;
                            p.pes = pes;
                            p.chips = chips;
                            p.mode = mode;
                            p.seed = deriveWorkloadSeed(opts.seed, dataset);
                            points.push_back(std::move(p));
                        }
                    }
                }
            }
        }
    }
    return points;
}

SweepOutcome
runSweepPoint(const SweepPoint &point, const SweepOptions &opts)
{
    SweepOutcome out;
    try {
        out = executeOnce(point, opts);
        for (int r = 1; out.ok && r < opts.repeats; ++r) {
            SweepOutcome again = executeOnce(point, opts);
            if (again.cycles != out.cycles || again.tasks != out.tasks)
                out.deterministic = false;
        }
    } catch (const std::exception &e) {
        out.point = point;
        out.ok = false;
        out.error = e.what();
    }
    return out;
}

unsigned
resolveThreads(int threads, std::size_t n_points)
{
    unsigned n = threads > 0
        ? static_cast<unsigned>(threads)
        : std::max(1U, std::thread::hardware_concurrency());
    return std::min<unsigned>(
        n, static_cast<unsigned>(std::max<std::size_t>(n_points, 1)));
}

std::vector<SweepOutcome>
runSweep(const SweepOptions &opts, const std::vector<SweepPoint> &points)
{
    std::vector<SweepOutcome> outcomes(points.size());
    std::mutex progress_mutex;
    // One point per chunk (a one-worker pool runs them all inline):
    // outcomes land by grid position, so the worker count cannot
    // reorder the document.
    parallelFor(
        points.size(), 1,
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                outcomes[i] = runSweepPoint(points[i], opts);
                if (!opts.progress) continue;
                std::lock_guard<std::mutex> lock(progress_mutex);
                std::fprintf(
                    stderr, "[%zu/%zu] %s %s %d PEs %s on %s: %s\n", i + 1,
                    points.size(), points[i].dataset.c_str(),
                    points[i].policy.c_str(), points[i].pes,
                    exec::modeName(points[i].mode).c_str(),
                    points[i].platform.c_str(),
                    outcomes[i].ok ? "ok" : outcomes[i].error.c_str());
            }
        },
        static_cast<int>(resolveThreads(opts.threads, points.size())));
    return outcomes;
}

std::vector<SweepOutcome>
runSweep(const SweepOptions &opts)
{
    return runSweep(opts, expandGrid(opts));
}

Json
sweepToJson(const SweepOptions &opts,
            const std::vector<SweepOutcome> &outcomes)
{
    Json doc = Json::object();
    doc.set("schema", "awbsim-sweep-v1");
    doc.set("seed", opts.seed);
    doc.set("scale", opts.scale);
    doc.set("repeats", opts.repeats);
    doc.set("engine", engineKindName(opts.engine));

    Json grid = Json::object();
    Json datasets = Json::array();
    for (const auto &d : opts.datasets) datasets.push(d);
    grid.set("datasets", std::move(datasets));
    Json designs = Json::array();
    for (const std::string &d : opts.designs)
        designs.push(PolicyRegistry::instance().get(d).label);
    grid.set("designs", std::move(designs));
    Json platforms = Json::array();
    for (const std::string &p : opts.platforms) platforms.push(p);
    grid.set("platforms", std::move(platforms));
    Json pes = Json::array();
    for (int p : opts.peCounts) pes.push(p);
    grid.set("pe_counts", std::move(pes));
    Json chips = Json::array();
    for (int c : opts.chipCounts) chips.push(c);
    grid.set("chip_counts", std::move(chips));
    Json modes = Json::array();
    for (exec::Mode m : opts.modes) modes.push(exec::modeName(m));
    grid.set("modes", std::move(modes));
    doc.set("grid", std::move(grid));

    Json points = Json::array();
    for (const auto &o : outcomes) {
        Json p = Json::object();
        p.set("index", o.point.index);
        p.set("dataset", o.point.dataset);
        p.set("design",
              PolicyRegistry::instance().get(o.point.policy).label);
        p.set("policy", o.point.policy);
        p.set("platform", o.point.platform);
        p.set("pes", o.point.pes);
        p.set("chips", o.point.chips);
        p.set("mode", exec::modeName(o.point.mode));
        p.set("seed", o.point.seed);
        p.set("ok", o.ok);
        if (!o.ok) {
            p.set("error", o.error);
        } else {
            p.set("cycles", o.cycles);
            p.set("ideal_cycles", o.idealCycles);
            p.set("sync_cycles", o.syncCycles);
            p.set("tasks", o.tasks);
            p.set("utilization", o.utilization);
            p.set("peak_tq_depth", o.peakTqDepth);
            p.set("rows_switched", o.rowsSwitched);
            p.set("converged_round", o.convergedRound);
            p.set("rounds", o.rounds);
            p.set("rounds_simulated", o.roundsSimulated);
            p.set("bytes_total", o.bytesTotal);
            p.set("memory_cycles", o.memoryCycles);
            p.set("bw_bound_rounds", o.bwBoundRounds);
            p.set("halo_bytes", o.haloBytes);
            p.set("halo_cycles", o.haloCycles);
            p.set("halo_bound_rounds", o.haloBoundRounds);
            p.set("chip_imbalance", o.chipImbalance);
            p.set("half_life_epochs", o.halfLifeEpochs);
            p.set("latency_ms", o.latencyMs);
            p.set("inferences_per_kj", o.inferencesPerKj);
            p.set("area_total_clb", o.areaTotalClb);
            p.set("area_tq_clb", o.areaTqClb);
            p.set("deterministic", o.deterministic);
        }
        points.push(std::move(p));
    }
    doc.set("points", std::move(points));
    return doc;
}

std::string
sweepTable(const std::vector<SweepOutcome> &outcomes)
{
    Table t({"mode", "dataset", "design", "PEs", "cycles", "util",
             "TQ depth", "switched", "latency(ms)", "area(CLB)"});
    for (const auto &o : outcomes) {
        std::string label =
            PolicyRegistry::instance().get(o.point.policy).label;
        if (!o.ok) {
            t.addRow({exec::modeName(o.point.mode), o.point.dataset, label,
                      std::to_string(o.point.pes), "ERROR: " + o.error, "",
                      "", "", "", ""});
            continue;
        }
        t.addRow({exec::modeName(o.point.mode), o.point.dataset, label,
                  std::to_string(o.point.pes),
                  humanCount(static_cast<double>(o.cycles)),
                  percent(o.utilization), std::to_string(o.peakTqDepth),
                  std::to_string(o.rowsSwitched), fixed(o.latencyMs, 3),
                  humanCount(o.areaTotalClb)});
    }
    return t.render();
}

} // namespace awb::driver
