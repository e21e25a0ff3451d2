#include "exec/run.hpp"

#include <chrono>
#include <memory>
#include <utility>
#include <vector>

#include "accel/gcn_accel.hpp"
#include "accel/perf_model.hpp"
#include "accel/policy.hpp"
#include "accel/scaleout.hpp"
#include "accel/spmm_engine.hpp"
#include "common/log.hpp"
#include "common/text.hpp"
#include "dynamic/dynamic_runner.hpp"
#include "exec/workload_cache.hpp"
#include "gcn/model.hpp"
#include "graph/datasets.hpp"
#include "kernels/bfs.hpp"
#include "kernels/pagerank.hpp"
#include "model/area_model.hpp"
#include "model/energy_model.hpp"
#include "sim/factories.hpp"
#include "sim/session.hpp"
#include "sparse/convert.hpp"

namespace awb::exec {

namespace {

/** Wall-clock stopwatch for the execution segment only. */
class Stopwatch
{
  public:
    Stopwatch() : start_(std::chrono::steady_clock::now()) {}

    double
    elapsedMs() const
    {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

} // namespace

std::string
modeName(Mode m)
{
    switch (m) {
      case Mode::Model: return "model";
      case Mode::Cycle: return "cycle";
      case Mode::SpmmTdq1: return "tdq1";
      case Mode::SpmmTdq2: return "tdq2";
      case Mode::GraphSage: return "graphsage";
      case Mode::Gin: return "gin";
      case Mode::KhopGcn: return "khop";
      case Mode::Bfs: return "bfs";
      case Mode::Pagerank: return "pagerank";
      case Mode::ChurnGcn: return "churn";
    }
    return "?";
}

Mode
parseMode(const std::string &s)
{
    if (s == "churn-gcn") return Mode::ChurnGcn;
    std::vector<std::string> names;
    std::string known;
    for (int m = 0; m <= static_cast<int>(Mode::ChurnGcn); ++m) {
        names.push_back(modeName(static_cast<Mode>(m)));
        if (names.back() == s) return static_cast<Mode>(m);
        known += (known.empty() ? "" : "|") + names.back();
    }
    fatal("unknown sweep mode '" + s + "' — did you mean '" +
          nearestOf(s, names) + "'? (" + known + ")");
}

void
fold(RunResult &out, const SpmmStats &s)
{
    out.cycles += s.cycles;
    out.idealCycles += s.idealCycles;
    out.syncCycles += s.syncCycles;
    out.tasks += s.tasks;
    out.rounds += s.rounds;
    out.roundsSimulated += s.roundsSimulated;
    out.rowsSwitched += s.rowsSwitched;
    out.convergedRound = std::max(out.convergedRound, s.convergedRound);
    out.peakTqDepth = std::max(out.peakTqDepth, s.peakQueueDepth);
    out.bytesTotal += s.traffic.total();
    out.migrationBytes += s.traffic.migrationBytes;
    out.memoryCycles += s.memoryCycles;
    out.bwBoundRounds += s.bwBoundRounds;
}

void
fold(RunResult &out, const PerfSpmmResult &s)
{
    out.idealCycles += s.idealCycles;
    out.syncCycles += s.syncCycles;
    out.rounds += s.rounds;
    out.rowsSwitched += s.rowsSwitched;
    out.convergedRound = std::max(out.convergedRound, s.convergedRound);
    out.peakTqDepth = std::max(out.peakTqDepth, s.peakQueueDepth);
    out.bytesTotal += s.traffic.total();
    out.migrationBytes += s.traffic.migrationBytes;
    out.memoryCycles += s.memoryCycles;
    out.bwBoundRounds += s.bwBoundRounds;
}

void
fold(RunResult &out, const kernels::FrontierRunStats &s)
{
    out.cycles += s.totalCycles;
    out.tasks += s.totalTasks;
    out.rounds += s.rounds;
    out.roundsSimulated += s.roundsSimulated;
    out.rowsSwitched += s.rowsSwitched;
    out.convergedRound = std::max(out.convergedRound, s.convergedRound);
    out.peakTqDepth = std::max(out.peakTqDepth, s.peakQueueDepth);
    out.bytesTotal += s.traffic.total();
    out.migrationBytes += s.traffic.migrationBytes;
    out.memoryCycles += s.memoryCycles;
    out.bwBoundRounds += s.bwBoundRounds;
    out.haloBytes += s.haloBytes;
    out.haloCycles += s.haloCycles;
    out.haloBoundRounds += s.haloBoundRounds;
    out.chipImbalance = s.chipImbalance;
}

void
fold(RunResult &out, const dynamic::DynamicRunStats &s)
{
    out.cycles += s.totalCycles;
    out.tasks += s.totalTasks;
    out.rounds += s.rounds;
    out.roundsSimulated += s.roundsSimulated;
    out.rowsSwitched += s.rowsMoved;
    out.peakTqDepth = std::max(out.peakTqDepth, s.peakQueueDepth);
    out.bytesTotal += s.traffic.total();
    out.migrationBytes += s.traffic.migrationBytes;
    out.memoryCycles += s.memoryCycles;
    out.bwBoundRounds += s.bwBoundRounds;
    out.halfLifeEpochs = s.halfLifeEpochs;
}

void
fold(RunResult &out, const sim::SessionResult &res)
{
    for (const auto &s : res.nodeStats) fold(out, s);
    out.cycles = res.totalCycles;  // pipelined end-to-end delay
}

void
fold(RunResult &out, const ScaleOutSummary &s)
{
    out.haloBytes += s.haloBytes;
    out.haloCycles += s.haloCycles;
    out.haloBoundRounds += s.haloBoundRounds;
    out.chipImbalance = s.chipImbalance;
}

void
finalize(RunResult &out, const AccelConfig &cfg)
{
    // One utilization definition for every mode (DESIGN.md §13):
    // executed tasks over the PE-cycles the run occupied. Historically
    // the churn fold computed this, the SPMM modes took the engine's
    // value (same formula), the model/session modes reported a
    // serial-cycle variant and the frontier kernels reported nothing.
    out.utilization =
        out.cycles > 0 && cfg.numPes > 0
            ? static_cast<double>(out.tasks) /
                  (static_cast<double>(cfg.numPes) *
                   static_cast<double>(out.cycles))
            : 0.0;
    double mhz = policyClockMhz(cfg);
    EnergyReport energy = evaluateEnergy(out.cycles, out.tasks, mhz);
    out.latencyMs = energy.latencyMs;
    out.inferencesPerKj = energy.inferencesPerKj;
    AreaEstimate area = estimateArea(cfg, out.peakTqDepth);
    out.areaTotalClb = area.totalClb;
    out.areaTqClb = area.tqClb;
    out.ok = true;
}

RunResult
run(const RunRequest &req)
{
    RunResult out;
    const DatasetSpec &spec = findDataset(req.dataset);
    WorkloadCache &wl = WorkloadCache::instance();
    if (req.pes <= 0) {
        out.error = "numPes must be positive";
        return out;
    }
    // Surface configuration errors (bad field combinations, and for the
    // cycle-accurate modes the power-of-two PE count the Omega network
    // needs) as error results, not aborts: configure without validating,
    // then route validate() into the error field.
    AccelConfig cfg = configureForPolicy(
        PolicyRegistry::instance().get(req.policy), req.pes, hopBase(spec));
    cfg.engine = req.engine;
    cfg.platform = req.platform;
    cfg.chips = req.chips;
    std::string cfg_err =
        cfg.validate(/*cycle_accurate_tdq2=*/req.mode != Mode::Model);
    if (!cfg_err.empty()) {
        out.error = cfg_err;
        return out;
    }
    const bool sharded = cfg.chips > 1;
    if (sharded &&
        (req.mode == Mode::GraphSage || req.mode == Mode::Gin ||
         req.mode == Mode::KhopGcn)) {
        out.error = "mode '" + modeName(req.mode) + "' with chips=" +
                    std::to_string(req.chips) +
                    " is unsupported: the workload-graph modes "
                    "(graphsage|gin|khop) run unsharded only; multi-chip "
                    "sharding supports model|cycle|tdq1|tdq2";
        return out;
    }
    if (sharded && req.mode == Mode::ChurnGcn) {
        out.error = "mode 'churn' with chips=" + std::to_string(req.chips) +
                    " is unsupported: edge churn invalidates static "
                    "shard boundaries";
        return out;
    }
    // The GCN modes shard the node-indexed operand (the adjacency, or
    // the features for tdq1) across chips; a chip without rows has no
    // row map. The frontier kernels skip empty shards instead.
    if (sharded && req.mode != Mode::Bfs && req.mode != Mode::Pagerank) {
        const Index rows = scaledSpec(spec, req.scale).nodes;
        if (req.chips > rows) {
            out.error = "chips=" + std::to_string(req.chips) +
                        " exceeds the operand's " + std::to_string(rows) +
                        " rows: every chip must own a row";
            return out;
        }
    }

    switch (req.mode) {
      case Mode::Model: {
        auto prof = wl.profile(spec, req.seed, req.scale);
        // Halo counting needs the adjacency structure, which the profile
        // alone cannot provide; one chip has no halo.
        auto a = sharded ? wl.adjacency(spec, req.seed, req.scale)
                         : nullptr;
        Stopwatch timer;
        PerfGcnResult res = PerfModel(cfg).runGcn(*prof, a.get());
        out.wallMs = timer.elapsedMs();
        out.cycles = res.totalCycles;
        out.tasks = res.totalTasks;
        for (const auto &layer : res.layers) {
            fold(out, layer.xw);
            fold(out, layer.ax);
        }
        fold(out, res.scaleout);
        break;
      }
      case Mode::Cycle: {
        auto ds = wl.dataset(spec, req.seed, req.scale);
        GcnModel model =
            makeGcnModel(ds->spec.f1, ds->spec.f2, ds->spec.f3, req.seed);
        Stopwatch timer;
        GcnRunResult res = runGcn(cfg, *ds, model);
        out.wallMs = timer.elapsedMs();
        for (const auto &layer : res.layers) {
            fold(out, layer.xw);
            fold(out, layer.ax);
            for (const auto &hop : layer.extraHops) fold(out, hop);
        }
        out.cycles = res.totalCycles;  // pipelined end-to-end delay
        out.tasks = res.totalTasks;
        fold(out, res.scaleout);
        break;
      }
      case Mode::SpmmTdq1: {
        // Timing only: the streamed W needs a column count, no values.
        auto ds = wl.dataset(spec, req.seed, req.scale);
        CscMatrix x = csrToCsc(ds->features);
        Stopwatch timer;
        ShardedSpmmResult r = executeSpmmSharded(cfg, x, ds->spec.f2,
                                                 TdqKind::Tdq1DenseScan);
        out.wallMs = timer.elapsedMs();
        fold(out, r.stats);
        fold(out, r.scaleout);
        break;
      }
      case Mode::SpmmTdq2: {
        // Only the adjacency and the scaled dims are needed; skip the
        // feature matrix (it would dominate memory at Reddit scale).
        // loadSyntheticAdjacency is bit-identical to the adjacency
        // member loadSynthetic would produce for the same key.
        auto a = wl.adjacency(spec, req.seed, req.scale);
        const DatasetSpec sc = scaledSpec(spec, req.scale);
        Stopwatch timer;
        ShardedSpmmResult r = executeSpmmSharded(
            cfg, *a, req.denseCols > 0 ? req.denseCols : sc.f2,
            TdqKind::Tdq2OmegaCsc);
        out.wallMs = timer.elapsedMs();
        fold(out, r.stats);
        fold(out, r.scaleout);
        break;
      }
      case Mode::GraphSage: {
        auto ds = wl.dataset(spec, req.seed, req.scale);
        sim::WorkloadBundle w = sim::buildGraphSage(
            *ds, ds->spec.f2, ds->spec.f3, /*meanAggregate=*/true,
            req.seed);
        sim::Session session(cfg);
        Stopwatch timer;
        fold(out, sim::runWorkload(session, std::move(w)));
        out.wallMs = timer.elapsedMs();
        break;
      }
      case Mode::Gin: {
        auto ds = wl.dataset(spec, req.seed, req.scale);
        sim::WorkloadBundle w = sim::buildGin(*ds, ds->spec.f2,
                                              ds->spec.f3, /*eps=*/0.1,
                                              req.seed);
        sim::Session session(cfg);
        Stopwatch timer;
        fold(out, sim::runWorkload(session, std::move(w)));
        out.wallMs = timer.elapsedMs();
        break;
      }
      case Mode::KhopGcn: {
        auto ds = wl.dataset(spec, req.seed, req.scale);
        GcnModel model =
            makeGcnModel(ds->spec.f1, ds->spec.f2, ds->spec.f3, req.seed);
        sim::WorkloadBundle w = sim::buildExactKhopGcn(*ds, model, 2);
        sim::Session session(cfg);
        Stopwatch timer;
        fold(out, sim::runWorkload(session, std::move(w)));
        out.wallMs = timer.elapsedMs();
        break;
      }
      case Mode::Bfs: {
        auto a = wl.adjacency(spec, req.seed, req.scale);
        Stopwatch timer;
        kernels::BfsRun run = kernels::runBfs(cfg, *a, /*source=*/0);
        out.wallMs = timer.elapsedMs();
        fold(out, run.stats);
        break;
      }
      case Mode::Pagerank: {
        auto a = wl.adjacency(spec, req.seed, req.scale);
        Stopwatch timer;
        kernels::PagerankRun run = kernels::runPagerank(
            cfg, *a, /*damping=*/0.85, /*tol=*/1e-6, /*maxIters=*/200);
        out.wallMs = timer.elapsedMs();
        fold(out, run.stats);
        break;
      }
      case Mode::ChurnGcn: {
        auto a = wl.adjacency(spec, req.seed, req.scale);
        dynamic::ChurnParams churn;
        churn.seed = req.seed;
        dynamic::DynamicOptions dopts;
        dopts.fidelity = dynamic::DynamicFidelity::Cycle;
        dopts.epochs = 6;
        dopts.eventsPerEpoch = std::max<Count>(16, a->nnz() / 20);
        dopts.denseCols = 8;
        dopts.seed = req.seed;
        Stopwatch timer;
        fold(out, dynamic::runChurnGcn(cfg, *a, churn, dopts));
        out.wallMs = timer.elapsedMs();
        break;
      }
    }

    finalize(out, cfg);
    return out;
}

} // namespace awb::exec
