/**
 * @file
 * Unified execution core (DESIGN.md §13): one function maps a
 * (dataset, policy, platform, PEs, chips, mode, engine, seed) request
 * to a folded outcome. The sweep engine, the bench drivers and the
 * scenarios all sit on this dispatch instead of hand-wiring the
 * config→policy→engine→stats plumbing per front end.
 *
 * Workloads come from the process-wide WorkloadCache. The fold()
 * overloads map every engine's RunCounters (accel/run_counters.hpp)
 * onto one RunResult through one body, plus what their type owns; and
 * finalize() derives utilization, energy and area in exactly one place
 * — tasks / (PEs × cycles) for every mode, fixing the historical drift
 * where each mode's accumulate() computed it differently or not at all.
 *
 * wallMs times only the execution segment (the engine/model run), never
 * dataset synthesis, operand fills or partition builds — matching what
 * the tracked BENCH_engine.json has always measured.
 */

#pragma once

#include <cstdint>
#include <string>

#include "accel/config.hpp"
#include "common/types.hpp"

namespace awb {
struct SpmmStats;
struct PerfSpmmResult;
struct ScaleOutSummary;
namespace kernels {
struct FrontierRunStats;
}
namespace dynamic {
struct DynamicRunStats;
}
namespace sim {
struct SessionResult;
}
} // namespace awb

namespace awb::exec {

/** What one request executes (a sweep point's mode, too). parseMode
 *  walks every mode up to ChurnGcn, so ChurnGcn stays last. */
enum class Mode
{
    Model,     ///< round-level PerfModel, full 2-layer GCN (any scale)
    Cycle,     ///< cycle-accurate 2-layer GCN (sim::Session)
    SpmmTdq1,  ///< cycle-accurate single SPMM, TDQ-1 dense-scan path (X×W)
    SpmmTdq2,  ///< cycle-accurate single SPMM, TDQ-2 Omega path (A×B)
    GraphSage, ///< cycle-accurate 2-layer GraphSAGE-mean workload graph
    Gin,       ///< cycle-accurate 2-layer GIN workload graph
    KhopGcn,   ///< cycle-accurate 2-hop GCN (A²(XW) chains, §3.3, §11)
    Bfs,       ///< frontier BFS via sparse-output SpGEMM (§11)
    Pagerank,  ///< PageRank power iteration via SpGEMM (§11)
    ChurnGcn,  ///< streaming churn epochs over a live adjacency (§12)
};

std::string modeName(Mode m);
Mode parseMode(const std::string &s);

/** One workload execution, fully specified. */
struct RunRequest
{
    std::string dataset;
    std::string policy = "baseline";  ///< registered balance-policy name
    std::string platform = "unconstrained";  ///< registered platform name
    int pes = 0;
    int chips = 1;
    Mode mode = Mode::Model;
    EngineKind engine = EngineKind::Event;
    std::uint64_t seed = 1;
    double scale = 1.0;
    /** TDQ-2 only: dense-operand column count; 0 = the spec's f2. The
     *  engine bench sweeps this as its `k` axis. */
    Index denseCols = 0;
};

/** Folded outcome of one request — every front end reads from here. */
struct RunResult
{
    bool ok = false;
    std::string error;             ///< set when ok == false
    Cycle cycles = 0;
    Cycle idealCycles = 0;
    Cycle syncCycles = 0;
    Count tasks = 0;
    /** tasks / (PEs × cycles), derived once in finalize() for every
     *  mode (DESIGN.md §13). */
    double utilization = 0.0;
    std::size_t peakTqDepth = 0;
    Count rowsSwitched = 0;
    Count convergedRound = -1;     ///< latest auto-tune convergence round
    Count rounds = 0;
    /** RunCounters::roundsSimulated: memo misses, summed over chips. */
    Count roundsSimulated = 0;
    Count bytesTotal = 0;          ///< modelled off-chip traffic (bytes)
    Count migrationBytes = 0;      ///< of which rebalance row migration
    Cycle memoryCycles = 0;        ///< summed per-round bandwidth floors
    Count bwBoundRounds = 0;       ///< rounds stretched to their floor
    Count haloBytes = 0;           ///< inter-chip boundary-row traffic
    Cycle haloCycles = 0;          ///< summed per-round link floors
    Count haloBoundRounds = 0;     ///< rounds stretched to the link floor
    double chipImbalance = 1.0;    ///< max/mean chip workload (1 = even)
    /** Churn mode only: first epoch whose carried-vs-fresh cycle drift
     *  reached the tolerance (-1 = never went stale; DESIGN.md §12). */
    Count halfLifeEpochs = -1;
    /** At the policy's clock (policyClockMhz: 275 MHz for the AWB-GCN
     *  designs, 285 MHz for EIE-like). */
    double latencyMs = 0.0;
    double inferencesPerKj = 0.0;
    double areaTotalClb = 0.0;
    double areaTqClb = 0.0;
    /** Host wall clock of the execution segment only (advisory). */
    double wallMs = 0.0;
};

/** Fold one stats struct into the outcome accumulators (a
 *  PerfSpmmResult's cycles and tasks excepted: see DESIGN.md §13). */
void fold(RunResult &out, const SpmmStats &s);
void fold(RunResult &out, const PerfSpmmResult &s);
void fold(RunResult &out, const kernels::FrontierRunStats &s);
void fold(RunResult &out, const dynamic::DynamicRunStats &s);
void fold(RunResult &out, const sim::SessionResult &res);
void fold(RunResult &out, const ScaleOutSummary &s);

/**
 * Derive everything computed from the folded aggregates: utilization
 * (tasks / (PEs × cycles)), energy (latency, inferences/kJ) and area.
 * Marks the result ok.
 */
void finalize(RunResult &out, const AccelConfig &cfg);

/**
 * Execute one request end to end: resolve the dataset (through the
 * WorkloadCache), build the policy configuration, dispatch on mode,
 * fold and finalize. Configuration errors come back as error results,
 * not aborts; unknown dataset/policy/platform names fatal() exactly
 * like the loaders they wrap.
 */
RunResult run(const RunRequest &req);

} // namespace awb::exec
