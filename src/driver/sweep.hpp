/**
 * @file
 * Multithreaded scenario-sweep engine: expands a grid of
 * dataset × policy × PE-count × execution-mode points, runs every point
 * as one parallelFor chunk (common/parallel.hpp; one independent
 * SpmmEngine / PerfModel per point, nothing shared but the result slot,
 * and nested intra-point loops run inline), and aggregates
 * cycle/utilization/energy/area results into paper-style tables and a
 * machine-readable JSON document.
 *
 * The design axis is a list of registered balance-policy names
 * (accel/policy.hpp): the six paper designs plus any registered
 * extension, so `awbsim --sweep --designs remote-d,work-steal,...` works
 * without touching the sweep engine.
 *
 * Determinism contract: each point derives its RNG seed from the global
 * seed and its dataset name (splitmix64 mixing — per dataset, not per
 * grid index, so the WorkloadCache synthesizes each dataset once per
 * grid), results land in a pre-sized vector slot keyed by grid index,
 * and JSON rendering uses one fixed formatting path — so the output is
 * byte-identical for a given (options, seed) regardless of worker-thread
 * count, intra-point thread count, or cache on/off.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "accel/config.hpp"
#include "driver/json.hpp"
#include "exec/run.hpp"

namespace awb::driver {

/** The grid axes plus execution knobs. */
struct SweepOptions
{
    std::vector<std::string> datasets = {"cora", "citeseer", "pubmed",
                                         "nell", "reddit"};
    /** Balance-policy axis: canonical names or aliases registered in the
     *  PolicyRegistry (the paper's five evaluated designs by default). */
    std::vector<std::string> designs = {"baseline", "local-a", "local-b",
                                        "remote-c", "remote-d"};
    /** Platform axis: registered names from model/memory_model.hpp
     *  (`--platforms`, see `awbsim --list-platforms`). The default
     *  `unconstrained` composes no bandwidth floor and reproduces the
     *  platform-less grids bit for bit (DESIGN.md §8). */
    std::vector<std::string> platforms = {"unconstrained"};
    std::vector<int> peCounts = {512};
    /** Chip axis (`--chips`): simulated accelerators the graph is row-
     *  sharded across (DESIGN.md §9). The default {1} is the unsharded
     *  single-accelerator path, bit-identical to the pre-scale-out
     *  engine. Multi-chip points are supported by the model, cycle and
     *  single-SPMM modes and by the frontier kernels (bfs, pagerank);
     *  the workload-graph modes (graphsage, gin, khop) produce
     *  per-point error rows for chips > 1. */
    std::vector<int> chipCounts = {1};
    std::vector<exec::Mode> modes = {exec::Mode::Model};
    /** Cycle-engine implementation for the cycle-accurate modes
     *  (`--engine`): the per-non-zero event engine, or the round-batched
     *  engine whose statistics are bit-identical but whose wall clock
     *  makes Reddit-scale cycle sweeps feasible (DESIGN.md §6). Ignored
     *  by exec::Mode::Model. */
    EngineKind engine = EngineKind::Event;
    double scale = 1.0;        ///< dataset node-count scale
    std::uint64_t seed = 1;    ///< global seed; per-point seeds derive
    int threads = 0;           ///< worker threads; 0 = hardware concurrency
    int repeats = 1;           ///< re-run each point; all repeats must
                               ///< produce identical cycles (verified)
    bool progress = false;     ///< emit per-point progress lines to stderr
};

/** One expanded grid point. */
struct SweepPoint
{
    std::size_t index = 0;     ///< position in the expanded grid
    std::string dataset;
    std::string policy = "baseline";  ///< canonical balance-policy name
    std::string platform = "unconstrained";  ///< registered platform name
    int pes = 0;
    int chips = 1;             ///< accelerator chips (row sharding, §9)
    exec::Mode mode = exec::Mode::Model;
    std::uint64_t seed = 0;    ///< derived, deterministic per dataset
};

/** Results of one executed point: the execution core's folded outcome
 *  (exec/run.hpp) plus the sweep's own bookkeeping. */
struct SweepOutcome : exec::RunResult
{
    SweepPoint point;
    bool deterministic = true;     ///< repeats reproduced identical cycles
};

/** Deterministic seed derivation (splitmix64 mixing). derivePointSeed
 *  keys on the grid index; deriveWorkloadSeed keys on the dataset name,
 *  which is what expandGrid uses — every point of one dataset shares a
 *  workload seed, so the WorkloadCache synthesizes each dataset once
 *  per grid instead of once per point (DESIGN.md §13). */
std::uint64_t derivePointSeed(std::uint64_t global_seed, std::size_t index);
std::uint64_t deriveWorkloadSeed(std::uint64_t global_seed,
                                 const std::string &dataset);

/** Worker-pool size a sweep will actually use: `threads`, or the
 *  hardware concurrency when 0, capped at the number of grid points. */
unsigned resolveThreads(int threads, std::size_t n_points);

/** Expand the option axes into ordered grid points. */
std::vector<SweepPoint> expandGrid(const SweepOptions &opts);

/** Execute one point in isolation (used by workers and tests). */
SweepOutcome runSweepPoint(const SweepPoint &point,
                           const SweepOptions &opts);

/** Run already-expanded points across the worker pool; outcomes in
 *  grid order. */
std::vector<SweepOutcome> runSweep(const SweepOptions &opts,
                                   const std::vector<SweepPoint> &points);

/** Convenience: expandGrid + runSweep. */
std::vector<SweepOutcome> runSweep(const SweepOptions &opts);

/** Machine-readable document ("awbsim-sweep-v1" schema). */
Json sweepToJson(const SweepOptions &opts,
                 const std::vector<SweepOutcome> &outcomes);

/** Paper-style ASCII table of the outcomes. */
std::string sweepTable(const std::vector<SweepOutcome> &outcomes);

} // namespace awb::driver
