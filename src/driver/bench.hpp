/**
 * @file
 * Entry points of the `awbsim --bench-*` commands, each of which
 * writes one tracked BENCH_*.json baseline and keys its exit code on
 * that benchmark's gates. They are implemented in bench/bench_*.cpp and
 * compiled into the awbsim binary; every options struct stays local to
 * its benchmark.
 */

#pragma once

#include "driver/cli.hpp"

namespace awb::driver {

/** Event vs batched cycle engines (BENCH_engine.json, DESIGN.md §6). */
int runBenchEngineCli(CommandLine &cl);

/** Cross-platform memory model (BENCH_memory.json, DESIGN.md §8). */
int runBenchMemoryCli(CommandLine &cl);

/** Multi-chip scaling curve (BENCH_scaleout.json, DESIGN.md §9). */
int runBenchScaleoutCli(CommandLine &cl);

/** Serving latency curves (BENCH_serving.json, DESIGN.md §10). */
int runBenchServingCli(CommandLine &cl);

/** BFS/PageRank frontier kernels (BENCH_spgemm.json, DESIGN.md §11). */
int runBenchSpgemmCli(CommandLine &cl);

/** Streaming edge churn (BENCH_dynamic.json, DESIGN.md §12). */
int runBenchDynamicCli(CommandLine &cl);

} // namespace awb::driver
