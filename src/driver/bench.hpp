/**
 * @file
 * The `awbsim --bench-*` commands, each of which writes one tracked
 * BENCH_*.json baseline and keys its exit code on that benchmark's
 * gates. Their entry points are implemented in bench/bench_*.cpp; every
 * options struct stays local to its benchmark. What they share — the
 * table, the points array, the named gates and the write — is BenchDoc
 * (DESIGN.md §13).
 */

#pragma once

#include <deque>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "common/table.hpp"
#include "driver/cli.hpp"
#include "driver/json.hpp"
#include "exec/run.hpp"

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

/**
 * One benchmark document and its stdout table. A bench declares its
 * header keys up front, adds one entry and one table row per grid
 * point, records each named gate once and may add summary keys; the
 * document is `{header..., "points", extra keys..., "summary"}`.
 */
class BenchDoc
{
  public:
    /** `header` leads the document (schema first); `columns` heads the
     *  table. `cmd` names the bench in its messages. */
    BenchDoc(const char *cmd,
             std::initializer_list<std::pair<std::string, Json>> header,
             std::vector<std::string> columns);

    /** One grid point: its document entry and its table row. */
    void point(Json entry, std::vector<std::string> row);

    /** A document key after "points". */
    void set(const std::string &key, Json value);

    /** The summary object; gates and extra keys keep their order. */
    Json &summary() { return summary_; }

    /** A named gate, passing as `ok` until the bench clears it. Its
     *  summary key is placed now; its final value lands there and in
     *  the exit code. */
    bool &gate(const char *name, bool ok = true);

    /** Print the table, write the document to `path` and return 0 when
     *  every gate passed; otherwise name the failed gates (and
     *  `detail`) on stderr and return 1. */
    int finish(const std::string &path, const std::string &detail = "");

  private:
    const char *cmd_;
    Json doc_;
    Json summary_ = Json::object();
    Table table_;
    std::deque<std::pair<const char *, bool>> gates_;
};

/** `policies` with "baseline" prepended when absent. */
std::vector<std::string> withBaseline(std::vector<std::string> policies);

/** exec::run, fatal() on an error result. */
exec::RunResult benchRun(const char *cmd, const exec::RunRequest &req);

} // namespace awb::driver
