/**
 * @file
 * CLI front end of the inference-serving subsystem (`awbsim --serve`,
 * `awbsim --serve-sweep`, `awbsim --list-disciplines`; DESIGN.md §10).
 * The serving core (src/serve) is driver-free; this layer binds flags,
 * renders tables and owns the JSON rendering — one fixed formatting
 * path, so serving documents inherit the sweep determinism guarantee
 * (same options ⇒ byte-identical bytes at any thread count).
 */

#pragma once

#include <string>
#include <vector>

#include "driver/cli.hpp"
#include "driver/json.hpp"
#include "serve/serve.hpp"

namespace awb::driver {

/** Grid axes of one `--serve-sweep` run; `base` carries every knob the
 *  axes do not override. */
struct ServeSweepOptions
{
    serve::ServeOptions base;
    std::vector<double> rates = {500.0, 1000.0, 2000.0, 4000.0};
    std::vector<std::string> disciplines = {"fifo", "dyn-batch"};
    std::vector<int> deviceCounts = {1, 4};
    int threads = 0;  ///< worker threads; 0 = hardware concurrency
};

/** One grid point's outcome (options echo + result). */
struct ServeSweepOutcome
{
    serve::ServeOptions opts;
    serve::ServeResult result;
};

/** Render one serving run as the awbsim-serve-v1 JSON document. */
Json serveToJson(const serve::ServeOptions &opts,
                 const serve::ServeResult &res);

/** Expand the grid and run every point as one parallelFor chunk
 *  (results land by grid position — thread count cannot reorder). */
std::vector<ServeSweepOutcome> runServeSweep(const ServeSweepOptions &opts);

/** `awbsim --list-disciplines`. */
int listDisciplines();

/** CLI front-end for `awbsim --serve`; returns the exit code. */
int runServeCli(CommandLine &cl);

/** CLI front-end for `awbsim --serve-sweep`; returns the exit code. */
int runServeSweepCli(CommandLine &cl);

} // namespace awb::driver
