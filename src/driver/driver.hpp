/**
 * @file
 * The `awbsim` unified experiment driver CLI.
 *
 * `run` executes registered paper scenarios (the former bench_* and
 * example mains); `--sweep` expands a configuration grid and runs it on
 * the multithreaded sweep engine; `--serve`/`--serve-sweep` drive the
 * serving front end; the `--bench-*` commands write the tracked
 * BENCH_*.json baselines. Every command parses its flags from one table
 * (driver/cli.hpp), and `awbsim --help` is rendered from the same
 * tables.
 */

#pragma once

#include <vector>

#include "driver/cli.hpp"

namespace awb::driver {

/** One awbsim command with a flag table. */
struct Command
{
    const char *name;
    int (*main)(CommandLine &);
};

/** Every such command, in `awbsim --help` order. */
const std::vector<Command> &commands();

/** Full CLI entry point; returns the process exit code. */
int driverMain(int argc, char **argv);

} // namespace awb::driver
