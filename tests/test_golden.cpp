/**
 * @file
 * The golden sweep corpus: tests/golden/sweep_<engine>_chips<N>.json are
 * `awbsim --sweep` documents over every exec::Mode, both memory-bound
 * and unconstrained platforms, chips 1 and 2, and five balance
 * policies. Each case reruns one document's grid in process and
 * requires its `--json -` bytes to equal the tracked file — with the
 * process-wide caches on, and (batched engine) with `--no-cache`.
 *
 * An intended model change re-records the files (and says so in
 * CHANGES.md, as for the BENCH_*.json documents):
 *
 *     for e in event batched; do for c in 1 2; do
 *       ./build/awbsim --sweep --datasets cora \
 *           --designs baseline,local-a,remote-c,remote-d,eie-like \
 *           --pes 64 --platforms unconstrained,ddr4-2400 \
 *           --modes model,cycle,tdq1,tdq2,graphsage,gin,khop,bfs,pagerank,churn \
 *           --engine $e --chips $c --json - \
 *           > tests/golden/sweep_${e}_chips$c.json
 *     done; done
 *
 * The chips-2 grid holds 40 error rows (graphsage, gin, khop and churn
 * run unsharded only), so that sweep exits 1.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include "driver/driver.hpp"

namespace awb {
namespace {

/** The corpus grid, minus the engine and chips axes. */
std::vector<std::string>
goldenArgs()
{
    return {"--sweep",      "--datasets",  "cora",
            "--designs",    "baseline,local-a,remote-c,remote-d,eie-like",
            "--pes",        "64",
            "--modes",
            "model,cycle,tdq1,tdq2,graphsage,gin,khop,bfs,pagerank,churn",
            "--platforms",  "unconstrained,ddr4-2400",
            "--threads",    "1"};
}

/** (engine, chips, caches on). */
using GoldenCase = std::tuple<std::string, int, bool>;

class GoldenSweep : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(GoldenSweep, MatchesTheTrackedDocument)
{
    const auto &[engine, chips, cached] = GetParam();
    const std::string path = std::string(AWB_SOURCE_DIR) +
                             "/tests/golden/sweep_" + engine + "_chips" +
                             std::to_string(chips) + ".json";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    const std::string golden((std::istreambuf_iterator<char>(in)), {});

    std::vector<std::string> args = goldenArgs();
    args.insert(args.begin(), "awbsim");
    args.insert(args.end(), {"--engine", engine, "--chips",
                             std::to_string(chips), "--json", "-"});
    if (!cached) args.push_back("--no-cache");
    std::vector<char *> argv;
    for (auto &a : args) argv.push_back(a.data());
    ::testing::internal::CaptureStdout();
    const int rc = driver::driverMain(static_cast<int>(argv.size()),
                                      argv.data());
    const std::string doc = ::testing::internal::GetCapturedStdout();

    // Exit 1 exactly when the grid holds error rows (chips 2).
    EXPECT_EQ(rc, chips > 1 ? 1 : 0);
    // One EXPECT on the whole document keeps a failure's report short;
    // cmp the file against `--json -` output to locate the difference.
    EXPECT_TRUE(doc == golden)
        << path << " differs from the rerun (" << doc.size() << " vs "
        << golden.size() << " bytes)";
}

std::string
caseName(const ::testing::TestParamInfo<GoldenCase> &info)
{
    const auto &[engine, chips, cached] = info.param;
    return engine + "_chips" + std::to_string(chips) +
           (cached ? "_cached" : "_nocache");
}

// Every document with the caches on; the batched engine, whose memo
// and round cache interact, with them off too (the event engine's
// uncached chips-1 grid alone takes about 11 s).
INSTANTIATE_TEST_SUITE_P(
    Corpus, GoldenSweep,
    ::testing::Values(GoldenCase{"event", 1, true},
                      GoldenCase{"event", 2, true},
                      GoldenCase{"batched", 1, true},
                      GoldenCase{"batched", 2, true},
                      GoldenCase{"batched", 1, false},
                      GoldenCase{"batched", 2, false}),
    caseName);

} // namespace
} // namespace awb
