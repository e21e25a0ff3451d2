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
 *
 * tests/golden/run_all.json is the `awbsim run all --json -` document,
 * rerun with the caches on only (CI already checks that the scenarios'
 * JSON does not depend on them). It re-records with
 *
 *     ./build/awbsim run all --json - > tests/golden/run_all.json
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

/** The tracked document tests/golden/<name>.json. */
std::string
readGolden(const std::string &name)
{
    const std::string path =
        std::string(AWB_SOURCE_DIR) + "/tests/golden/" + name + ".json";
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    return std::string((std::istreambuf_iterator<char>(in)), {});
}

/** Run driverMain on `args` (without argv[0]); returns its exit code
 *  and sets `doc` to what it wrote to stdout. */
int
rerun(std::vector<std::string> args, std::string &doc)
{
    args.insert(args.begin(), "awbsim");
    std::vector<char *> argv;
    for (auto &a : args) argv.push_back(a.data());
    ::testing::internal::CaptureStdout();
    const int rc = driver::driverMain(static_cast<int>(argv.size()),
                                      argv.data());
    doc = ::testing::internal::GetCapturedStdout();
    return rc;
}

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
    const std::string name =
        "sweep_" + engine + "_chips" + std::to_string(chips);
    const std::string golden = readGolden(name);

    std::vector<std::string> args = goldenArgs();
    args.insert(args.end(), {"--engine", engine, "--chips",
                             std::to_string(chips), "--json", "-"});
    if (!cached) args.push_back("--no-cache");
    std::string doc;
    const int rc = rerun(args, doc);

    // Exit 1 exactly when the grid holds error rows (chips 2).
    EXPECT_EQ(rc, chips > 1 ? 1 : 0);
    // One EXPECT on the whole document keeps a failure's report short;
    // cmp the file against `--json -` output to locate the difference.
    EXPECT_TRUE(doc == golden)
        << name << " differs from the rerun (" << doc.size() << " vs "
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

TEST(GoldenRunAll, MatchesTheTrackedDocument)
{
    const std::string golden = readGolden("run_all");
    std::string doc;
    EXPECT_EQ(rerun({"run", "all", "--json", "-"}, doc), 0);
    EXPECT_TRUE(doc == golden) << "run_all differs from the rerun ("
                               << doc.size() << " vs " << golden.size()
                               << " bytes)";
}

} // namespace
} // namespace awb
