/**
 * @file
 * The awbsim command layer (driver/cli.hpp) end to end: every command
 * on a tiny grid, with its JSON document locked by a digest (advisory
 * wall-clock keys dropped, as tools/check_bench.py does) and its exit
 * code checked; the rejections of empty axes and malformed numbers; the
 * shared bench tail's gates; and the generated usage against the
 * options each flag table binds.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "driver/bench.hpp"
#include "driver/driver.hpp"
#include "engine_checks.hpp"
#include "graph/datasets.hpp"

namespace awb {
namespace {

/** Run driverMain on `args` (program name prepended); returns the exit
 *  code, and the captured stdout through `out` when given. */
int
runAwbsim(std::vector<std::string> args, std::string *out = nullptr)
{
    args.insert(args.begin(), "awbsim");
    std::vector<char *> argv;
    for (auto &a : args) argv.push_back(a.data());
    ::testing::internal::CaptureStdout();
    const int rc = driver::driverMain(static_cast<int>(argv.size()),
                                      argv.data());
    const std::string text = ::testing::internal::GetCapturedStdout();
    if (out) *out = text;
    return rc;
}

/** FNV digest of a JSON document, skipping every line whose key holds
 *  a host-time measurement (the check_bench.py advisory rule). */
std::uint64_t
docDigest(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    Digest d;
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t q0 = line.find('"');
        const std::size_t q1 =
            q0 == std::string::npos ? q0 : line.find('"', q0 + 1);
        if (q1 != std::string::npos && line.find("\":", q1) == q1) {
            const std::string key = line.substr(q0 + 1, q1 - q0 - 1);
            if (key.find("wall_ms") != std::string::npos ||
                key.find("speedup") != std::string::npos ||
                key.find("latency_saved") != std::string::npos)
                continue;
        }
        for (unsigned char c : line) d.add(c);
        d.add('\n');
    }
    return d.h;
}

struct CommandCase
{
    std::vector<std::string> args;
    std::uint64_t digest;
};

TEST(CliOutputs, EveryCommandOnATinyGridIsLocked)
{
    const std::string out = ::testing::TempDir() + "awbsim_cli_doc.json";
    const std::vector<CommandCase> cases = {
        {{"--sweep", "--datasets", "cora", "--designs", "base,d", "--pes",
          "32", "--modes", "model,cycle", "--scale", "0.1", "--threads",
          "1", "--no-table"},
         4701173725877801355ULL},
        {{"--bench-engine", "--datasets", "cora", "--pes", "16",
          "--policies", "baseline,remote-d", "--k", "4", "--scale", "0.1"},
         15170941618638753744ULL},
        {{"--bench-memory", "--datasets", "cora", "--policies",
          "baseline", "--platforms", "unconstrained,d5005-ddr4", "--pes",
          "64", "--scale", "0.1"},
         16359742166953790849ULL},
        {{"--bench-scaleout", "--dataset", "cora", "--chips", "1,2",
          "--platforms", "d5005-ddr4", "--pes", "32", "--scale", "0.1"},
         8381407482018547178ULL},
        {{"--bench-serving", "--datasets", "cora,citeseer", "--rates",
          "20000", "--duration-ms", "0.2", "--clients", "2", "--devices",
          "1"},
         8340484164842799030ULL},
        {{"--bench-spgemm", "--dataset", "cora", "--policies",
          "baseline,remote-d", "--pes", "16", "--scale", "0.1"},
         11325726617327695694ULL},
        {{"--bench-dynamic", "--datasets", "cora", "--policies",
          "baseline", "--pes", "16", "--epochs", "2", "--events", "16",
          "--scale", "0.1"},
         8166226354629708594ULL},
        {{"--serve", "--arrivals", "closed", "--clients", "2",
          "--duration-ms", "0.2", "--no-table"},
         6697074707827267253ULL},
        {{"--serve-sweep", "--duration-ms", "0.2", "--rates", "20000",
          "--disciplines", "fifo", "--devices", "1,2", "--threads", "1",
          "--no-table"},
         13308705634538025013ULL},
    };
    for (const CommandCase &c : cases) {
        std::remove(out.c_str());
        std::vector<std::string> args = c.args;
        args.push_back("--json");
        args.push_back(out);
        EXPECT_EQ(runAwbsim(args), 0) << c.args[0];
        EXPECT_EQ(docDigest(out), c.digest) << c.args[0];
    }
    std::remove(out.c_str());
}

/** `--json -` puts the document alone on stdout: the same bytes the
 *  command writes to a file, with no table ahead of it. */
TEST(CliOutputs, JsonToStdoutIsTheDocumentAlone)
{
    const std::string out = ::testing::TempDir() + "awbsim_cli_stdout.json";
    const std::vector<std::vector<std::string>> cases = {
        {"--sweep", "--datasets", "cora", "--designs", "base,d", "--pes",
         "32", "--modes", "model", "--scale", "0.1", "--threads", "2"},
        {"--serve", "--arrivals", "closed", "--clients", "2",
         "--duration-ms", "0.2"},
        {"--bench-memory", "--datasets", "cora", "--policies", "baseline",
         "--platforms", "unconstrained,d5005-ddr4", "--pes", "64",
         "--scale", "0.1"},
    };
    for (const auto &c : cases) {
        std::vector<std::string> to_file = c;
        to_file.insert(to_file.end(), {"--json", out});
        ASSERT_EQ(runAwbsim(to_file), 0) << c[0];
        std::ifstream in(out);
        const std::string file((std::istreambuf_iterator<char>(in)), {});

        std::vector<std::string> to_stdout = c;
        to_stdout.insert(to_stdout.end(), {"--json", "-"});
        std::string printed;
        ASSERT_EQ(runAwbsim(to_stdout, &printed), 0) << c[0];
        EXPECT_FALSE(file.empty()) << c[0];
        EXPECT_EQ(printed, file) << c[0];
    }
    std::remove(out.c_str());
}

TEST(CliDeath, EveryListFlagRefusesAnEmptyList)
{
    const std::vector<std::vector<std::string>> cases = {
        {"--bench-engine", "--pes", ""},
        {"--bench-engine", "--datasets", ""},
        {"--bench-engine", "--policies", ","},
        {"--bench-memory", "--datasets", ""},
        {"--bench-scaleout", "--platforms", ""},
        {"--sweep", "--modes", ""},
        {"--serve-sweep", "--rates", ""},
    };
    for (const auto &args : cases)
        EXPECT_EXIT(runAwbsim(args), ::testing::ExitedWithCode(1),
                    args[1] + " must not be empty")
            << args[0];
}

TEST(CliDeath, MalformedNumbersAreRefused)
{
    EXPECT_EXIT(runAwbsim({"--sweep", "--seed", "-1"}),
                ::testing::ExitedWithCode(1),
                "--seed needs an unsigned integer, got '-1'");
    EXPECT_EXIT(runAwbsim({"--serve", "--requests", "-3"}),
                ::testing::ExitedWithCode(1), "--requests needs an unsigned");
    EXPECT_EXIT(runAwbsim({"--sweep", "--scale", "nan"}),
                ::testing::ExitedWithCode(1),
                "--scale needs a finite number, got 'nan'");
    EXPECT_EXIT(runAwbsim({"--serve", "--rate", "inf"}),
                ::testing::ExitedWithCode(1), "--rate needs a finite number");
    EXPECT_EXIT(runAwbsim({"--sweep", "--pes", "64,x"}),
                ::testing::ExitedWithCode(1), "--pes needs an integer");
    EXPECT_EXIT(scaledSpec(findDataset("cora"),
                           std::numeric_limits<double>::quiet_NaN()),
                ::testing::ExitedWithCode(1), "scale must be in");
}

TEST(CliDeath, UnknownModeSuggestsNearMiss)
{
    EXPECT_EXIT(runAwbsim({"--sweep", "--modes", "cylce"}),
                ::testing::ExitedWithCode(1), "did you mean 'cycle'");
    EXPECT_EXIT(runAwbsim({"--sweep", "--modes", "model,pagernk"}),
                ::testing::ExitedWithCode(1), "did you mean 'pagerank'");
}

TEST(CliDeath, UnknownFlagsAndMissingValuesAreFatal)
{
    EXPECT_EXIT(runAwbsim({"--bench-spgemm", "--bogus"}),
                ::testing::ExitedWithCode(1),
                "unknown bench-spgemm flag: --bogus");
    EXPECT_EXIT(runAwbsim({"run", "--bogus"}), ::testing::ExitedWithCode(1),
                "unknown run flag: --bogus");
    EXPECT_EXIT(runAwbsim({"--serve", "--rate"}),
                ::testing::ExitedWithCode(1), "--rate needs a value");
    EXPECT_EXIT(runAwbsim({"--bench-dynamic", "--epochs", "0"}),
                ::testing::ExitedWithCode(1), "--epochs must be >= 1");
    for (const char *cmd : {"--serve", "--serve-sweep", "--bench-serving"})
        EXPECT_EXIT(runAwbsim({cmd, "--duration-ms", "-1"}),
                    ::testing::ExitedWithCode(1),
                    "--duration-ms must be >= 0")
            << cmd;
    EXPECT_EXIT(runAwbsim({"--bench-engine", "--reddit-pes", "-3"}),
                ::testing::ExitedWithCode(1), "--reddit-pes must be >= 0");
}

/** The shared bench tail: every gate lands in the summary, in its
 *  declared place among the extra keys, and in the exit code; a failed
 *  one is named on stderr. */
TEST(BenchDoc, GatesFeedTheSummaryAndTheExitCode)
{
    const std::string out = ::testing::TempDir() + "awbsim_bench_doc.json";
    auto finish = [&out](bool first_ok, std::string *err) {
        driver::BenchDoc doc("bench-test", {{"schema", "test-v1"}},
                             {"x"});
        bool &first = doc.gate("first_gate");
        doc.summary().set("extra", 7);
        doc.gate("second_gate");
        doc.point(driver::Json::object({{"x", 1}}), {"1"});
        first = first_ok;
        ::testing::internal::CaptureStdout();
        ::testing::internal::CaptureStderr();
        const int rc = doc.finish(out, "why");
        ::testing::internal::GetCapturedStdout();
        *err = ::testing::internal::GetCapturedStderr();
        return rc;
    };
    auto expected = [](const char *first) {
        return std::string("{\n  \"schema\": \"test-v1\",\n"
                           "  \"points\": [\n    {\n      \"x\": 1\n"
                           "    }\n  ],\n  \"summary\": {\n"
                           "    \"first_gate\": ") +
               first +
               ",\n    \"extra\": 7,\n    \"second_gate\": true\n  }\n}\n";
    };
    auto read = [&out] {
        std::ifstream in(out);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };
    std::string err;
    EXPECT_EQ(finish(true, &err), 0);
    EXPECT_EQ(err, "");
    EXPECT_EQ(read(), expected("true"));

    EXPECT_EQ(finish(false, &err), 1);
    EXPECT_EQ(err, "bench-test: GATE FAILED — first_gate: why\n");
    EXPECT_EQ(read(), expected("false"));
    std::remove(out.c_str());
}

/** The entry of `flag` in the `awbsim <command>` block of `usage`: its
 *  line and any continuation lines. */
std::string
usageEntry(const std::string &usage, const std::string &command,
           const std::string &flag)
{
    const std::size_t block = usage.find("\n  awbsim " + command + " ");
    if (block == std::string::npos) return "";
    const std::size_t end = usage.find("\n\n", block + 1);
    const std::size_t at = usage.find("\n      " + flag + " ", block);
    if (at == std::string::npos || at > end) return "";
    std::size_t stop = usage.find("\n      -", at + 1);
    return usage.substr(at + 1, std::min(stop, end) - at - 1);
}

TEST(CliUsage, HelpShowsTheDefaultsTheCommandsUse)
{
    std::string usage;
    ASSERT_EQ(runAwbsim({"--help"}, &usage), 0);
    EXPECT_NE(usageEntry(usage, "--bench-dynamic", "--pes")
                  .find("(default 256)"),
              std::string::npos)
        << usage;
    EXPECT_NE(usageEntry(usage, "--bench-dynamic", "--insert-frac")
                  .find("(default 0.9)"),
              std::string::npos);
    // Rendered without the locale's decimal comma (CI reruns this test
    // under de_DE.UTF-8).
    EXPECT_NE(usageEntry(usage, "--bench-spgemm", "--damping")
                  .find("(default 0.85)"),
              std::string::npos);
    EXPECT_NE(usageEntry(usage, "--bench-spgemm", "--tol")
                  .find("(default 1e-06)"),
              std::string::npos);
}

TEST(CliUsage, EveryRenderedDefaultReadsBackToTheDefault)
{
    std::size_t checked = 0;
    for (const driver::Command &c : driver::commands()) {
        driver::CommandLine inspect(
            c.name, [&](const std::string &usage,
                        const std::vector<driver::Flag> &flags) {
                EXPECT_NE(usage.find("awbsim " + std::string(c.name)),
                          std::string::npos);
                auto showAll = [&flags] {
                    std::vector<std::string> shown;
                    for (const auto &f : flags) shown.push_back(f.show());
                    return shown;
                };
                const std::vector<std::string> defaults = showAll();
                for (const auto &f : flags) {
                    const std::string text = f.show();
                    if (f.metavar.empty() || text.empty()) continue;
                    f.set(text);
                    EXPECT_EQ(showAll(), defaults)
                        << c.name << " " << f.names.front() << " " << text;
                    ++checked;
                }
            });
        EXPECT_EQ(c.main(inspect), 0) << c.name;
    }
    EXPECT_GT(checked, 100U);
}

} // namespace
} // namespace awb
