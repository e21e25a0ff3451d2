/**
 * @file
 * Unit tests of the experiment-driver subsystem: JSON document builder,
 * scenario registration, sweep-grid expansion, per-point seed derivation,
 * worker-pool determinism (same seed ⇒ byte-identical JSON regardless of
 * thread count) and the JSON schema of sweep output.
 */

#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>

#include "driver/json.hpp"
#include "driver/scenario.hpp"
#include "driver/sweep.hpp"

using namespace awb;
using namespace awb::driver;

namespace {

/** A small, fast grid exercising both fidelities. */
SweepOptions
smallGrid()
{
    SweepOptions opts;
    opts.datasets = {"cora", "citeseer"};
    opts.designs = {"baseline", "remote-d"};
    opts.peCounts = {32, 64};
    opts.modes = {exec::Mode::Model};
    opts.scale = 0.5;
    opts.seed = 7;
    return opts;
}

} // namespace

// ---------------------------------------------------------------- JSON

TEST(Json, ScalarsAndEscaping)
{
    Json o = Json::object();
    o.set("int", 42);
    o.set("neg", std::int64_t{-7});
    o.set("str", "a\"b\\c\nd");
    o.set("bool", true);
    o.set("null", Json());
    EXPECT_EQ(o.dump(),
              "{\"int\":42,\"neg\":-7,\"str\":\"a\\\"b\\\\c\\nd\","
              "\"bool\":true,\"null\":null}");
}

TEST(Json, UnsignedValuesRenderUnsigned)
{
    Json o = Json::object();
    o.set("seed", std::uint64_t{18446744073709551615ULL});
    EXPECT_EQ(o.dump(), "{\"seed\":18446744073709551615}");
}

TEST(Json, ObjectKeysKeepInsertionOrder)
{
    Json o = Json::object();
    o.set("zebra", 1);
    o.set("alpha", 2);
    o.set("mid", 3);
    EXPECT_EQ(o.dump(), "{\"zebra\":1,\"alpha\":2,\"mid\":3}");
}

TEST(Json, ArraysAndNesting)
{
    Json a = Json::array();
    a.push(1);
    a.push("two");
    Json o = Json::object();
    o.set("list", std::move(a));
    EXPECT_EQ(o.dump(), "{\"list\":[1,\"two\"]}");
}

TEST(Json, DoubleFormattingIsStable)
{
    EXPECT_EQ(jsonNumber(0.5), "0.5");
    EXPECT_EQ(jsonNumber(1.0 / 3.0), jsonNumber(1.0 / 3.0));
    EXPECT_EQ(jsonNumber(1e300), "1e+300");
}

// ------------------------------------------------------------ registry

TEST(ScenarioRegistry, RegistrationAndLookup)
{
    auto &reg = ScenarioRegistry::instance();
    std::size_t before = reg.all().size();
    ScenarioRegistrar r({"test-scenario-a", "Test", "a test scenario",
                         [](ScenarioContext &) {}});
    EXPECT_EQ(reg.all().size(), before + 1);
    const Scenario *s = reg.find("test-scenario-a");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->figure, "Test");
    EXPECT_EQ(reg.find("no-such-scenario"), nullptr);
}

TEST(ScenarioRegistry, AllIsSortedByName)
{
    ScenarioRegistrar rz({"zz-test-scenario", "Test", "late name",
                          [](ScenarioContext &) {}});
    ScenarioRegistrar ra({"aa-test-scenario", "Test", "early name",
                          [](ScenarioContext &) {}});
    auto all = ScenarioRegistry::instance().all();
    ASSERT_GE(all.size(), 2u);
    for (std::size_t i = 1; i < all.size(); ++i)
        EXPECT_LT(all[i - 1]->name, all[i]->name);
}

TEST(ScenarioRegistry, RunReceivesContext)
{
    std::uint64_t seen_seed = 0;
    ScenarioRegistrar r({"test-scenario-ctx", "Test", "context check",
                         [&](ScenarioContext &ctx) {
                             seen_seed = ctx.seed;
                             ctx.result.set("ran", true);
                         }});
    ScenarioContext ctx;
    ctx.seed = 99;
    ScenarioRegistry::instance().find("test-scenario-ctx")->run(ctx);
    EXPECT_EQ(seen_seed, 99u);
    EXPECT_EQ(ctx.result.dump(), "{\"ran\":true}");
}

// ---------------------------------------------------------------- grid

TEST(SweepGrid, ExpansionIsFullCrossProduct)
{
    SweepOptions opts = smallGrid();
    opts.modes = {exec::Mode::Model, exec::Mode::Cycle};
    auto points = expandGrid(opts);
    EXPECT_EQ(points.size(), 2u * 2u * 2u * 2u);
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(points[i].index, i);
    // Axis order: dataset (slowest), design, PEs, mode (fastest).
    EXPECT_EQ(points[0].dataset, "cora");
    EXPECT_EQ(points[0].mode, exec::Mode::Model);
    EXPECT_EQ(points[1].mode, exec::Mode::Cycle);
    EXPECT_EQ(points[2].pes, 64);
    EXPECT_EQ(points[8].dataset, "citeseer");
}

TEST(SweepGrid, PointSeedsAreDistinctAndDeterministic)
{
    std::set<std::uint64_t> seeds;
    for (std::size_t i = 0; i < 1000; ++i)
        seeds.insert(derivePointSeed(1, i));
    EXPECT_EQ(seeds.size(), 1000u);
    EXPECT_EQ(derivePointSeed(42, 7), derivePointSeed(42, 7));
    EXPECT_NE(derivePointSeed(42, 7), derivePointSeed(43, 7));
}

// ------------------------------------------------- sweep determinism

TEST(Sweep, SameSeedSameJsonAcrossThreadCounts)
{
    SweepOptions opts = smallGrid();
    opts.threads = 1;
    std::string one = sweepToJson(opts, runSweep(opts)).dump(2);
    opts.threads = 4;
    std::string four = sweepToJson(opts, runSweep(opts)).dump(2);
    EXPECT_EQ(one, four);
    opts.threads = 3;  // pool larger than some axes, smaller than grid
    std::string three = sweepToJson(opts, runSweep(opts)).dump(2);
    EXPECT_EQ(one, three);
}

TEST(Sweep, DifferentSeedDifferentWorkload)
{
    SweepOptions opts = smallGrid();
    std::string a = sweepToJson(opts, runSweep(opts)).dump();
    opts.seed = 8;
    std::string b = sweepToJson(opts, runSweep(opts)).dump();
    EXPECT_NE(a, b);
}

TEST(Sweep, RepeatsVerifyDeterminism)
{
    SweepOptions opts = smallGrid();
    opts.datasets = {"cora"};
    opts.peCounts = {32};
    opts.repeats = 2;
    auto outcomes = runSweep(opts);
    for (const auto &o : outcomes) {
        ASSERT_TRUE(o.ok) << o.error;
        EXPECT_TRUE(o.deterministic);
    }
}

TEST(Sweep, CycleModeMatchesAcceleratorAndChecksPow2)
{
    SweepOptions opts = smallGrid();
    opts.datasets = {"cora"};
    opts.designs = {"remote-d"};
    opts.peCounts = {24};  // not a power of two
    opts.modes = {exec::Mode::Cycle};
    opts.scale = 0.2;
    auto outcomes = runSweep(opts);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].ok);

    opts.peCounts = {32};
    outcomes = runSweep(opts);
    ASSERT_EQ(outcomes.size(), 1u);
    ASSERT_TRUE(outcomes[0].ok) << outcomes[0].error;
    EXPECT_GT(outcomes[0].cycles, 0);
    EXPECT_GT(outcomes[0].tasks, 0);
    EXPECT_GT(outcomes[0].utilization, 0.0);
}

TEST(Sweep, TdqModesRun)
{
    SweepOptions opts;
    opts.datasets = {"cora"};
    opts.designs = {"local-a"};
    opts.peCounts = {16};
    opts.modes = {exec::Mode::SpmmTdq1, exec::Mode::SpmmTdq2};
    opts.scale = 0.1;
    auto outcomes = runSweep(opts);
    ASSERT_EQ(outcomes.size(), 2u);
    for (const auto &o : outcomes) {
        ASSERT_TRUE(o.ok) << o.error;
        EXPECT_GT(o.cycles, 0);
        EXPECT_GT(o.rounds, 0);
    }
}

// ------------------------------------------------------------- schema

TEST(Sweep, JsonSchema)
{
    SweepOptions opts = smallGrid();
    opts.datasets = {"cora"};
    opts.designs = {"baseline"};
    opts.peCounts = {32};
    auto outcomes = runSweep(opts);
    std::string doc = sweepToJson(opts, outcomes).dump(2);

    for (const char *key :
         {"\"schema\": \"awbsim-sweep-v1\"", "\"seed\": 7", "\"grid\":",
          "\"datasets\":", "\"designs\":", "\"pe_counts\":", "\"modes\":",
          "\"points\":", "\"index\": 0", "\"dataset\": \"cora\"",
          "\"design\": \"Baseline\"", "\"policy\": \"baseline\"",
          "\"pes\": 32", "\"mode\": \"model\"",
          "\"ok\": true", "\"cycles\":", "\"ideal_cycles\":",
          "\"sync_cycles\":", "\"tasks\":", "\"utilization\":",
          "\"peak_tq_depth\":", "\"rows_switched\":",
          "\"converged_round\":", "\"rounds\":",
          "\"latency_ms\":", "\"inferences_per_kj\":",
          "\"area_total_clb\":", "\"area_tq_clb\":", "\"deterministic\":"})
        EXPECT_NE(doc.find(key), std::string::npos) << "missing " << key;

    // Balanced braces/brackets — cheap well-formedness check.
    long depth = 0;
    for (char c : doc) {
        if (c == '{' || c == '[') ++depth;
        if (c == '}' || c == ']') --depth;
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

TEST(Sweep, ModeNamesRoundTrip)
{
    for (exec::Mode m : {exec::Mode::Model, exec::Mode::Cycle,
                         exec::Mode::SpmmTdq1, exec::Mode::SpmmTdq2})
        EXPECT_EQ(exec::parseMode(exec::modeName(m)), m);
}

// ------------------------------------------------- thread resolution

TEST(Sweep, ResolveThreadsCapsAtGridSizeAndFallsBackToOne)
{
    // More workers than points: the pool shrinks to the grid size.
    EXPECT_EQ(resolveThreads(64, 3), 3u);
    EXPECT_EQ(resolveThreads(64, 64), 64u);

    // threads == 0 defers to std::thread::hardware_concurrency(), which
    // may itself report 0 on exotic hosts; the resolved pool must stay
    // in [1, n_points] either way (the max(1, hw) fallback).
    unsigned resolved = resolveThreads(0, 5);
    EXPECT_GE(resolved, 1u);
    EXPECT_LE(resolved, 5u);

    // Degenerate empty grid still yields a positive pool size.
    EXPECT_EQ(resolveThreads(8, 0), 1u);
}

TEST(Sweep, MoreThreadsThanPointsIsDeterministic)
{
    SweepOptions opts = smallGrid();
    opts.datasets = {"cora"};
    opts.designs = {"baseline", "remote-d"};
    opts.peCounts = {32};  // 2 grid points
    opts.threads = 1;
    std::string serial = sweepToJson(opts, runSweep(opts)).dump(2);
    opts.threads = 16;  // far more workers than points
    std::string wide = sweepToJson(opts, runSweep(opts)).dump(2);
    EXPECT_EQ(serial, wide);
}

// ------------------------------------------------- platform axis

TEST(SweepGrid, PlatformAxisExpandsAndValidates)
{
    SweepOptions opts = smallGrid();
    opts.datasets = {"cora"};
    opts.designs = {"baseline"};
    opts.peCounts = {32};
    opts.platforms = {"unconstrained", "d5005-ddr4"};
    auto points = expandGrid(opts);
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].platform, "unconstrained");
    EXPECT_EQ(points[1].platform, "d5005-ddr4");
    // Same dataset → same workload seed: the two platform points share
    // one synthesized workload through the WorkloadCache (DESIGN.md §13).
    EXPECT_EQ(points[0].seed, points[1].seed);
}

TEST(SweepGridDeath, UnknownPlatformIsFatal)
{
    SweepOptions opts = smallGrid();
    opts.platforms = {"hbm9"};
    EXPECT_EXIT(expandGrid(opts), ::testing::ExitedWithCode(1),
                "unknown platform");
}

TEST(Sweep, ShardedWorkloadGraphModeNamesTheUnsupportedCombination)
{
    // The workload-graph modes run unsharded only; asking for chips > 1
    // must produce an error row that names the exact mode × chips pair
    // and the modes that DO support sharding.
    SweepOptions opts = smallGrid();
    for (exec::Mode mode :
         {exec::Mode::GraphSage, exec::Mode::Gin, exec::Mode::KhopGcn}) {
        SweepPoint p;
        p.dataset = "cora";
        p.policy = "baseline";
        p.pes = 32;
        p.chips = 2;
        p.mode = mode;
        SweepOutcome out = runSweepPoint(p, opts);
        EXPECT_FALSE(out.ok);
        EXPECT_NE(out.error.find("mode '" + exec::modeName(mode) +
                                 "' with chips=2 is unsupported"),
                  std::string::npos)
            << out.error;
        EXPECT_NE(out.error.find("run unsharded only"), std::string::npos);
        EXPECT_NE(out.error.find("model|cycle|tdq1|tdq2"),
                  std::string::npos);
    }
    // The same point with one chip is a supported combination.
    SweepPoint ok_point;
    ok_point.dataset = "cora";
    ok_point.policy = "baseline";
    ok_point.pes = 32;
    ok_point.chips = 1;
    ok_point.mode = exec::Mode::GraphSage;
    EXPECT_TRUE(runSweepPoint(ok_point, opts).ok);
}

TEST(Sweep, JsonSchemaCarriesMemoryModelKeys)
{
    SweepOptions opts = smallGrid();
    opts.datasets = {"cora"};
    opts.designs = {"remote-d"};
    opts.peCounts = {32};
    opts.platforms = {"ddr4-2400"};
    auto outcomes = runSweep(opts);
    ASSERT_EQ(outcomes.size(), 1u);
    ASSERT_TRUE(outcomes[0].ok) << outcomes[0].error;
    // The capped platform must actually bind some rounds.
    EXPECT_GT(outcomes[0].bwBoundRounds, 0);
    EXPECT_GT(outcomes[0].memoryCycles, 0);
    EXPECT_GT(outcomes[0].bytesTotal, 0);

    std::string doc = sweepToJson(opts, outcomes).dump(2);
    for (const char *key :
         {"\"platforms\":", "\"platform\": \"ddr4-2400\"",
          "\"bytes_total\":", "\"memory_cycles\":",
          "\"bw_bound_rounds\":"})
        EXPECT_NE(doc.find(key), std::string::npos) << "missing " << key;
}

// ------------------------------------------------- locale independence

namespace {

/**
 * Activate a decimal-comma locale for the calling process; returns the
 * locale name, or "" when none can be found or generated (the caller
 * skips). Tries installed candidates first, then generates de_DE.UTF-8
 * into a scratch directory via localedef + LOCPATH (glibc).
 */
std::string
activateCommaLocale()
{
    static const char *candidates[] = {"de_DE.UTF-8", "de_DE.utf8",
                                       "fr_FR.UTF-8", "fr_FR.utf8"};
    for (const char *c : candidates)
        if (std::setlocale(LC_ALL, c) != nullptr) return c;
    std::string dir = ::testing::TempDir() + "awb-locales";
    std::string cmd = "mkdir -p '" + dir + "' && localedef -i de_DE " +
                      "-f UTF-8 '" + dir + "/de_DE.UTF-8' >/dev/null 2>&1";
    if (std::system(cmd.c_str()) == 0) {
        setenv("LOCPATH", dir.c_str(), 1);
        if (std::setlocale(LC_ALL, "de_DE.UTF-8") != nullptr)
            return "de_DE.UTF-8 (generated)";
    }
    return "";
}

/** RAII guard restoring the C locale however the test exits. */
struct CLocaleGuard
{
    ~CLocaleGuard() { std::setlocale(LC_ALL, "C"); }
};

} // namespace

// In the C locale, jsonNumber must match snprintf("%.12g") byte for
// byte — the historical format every tracked JSON document uses.
TEST(JsonLocale, NumberFormatMatchesHistoricalPrintf)
{
    for (double v : {0.0, 0.5, -0.5, 1.0 / 3, 1e-7, 76.8, 732.0, 1e12,
                     123456789012345.0, 2.5e-300, -1234.5678}) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.12g", v);
        EXPECT_EQ(jsonNumber(v), buf) << v;
    }
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()), "null");
    EXPECT_EQ(jsonNumber(std::nan("")), "null");
}

// The satellite bug: under de_DE.UTF-8, snprintf("%.12g") emits a
// decimal comma, which is invalid JSON and breaks the byte-identical
// sweep-output guarantee. The dump must not depend on LC_NUMERIC.
TEST(JsonLocale, DumpIsByteIdenticalUnderCommaLocale)
{
    Json doc = Json::object();
    doc.set("half", 0.5);
    doc.set("bandwidth_gbs", 76.8);
    doc.set("tiny", 1e-7);
    Json arr = Json::array();
    for (double v : {0.25, -1234.5678, 3.14159265358979})
        arr.push(v);
    doc.set("values", std::move(arr));
    const std::string c_dump = doc.dump(2);
    EXPECT_NE(c_dump.find("0.5"), std::string::npos);

    CLocaleGuard guard;
    std::string locale = activateCommaLocale();
    if (locale.empty())
        GTEST_SKIP() << "no decimal-comma locale available or generable";

    // Prove the locale really re-punctuates printf before relying on it.
    char probe[32];
    std::snprintf(probe, sizeof probe, "%.1f", 0.5);
    ASSERT_TRUE(std::strchr(probe, ',') != nullptr)
        << "locale '" << locale << "' does not use decimal commas";

    EXPECT_EQ(jsonNumber(0.5), "0.5");
    EXPECT_EQ(doc.dump(2), c_dump);
}
