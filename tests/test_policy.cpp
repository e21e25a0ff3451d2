/**
 * @file
 * Balance-policy layer tests: registry registration/lookup/alias/
 * duplicate-rejection semantics, near-miss suggestions, the enum↔policy
 * equivalence lock (the six paper design points run through the policy
 * registry must reproduce the enum-era numbers bit for bit — cycles,
 * rowsSwitched, convergedRound — on Cora and Citeseer at 512 PEs),
 * round-by-round trace equality of the registry's remote-switching
 * policy object and a directly built RemoteSwitcher, the three non-paper
 * policies end-to-end through the sweep engine in Model and Cycle modes,
 * and the AccelConfig::validate combination checks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "accel/gcn_accel.hpp"
#include "accel/perf_model.hpp"
#include "accel/policy.hpp"
#include "accel/rebalance.hpp"
#include "accel/row_map.hpp"
#include "driver/sweep.hpp"
#include "graph/datasets.hpp"

using namespace awb;

// ------------------------------------------------------------- registry

TEST(PolicyRegistry, PaperDesignsAndExtensionsAreRegistered)
{
    auto &reg = PolicyRegistry::instance();
    // The labels are the paper's legend, the sweep JSON `design` field
    // and the fig14-overall scenario's JSON keys: pinned literally.
    const std::pair<const char *, const char *> paper[] = {
        {"baseline", "Baseline"},   {"local-a", "Design(A)"},
        {"local-b", "Design(B)"},   {"remote-c", "Design(C)"},
        {"remote-d", "Design(D)"},  {"eie-like", "EIE-like"},
    };
    for (const auto &[name, label] : paper) {
        const BalancePolicy *p = reg.find(name);
        ASSERT_NE(p, nullptr) << name;
        EXPECT_EQ(p->label, label);
        EXPECT_FALSE(p->description.empty());
    }
    for (const char *name : {"degree-sorted", "work-steal", "rechunk"})
        EXPECT_NE(reg.find(name), nullptr) << name;
}

TEST(PolicyRegistry, AliasesResolveToCanonicalPolicies)
{
    auto &reg = PolicyRegistry::instance();
    EXPECT_EQ(reg.get("base").name, "baseline");
    EXPECT_EQ(reg.get("a").name, "local-a");
    EXPECT_EQ(reg.get("b").name, "local-b");
    EXPECT_EQ(reg.get("c").name, "remote-c");
    EXPECT_EQ(reg.get("d").name, "remote-d");
    EXPECT_EQ(reg.get("eie").name, "eie-like");
    EXPECT_EQ(reg.get("steal").name, "work-steal");
}

TEST(PolicyRegistry, RegistrationAndLookup)
{
    auto &reg = PolicyRegistry::instance();
    // The registry is process-wide; keep the test idempotent under
    // --gtest_repeat by registering only on the first run.
    if (reg.find("test-policy-registration") == nullptr) {
        std::size_t before = reg.all().size();
        BalancePolicy p;
        p.name = "test-policy-registration";
        p.label = "TestReg";
        p.description = "registered by the unit test";
        p.configure = [](AccelConfig &, int) {};
        reg.add(std::move(p));
        EXPECT_EQ(reg.all().size(), before + 1);
    }
    const BalancePolicy *found = reg.find("test-policy-registration");
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->label, "TestReg");
    // A registered policy is immediately usable as a config.
    AccelConfig cfg = makePolicyConfig("test-policy-registration", 16);
    EXPECT_EQ(cfg.balancePolicy, "test-policy-registration");
    EXPECT_TRUE(cfg.validate().empty());
}

TEST(PolicyRegistryDeath, DuplicateNameIsRejected)
{
    BalancePolicy dup;
    dup.name = "baseline";
    EXPECT_EXIT(PolicyRegistry::instance().add(std::move(dup)),
                ::testing::ExitedWithCode(1), "duplicate policy name");
}

TEST(PolicyRegistryDeath, DuplicateAliasIsRejected)
{
    BalancePolicy dup;
    dup.name = "unique-enough-name";
    dup.aliases = {"eie"};  // taken by eie-like
    EXPECT_EXIT(PolicyRegistry::instance().add(std::move(dup)),
                ::testing::ExitedWithCode(1), "alias 'eie'");
}

TEST(PolicyRegistryDeath, UnknownPolicySuggestsNearMiss)
{
    EXPECT_EXIT(PolicyRegistry::instance().get("remote-dd"),
                ::testing::ExitedWithCode(1),
                "did you mean 'remote-d'");
    EXPECT_EXIT(makePolicyConfig("basline", 64),
                ::testing::ExitedWithCode(1), "did you mean 'baseline'");
}

TEST(PolicyConfig, EachPolicyCarriesItsModelledClock)
{
    // The EIE-like reference keeps its distinct modelled clock.
    EXPECT_EQ(policyClockMhz(makePolicyConfig("eie-like", 64)), 285.0);
    EXPECT_EQ(policyClockMhz(makePolicyConfig("remote-d", 64)), 275.0);
}

// --------------------------------------------- validate() combinations

TEST(ConfigValidate, RejectsNonsensicalPolicyCombinations)
{
    AccelConfig cfg = makePolicyConfig("remote-d", 64);
    EXPECT_TRUE(cfg.validate().empty());

    AccelConfig one_pe = cfg;
    one_pe.numPes = 1;
    EXPECT_NE(one_pe.validate().find("remote switching needs at least 2"),
              std::string::npos);

    AccelConfig wide = makePolicyConfig("local-b", 8);
    wide.sharingHops = 8;
    EXPECT_NE(wide.validate().find("sharingHops must be smaller"),
              std::string::npos);
    wide.sharingHops = 7;
    EXPECT_TRUE(wide.validate().empty());

    AccelConfig approx = makePolicyConfig("local-a", 64);
    approx.approximateEq5 = true;
    EXPECT_NE(approx.validate().find("approximateEq5"), std::string::npos);
    approx.remoteSwitching = true;
    EXPECT_TRUE(approx.validate().empty());

    AccelConfig unknown = makePolicyConfig("baseline", 64);
    unknown.balancePolicy = "workstel";
    std::string err = unknown.validate();
    EXPECT_NE(err.find("unknown balance policy"), std::string::npos);
    EXPECT_NE(err.find("work-steal"), std::string::npos);  // near miss
}

// ------------------------------------- RemoteSwitcher trace equivalence

namespace {

/** Synthetic PESM observation: drain time proportional to home load. */
RoundObservation
observe(const RowPartition &part, const std::vector<Count> &row_work)
{
    RoundObservation obs;
    obs.peWork = part.workload(row_work);
    obs.drainCycle.resize(obs.peWork.size());
    for (std::size_t p = 0; p < obs.peWork.size(); ++p)
        obs.drainCycle[p] = obs.peWork[p];
    return obs;
}

} // namespace

// makeRebalancePolicy resolves remote-c to a RemoteSwitcher of its own;
// driven in lockstep with one built directly, it must trace it exactly.
TEST(PolicyWrapper, MatchesRemoteSwitcherRoundByRound)
{
    AccelConfig cfg = makePolicyConfig("remote-c", 8);
    cfg.sharingHops = 0;  // drain == load, as in the switcher unit tests
    const Index rows = 64;
    std::vector<Count> work(static_cast<std::size_t>(rows), 1);
    for (int r = 0; r < 8; ++r) work[static_cast<std::size_t>(r)] = 20;

    RowPartition part_direct(rows, 8, RowMapPolicy::Blocked);
    RowPartition part_policy(rows, 8, RowMapPolicy::Blocked);
    RemoteSwitcher direct(cfg, rows);
    std::unique_ptr<RebalancePolicy> wrapped =
        makeRebalancePolicy(cfg, rows);

    for (int round = 0; round < 20; ++round) {
        int moved_direct = direct.observeAndAdjust(
            observe(part_direct, work), work, part_direct);
        int moved_policy = wrapped->observeAndAdjust(
            observe(part_policy, work), work, part_policy);
        ASSERT_EQ(moved_direct, moved_policy) << "round " << round;
        ASSERT_EQ(direct.converged(), wrapped->converged())
            << "round " << round;
        for (Index r = 0; r < rows; ++r)
            ASSERT_EQ(part_direct.owner(r), part_policy.owner(r))
                << "round " << round << " row " << r;
    }
    EXPECT_EQ(direct.convergedRound(), wrapped->convergedRound());
    EXPECT_EQ(direct.totalRowsMoved(), wrapped->totalRowsMoved());
}

TEST(PolicyWrapper, StaticDesignsGetTheNullRebalance)
{
    for (const char *d : {"baseline", "local-a", "local-b", "eie-like"}) {
        AccelConfig cfg = makePolicyConfig(d, 8);
        auto rebalance = makeRebalancePolicy(cfg, 64);
        RowPartition part(64, 8, RowMapPolicy::Blocked);
        std::vector<Count> work(64, 1);
        EXPECT_EQ(rebalance->observeAndAdjust(observe(part, work), work,
                                              part),
                  0);
        EXPECT_FALSE(rebalance->converged());
        EXPECT_EQ(rebalance->convergedRound(), -1);
        EXPECT_EQ(rebalance->totalRowsMoved(), 0);
    }
}

// ------------------------------------------------ rebalance contract

/**
 * The RebalancePolicy contract PerfModel's carried per-PE work relies on
 * (policy.hpp): a call returning 0 leaves the partition unchanged, and
 * once converged() is true it stays true and no later call moves a row.
 * Checked on real owners() diffs for every registered policy, driven for
 * 24 rounds with the model's observations (home work, water-filled
 * drain) on the full-scale Cora and Citeseer adjacency at 64 PEs.
 */
TEST(PolicyContract, ZeroReturnAndConvergenceLeaveTheMapAlone)
{
    int moving_policies = 0;
    int converged_policies = 0;
    for (const char *dataset : {"cora", "citeseer"}) {
        const DatasetSpec &spec = findDataset(dataset);
        const WorkloadProfile prof = loadProfile(spec, 1, 1.0);
        const std::vector<Count> &work = prof.aRowNnz;
        const Index rows = prof.spec.nodes;
        for (const BalancePolicy *entry : PolicyRegistry::instance().all()) {
            // Policies other tests register need not be complete.
            if (entry->name.rfind("test-", 0) == 0) continue;
            SCOPED_TRACE(std::string(dataset) + " " + entry->name);
            AccelConfig cfg = makePolicyConfig(entry->name, 64, hopBase(spec));
            RowPartition part =
                makePartitionPolicy(cfg)->build(rows, work, cfg);
            auto policy = makeRebalancePolicy(cfg, rows);

            bool moved_any = false;
            bool converged = false;
            for (int round = 0; round < 24; ++round) {
                SCOPED_TRACE("round " + std::to_string(round));
                RoundObservation obs;
                obs.peWork = part.workload(work);
                std::vector<Count> served;
                PerfModel::balancedDrain(obs.peWork, cfg.sharingHops, &served);
                obs.drainCycle.assign(served.begin(), served.end());
                const std::vector<int> before = part.owners();

                const int moved = policy->observeAndAdjust(obs, work, part);
                const bool changed = part.owners() != before;
                if (moved == 0) {
                    ASSERT_FALSE(changed);
                }
                if (converged) {
                    ASSERT_TRUE(policy->converged());
                    ASSERT_EQ(moved, 0);
                    ASSERT_FALSE(changed);
                }
                moved_any = moved_any || changed;
                converged = converged || policy->converged();
            }
            moving_policies += moved_any ? 1 : 0;
            converged_policies += converged ? 1 : 0;
        }
    }
    // Not vacuous: some policies move rows, and some converge.
    EXPECT_GT(moving_policies, 0);
    EXPECT_GT(converged_policies, 0);
}

// --------------------------------------- enum-era equivalence lock

namespace {

/**
 * The enum-era PerfModel::runSpmm, verbatim: RowPartition from
 * cfg.mapPolicy, a RemoteSwitcher driven only when cfg.remoteSwitching.
 * The policy-driven PerfModel must reproduce these numbers bit for bit.
 */
PerfSpmmResult
legacyRunSpmm(const AccelConfig &cfg, const std::vector<Count> &row_work,
              Index rounds, RowPartition &partition)
{
    const int P = cfg.numPes;
    PerfSpmmResult res;
    res.rounds = rounds;

    RemoteSwitcher switcher(cfg, partition.rows());
    res.perPeTasks.assign(static_cast<std::size_t>(P), 0);
    int log2p = 0;
    while ((1 << log2p) < P) ++log2p;
    const Cycle overhead = 1 + log2p + 2;  // one-cycle MAC
    constexpr double kSharingInefficiency = 1.15;

    std::vector<Count> served;
    for (Index k = 0; k < rounds; ++k) {
        std::vector<Count> pe_work = partition.workload(row_work);
        Count total = std::accumulate(pe_work.begin(), pe_work.end(),
                                      Count(0));
        Cycle no_share = *std::max_element(pe_work.begin(), pe_work.end());
        Cycle drain =
            PerfModel::balancedDrain(pe_work, cfg.sharingHops, &served);
        if (cfg.sharingHops > 0) {
            drain = std::min(no_share,
                             static_cast<Cycle>(static_cast<double>(drain) *
                                                kSharingInefficiency));
        }
        Cycle inject = (total + P - 1) / P;
        Cycle round_cycles = std::max(drain, inject) + overhead;
        res.roundCycles.push_back(round_cycles);
        res.cycles += round_cycles;
        res.tasks += total;
        res.idealCycles += inject;

        for (int p = 0; p < P; ++p) {
            res.perPeTasks[static_cast<std::size_t>(p)] +=
                served[static_cast<std::size_t>(p)];
            Count backlog = served[static_cast<std::size_t>(p)] - inject;
            if (backlog > 0)
                res.peakQueueDepth = std::max(
                    res.peakQueueDepth, static_cast<std::size_t>(backlog));
        }

        if (cfg.remoteSwitching && k + 1 < rounds) {
            RoundObservation obs;
            obs.peWork = pe_work;
            obs.drainCycle.assign(served.begin(), served.end());
            switcher.observeAndAdjust(obs, row_work, partition);
        }
    }

    res.peakQueueDepth = std::max<std::size_t>(
        res.peakQueueDepth,
        static_cast<std::size_t>(cfg.numQueuesPerPe));
    res.syncCycles = std::max<Cycle>(0, res.cycles - res.idealCycles);
    res.utilization = res.cycles > 0
        ? static_cast<double>(res.tasks) /
          (static_cast<double>(P) * static_cast<double>(res.cycles))
        : 0.0;
    res.rowsSwitched = switcher.totalRowsMoved();
    res.convergedRound = switcher.convergedRound();
    return res;
}

/** The enum-era PerfModel::runGcn orchestration over legacyRunSpmm. */
struct LegacyGcnNumbers
{
    Cycle totalCycles = 0;
    Count totalTasks = 0;
    Count rowsSwitched = 0;
    Count convergedRound = -1;
};

LegacyGcnNumbers
legacyRunGcn(const AccelConfig &cfg, const WorkloadProfile &profile)
{
    const Index n = profile.spec.nodes;
    LegacyGcnNumbers out;
    RowPartition part_a(n, cfg.numPes, cfg.mapPolicy);
    const std::vector<Count> *x_rows[2] = {&profile.x1RowNnz,
                                           &profile.x2RowNnz};
    const Index rounds[2] = {profile.spec.f2, profile.spec.f3};
    for (int l = 0; l < 2; ++l) {
        RowPartition part_x(n, cfg.numPes, cfg.mapPolicy);
        PerfSpmmResult xw =
            legacyRunSpmm(cfg, *x_rows[l], rounds[l], part_x);
        PerfSpmmResult ax =
            legacyRunSpmm(cfg, profile.aRowNnz, rounds[l], part_a);
        out.totalCycles +=
            pipelineCycles(xw.roundCycles, ax.roundCycles);
        out.totalTasks += xw.tasks + ax.tasks;
        out.rowsSwitched += xw.rowsSwitched + ax.rowsSwitched;
        out.convergedRound = std::max(
            {out.convergedRound, xw.convergedRound, ax.convergedRound});
    }
    return out;
}

} // namespace

/**
 * The acceptance lock: all six paper design points, run through the
 * policy registry by the sweep engine, reproduce the enum-era sweep
 * numbers (cycles, rowsSwitched, convergedRound) exactly, per point, on
 * Cora and Citeseer at 512 PEs.
 */
TEST(EnumPolicyEquivalence, SweepMatchesEnumEraNumbersAt512Pes)
{
    driver::SweepOptions opts;
    opts.datasets = {"cora", "citeseer"};
    opts.designs = {"baseline", "local-a", "local-b",
                    "remote-c", "remote-d", "eie-like"};
    opts.peCounts = {512};
    opts.modes = {exec::Mode::Model};
    opts.seed = 7;

    auto points = driver::expandGrid(opts);
    auto outcomes = driver::runSweep(opts, points);
    ASSERT_EQ(outcomes.size(), 12u);

    for (const auto &o : outcomes) {
        ASSERT_TRUE(o.ok) << o.error;
        const DatasetSpec &spec = findDataset(o.point.dataset);
        WorkloadProfile prof =
            loadProfile(spec, o.point.seed, opts.scale);
        AccelConfig cfg =
            makePolicyConfig(o.point.policy, o.point.pes, hopBase(spec));
        LegacyGcnNumbers legacy = legacyRunGcn(cfg, prof);
        EXPECT_EQ(o.cycles, legacy.totalCycles)
            << o.point.dataset << " " << o.point.policy;
        EXPECT_EQ(o.tasks, legacy.totalTasks)
            << o.point.dataset << " " << o.point.policy;
        EXPECT_EQ(o.rowsSwitched, legacy.rowsSwitched)
            << o.point.dataset << " " << o.point.policy;
        EXPECT_EQ(o.convergedRound, legacy.convergedRound)
            << o.point.dataset << " " << o.point.policy;
    }

    // And the JSON document itself is stable: rendering the same
    // outcomes twice is byte-identical (no hidden nondeterminism in the
    // policy-name plumbing).
    std::string a = driver::sweepToJson(opts, outcomes).dump(2);
    std::string b = driver::sweepToJson(
                        opts, driver::runSweep(opts, points))
                        .dump(2);
    EXPECT_EQ(a, b);
}

// ------------------------------------------------- non-paper policies

TEST(DegreeSortedPartition, BalancesAtLeastAsWellAsBlocked)
{
    AccelConfig cfg = makePolicyConfig("degree-sorted", 8);
    const Index rows = 64;
    std::vector<Count> work(static_cast<std::size_t>(rows), 1);
    for (int r = 0; r < 8; ++r) work[static_cast<std::size_t>(r)] = 25;

    RowPartition lpt = makePartitionPolicy(cfg)->build(rows, work, cfg);
    EXPECT_TRUE(lpt.consistent());
    RowPartition blocked(rows, 8, RowMapPolicy::Blocked);

    auto spread = [&](const RowPartition &p) {
        auto w = p.workload(work);
        return *std::max_element(w.begin(), w.end());
    };
    EXPECT_LE(spread(lpt), spread(blocked));
    // The heavy block lands one-per-PE under LPT.
    auto w = lpt.workload(work);
    EXPECT_EQ(*std::max_element(w.begin(), w.end()),
              *std::min_element(w.begin(), w.end()));
}

TEST(WorkStealPolicy, ClosesTheGapAndConverges)
{
    AccelConfig cfg = makePolicyConfig("work-steal", 8);
    const Index rows = 64;
    std::vector<Count> work(static_cast<std::size_t>(rows), 1);
    for (int r = 0; r < 8; ++r) work[static_cast<std::size_t>(r)] = 20;
    RowPartition part(rows, 8, RowMapPolicy::Blocked);
    auto rebalance = makeRebalancePolicy(cfg, rows);

    auto gap = [&]() {
        auto w = part.workload(work);
        return *std::max_element(w.begin(), w.end()) -
               *std::min_element(w.begin(), w.end());
    };
    Count initial = gap();
    int rounds = 0;
    while (!rebalance->converged() && rounds < 40) {
        rebalance->observeAndAdjust(observe(part, work), work, part);
        ++rounds;
    }
    EXPECT_TRUE(rebalance->converged());
    EXPECT_GT(rebalance->convergedRound(), 0);
    EXPECT_GT(rebalance->totalRowsMoved(), 0);
    EXPECT_LT(gap(), initial / 2);
    EXPECT_TRUE(part.consistent());
}

TEST(RechunkPolicy, RebuildsContiguousChunksAndReachesAFixedPoint)
{
    AccelConfig cfg = makePolicyConfig("rechunk", 8);
    const Index rows = 64;
    std::vector<Count> work(static_cast<std::size_t>(rows), 1);
    for (int r = 0; r < 8; ++r) work[static_cast<std::size_t>(r)] = 20;
    RowPartition part(rows, 8, RowMapPolicy::Blocked);
    auto rebalance = makeRebalancePolicy(cfg, rows);

    auto max_load = [&]() {
        auto w = part.workload(work);
        return *std::max_element(w.begin(), w.end());
    };
    Count before = max_load();
    int moved_total = 0;
    for (int round = 0; round < 12 && !rebalance->converged(); ++round)
        moved_total +=
            rebalance->observeAndAdjust(observe(part, work), work, part);
    EXPECT_TRUE(rebalance->converged());
    EXPECT_GT(moved_total, 0);
    EXPECT_LT(max_load(), before);
    EXPECT_TRUE(part.consistent());
    // Chunks stay contiguous: owners are non-decreasing in row order.
    for (Index r = 1; r < rows; ++r)
        EXPECT_GE(part.owner(r), part.owner(r - 1));
}

TEST(Sweep, InvalidPolicyCombinationBecomesAPerPointErrorRow)
{
    // A grid point whose config fails the combination checks (remote
    // switching on a single PE) must produce an error row, not abort the
    // sweep; sibling points still run.
    driver::SweepOptions opts;
    opts.datasets = {"cora"};
    opts.designs = {"baseline", "remote-c"};
    opts.peCounts = {1, 32};
    opts.modes = {exec::Mode::Model};

    auto outcomes = driver::runSweep(opts);
    ASSERT_EQ(outcomes.size(), 4u);
    int failed = 0;
    for (const auto &o : outcomes) {
        if (o.ok) continue;
        ++failed;
        EXPECT_EQ(o.point.policy, "remote-c");
        EXPECT_EQ(o.point.pes, 1);
        EXPECT_NE(o.error.find("remote switching needs at least 2"),
                  std::string::npos);
    }
    EXPECT_EQ(failed, 1);
}

TEST(NewPolicies, RunEndToEndThroughTheSweepInBothFidelities)
{
    driver::SweepOptions opts;
    opts.datasets = {"cora"};
    opts.designs = {"degree-sorted", "work-steal", "rechunk"};
    opts.peCounts = {32};
    opts.modes = {exec::Mode::Model, exec::Mode::Cycle};
    opts.scale = 0.2;
    opts.seed = 11;

    auto outcomes = driver::runSweep(opts);
    ASSERT_EQ(outcomes.size(), 6u);
    for (const auto &o : outcomes) {
        ASSERT_TRUE(o.ok) << o.point.policy << " "
                          << exec::modeName(o.point.mode) << ": "
                          << o.error;
        EXPECT_GT(o.cycles, 0);
        EXPECT_GT(o.tasks, 0);
    }
    // The rebalancing policies actually moved rows somewhere in the GCN.
    for (const auto &o : outcomes) {
        if (o.point.policy == "work-steal" ||
            o.point.policy == "rechunk") {
            EXPECT_GT(o.rowsSwitched, 0) << o.point.policy;
        }
    }
}

// --------------------------------------------- churn-safety properties

TEST(PolicyRegistry, DynamicExtensionPoliciesAreRegistered)
{
    auto &reg = PolicyRegistry::instance();
    for (const char *name :
         {"delta-greedy", "delta-threshold", "rescratch"}) {
        const BalancePolicy *p = reg.find(name);
        ASSERT_NE(p, nullptr) << name;
        EXPECT_FALSE(p->description.empty());
        EXPECT_TRUE(p->rebalance != nullptr) << name;
    }
    EXPECT_EQ(reg.get("dgreedy").name, "delta-greedy");
    EXPECT_EQ(reg.get("dthresh").name, "delta-threshold");
    EXPECT_EQ(reg.get("scratch").name, "rescratch");
}

/**
 * Streaming safety (DESIGN.md §12): every registered policy must keep
 * the partition consistent — and conserve the workload total — when
 * the per-row work vector changes between observations, which is
 * exactly what churn does to the row-nnz profile. Static-workload
 * policies may ignore the deltas; none may corrupt the row map.
 */
TEST(PolicyChurnSafety, EveryPolicySurvivesChangingRowWork)
{
    const Index rows = 120;
    const int pes = 16;

    for (const BalancePolicy *spec : PolicyRegistry::instance().all()) {
        // Skip policies other test cases register dynamically; they
        // need not carry full configure/partition hooks.
        if (spec->name.rfind("test-", 0) == 0) continue;
        SCOPED_TRACE("policy " + spec->name);

        AccelConfig cfg = makePolicyConfig(spec->name, pes);
        Rng rng(0xd15ea5e);
        std::vector<Count> work(static_cast<std::size_t>(rows));
        for (auto &w : work) w = 1 + rng.nextIndex(30);

        RowPartition part =
            makePartitionPolicy(cfg)->build(rows, work, cfg);
        auto policy = makeRebalancePolicy(cfg, rows);
        ASSERT_TRUE(part.consistent());

        const Index hub = 7;
        for (int round = 0; round < 24; ++round) {
            SCOPED_TRACE("round " + std::to_string(round));
            // Churn-like mutation: a fattening hub row, random point
            // changes, and occasional whole-row deletions.
            work[hub] += 25;
            for (int k = 0; k < 8; ++k) {
                const auto r =
                    static_cast<std::size_t>(rng.nextIndex(rows));
                work[r] = rng.nextBool(0.2) ? 0 : 1 + rng.nextIndex(40);
            }
            const Count total =
                std::accumulate(work.begin(), work.end(), Count(0));

            RoundObservation obs;
            obs.peWork = part.workload(work);
            obs.drainCycle.assign(obs.peWork.begin(),
                                  obs.peWork.end());
            const int moved = policy->observeAndAdjust(obs, work, part);

            ASSERT_GE(moved, 0);
            ASSERT_TRUE(part.consistent());
            auto pw = part.workload(work);
            ASSERT_EQ(std::accumulate(pw.begin(), pw.end(), Count(0)),
                      total);
            ASSERT_GE(policy->totalRowsMoved(), 0);
        }
    }
}

TEST(PolicyChurnSafety, DeltaPoliciesReactOnlyToDeltas)
{
    const Index rows = 64;
    const int pes = 8;
    AccelConfig cfg = makePolicyConfig("delta-greedy", pes);
    std::vector<Count> work(static_cast<std::size_t>(rows), 10);

    RowPartition part = makePartitionPolicy(cfg)->build(rows, work, cfg);
    auto policy = makeRebalancePolicy(cfg, rows);

    auto observe = [&]() {
        RoundObservation obs;
        obs.peWork = part.workload(work);
        obs.drainCycle.assign(obs.peWork.begin(), obs.peWork.end());
        return policy->observeAndAdjust(obs, work, part);
    };

    EXPECT_EQ(observe(), 0);  // first observation only snapshots
    EXPECT_EQ(observe(), 0);  // no delta, nothing to react to

    // Fatten every row one PE owns: the policy sees the changed rows
    // and sheds work off the hot PE.
    const std::vector<Index> hot_rows = part.rowsOf(0);
    ASSERT_FALSE(hot_rows.empty());
    for (Index r : hot_rows) work[static_cast<std::size_t>(r)] += 200;
    EXPECT_GT(observe(), 0);
    EXPECT_TRUE(part.consistent());

    // rescratch rebuilds equal-work chunks from any skew, then goes
    // idle once the map is its own fixed point.
    AccelConfig rcfg = makePolicyConfig("rescratch", pes);
    RowPartition rpart =
        makePartitionPolicy(rcfg)->build(rows, work, rcfg);
    auto rescratch = makeRebalancePolicy(rcfg, rows);
    RoundObservation obs;
    obs.peWork = rpart.workload(work);
    obs.drainCycle.assign(obs.peWork.begin(), obs.peWork.end());
    const int first = rescratch->observeAndAdjust(obs, work, rpart);
    EXPECT_GT(first, 0);
    obs.peWork = rpart.workload(work);
    obs.drainCycle.assign(obs.peWork.begin(), obs.peWork.end());
    EXPECT_EQ(rescratch->observeAndAdjust(obs, work, rpart), 0);
    EXPECT_TRUE(rpart.consistent());
}
