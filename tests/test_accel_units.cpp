/**
 * @file
 * Unit tests for the accelerator building blocks: configuration factory,
 * row partition, PE (RaW hazards, arbitration, issue timing, idle ticks,
 * occupancy counters), the per-entry-cursor queue models, local sharing
 * policy, and the remote-switching controller (Eq. 5 dynamics and
 * convergence).
 */

#include <gtest/gtest.h>

#include <numeric>

#include "accel/config.hpp"
#include "accel/cursor_models.hpp"
#include "accel/local_share.hpp"
#include "accel/pe.hpp"
#include "accel/policy.hpp"
#include "accel/rebalance.hpp"
#include "accel/row_map.hpp"
#include "common/rng.hpp"

using namespace awb;

TEST(Config, DesignPoints)
{
    auto base = makePolicyConfig("baseline", 64);
    EXPECT_EQ(base.sharingHops, 0);
    EXPECT_FALSE(base.remoteSwitching);

    auto a = makePolicyConfig("local-a", 64);
    EXPECT_EQ(a.sharingHops, 1);
    EXPECT_FALSE(a.remoteSwitching);

    auto b = makePolicyConfig("local-b", 64);
    EXPECT_EQ(b.sharingHops, 2);

    auto c = makePolicyConfig("remote-c", 64);
    EXPECT_EQ(c.sharingHops, 1);
    EXPECT_TRUE(c.remoteSwitching);

    auto d = makePolicyConfig("remote-d", 64);
    EXPECT_EQ(d.sharingHops, 2);
    EXPECT_TRUE(d.remoteSwitching);

    auto eie = makePolicyConfig("eie-like", 64);
    EXPECT_EQ(eie.numQueuesPerPe, 1);
    EXPECT_FALSE(eie.rebalancing());
}

TEST(Config, NellHopOverride)
{
    // Nell uses 2/3-hop instead of 1/2-hop (paper §5.2).
    auto a = makePolicyConfig("local-a", 64, 2);
    EXPECT_EQ(a.sharingHops, 2);
    auto d = makePolicyConfig("remote-d", 64, 2);
    EXPECT_EQ(d.sharingHops, 3);
}

TEST(RowPartition, BlockedAssignsContiguous)
{
    RowPartition part(16, 8, RowMapPolicy::Blocked);
    // Paper Fig. 6: each two consecutive rows to one PE.
    for (Index r = 0; r < 16; ++r) EXPECT_EQ(part.owner(r), r / 2);
    EXPECT_TRUE(part.consistent());
}

TEST(RowPartition, CyclicAssignsRoundRobin)
{
    RowPartition part(16, 4, RowMapPolicy::Cyclic);
    for (Index r = 0; r < 16; ++r) EXPECT_EQ(part.owner(r), r % 4);
}

TEST(RowPartition, MoveAndWorkload)
{
    RowPartition part(8, 2, RowMapPolicy::Blocked);
    std::vector<Count> work = {5, 5, 5, 5, 1, 1, 1, 1};
    auto w = part.workload(work);
    EXPECT_EQ(w[0], 20);
    EXPECT_EQ(w[1], 4);
    part.moveRow(0, 1);
    w = part.workload(work);
    EXPECT_EQ(w[0], 15);
    EXPECT_EQ(w[1], 9);
    EXPECT_TRUE(part.consistent());
}

TEST(RowPartition, SwapRows)
{
    RowPartition part(8, 2, RowMapPolicy::Blocked);
    part.swapRows({0, 1}, {4, 5}, 0, 1);
    EXPECT_EQ(part.owner(0), 1);
    EXPECT_EQ(part.owner(4), 0);
    EXPECT_TRUE(part.consistent());
    EXPECT_EQ(part.rowsOf(0).size(), 4u);
    EXPECT_EQ(part.rowsOf(1).size(), 4u);
}

// A non-positive row or PE count is refused with fatal(), not with the
// std::length_error a negative size would throw from a vector.
TEST(RowPartitionDeath, NonPositiveSizesAreRefused)
{
    const char *msg = "RowPartition: rows and PEs must be positive";
    EXPECT_EXIT(RowPartition(10, -1, RowMapPolicy::Blocked),
                ::testing::ExitedWithCode(1), msg);
    EXPECT_EXIT(RowPartition(-5, 4, RowMapPolicy::Cyclic),
                ::testing::ExitedWithCode(1), msg);
    EXPECT_EXIT(RowPartition(0, 4, RowMapPolicy::Blocked),
                ::testing::ExitedWithCode(1), msg);
    EXPECT_EXIT(RowPartition(std::vector<int>{0, 1}, -2),
                ::testing::ExitedWithCode(1), msg);
}

TEST(Pe, ExecutesAndAccumulates)
{
    // Two independent rows issue back to back and drain after the MAC
    // latency, with no hazard stalls.
    Pe pe(0, 4, 0, 4);
    pe.enqueue({0, 0});
    pe.enqueue({1, 0});
    for (Cycle t = 0; t < 10; ++t) pe.tick(t);
    EXPECT_TRUE(pe.drained(10));
    EXPECT_EQ(pe.tasksThisRound(), 2);
    EXPECT_EQ(pe.lastBusyCycle(), 1);
    EXPECT_EQ(pe.rawStallCycles(), 0);
}

TEST(Pe, RawHazardStallsSameRow)
{
    // Two tasks on the same row with MAC latency 4: the second must wait
    // for the first to retire -> it issues at t=4, after 3 stall cycles.
    Pe pe(0, 4, 0, 4);
    pe.enqueue({0, 0});
    pe.enqueue({0, 0});
    Cycle done = -1;
    for (Cycle t = 0; t < 20; ++t) {
        pe.tick(t);
        if (done < 0 && pe.tasksThisRound() == 2) done = t;
    }
    EXPECT_EQ(done, 4);  // issue at t=0, retire at t=4, reissue at t=4
    EXPECT_EQ(pe.rawStallCycles(), 3);
    EXPECT_TRUE(pe.drained(20));
}

TEST(Pe, DifferentRowsPipelineBackToBack)
{
    // Independent rows issue 1/cycle despite the 4-cycle MAC latency.
    Pe pe(0, 4, 0, 4);
    for (Index r = 0; r < 8; ++r) pe.enqueue({r, 0});
    Cycle t = 0;
    for (; t < 30 && pe.tasksThisRound() < 8; ++t) pe.tick(t);
    EXPECT_EQ(pe.tasksThisRound(), 8);
    EXPECT_LE(t, 9);  // 8 issues + at most one skew cycle
}

TEST(Pe, MultipleQueuesDodgeHazard)
{
    // With 2 queues, a same-row pair in one queue does not block an
    // independent task in the other queue.
    Pe pe(0, 2, 0, 8);
    pe.enqueue({0, 0});  // queue A
    pe.enqueue({0, 0});  // queue B (shortest-queue placement)
    pe.enqueue({1, 0});  // queue A again
    int issued_by_cycle3 = 0;
    for (Cycle t = 0; t < 3; ++t) {
        pe.tick(t);
        issued_by_cycle3 = static_cast<int>(pe.tasksThisRound());
    }
    // Cycle 0 issues row 0; cycle 1 skips the second row-0 task and
    // issues row 1 from the other queue.
    EXPECT_GE(issued_by_cycle3, 2);
}

TEST(Pe, BoundedQueueBackpressure)
{
    Pe pe(0, 1, 2, 4);
    EXPECT_TRUE(pe.enqueue({0, 0}));
    EXPECT_TRUE(pe.enqueue({1, 0}));
    EXPECT_FALSE(pe.canAccept());
    EXPECT_FALSE(pe.enqueue({2, 0}));
    EXPECT_EQ(pe.enqueueRejects(), 1);
}

TEST(Pe, TickOnEmptyPeChangesNothing)
{
    // Idle ticks are skipped outright; they must leave every counter the
    // engine reads exactly as a full retire-and-arbitrate pass would.
    Pe pe(0, 2, 2, 4);
    for (Cycle t = 0; t < 5; ++t) pe.tick(t);
    EXPECT_EQ(pe.rawStallCycles(), 0);
    EXPECT_EQ(pe.tasksThisRound(), 0);
    EXPECT_EQ(pe.lastBusyCycle(), -1);

    // After real work drains, further idle ticks still change nothing,
    // and the ops left unretired by the skipped ticks do not block a
    // later same-row issue.
    pe.enqueue({3, 0});
    pe.tick(5);
    for (Cycle t = 6; t < 20; ++t) pe.tick(t);
    EXPECT_TRUE(pe.drained(20));
    EXPECT_EQ(pe.rawStallCycles(), 0);
    EXPECT_EQ(pe.tasksThisRound(), 1);
    EXPECT_EQ(pe.lastBusyCycle(), 5);
    pe.enqueue({3, 0});
    pe.tick(20);
    EXPECT_EQ(pe.tasksThisRound(), 2);
    EXPECT_EQ(pe.lastBusyCycle(), 20);
    EXPECT_EQ(pe.rawStallCycles(), 0);
}

TEST(Pe, CanAcceptMatchesSomeQueueNotFull)
{
    // Two queues of depth 2: room remains exactly until all four slots
    // hold a task, through both a fill and a drain.
    Pe pe(0, 2, 2, 1);
    for (Index r = 0; r < 4; ++r) {
        EXPECT_TRUE(pe.canAccept()) << "before task " << r;
        ASSERT_TRUE(pe.enqueue({r, 0}));
    }
    EXPECT_FALSE(pe.canAccept());
    EXPECT_FALSE(pe.enqueue({9, 0}));
    EXPECT_EQ(pe.enqueueRejects(), 1);
    for (Cycle t = 0; pe.pending() != 0; ++t) {
        pe.tick(t);
        EXPECT_TRUE(pe.canAccept()) << "after tick " << t;
    }
    EXPECT_EQ(pe.tasksThisRound(), 4);
}

TEST(Pe, PendingIsEnqueuedMinusIssued)
{
    // Same-row tasks stall behind the MAC, so issue lags enqueue; the
    // pending count must track the difference every cycle.
    Pe pe(0, 2, 0, 5);
    Count enqueued = 0;
    for (Cycle t = 0; t < 40; ++t) {
        if (t < 12) {
            const Index row = t % 3 == 0 ? 0 : static_cast<Index>(t);
            ASSERT_TRUE(pe.enqueue({row, 0}));
            ++enqueued;
        }
        pe.tick(t);
        const Count issued = pe.tasksThisRound();
        EXPECT_EQ(static_cast<Count>(pe.pending()), enqueued - issued) << t;
    }
    EXPECT_EQ(pe.pending(), 0u);
    EXPECT_GT(pe.rawStallCycles(), 0);
}

// CursorModels against real PEs: one single-cycle-MAC Pe per entry
// cursor, all fed the same random accept/issue sequence. The table must
// hold each Pe's exit cursor and round peak, whichever of them is the
// stepped PE, across the drains that regroup the copies. A burst builds
// the round's peak first; the sparser tail drains often, so the peak
// must survive the regroups.
TEST(CursorModels, MatchOnePePerEntryCursor)
{
    for (int queues : {1, 2, 4, 8}) {
        for (std::size_t depth : {0, 1, 3}) {
            SCOPED_TRACE("queues " + std::to_string(queues) + " depth " +
                         std::to_string(depth));
            const auto Q = static_cast<std::size_t>(queues);
            std::vector<Pe> ref;
            for (std::size_t c = 0; c < Q; ++c) {
                ref.emplace_back(0, queues, depth, 1);
                ref.back().setArbiterCursor(c);
            }
            CursorModels models;
            models.begin(1, Q, depth);
            Rng rng(Q * 16 + depth);
            Cycle now = 0;
            auto issueAll = [&] {
                for (Pe &pe : ref) ASSERT_TRUE(pe.tick(now));
                models.issue(0);
            };
            for (Index op = 0; op < 600; ++op, ++now) {
                const double accept = op < 150 ? 0.7 : 0.35;
                if (ref[0].canAccept() && rng.nextBool(accept)) {
                    std::size_t joined = 0;
                    for (Pe &pe : ref) joined = pe.enqueue({op, 0});
                    models.enqueue(0, joined);
                } else if (ref[0].pending() > 0) {
                    issueAll();
                }
            }
            for (; ref[0].pending() > 0; ++now) issueAll();

            for (std::size_t e = 0; e < Q; ++e) {
                const std::vector<CursorOutcome> table =
                    models.finish({ref[e]}, {e});
                for (std::size_t c = 0; c < Q; ++c) {
                    EXPECT_EQ(table[c].exit, ref[c].arbiterCursor()) << c;
                    EXPECT_EQ(table[c].peak, ref[c].roundPeakQueueDepth())
                        << c;
                }
            }
        }
    }
}

TEST(LocalShare, PicksLeastLoadedNeighbour)
{
    std::vector<Pe> pes;
    for (int i = 0; i < 5; ++i) pes.emplace_back(i, 1, 0, 4);
    // Load PE 2 with 3 tasks, PE 1 with 1, PE 3 with 0.
    for (int i = 0; i < 3; ++i) pes[2].enqueue({0, 2});
    pes[1].enqueue({0, 1});

    LocalSharer s1(1);
    EXPECT_EQ(s1.choose(2, pes), 3);

    LocalSharer s0(0);
    EXPECT_EQ(s0.choose(2, pes), 2);  // hops=0: degenerate self
}

TEST(LocalShare, TieFavoursHome)
{
    std::vector<Pe> pes;
    for (int i = 0; i < 3; ++i) pes.emplace_back(i, 1, 0, 4);
    LocalSharer s(1);
    EXPECT_EQ(s.choose(1, pes), 1);
}

TEST(LocalShare, RespectsArrayBounds)
{
    std::vector<Pe> pes;
    for (int i = 0; i < 4; ++i) pes.emplace_back(i, 1, 0, 4);
    LocalSharer s(2);
    EXPECT_GE(s.choose(0, pes), 0);
    EXPECT_LE(s.choose(3, pes), 3);
}

TEST(LocalShare, SkipsFullPes)
{
    std::vector<Pe> pes;
    for (int i = 0; i < 3; ++i) pes.emplace_back(i, 1, 1, 4);
    pes[1].enqueue({0, 1});  // home full
    LocalSharer s(1);
    int got = s.choose(1, pes);
    EXPECT_NE(got, 1);
    EXPECT_GE(got, 0);
}

namespace {

/** Drive the switcher with synthetic per-round observations derived from
 *  the partition itself (work == queue-observed work). */
RoundObservation
observe(const RowPartition &part, const std::vector<Count> &row_work)
{
    RoundObservation obs;
    obs.peWork = part.workload(row_work);
    obs.drainCycle.resize(obs.peWork.size());
    for (std::size_t p = 0; p < obs.peWork.size(); ++p)
        obs.drainCycle[p] = obs.peWork[p];  // drain time ~ workload
    return obs;
}

} // namespace

namespace {

/** Remote switching in isolation: no local sharing, so the synthetic
 *  drain observations (= raw per-PE loads) match the component's
 *  contract (drainCycle is the post-sharing drain; with hops = 0 that is
 *  just the load). */
AccelConfig
remoteOnlyConfig(int pes)
{
    AccelConfig cfg = makePolicyConfig("remote-c", pes);
    cfg.sharingHops = 0;
    return cfg;
}

} // namespace

TEST(RemoteSwitch, FirstSightingMeasuresOnly)
{
    AccelConfig cfg = remoteOnlyConfig(4);
    RowPartition part(16, 4, RowMapPolicy::Blocked);
    std::vector<Count> work(16, 1);
    for (int r = 0; r < 4; ++r) work[static_cast<std::size_t>(r)] = 50;

    RemoteSwitcher sw(cfg, 16);
    int moved = sw.observeAndAdjust(observe(part, work), work, part);
    EXPECT_EQ(moved, 0);  // Eq. 5: N_1 = 0
    EXPECT_FALSE(sw.converged());
}

TEST(RemoteSwitch, SecondRoundMovesRows)
{
    AccelConfig cfg = remoteOnlyConfig(4);
    RowPartition part(16, 4, RowMapPolicy::Blocked);
    std::vector<Count> work(16, 1);
    for (int r = 0; r < 4; ++r) work[static_cast<std::size_t>(r)] = 50;

    RemoteSwitcher sw(cfg, 16);
    sw.observeAndAdjust(observe(part, work), work, part);
    int moved = sw.observeAndAdjust(observe(part, work), work, part);
    EXPECT_GT(moved, 0);
    EXPECT_TRUE(part.consistent());
}

TEST(RemoteSwitch, ConvergesOnSkewedWorkload)
{
    AccelConfig cfg = remoteOnlyConfig(8);
    const Index rows = 64;
    RowPartition part(rows, 8, RowMapPolicy::Blocked);
    std::vector<Count> work(static_cast<std::size_t>(rows), 1);
    // One heavy block of rows on PE 0 (local imbalance the switcher must
    // spread), mild noise elsewhere.
    for (int r = 0; r < 8; ++r) work[static_cast<std::size_t>(r)] = 20;

    RemoteSwitcher sw(cfg, rows);
    auto gap = [&]() {
        auto w = part.workload(work);
        return *std::max_element(w.begin(), w.end()) -
               *std::min_element(w.begin(), w.end());
    };
    Count initial_gap = gap();
    for (int round = 0; round < 30 && !sw.converged(); ++round)
        sw.observeAndAdjust(observe(part, work), work, part);
    EXPECT_TRUE(sw.converged());
    EXPECT_LT(gap(), initial_gap / 2);
    EXPECT_TRUE(part.consistent());
}

TEST(RemoteSwitch, BalancedInputConvergesImmediately)
{
    AccelConfig cfg = remoteOnlyConfig(4);
    RowPartition part(16, 4, RowMapPolicy::Blocked);
    std::vector<Count> work(16, 3);
    RemoteSwitcher sw(cfg, 16);
    EXPECT_EQ(sw.observeAndAdjust(observe(part, work), work, part), 0);
    EXPECT_TRUE(sw.converged());
    EXPECT_EQ(sw.convergedRound(), 1);
}

TEST(RemoteSwitch, ApproximateEq5AlsoConverges)
{
    AccelConfig cfg = remoteOnlyConfig(8);
    cfg.approximateEq5 = true;
    const Index rows = 64;
    RowPartition part(rows, 8, RowMapPolicy::Blocked);
    std::vector<Count> work(static_cast<std::size_t>(rows), 1);
    for (int r = 0; r < 8; ++r) work[static_cast<std::size_t>(r)] = 20;

    RemoteSwitcher sw(cfg, rows);
    for (int round = 0; round < 40 && !sw.converged(); ++round)
        sw.observeAndAdjust(observe(part, work), work, part);
    EXPECT_TRUE(sw.converged());
}
