/**
 * @file
 * Unit tests for the accelerator building blocks: configuration factory,
 * row partition, PE (arbitration, issue and drain timing, idle ticks,
 * occupancy counters, against a Fifo<Task> reference), the
 * per-entry-cursor queue models, local sharing
 * policy, and the remote-switching controller (Eq. 5 dynamics and
 * convergence).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "accel/config.hpp"
#include "accel/cursor_models.hpp"
#include "accel/local_share.hpp"
#include "accel/pe.hpp"
#include "accel/policy.hpp"
#include "accel/rebalance.hpp"
#include "accel/row_map.hpp"
#include "accel/task.hpp"
#include "common/rng.hpp"
#include "sim/fifo.hpp"

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

namespace {

/**
 * The PE as it was modelled with a Fifo<Task> ring per queue and a RaW
 * scoreboard, at the single-cycle MAC: the reference the count-only Pe
 * and CursorModels must match. An op issued at t retires at t + 1, so
 * the scoreboard must never stall.
 */
class RefPe
{
  public:
    RefPe(int num_queues, std::size_t depth) : depth_(depth)
    {
        for (int q = 0; q < num_queues; ++q) queues_.emplace_back(depth);
    }

    std::size_t pending() const { return pending_; }
    bool
    drained(Cycle now) const
    {
        if (pending_ != 0) return false;
        for (const InFlight &f : inflight_)
            if (f.done > now) return false;
        return true;
    }
    bool
    canAccept() const
    {
        return depth_ == 0 || pending_ < depth_ * queues_.size();
    }

    std::size_t
    enqueue(const Task &task)
    {
        if (!canAccept()) return 0;
        Fifo<Task> *best = nullptr;
        for (auto &q : queues_) {
            if (q.full()) continue;
            if (best == nullptr || q.size() < best->size()) best = &q;
        }
        best->push(task);
        ++pending_;
        roundPeak_ = std::max(roundPeak_, best->size());
        return best->size();
    }

    bool
    tick(Cycle now)
    {
        if (pending_ == 0) return false;
        inflight_.erase(std::remove_if(inflight_.begin(), inflight_.end(),
                                       [now](const InFlight &f) {
                                           return f.done <= now;
                                       }),
                        inflight_.end());
        const std::size_t nq = queues_.size();
        std::size_t qi = cursor_;
        for (std::size_t i = 0; i < nq; ++i, qi = (qi + 1) % nq) {
            Fifo<Task> &q = queues_[qi];
            if (q.empty() || rowInFlight(q.front().row)) continue;
            const Task t = q.pop();
            --pending_;
            cursor_ = (qi + 1) % nq;
            inflight_.push_back({t.row, now + 1});
            lastBusy_ = now;
            ++tasks_;
            return true;
        }
        ++rawStalls_;
        return false;
    }

    Cycle lastBusyCycle() const { return lastBusy_; }
    Count tasksThisRound() const { return tasks_; }
    Count rawStalls() const { return rawStalls_; }
    std::size_t roundPeakQueueDepth() const { return roundPeak_; }
    std::size_t arbiterCursor() const { return cursor_; }
    void setArbiterCursor(std::size_t q) { cursor_ = q % queues_.size(); }

  private:
    bool
    rowInFlight(Index row) const
    {
        for (const InFlight &f : inflight_)
            if (f.row == row) return true;
        return false;
    }

    struct InFlight
    {
        Index row;
        Cycle done;
    };
    std::size_t depth_;
    std::vector<Fifo<Task>> queues_;
    std::vector<InFlight> inflight_;
    std::size_t pending_ = 0;
    std::size_t cursor_ = 0;
    Cycle lastBusy_ = -1;
    Count tasks_ = 0;
    Count rawStalls_ = 0;
    std::size_t roundPeak_ = 0;
};

/** Every counter the engine reads agrees between the two PEs. */
void
expectSamePe(const Pe &pe, const RefPe &ref, Cycle now)
{
    EXPECT_EQ(pe.pending(), ref.pending()) << now;
    EXPECT_EQ(pe.canAccept(), ref.canAccept()) << now;
    EXPECT_EQ(pe.arbiterCursor(), ref.arbiterCursor()) << now;
    EXPECT_EQ(pe.roundPeakQueueDepth(), ref.roundPeakQueueDepth()) << now;
    EXPECT_EQ(pe.lastBusyCycle(), ref.lastBusyCycle()) << now;
    EXPECT_EQ(pe.tasksThisRound(), ref.tasksThisRound()) << now;
    EXPECT_EQ(pe.drained(now), ref.drained(now)) << now;
    EXPECT_EQ(pe.drained(now + 1), ref.drained(now + 1)) << now;
}

/** The grid both reference tests run: queues x per-queue depth. */
template <class F>
void
forQueueShapes(F &&body)
{
    for (int queues : {1, 2, 4, 8}) {
        for (std::size_t depth : {0, 1, 3}) {
            SCOPED_TRACE("queues " + std::to_string(queues) + " depth " +
                         std::to_string(depth));
            body(queues, depth);
        }
    }
}

} // namespace

TEST(Pe, IssuesOneTaskPerCycleAndDrainsTheCycleAfter)
{
    Pe pe(4, 0);
    for (int i = 0; i < 8; ++i) pe.enqueue();
    for (Cycle t = 0; t < 8; ++t) {
        EXPECT_FALSE(pe.drained(t));
        EXPECT_TRUE(pe.tick(t));
    }
    EXPECT_FALSE(pe.tick(8));
    EXPECT_EQ(pe.tasksThisRound(), 8);
    EXPECT_EQ(pe.lastBusyCycle(), 7);
    // The last op retires one cycle after its issue.
    EXPECT_FALSE(pe.drained(7));
    EXPECT_TRUE(pe.drained(8));
}

TEST(Pe, BoundedQueueBackpressure)
{
    Pe pe(1, 2);
    EXPECT_EQ(pe.enqueue(), 1u);
    EXPECT_EQ(pe.enqueue(), 2u);
    EXPECT_FALSE(pe.canAccept());
    EXPECT_EQ(pe.enqueue(), 0u);
    EXPECT_EQ(pe.enqueueRejects(), 1);
}

TEST(Pe, TickOnEmptyPeChangesNothing)
{
    // Idle ticks are skipped outright; they must leave every counter the
    // engine reads unchanged.
    Pe pe(2, 2);
    for (Cycle t = 0; t < 5; ++t) EXPECT_FALSE(pe.tick(t));
    EXPECT_EQ(pe.tasksThisRound(), 0);
    EXPECT_EQ(pe.lastBusyCycle(), -1);
    EXPECT_EQ(pe.arbiterCursor(), 0u);

    pe.enqueue();
    EXPECT_TRUE(pe.tick(5));
    for (Cycle t = 6; t < 20; ++t) EXPECT_FALSE(pe.tick(t));
    EXPECT_TRUE(pe.drained(20));
    EXPECT_EQ(pe.tasksThisRound(), 1);
    EXPECT_EQ(pe.lastBusyCycle(), 5);
    EXPECT_EQ(pe.arbiterCursor(), 1u);
}

TEST(Pe, CanAcceptMatchesSomeQueueNotFull)
{
    // Two queues of depth 2: room remains exactly until all four slots
    // hold a task, through both a fill and a drain.
    Pe pe(2, 2);
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(pe.canAccept()) << "before task " << i;
        ASSERT_NE(pe.enqueue(), 0u);
    }
    EXPECT_FALSE(pe.canAccept());
    EXPECT_EQ(pe.enqueue(), 0u);
    EXPECT_EQ(pe.enqueueRejects(), 1);
    for (Cycle t = 0; pe.pending() != 0; ++t) {
        pe.tick(t);
        EXPECT_TRUE(pe.canAccept()) << "after tick " << t;
    }
    EXPECT_EQ(pe.tasksThisRound(), 4);
}

// The count-only Pe against the Fifo<Task> reference on random bursts:
// up to three arrivals a cycle, drawn from eight rows so same-row
// neighbours are common, then one tick. Every queue depth returned,
// every rejection and every counter must agree, cycle by cycle, and
// the reference's scoreboard must never stall.
TEST(Pe, CountOnlyMatchesFifoReference)
{
    forQueueShapes([](int queues, std::size_t depth) {
        Pe pe(queues, depth);
        RefPe ref(queues, depth);
        Rng rng(static_cast<std::uint64_t>(queues) * 16 + depth);
        Count enqueued = 0;
        Cycle now = 0;
        for (; now < 600 || ref.pending() > 0; ++now) {
            const Index arrivals =
                now >= 600 ? 0 : rng.nextIndex(now % 100 < 40 ? 4 : 2);
            for (Index i = 0; i < arrivals; ++i) {
                const std::size_t joined = pe.enqueue();
                ASSERT_EQ(joined, ref.enqueue({rng.nextIndex(8), 0})) << now;
                if (joined != 0) ++enqueued;
            }
            ASSERT_EQ(pe.tick(now), ref.tick(now)) << now;
            EXPECT_EQ(static_cast<Count>(pe.pending()),
                      enqueued - pe.tasksThisRound())
                << now;
            expectSamePe(pe, ref, now);
        }
        EXPECT_EQ(ref.rawStalls(), 0);
        EXPECT_EQ(pe.tasksThisRound(), enqueued);
        EXPECT_GT(pe.roundPeakQueueDepth(), 0u);
    });
}

// CursorModels against the reference: one Fifo<Task> PE per entry
// cursor, all fed the same random accept/issue sequence, each with its
// count-only twin. The table must hold each reference's exit cursor
// and round peak, whichever twin is the stepped PE, across the drains
// that regroup the copies. A burst builds the round's peak first; the
// sparser tail drains often, so the peak must survive the regroups.
TEST(CursorModels, MatchOnePePerEntryCursor)
{
    forQueueShapes([](int queues, std::size_t depth) {
        const auto Q = static_cast<std::size_t>(queues);
        std::vector<RefPe> ref;
        std::vector<Pe> pes;
        for (std::size_t c = 0; c < Q; ++c) {
            ref.emplace_back(queues, depth);
            ref.back().setArbiterCursor(c);
            pes.emplace_back(queues, depth);
            pes.back().setArbiterCursor(c);
        }
        CursorModels models;
        models.begin(1, Q, depth);
        Rng rng(Q * 16 + depth);
        Cycle now = 0;
        auto issueAll = [&] {
            for (std::size_t c = 0; c < Q; ++c) {
                ASSERT_TRUE(ref[c].tick(now));
                ASSERT_TRUE(pes[c].tick(now));
            }
            models.issue(0);
        };
        for (Index op = 0; op < 600; ++op, ++now) {
            const double accept = op < 150 ? 0.7 : 0.35;
            if (ref[0].canAccept() && rng.nextBool(accept)) {
                std::size_t joined = 0;
                for (std::size_t c = 0; c < Q; ++c) {
                    joined = ref[c].enqueue({op, 0});
                    ASSERT_EQ(pes[c].enqueue(), joined);
                }
                models.enqueue(0, joined);
            } else if (ref[0].pending() > 0) {
                issueAll();
            }
        }
        for (; ref[0].pending() > 0; ++now) issueAll();
        for (std::size_t c = 0; c < Q; ++c) expectSamePe(pes[c], ref[c], now);

        for (std::size_t e = 0; e < Q; ++e) {
            const std::vector<CursorOutcome> table =
                models.finish({pes[e]}, {e});
            for (std::size_t c = 0; c < Q; ++c) {
                EXPECT_EQ(table[c].exit, ref[c].arbiterCursor()) << c;
                EXPECT_EQ(table[c].peak, ref[c].roundPeakQueueDepth()) << c;
            }
        }
    });
}

TEST(LocalShare, PicksLeastLoadedNeighbour)
{
    std::vector<Pe> pes;
    for (int i = 0; i < 5; ++i) pes.emplace_back(1, 0);
    // Load PE 2 with 3 tasks, PE 1 with 1, PE 3 with 0.
    for (int i = 0; i < 3; ++i) pes[2].enqueue();
    pes[1].enqueue();

    LocalSharer s1(1);
    EXPECT_EQ(s1.choose(2, pes), 3);

    LocalSharer s0(0);
    EXPECT_EQ(s0.choose(2, pes), 2);  // hops=0: degenerate self
}

TEST(LocalShare, TieFavoursHome)
{
    std::vector<Pe> pes;
    for (int i = 0; i < 3; ++i) pes.emplace_back(1, 0);
    LocalSharer s(1);
    EXPECT_EQ(s.choose(1, pes), 1);
}

TEST(LocalShare, RespectsArrayBounds)
{
    std::vector<Pe> pes;
    for (int i = 0; i < 4; ++i) pes.emplace_back(1, 0);
    LocalSharer s(2);
    EXPECT_GE(s.choose(0, pes), 0);
    EXPECT_LE(s.choose(3, pes), 3);
}

TEST(LocalShare, SkipsFullPes)
{
    std::vector<Pe> pes;
    for (int i = 0; i < 3; ++i) pes.emplace_back(1, 1);
    pes[1].enqueue();  // home full
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
