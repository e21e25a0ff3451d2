/**
 * @file
 * Unit tests for the accelerator building blocks: configuration factory,
 * row partition, PE array (issue and drain timing, idle ticks, occupancy
 * counters), the queue models (arbitration, exit cursors and peaks, one
 * copy per PE and one per entry cursor), both against a reference PE
 * with a std::deque of result rows per queue, local sharing policy, and the
 * remote-switching controller (Eq. 5 dynamics and convergence).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
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

namespace {

/**
 * The PE as it was modelled with a task's result row per queue entry
 * and a RaW scoreboard, at the single-cycle MAC: the reference the count-only
 * PeArray and the CursorModels queue copies must match together. An op
 * issued at t retires at t + 1, so the scoreboard must never stall.
 */
class RefPe
{
  public:
    explicit RefPe(int num_queues)
        : queues_(static_cast<std::size_t>(num_queues))
    {
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
    std::size_t
    enqueue(Index row)
    {
        std::deque<Index> *best = nullptr;
        for (auto &q : queues_)
            if (best == nullptr || q.size() < best->size()) best = &q;
        best->push_back(row);
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
            std::deque<Index> &q = queues_[qi];
            if (q.empty() || rowInFlight(q.front())) continue;
            const Index row = q.front();
            q.pop_front();
            --pending_;
            cursor_ = (qi + 1) % nq;
            inflight_.push_back({row, now + 1});
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
    std::vector<std::deque<Index>> queues_;
    std::vector<InFlight> inflight_;
    std::size_t pending_ = 0;
    std::size_t cursor_ = 0;
    Cycle lastBusy_ = -1;
    Count tasks_ = 0;
    Count rawStalls_ = 0;
    std::size_t roundPeak_ = 0;
};

/** Every counter the engine reads agrees between array slot p, with
 *  its one queue copy, and the reference PE. */
void
expectSamePe(const PeArray &pes, const CursorModels &models, std::size_t p,
             const RefPe &ref, Cycle now)
{
    const CursorOutcome o = models.outcome(p, 0);
    EXPECT_EQ(pes.pending(p), ref.pending()) << now;
    EXPECT_EQ(o.exit, ref.arbiterCursor()) << now;
    EXPECT_EQ(o.peak, ref.roundPeakQueueDepth()) << now;
    EXPECT_EQ(pes.lastBusyCycle(p), ref.lastBusyCycle()) << now;
    EXPECT_EQ(pes.tasksThisRound(p), ref.tasksThisRound()) << now;
    EXPECT_EQ(pes.drained(p, now), ref.drained(now)) << now;
    EXPECT_EQ(pes.drained(p, now + 1), ref.drained(now + 1)) << now;
}

/** The queue counts both reference tests run. */
template <class F>
void
forQueueShapes(F &&body)
{
    for (int queues : {1, 2, 4, 8}) {
        SCOPED_TRACE("queues " + std::to_string(queues));
        body(queues);
    }
}

} // namespace

TEST(PeArray, IssuesOneTaskPerCycleAndDrainsTheCycleAfter)
{
    PeArray pes(3);
    for (int i = 0; i < 8; ++i) pes.enqueue(1);
    for (Cycle t = 0; t < 8; ++t) {
        EXPECT_FALSE(pes.drained(1, t));
        EXPECT_TRUE(pes.tick(1, t));
    }
    EXPECT_FALSE(pes.tick(1, 8));
    EXPECT_EQ(pes.tasksThisRound(1), 8);
    EXPECT_EQ(pes.lastBusyCycle(1), 7);
    // The last op retires one cycle after its issue.
    EXPECT_FALSE(pes.drained(1, 7));
    EXPECT_TRUE(pes.drained(1, 8));
    // The neighbours never saw a task.
    for (std::size_t p : {0, 2}) {
        EXPECT_EQ(pes.tasksThisRound(p), 0);
        EXPECT_TRUE(pes.drained(p, 0));
    }
}

TEST(PeArray, TickOnEmptyPeChangesNothing)
{
    // Idle ticks are skipped outright; they must leave every counter the
    // engine reads unchanged.
    PeArray pes(2);
    for (Cycle t = 0; t < 5; ++t) EXPECT_FALSE(pes.tick(0, t));
    EXPECT_EQ(pes.tasksThisRound(0), 0);
    EXPECT_EQ(pes.lastBusyCycle(0), -1);

    pes.enqueue(0);
    EXPECT_TRUE(pes.tick(0, 5));
    for (Cycle t = 6; t < 20; ++t) EXPECT_FALSE(pes.tick(0, t));
    EXPECT_TRUE(pes.drained(0, 20));
    EXPECT_EQ(pes.tasksThisRound(0), 1);
    EXPECT_EQ(pes.lastBusyCycle(0), 5);
    EXPECT_EQ(pes.tasksThisRound(1), 0);
    EXPECT_EQ(pes.lastBusyCycle(1), -1);
}

// Each slot of a count-only PeArray, with the one copy per PE that the
// queue models run on a round that fills no cursor table, against its
// own reference on random bursts: up to three arrivals a
// cycle per slot, drawn from eight rows so same-row neighbours are
// common, then one tick of every slot. Every counter, exit cursor and
// round peak must agree, cycle by cycle, and no reference's scoreboard
// may stall.
TEST(PeArray, CountOnlyMatchesFifoReference)
{
    constexpr std::size_t kPes = 3;
    forQueueShapes([](int queues) {
        PeArray pes(kPes);
        CursorModels models;
        models.begin(std::vector<std::size_t>(kPes, 0),
                     static_cast<std::size_t>(queues), false);
        std::vector<RefPe> ref(kPes, RefPe(queues));
        Rng rng(static_cast<std::uint64_t>(queues) * 16);
        std::vector<Count> enqueued(kPes, 0);
        auto busy = [&] {
            for (const RefPe &r : ref)
                if (r.pending() > 0) return true;
            return false;
        };
        Cycle now = 0;
        for (; now < 600 || busy(); ++now) {
            for (std::size_t p = 0; p < kPes; ++p) {
                // Each slot bursts in its own 40-cycle window per 100.
                const bool burst =
                    (now + 30 * static_cast<Cycle>(p)) % 100 < 40;
                const Index arrivals =
                    now >= 600 ? 0 : rng.nextIndex(burst ? 4 : 2);
                for (Index i = 0; i < arrivals; ++i) {
                    ref[p].enqueue(rng.nextIndex(8));
                    pes.enqueue(p);
                    models.enqueue(p);
                    ++enqueued[p];
                }
            }
            for (std::size_t p = 0; p < kPes; ++p) {
                const bool issued = ref[p].tick(now);
                ASSERT_EQ(pes.tick(p, now), issued) << now;
                if (issued) models.issue(p);
                EXPECT_EQ(static_cast<Count>(pes.pending(p)),
                          enqueued[p] - pes.tasksThisRound(p))
                    << now;
                expectSamePe(pes, models, p, ref[p], now);
            }
        }
        for (std::size_t p = 0; p < kPes; ++p) {
            EXPECT_EQ(ref[p].rawStalls(), 0);
            EXPECT_EQ(pes.tasksThisRound(p), enqueued[p]);
            EXPECT_GT(models.outcome(p, 0).peak, 0u);
        }
    });
}

// The queue models against the reference: one RefPe per entry
// cursor, all fed the same random accept/issue sequence. The models
// track as many PEs as there are cursors, PE p entering at cursor p.
// Cycle by cycle, every copy of the all-cursors models must hold its
// reference's cursor and round peak for every PE, across the drains
// that regroup the copies, and so must the one copy per PE at its real
// entry cursor; at the end, the round record is the same whether the
// round fills a table or not. A burst builds the round's peak first;
// the sparser tail drains often, so the peak must survive the regroups.
TEST(CursorModels, MatchOnePePerEntryCursor)
{
    forQueueShapes([](int queues) {
        const auto Q = static_cast<std::size_t>(queues);
        std::vector<RefPe> ref(Q, RefPe(queues));
        std::vector<std::size_t> entry(Q);
        for (std::size_t c = 0; c < Q; ++c) {
            ref[c].setArbiterCursor(c);
            entry[c] = c;
        }
        CursorModels all, one;
        all.begin(entry, Q, true);
        one.begin(entry, Q, false);
        Rng rng(Q * 16);
        Cycle now = 0;
        auto expectOutcomes = [&] {
            for (std::size_t p = 0; p < Q; ++p) {
                const CursorOutcome o = one.outcome(p, 0);
                EXPECT_EQ(o.exit, ref[p].arbiterCursor()) << now;
                EXPECT_EQ(o.peak, ref[p].roundPeakQueueDepth()) << now;
                for (std::size_t c = 0; c < Q; ++c) {
                    const CursorOutcome t = all.outcome(p, c);
                    EXPECT_EQ(t.exit, ref[c].arbiterCursor()) << now;
                    EXPECT_EQ(t.peak, ref[c].roundPeakQueueDepth()) << now;
                }
            }
        };
        auto issueAll = [&] {
            for (std::size_t c = 0; c < Q; ++c) {
                ASSERT_TRUE(ref[c].tick(now));
                all.issue(c);
                one.issue(c);
            }
        };
        for (Index op = 0; op < 600; ++op, ++now) {
            const double accept = op < 150 ? 0.7 : 0.35;
            if (rng.nextBool(accept)) {
                for (std::size_t c = 0; c < Q; ++c) {
                    ref[c].enqueue(op);
                    all.enqueue(c);
                    one.enqueue(c);
                }
            } else if (ref[0].pending() > 0) {
                issueAll();
            }
            expectOutcomes();
        }
        for (; ref[0].pending() > 0; ++now) {
            issueAll();
            expectOutcomes();
        }

        RoundRecord tabulated, stepped;
        all.finish(entry, tabulated);
        one.finish(entry, stepped);
        const std::vector<CursorOutcome> &table = tabulated.cursorTable;
        ASSERT_EQ(table.size(), Q * Q);
        EXPECT_TRUE(stepped.cursorTable.empty());
        std::size_t peak = 0;
        for (std::size_t p = 0; p < Q; ++p) {
            for (std::size_t c = 0; c < Q; ++c) {
                EXPECT_EQ(table[p * Q + c].exit, ref[c].arbiterCursor())
                    << p << " " << c;
                EXPECT_EQ(table[p * Q + c].peak,
                          ref[c].roundPeakQueueDepth())
                    << p << " " << c;
            }
            EXPECT_EQ(stepped.arbiterAfter[p], ref[p].arbiterCursor()) << p;
            EXPECT_EQ(one.outcome(p, 0).peak, ref[p].roundPeakQueueDepth())
                << p;
            EXPECT_EQ(tabulated.arbiterAfter[p], stepped.arbiterAfter[p])
                << p;
            peak = std::max(peak, ref[p].roundPeakQueueDepth());
        }
        EXPECT_EQ(stepped.peakQueue, peak);
        EXPECT_EQ(tabulated.peakQueue, peak);
    });
}

TEST(LocalShare, PicksLeastLoadedNeighbour)
{
    PeArray pes(5);
    // Load PE 2 with 3 tasks, PE 1 with 1, PE 3 with 0.
    for (int i = 0; i < 3; ++i) pes.enqueue(2);
    pes.enqueue(1);

    LocalSharer s1(1);
    EXPECT_EQ(s1.choose(2, pes), 3);

    LocalSharer s0(0);
    EXPECT_EQ(s0.choose(2, pes), 2);  // hops=0: degenerate self
}

TEST(LocalShare, TieFavoursHome)
{
    PeArray pes(3);
    LocalSharer s(1);
    EXPECT_EQ(s.choose(1, pes), 1);
}

TEST(LocalShare, RespectsArrayBounds)
{
    PeArray pes(4);
    LocalSharer s(2);
    EXPECT_GE(s.choose(0, pes), 0);
    EXPECT_LE(s.choose(3, pes), 3);
}

TEST(LocalShare, SkipsPesWithoutAFreePort)
{
    PeArray pes(3);
    const int accepted[] = {0, 2, 0};  // home's two ports are taken
    LocalSharer s(1);
    int got = s.choose(1, pes, accepted, 2);
    EXPECT_NE(got, 1);
    EXPECT_GE(got, 0);
}

namespace {

/**
 * The sharer's choice as a loop over plain per-PE arrays, the way it
 * was written over one object per PE: walk the window from home − hops
 * to home + hops, skip PEs out of receive ports, and keep a PE only if
 * it holds fewer tasks than the best so far, or as many at a smaller
 * distance.
 */
int
referenceChoose(int home, int hops, const std::vector<std::size_t> &pending,
                const std::vector<int> *accepted, int accept_cap)
{
    const int n = static_cast<int>(pending.size());
    int best = -1;
    std::size_t best_pending = 0;
    int best_dist = 0;
    for (int d = -hops; d <= hops; ++d) {
        int p = home + d;
        if (p < 0 || p >= n) continue;
        const auto i = static_cast<std::size_t>(p);
        if (accepted != nullptr && (*accepted)[i] >= accept_cap) continue;
        int dist = d < 0 ? -d : d;
        bool better = best == -1 || pending[i] < best_pending ||
                      (pending[i] == best_pending && dist < best_dist);
        if (better) {
            best = p;
            best_pending = pending[i];
            best_dist = dist;
        }
    }
    return best;
}

} // namespace

// The branch-free choice over the PE array against the reference loop
// on seeded states: small pending counts so ties are common, homes at
// both array edges, and receive ports that run out. Both must pick the
// same PE every time, and every kind of state must actually occur.
TEST(LocalShare, CountArrayMatchesReferenceLoop)
{
    Rng rng(26);
    int states = 0, ties = 0, edges = 0, no_port = 0, none = 0;
    for (int hops = 0; hops <= 3; ++hops) {
        for (int n : {1, 2, 7, 64}) {
            for (int trial = 0; trial < 700; ++trial, ++states) {
                PeArray pes(static_cast<std::size_t>(n));
                std::vector<std::size_t> pending(static_cast<std::size_t>(n));
                std::vector<int> accepted(pending.size());
                const int accept_cap =
                    1 + static_cast<int>(rng.nextBounded(2));
                for (std::size_t p = 0; p < pending.size(); ++p) {
                    const std::uint32_t tasks = rng.nextBounded(5);
                    for (std::uint32_t t = 0; t < tasks; ++t) pes.enqueue(p);
                    pending[p] = tasks;
                    accepted[p] = static_cast<int>(rng.nextBounded(3));
                    no_port += accepted[p] >= accept_cap;
                }
                const int home = trial % 5 == 0
                    ? (trial % 2 == 0 ? 0 : n - 1)
                    : static_cast<int>(rng.nextIndex(n));
                edges += home - hops < 0 || home + hops >= n;
                const bool ports = rng.nextBool(0.75);
                const int want =
                    referenceChoose(home, hops, pending,
                                    ports ? &accepted : nullptr, accept_cap);
                const int got = LocalSharer(hops).choose(
                    home, pes, ports ? accepted.data() : nullptr,
                    accept_cap);
                ASSERT_EQ(got, want)
                    << "hops " << hops << " n " << n << " trial " << trial;
                if (want < 0) {
                    ++none;
                    continue;
                }
                // A tie: another open candidate holds as few tasks.
                const std::size_t least =
                    pending[static_cast<std::size_t>(want)];
                for (int p = std::max(home - hops, 0);
                     p <= std::min(home + hops, n - 1); ++p) {
                    const auto i = static_cast<std::size_t>(p);
                    const bool open = !ports || accepted[i] < accept_cap;
                    if (p != want && open && pending[i] == least) {
                        ++ties;
                        break;
                    }
                }
            }
        }
    }
    EXPECT_GE(states, 10000);
    EXPECT_GT(ties, 0);
    EXPECT_GT(edges, 0);
    EXPECT_GT(no_port, 0);
    EXPECT_GT(none, 0);
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
