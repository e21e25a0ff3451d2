/**
 * @file
 * Processing element: multiple task queues, an arbiter, a pipelined
 * floating-point MAC with a RaW-hazard scoreboard, and the AGU/ACC
 * accumulation path (paper Fig. 7).
 *
 * The MAC is pipelined with latency T (`macLatency`): it accepts one task
 * per cycle but a task whose accumulation target row is still in flight
 * must wait (the scoreboard / stall-buffer of §3.3), otherwise it would
 * read a stale partial sum from the ACC bank.
 */

#pragma once

#include <algorithm>
#include <vector>

#include "accel/task.hpp"
#include "sim/fifo.hpp"

namespace awb {

/** One PE plus its slice of the accumulator-buffer array. */
class Pe
{
  public:
    /**
     * @param id           PE index in the array
     * @param num_queues   task queues in front of the arbiter
     * @param queue_depth  per-queue capacity (0 = unbounded, measured)
     * @param mac_latency  MAC pipeline depth T
     */
    Pe(int id, int num_queues, std::size_t queue_depth, int mac_latency);

    int id() const { return id_; }

    /** Total buffered tasks across this PE's queues ("pending counter"). */
    std::size_t pending() const { return pending_; }

    /** True when queues are empty and the MAC pipeline has drained. */
    bool drained(Cycle now) const;

    /** Can at least one queue accept a task? Every queue has the same
     *  capacity, so one has room exactly when the total is below
     *  depth × queues. */
    bool
    canAccept() const
    {
        return depth_ == 0 || pending_ < depth_ * queues_.size();
    }

    /**
     * Enqueue a task into the shortest queue. Returns the depth of the
     * queue it joined, or 0 when all queues are full (backpressure to
     * the distribution network).
     */
    std::size_t
    enqueue(const Task &task)
    {
        if (!canAccept()) {
            ++enqueueRejects_;
            return 0;
        }
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

    /**
     * One clock: retire finished MAC ops, then let the arbiter issue the
     * first hazard-free queue head into the MAC. Returns whether a task
     * issued. An empty PE does nothing, not even retirement: completion
     * (`done <= now`) only becomes more true as time advances, the
     * scoreboard is read only when issuing, and drained() already
     * ignores finished ops, so retiring lazily at the next issue attempt
     * is exact (DESIGN.md §6). That also lets the engine tick only the
     * PEs with queued work.
     */
    bool
    tick(Cycle now)
    {
        return pending_ != 0 && issue(now);
    }

    /** Cycle the PE last issued real work (utilization accounting). */
    Cycle lastBusyCycle() const { return lastBusy_; }

    /** Tasks executed since the last resetRound(). */
    Count tasksThisRound() const { return tasksRound_; }

    /** Cycles since the last resetRound() in which a queued task could
     *  not issue because of a RaW hazard. */
    Count rawStallCycles() const { return rawStallCycles_; }

    /** Enqueue attempts rejected because every queue was full. */
    Count enqueueRejects() const { return enqueueRejects_; }

    /**
     * Peak queue occupancy since the last resetRound(). Because queues
     * are empty at every per-column barrier, the lifetime peak equals
     * the max of these round-local peaks — which is what lets a
     * replayed cached round carry the same peak its event-stepped twin
     * produced (DESIGN.md §13).
     */
    std::size_t roundPeakQueueDepth() const { return roundPeak_; }

    /** Per-round reset of drain bookkeeping (queues must be empty). */
    void resetRound();

    /**
     * The arbiter's round-robin cursor — the only PE state that carries
     * meaning across round boundaries (queues and the MAC pipeline are
     * drained at every per-column barrier). The batched engine keys its
     * round memoization on it and restores it when replaying a cached
     * round (DESIGN.md §6).
     */
    std::size_t arbiterCursor() const { return nextQueue_; }
    void setArbiterCursor(std::size_t q) { nextQueue_ = q % queues_.size(); }

  private:
    /** tick() body for a PE with queued work. */
    bool
    issue(Cycle now)
    {
        // Retire MAC ops whose pipeline delay has elapsed.
        if (!inflight_.empty())
            inflight_.erase(std::remove_if(inflight_.begin(), inflight_.end(),
                                           [now](const InFlight &f) {
                                               return f.done <= now;
                                           }),
                            inflight_.end());

        // Arbiter: round-robin over queues, issue the first whose head
        // does not RaW-conflict with an in-flight accumulation.
        const std::size_t nq = queues_.size();
        std::size_t qi = nextQueue_;
        for (std::size_t i = 0; i < nq; ++i, qi = qi + 1 == nq ? 0 : qi + 1) {
            Fifo<Task> &q = queues_[qi];
            if (q.empty() || rowInFlight(q.front().row)) continue;

            const Task t = q.pop();
            --pending_;
            nextQueue_ = qi + 1 == nq ? 0 : qi + 1;
            // The result row is busy until the pipeline delay elapses,
            // which the scoreboard enforces.
            inflight_.push_back({t.row, now + macLatency_});
            lastBusy_ = now;
            ++tasksRound_;
            return true;
        }

        // Work is queued (issue() runs only then) but every head
        // conflicts.
        ++rawStallCycles_;
        return false;
    }

    /** True if `row` is being accumulated in the MAC pipeline. */
    bool
    rowInFlight(Index row) const
    {
        for (const auto &f : inflight_)
            if (f.row == row) return true;
        return false;
    }

    int id_;
    int macLatency_;
    /** Capacity of every queue (0 = unbounded). */
    std::size_t depth_;
    std::vector<Fifo<Task>> queues_;
    /** Tasks across all queues; kept on enqueue and on issue. */
    std::size_t pending_ = 0;
    std::size_t nextQueue_ = 0;  ///< round-robin arbiter state

    /** Scoreboard: (row, completion cycle) of in-flight MAC ops. */
    struct InFlight
    {
        Index row;
        Cycle done;
    };
    std::vector<InFlight> inflight_;

    Cycle lastBusy_ = -1;
    Count tasksRound_ = 0;
    std::size_t roundPeak_ = 0;
    Count rawStallCycles_ = 0;
    Count enqueueRejects_ = 0;
};

} // namespace awb
