/**
 * @file
 * Processing element: multiple task queues, an arbiter and a single-cycle
 * MAC feeding the AGU/ACC accumulation path (paper Fig. 7).
 *
 * The D5005's DSP MACCs forward the accumulator register in one cycle,
 * so an op issued at cycle t has retired by t + 1: back-to-back
 * accumulations into one row never conflict and the arbiter issues
 * whenever a task is queued (DESIGN.md §6). Tasks carry no operand
 * values, and with no RaW hazard no issue decision reads which row a
 * task targets, so a PE keeps only how many tasks each queue holds.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace awb {

/**
 * The queue an arriving task joins: the shortest queue with room, the
 * lowest index on ties; `n` when all `n` are full (`depth` 0 =
 * unbounded). Shared by Pe and CursorModels.
 */
inline std::size_t
joinQueue(const std::uint32_t *sizes, std::size_t n, std::size_t depth)
{
    std::size_t best = n;
    for (std::size_t q = 0; q < n; ++q) {
        if (depth != 0 && sizes[q] >= depth) continue;
        if (best == n || sizes[q] < sizes[best]) best = q;
    }
    return best;
}

/** The queue the arbiter issues from: the first non-empty one from
 *  `cursor` on, wrapping; `n` when all `n` are empty. */
inline std::size_t
issueQueue(const std::uint32_t *sizes, std::size_t n, std::size_t cursor)
{
    std::size_t q = cursor;
    for (std::size_t i = 0; i < n; ++i, q = q + 1 == n ? 0 : q + 1)
        if (sizes[q] != 0) return q;
    return n;
}

/** One PE plus its slice of the accumulator-buffer array. */
class Pe
{
  public:
    /**
     * @param num_queues   task queues in front of the arbiter
     * @param queue_depth  per-queue capacity (0 = unbounded, measured)
     */
    Pe(int num_queues, std::size_t queue_depth)
        : depth_(queue_depth),
          sizes_(static_cast<std::size_t>(std::max(num_queues, 1)), 0)
    {
    }

    /** Total buffered tasks across this PE's queues ("pending counter"). */
    std::size_t pending() const { return pending_; }

    /** True when nothing is queued and the last issued op has retired,
     *  that is, the last issue was before `now`. */
    bool drained(Cycle now) const { return pending_ == 0 && lastBusy_ < now; }

    /** Can at least one queue accept a task? Every queue has the same
     *  capacity, so one has room exactly when the total is below
     *  depth × queues. */
    bool
    canAccept() const
    {
        return depth_ == 0 || pending_ < depth_ * sizes_.size();
    }

    /**
     * Enqueue a task into the shortest queue. Returns the depth of the
     * queue it joined, or 0 when all queues are full (backpressure to
     * the distribution network).
     */
    std::size_t
    enqueue()
    {
        if (!canAccept()) {
            ++enqueueRejects_;
            return 0;
        }
        std::uint32_t &s = sizes_[joinQueue(sizes_.data(), sizes_.size(),
                                            depth_)];
        ++pending_;
        roundPeak_ = std::max<std::size_t>(roundPeak_, ++s);
        return s;
    }

    /**
     * One clock: the arbiter issues the first non-empty queue from its
     * round-robin cursor into the MAC. Returns whether a task issued,
     * which is exactly whether one was queued; an empty PE's tick
     * changes nothing, so the engine ticks only the PEs with queued
     * work.
     */
    bool
    tick(Cycle now)
    {
        if (pending_ == 0) return false;
        const std::size_t n = sizes_.size();
        const std::size_t q = issueQueue(sizes_.data(), n, nextQueue_);
        --sizes_[q];
        --pending_;
        nextQueue_ = q + 1 == n ? 0 : q + 1;
        lastBusy_ = now;
        ++tasksRound_;
        return true;
    }

    /** Cycle the PE last issued real work (utilization accounting). */
    Cycle lastBusyCycle() const { return lastBusy_; }

    /** Tasks executed since the last resetRound(). */
    Count tasksThisRound() const { return tasksRound_; }

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
    void
    resetRound()
    {
        tasksRound_ = 0;
        roundPeak_ = 0;
    }

    /**
     * The arbiter's round-robin cursor — the only PE state that carries
     * meaning across round boundaries (queues are empty at every
     * per-column barrier). The batched engine keys its round
     * memoization on it and restores it when replaying a cached round
     * (DESIGN.md §6).
     */
    std::size_t arbiterCursor() const { return nextQueue_; }
    void setArbiterCursor(std::size_t q) { nextQueue_ = q % sizes_.size(); }

  private:
    /** Capacity of every queue (0 = unbounded). */
    std::size_t depth_;
    /** Tasks held per queue. */
    std::vector<std::uint32_t> sizes_;
    /** Tasks across all queues; kept on enqueue and on issue. */
    std::size_t pending_ = 0;
    std::size_t nextQueue_ = 0;  ///< round-robin arbiter state
    Cycle lastBusy_ = -1;
    Count tasksRound_ = 0;
    std::size_t roundPeak_ = 0;
    Count enqueueRejects_ = 0;
};

} // namespace awb
