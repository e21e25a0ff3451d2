/**
 * @file
 * The PE array: per PE, multiple task queues, an arbiter and a
 * single-cycle MAC feeding the AGU/ACC accumulation path (paper Fig. 7).
 *
 * Queues are unbounded: the simulator measures the occupancy a run
 * needs, and the resource model sizes the TQs from that peak (Fig. 14).
 * The D5005's DSP MACCs forward the accumulator register in one cycle,
 * so an op issued at cycle t has retired by t + 1: back-to-back
 * accumulations into one row never conflict and the arbiter issues
 * whenever a task is queued (DESIGN.md §6). Tasks carry no operand
 * values, and with no RaW hazard no issue decision reads which row a
 * task targets, so the array keeps only how many tasks each queue
 * holds. Every per-PE counter lives in one flat array indexed by PE
 * (queue sizes by PE × queues + queue), so no PE owns a heap block and
 * the local sharer scans the pending counts as one contiguous run.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace awb {

/**
 * The queue an arriving task joins: the shortest of the `n`, the lowest
 * index on ties. Shared by PeArray and CursorModels. Starting from
 * `best = 0` instead measured slower on event stepping (ROADMAP dead
 * ends).
 */
inline std::size_t
joinQueue(const std::uint32_t *sizes, std::size_t n)
{
    std::size_t best = n;
    for (std::size_t q = 0; q < n; ++q)
        if (best == n || sizes[q] < sizes[best]) best = q;
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

/** Every PE of the array plus its slice of the accumulator buffers. */
class PeArray
{
  public:
    PeArray() = default;

    /**
     * @param pes         PEs in the array
     * @param num_queues  task queues in front of each arbiter
     */
    PeArray(std::size_t pes, int num_queues)
        : q_(static_cast<std::size_t>(std::max(num_queues, 1))),
          sizes_(pes * q_, 0), pending_(pes, 0), cursor_(pes, 0),
          peak_(pes, 0), lastBusy_(pes, -1), tasks_(pes, 0)
    {
    }

    std::size_t size() const { return pending_.size(); }
    bool empty() const { return pending_.empty(); }

    /** Total buffered tasks across PE p's queues ("pending counter"). */
    std::size_t pending(std::size_t p) const { return pending_[p]; }

    /** Every PE's pending counter, PE p at [p]. */
    const std::uint32_t *pendingCounts() const { return pending_.data(); }

    /** True when PE p holds nothing and its last issued op has retired,
     *  that is, the last issue was before `now`. */
    bool
    drained(std::size_t p, Cycle now) const
    {
        return pending_[p] == 0 && lastBusy_[p] < now;
    }

    /** Enqueue a task at PE p into its shortest queue; returns the depth
     *  of the queue it joined. */
    std::size_t
    enqueue(std::size_t p)
    {
        std::uint32_t *s = &sizes_[p * q_];
        const std::uint32_t joined = ++s[joinQueue(s, q_)];
        ++pending_[p];
        peak_[p] = std::max(peak_[p], joined);
        return joined;
    }

    /**
     * One clock of PE p: the arbiter issues the first non-empty queue
     * from its round-robin cursor into the MAC. Returns whether a task
     * issued, which is exactly whether one was queued; an empty PE's
     * tick changes nothing, so the engine ticks only the PEs with
     * queued work.
     */
    bool
    tick(std::size_t p, Cycle now)
    {
        if (pending_[p] == 0) return false;
        std::uint32_t *s = &sizes_[p * q_];
        const std::size_t q = issueQueue(s, q_, cursor_[p]);
        --s[q];
        --pending_[p];
        cursor_[p] = static_cast<std::uint32_t>(q + 1 == q_ ? 0 : q + 1);
        lastBusy_[p] = now;
        ++tasks_[p];
        return true;
    }

    /** Cycle PE p last issued real work (utilization accounting). */
    Cycle lastBusyCycle(std::size_t p) const { return lastBusy_[p]; }

    /** Tasks PE p executed since the last resetRound(). */
    Count tasksThisRound(std::size_t p) const { return tasks_[p]; }

    /**
     * PE p's peak queue occupancy since the last resetRound(). Because
     * queues are empty at every per-column barrier, the lifetime peak
     * equals the max of these round-local peaks — which is what lets a
     * replayed cached round carry the same peak its event-stepped twin
     * produced (DESIGN.md §13).
     */
    std::size_t roundPeakQueueDepth(std::size_t p) const { return peak_[p]; }

    /** Per-round reset of drain bookkeeping (queues must be empty). */
    void
    resetRound()
    {
        std::fill(tasks_.begin(), tasks_.end(), 0);
        std::fill(peak_.begin(), peak_.end(), 0);
    }

    /**
     * PE p's round-robin arbiter cursor — the only PE state that carries
     * meaning across round boundaries (queues are empty at every
     * per-column barrier). The batched engine keys its round
     * memoization on it and restores it when replaying a cached round
     * (DESIGN.md §6).
     */
    std::size_t arbiterCursor(std::size_t p) const { return cursor_[p]; }
    void
    setArbiterCursor(std::size_t p, std::size_t q)
    {
        cursor_[p] = static_cast<std::uint32_t>(q % q_);
    }

  private:
    std::size_t q_ = 1;  ///< queues per PE
    // Per PE p unless noted: tasks held per queue ([p * q_ + queue]),
    // tasks across all queues, the round-robin arbiter cursor and the
    // round peak (all kept on enqueue and on issue), the cycle of the
    // last issue and the tasks issued this round.
    std::vector<std::uint32_t> sizes_;
    std::vector<std::uint32_t> pending_;
    std::vector<std::uint32_t> cursor_;
    std::vector<std::uint32_t> peak_;
    std::vector<Cycle> lastBusy_;
    std::vector<Count> tasks_;
};

} // namespace awb
