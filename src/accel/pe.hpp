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
 * whenever a task is queued (DESIGN.md §6). So no timing decision reads
 * which queue a task joins or leaves, and the array keeps only each
 * PE's total pending count, its last-issue cycle and the tasks it
 * issued this round, each in one flat array indexed by PE: no PE owns
 * a heap block, and the local sharer scans the pending counts as one
 * contiguous run. The per-queue half of the PE (queue sizes, the
 * arbiter cursor and the round peak) lives in `CursorModels`
 * (accel/cursor_models.hpp), with the queue rules.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace awb {

/** Every PE of the array, by its counts alone. */
class PeArray
{
  public:
    PeArray() = default;

    /** @param pes  PEs in the array */
    explicit PeArray(std::size_t pes)
        : pending_(pes, 0), lastBusy_(pes, -1), tasks_(pes, 0)
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

    /** Queue a task at PE p. */
    void enqueue(std::size_t p) { ++pending_[p]; }

    /**
     * One clock of PE p: the arbiter issues a queued task into the MAC.
     * Returns whether a task issued, which is exactly whether one was
     * queued; an empty PE's tick changes nothing, so the engine ticks
     * only the PEs with queued work.
     */
    bool
    tick(std::size_t p, Cycle now)
    {
        if (pending_[p] == 0) return false;
        --pending_[p];
        lastBusy_[p] = now;
        ++tasks_[p];
        return true;
    }

    /** Cycle PE p last issued real work (utilization accounting). */
    Cycle lastBusyCycle(std::size_t p) const { return lastBusy_[p]; }

    /** Tasks PE p executed since the last resetRound(). */
    Count tasksThisRound(std::size_t p) const { return tasks_[p]; }

    /** Per-round reset of drain bookkeeping (queues must be empty). */
    void resetRound() { std::fill(tasks_.begin(), tasks_.end(), 0); }

  private:
    // Per PE p: tasks queued across all its queues, the cycle of the
    // last issue and the tasks issued this round.
    std::vector<std::uint32_t> pending_;
    std::vector<Cycle> lastBusy_;
    std::vector<Count> tasks_;
};

} // namespace awb
