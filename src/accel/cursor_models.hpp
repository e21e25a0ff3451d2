/**
 * @file
 * Per-entry-cursor queue models that fill a round's cursor table
 * (accel/round_cache.hpp, DESIGN.md §13). They apply the same queue
 * rules as `PeArray` (accel/pe.hpp): unbounded queues, shortest-queue
 * join and round-robin issue. So each model is a PE started at another
 * cursor, and finish() checks each PE's real entry cursor against the
 * array's slot for that PE.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "accel/pe.hpp"
#include "accel/round_cache.hpp"
#include "common/log.hpp"

namespace awb {

/**
 * The cursor-dependent half of a round (DESIGN.md §13). For every PE
 * and every entry cursor c it runs a copy of the PE's queue sizes: an
 * arriving task joins the queue joinQueue picks and an issue pops the
 * queue issueQueue picks from the copy's cursor, just as `PeArray` does.
 * No queue is ever full, so the arrival and issue sequence does not
 * depend on the cursors, and one stepped round fills the exit cursor
 * and peak of every entry cursor.
 *
 * Copies that reach the same state stay equal, so only one copy per
 * group is stepped. Whenever a PE drains, every copy's queues are
 * empty, and the copies regroup by cursor: each keeps the peak it had
 * so far as its own base, and its group's peak restarts at 0. Once a
 * PE's copies form one group, that group is the stepped PE itself, so
 * only the depths the PE reports are tracked.
 */
class CursorModels
{
  public:
    /** Start a round: every copy alone at its own entry cursor. Queues
     *  are empty at every round barrier, so the sizes stay 0 after the
     *  first allocation. */
    void
    begin(std::size_t pes, std::size_t queues)
    {
        q_ = queues;
        sizes_.resize(pes * q_ * q_, 0);
        cursor_.resize(pes * q_);
        group_.resize(pes * q_);
        peak_.assign(pes * q_, 0);
        base_.assign(pes * q_, 0);
        total_.assign(pes, 0);
        single_.assign(pes, q_ == 1);
        first_.resize(q_);
        for (std::size_t i = 0; i < cursor_.size(); ++i)
            cursor_[i] = group_[i] = static_cast<std::uint32_t>(i % q_);
    }

    /** PE p took a task into a queue now `depth` deep. */
    void
    enqueue(std::size_t p, std::size_t depth)
    {
        if (single_[p]) {
            std::uint32_t &peak = peak_[p * q_];
            peak = std::max(peak, static_cast<std::uint32_t>(depth));
            return;
        }
        ++total_[p];
        for (std::size_t c = 0; c < q_; ++c) {
            if (group_[p * q_ + c] != c) continue;
            std::uint32_t *s = &sizes_[(p * q_ + c) * q_];
            std::uint32_t &peak = peak_[p * q_ + c];
            peak = std::max(peak, ++s[joinQueue(s, q_)]);
        }
    }

    /** PE p issued a task. */
    void
    issue(std::size_t p)
    {
        if (single_[p]) return;
        for (std::size_t c = 0; c < q_; ++c) {
            if (group_[p * q_ + c] != c) continue;
            std::uint32_t *s = &sizes_[(p * q_ + c) * q_];
            std::uint32_t &cur = cursor_[p * q_ + c];
            const std::size_t q = issueQueue(s, q_, cur);
            if (q == q_) panic("CursorModels: issue from empty queues");
            --s[q];
            cur = static_cast<std::uint32_t>(q + 1 == q_ ? 0 : q + 1);
        }
        if (--total_[p] == 0) regroup(p);
    }

    /** The finished table; the entry of each PE's real entry cursor
     *  must match what the stepped PE did. */
    std::vector<CursorOutcome>
    finish(const PeArray &pes, const std::vector<std::size_t> &entry) const
    {
        std::vector<CursorOutcome> table(group_.size());
        for (std::size_t p = 0; p < pes.size(); ++p) {
            // A single group is the stepped PE and shares its cursor.
            const auto cursor =
                static_cast<std::uint32_t>(pes.arbiterCursor(p));
            for (std::size_t i = p * q_; i < (p + 1) * q_; ++i) {
                const std::size_t g = p * q_ + group_[i];
                table[i].exit = single_[p] ? cursor : cursor_[g];
                table[i].peak = std::max(base_[i], peak_[g]);
            }
            const CursorOutcome &o = table[p * q_ + entry[p]];
            if (o.exit != cursor || o.peak != pes.roundPeakQueueDepth(p))
                panic("CursorModels: model disagrees with the stepped PE");
        }
        return table;
    }

  private:
    /** PE p drained: fold each copy's group peak into its base, then
     *  group the copies by cursor. A new group's stepped copy is its
     *  lowest member, whose sizes are 0 like every other copy's. */
    void
    regroup(std::size_t p)
    {
        std::uint32_t *group = &group_[p * q_];
        std::uint32_t *cursor = &cursor_[p * q_];
        std::uint32_t *peak = &peak_[p * q_];
        std::uint32_t *base = &base_[p * q_];
        for (std::size_t c = 0; c < q_; ++c)
            base[c] = std::max(base[c], peak[group[c]]);
        std::fill(first_.begin(), first_.end(), q_);
        bool single = true;
        for (std::size_t c = 0; c < q_; ++c) {
            const std::uint32_t v = cursor[group[c]];
            if (first_[v] == q_) first_[v] = c;
            group[c] = static_cast<std::uint32_t>(first_[v]);
            cursor[c] = v;
            peak[c] = 0;
            single = single && group[c] == 0;
        }
        single_[p] = single;
    }

    std::size_t q_ = 1;
    // Per PE p and copy c at [p * q + c] unless noted: the queue sizes
    // ([(p * q + c) * q + queue]), the cursor, the stepped copy of c's
    // group (an index in [0, q)), the group's peak since the last
    // regroup, c's own peak before it, and per PE the total and whether
    // its copies form one group.
    std::vector<std::uint32_t> sizes_;
    std::vector<std::uint32_t> cursor_;
    std::vector<std::uint32_t> group_;
    std::vector<std::uint32_t> peak_;
    std::vector<std::uint32_t> base_;
    std::vector<std::uint32_t> total_;
    std::vector<char> single_;
    std::vector<std::size_t> first_;  ///< regroup scratch, per cursor
};

} // namespace awb
