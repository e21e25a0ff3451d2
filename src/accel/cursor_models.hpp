/**
 * @file
 * The per-queue half of every PE (DESIGN.md §6, §13): queue sizes, the
 * round-robin arbiter cursor and the round's peak queue depth.
 * `PeArray` (accel/pe.hpp) keeps only counts, because no timing
 * decision reads the queues; these models apply the queue rules,
 * `joinQueue` and `issueQueue`, to the same arrival and issue
 * sequence. A round runs one copy of each PE at its real entry cursor,
 * or, when the round is bound for the shared round cache, one copy per
 * possible entry cursor, which fills the record's cursor table
 * (accel/round_cache.hpp).
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "accel/round_cache.hpp"
#include "common/log.hpp"

namespace awb {

/**
 * The queue an arriving task joins: the shortest of the `n`, the lowest
 * index on ties. Starting from `best = 0` instead measured slower on
 * event stepping (ROADMAP dead ends).
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

/**
 * Queue copies of every PE (DESIGN.md §13). Each copy runs the PE's
 * queue sizes from its own entry cursor: an arriving task joins the
 * queue joinQueue picks and an issue pops the queue issueQueue picks
 * from the copy's cursor. No queue is ever full, so the arrival and
 * issue sequence does not depend on the cursors, and one stepped round
 * gives the exit cursor and peak of every copy.
 *
 * Copies that reach the same state stay equal, so only one copy per
 * group, its lowest member, is stepped. Whenever a PE drains, every
 * copy's queues are empty, and the copies regroup by cursor: each
 * keeps the peak it had so far as its own base, and its group's peak
 * restarts at 0.
 */
class CursorModels
{
  public:
    /**
     * Start a round at the PEs' entry cursors `entry`, `queues` queues
     * per PE. With `all_cursors`, PE p runs one copy per entry cursor
     * c in [0, queues), copy c at cursor c, for the cursor table;
     * otherwise one copy at entry[p]. Queues are empty at every round
     * barrier, so the sizes stay 0 after the first allocation.
     */
    void
    begin(const std::vector<std::size_t> &entry, std::size_t queues,
          bool all_cursors)
    {
        q_ = queues;
        c_ = all_cursors ? queues : 1;
        table_ = all_cursors;
        const std::size_t n = entry.size() * c_;
        sizes_.resize(n * q_, 0);
        cursor_.resize(n);
        group_.resize(n);
        lead_.resize(n);
        peak_.assign(n, 0);
        base_.assign(n, 0);
        total_.assign(entry.size(), 0);
        leads_.assign(entry.size(), static_cast<std::uint32_t>(c_));
        first_.resize(q_);
        for (std::size_t i = 0; i < n; ++i) {
            const auto c = static_cast<std::uint32_t>(i % c_);
            cursor_[i] =
                all_cursors ? c : static_cast<std::uint32_t>(entry[i]);
            group_[i] = lead_[i] = c;
        }
    }

    /** PE p took a task. */
    void
    enqueue(std::size_t p)
    {
        // A lone copy is always stepped and never regroups.
        if (c_ == 1) {
            join(p);
            return;
        }
        ++total_[p];
        const std::uint32_t *lead = &lead_[p * c_];
        for (std::uint32_t k = 0; k < leads_[p]; ++k) join(p * c_ + lead[k]);
    }

    /** PE p issued a task. */
    void
    issue(std::size_t p)
    {
        if (c_ == 1) {
            pop(p);
            return;
        }
        const std::uint32_t *lead = &lead_[p * c_];
        for (std::uint32_t k = 0; k < leads_[p]; ++k) pop(p * c_ + lead[k]);
        // One group stays one group: regrouping it would change nothing.
        if (--total_[p] == 0 && leads_[p] > 1) regroup(p);
    }

    /** PE p's outcome so far from its copy c (c = 0 for the one copy
     *  at the real entry cursor). */
    CursorOutcome
    outcome(std::size_t p, std::size_t c) const
    {
        const std::size_t i = p * c_ + c;
        const std::size_t g = p * c_ + group_[i];
        return {cursor_[g], std::max(base_[i], peak_[g])};
    }

    /** The finished round into `out`: each PE's exit cursor from its
     *  real entry cursor entry[p], the round's peak queue depth and,
     *  with all cursors, the cursor table. */
    void
    finish(const std::vector<std::size_t> &entry, RoundRecord &out) const
    {
        const std::size_t P = total_.size();
        out.arbiterAfter.resize(P);
        out.peakQueue = 0;
        if (table_) out.cursorTable.resize(P * c_);
        for (std::size_t p = 0; p < P; ++p) {
            const CursorOutcome o = outcome(p, table_ ? entry[p] : 0);
            out.arbiterAfter[p] = o.exit;
            out.peakQueue = std::max<std::size_t>(out.peakQueue, o.peak);
            if (table_)
                for (std::size_t c = 0; c < c_; ++c)
                    out.cursorTable[p * c_ + c] = outcome(p, c);
        }
    }

  private:
    /** Copy i takes a task into the queue joinQueue picks. */
    void
    join(std::size_t i)
    {
        std::uint32_t *s = &sizes_[i * q_];
        peak_[i] = std::max(peak_[i], ++s[joinQueue(s, q_)]);
    }

    /** Copy i issues from the queue issueQueue picks from its cursor. */
    void
    pop(std::size_t i)
    {
        std::uint32_t *s = &sizes_[i * q_];
        const std::size_t q = issueQueue(s, q_, cursor_[i]);
        if (q == q_) panic("CursorModels: issue from empty queues");
        --s[q];
        cursor_[i] = static_cast<std::uint32_t>(q + 1 == q_ ? 0 : q + 1);
    }

    /** PE p drained: fold each copy's group peak into its base, then
     *  group the copies by cursor. A new group's stepped copy is its
     *  lowest member, whose sizes are 0 like every other copy's. */
    void
    regroup(std::size_t p)
    {
        std::uint32_t *group = &group_[p * c_];
        std::uint32_t *cursor = &cursor_[p * c_];
        std::uint32_t *peak = &peak_[p * c_];
        std::uint32_t *base = &base_[p * c_];
        std::uint32_t *lead = &lead_[p * c_];
        for (std::size_t c = 0; c < c_; ++c)
            base[c] = std::max(base[c], peak[group[c]]);
        const auto none = static_cast<std::uint32_t>(c_);
        std::fill(first_.begin(), first_.end(), none);
        std::uint32_t leads = 0;
        for (std::size_t c = 0; c < c_; ++c) {
            const std::uint32_t v = cursor[group[c]];
            if (first_[v] == none) {
                first_[v] = static_cast<std::uint32_t>(c);
                lead[leads++] = first_[v];
            }
            group[c] = first_[v];
            cursor[c] = v;
            peak[c] = 0;
        }
        leads_[p] = leads;
    }

    std::size_t q_ = 1;  ///< queues per PE
    std::size_t c_ = 1;  ///< copies per PE: q_ for the table, else 1
    bool table_ = false;
    // Per PE p and copy c at [p * c_ + c] unless noted: the queue sizes
    // ([(p * c_ + c) * q_ + queue]), the cursor, the stepped copy of
    // c's group, the group's peak since the last regroup and c's own
    // peak before it; per PE its stepped copies (the first leads_[p]
    // of lead_[p * c_ ...]), how many there are, and its total.
    std::vector<std::uint32_t> sizes_;
    std::vector<std::uint32_t> cursor_;
    std::vector<std::uint32_t> group_;
    std::vector<std::uint32_t> peak_;
    std::vector<std::uint32_t> base_;
    std::vector<std::uint32_t> lead_;
    std::vector<std::uint32_t> leads_;
    std::vector<std::uint32_t> total_;
    std::vector<std::uint32_t> first_;  ///< regroup scratch, per cursor
};

} // namespace awb
