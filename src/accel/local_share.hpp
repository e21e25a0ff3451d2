/**
 * @file
 * Dynamic local workload sharing (paper §4.1).
 *
 * Before a task is pushed into a PE's queues, its pending-task counter is
 * compared against the PEs within `hops` positions; the task goes to the
 * least-loaded of them. A diverted task still accumulates into the home
 * PE's ACC bank (a task is the id of its home PE), mirroring the return
 * path of Fig. 11-(B). In TDQ-2 this decision happens at the final
 * network layer, whose boundary links make out-of-group neighbours
 * reachable (Fig. 11-(D)); choosing among [home-hops, home+hops] models exactly
 * that reachable set. Queues are unbounded, so only a PE's receive
 * ports can turn a task away. The choice reads the PE array's flat
 * pending counts and the per-cycle receive-port counts over that window
 * and keeps the least key with selects, not data-dependent branches.
 */

#pragma once

#include <algorithm>
#include <cstdint>

#include "accel/pe.hpp"

namespace awb {

/** Stateless enqueue-time neighbour selection. */
class LocalSharer
{
  public:
    /**
     * @param hops  sharing distance; 0 disables sharing
     */
    explicit LocalSharer(int hops) : hops_(hops) {}

    int hops() const { return hops_; }

    /**
     * Least-pending PE within the sharing window of `home`. Ties favour
     * the home PE, then smaller distance (shorter return path), then the
     * lower index. PEs whose per-cycle receive ports are exhausted (per
     * `accepted`/`accept_cap`) are skipped; returns -1 when every
     * candidate is.
     *
     * @param accepted    per-PE count of tasks already accepted this
     *                    cycle (nullptr to ignore port limits)
     * @param accept_cap  per-PE receive ports per cycle
     */
    int
    choose(int home, const PeArray &pes, const int *accepted = nullptr,
           int accept_cap = 0) const
    {
        const int lo = std::max(home - hops_, 0);
        const int hi =
            std::min(home + hops_, static_cast<int>(pes.size()) - 1);
        const std::uint32_t *pending = pes.pendingCounts();
        // Key: pending count in the high word, then the distance rank
        // 2·|d| + (d > 0), which orders the home PE first and the lower
        // of two equidistant PEs before the upper. An unavailable PE
        // keys above every real one.
        constexpr std::uint64_t kNone = ~std::uint64_t{0};
        std::uint64_t best_key = kNone;
        int best = -1;
        for (int p = lo; p <= hi; ++p) {
            const std::uint32_t n = pending[p];
            const int d = p - home;
            const auto rank =
                static_cast<std::uint64_t>(2 * (d < 0 ? -d : d) + (d > 0));
            const bool open =
                accepted == nullptr || accepted[p] < accept_cap;
            const std::uint64_t key =
                open ? (std::uint64_t{n} << 32 | rank) : kNone;
            const bool lt = key < best_key;
            best_key = lt ? key : best_key;
            best = lt ? p : best;
        }
        return best;
    }

  private:
    int hops_;
};

} // namespace awb
