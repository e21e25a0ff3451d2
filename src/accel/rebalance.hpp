/**
 * @file
 * Dynamic remote switching (paper §4.2): the PE Status Monitor (PESM)
 * identifies the hotspot (last PE to drain) and coldspot (first PE to
 * drain) each round; the Utilization Gap Tracker computes how many rows to
 * interchange via Eq. 5,
 *
 *     N_i = 0                          if i == 1
 *     N_i = N_{i-1} + G_i/G_1 · (R/2)  otherwise
 *
 * (G_i: hot-cold workload gap in round i, R: initial per-PE workload under
 * equal partition); the Shuffling Lookup Table picks which rows move, and
 * the row map (Shuffling Switches) is rewritten for the next round.
 *
 * This controller is deliberately independent of the simulation fidelity:
 * both the cycle-accurate engine and the round-level performance model
 * drive it with per-round observations, so the two simulators auto-tune
 * identically (DESIGN.md §4). It implements RebalancePolicy, the
 * per-round protocol every registered balance policy follows
 * (accel/policy.hpp).
 */

#pragma once

#include <deque>
#include <limits>
#include <map>
#include <vector>

#include "accel/config.hpp"
#include "accel/row_map.hpp"
#include "common/types.hpp"

namespace awb {

/** What the PESM observed in one round. */
struct RoundObservation
{
    /** Tasks executed per PE this round (the workload the mux-tree's
     *  empty-signal timing exposes). */
    std::vector<Count> peWork;
    /** Cycle (relative to round start) each PE went idle; used to break
     *  ties the same way the hardware does (last to abort = hotspot). */
    std::vector<Cycle> drainCycle;
};

/**
 * Per-round rebalancing protocol. One instance lives for one SPMM
 * execution; after every round except the last, the simulator calls
 * observeAndAdjust with what the PESM saw, and the policy may rewrite the
 * row map for the next round. Stats surface through totalRowsMoved /
 * convergedRound. RemoteSwitcher below is the paper's implementation;
 * accel/policy.hpp registers it and the other policies.
 *
 * Contract (PerfModel carries per-PE work across rounds on it, and
 * tests/test_policy.cpp checks it for every registered policy):
 *  - observeAndAdjust returning 0 means the partition is unchanged;
 *  - once converged() is true, no later call moves a row, so callers may
 *    stop observing altogether.
 */
class RebalancePolicy
{
  public:
    virtual ~RebalancePolicy() = default;

    /** Digest one round; returns rows moved (0 for static policies). */
    virtual int observeAndAdjust(const RoundObservation &obs,
                                 const std::vector<Count> &row_work,
                                 RowPartition &partition) = 0;

    /** False for policies that never adjust anything; lets simulators
     *  skip assembling per-round observations on static designs. */
    virtual bool wantsObservations() const { return true; }

    /** True once the policy stopped adjusting for good. */
    virtual bool converged() const = 0;

    /** Round at which convergence was declared (-1 if never). */
    virtual Count convergedRound() const = 0;

    virtual Count totalRowsMoved() const = 0;
};

/** Remote-switching controller: PESM + UGT + SLT, the paper's
 *  RebalancePolicy for Designs C and D. */
class RemoteSwitcher : public RebalancePolicy
{
  public:
    /**
     * @param cfg       accelerator configuration (trackingWindow,
     *                  approximateEq5, numPes)
     * @param num_rows  rows of the sparse operand
     */
    RemoteSwitcher(const AccelConfig &cfg, Index num_rows);

    /**
     * Digest one round and rewrite `partition` for the next one.
     *
     * @param obs        per-PE observations of the finished round
     * @param row_work   per-row task count (constant across rounds: the
     *                   sparse operand is reused for every column)
     * @param partition  row map to adjust in place
     * @return rows moved (hot->cold plus cold->hot)
     */
    int observeAndAdjust(const RoundObservation &obs,
                         const std::vector<Count> &row_work,
                         RowPartition &partition) override;

    /** True once the hot/cold gap fell below the convergence threshold;
     *  the tuned map is then reused for all remaining rounds (§4). */
    bool converged() const override { return converged_; }

    /** Round at which convergence was declared (-1 if never). */
    Count convergedRound() const override { return convergedRound_; }

    Count totalRowsMoved() const override { return totalMoved_; }

  private:
    /** One tracked hotspot/coldspot PE-tuple (a PESM tracking slot). */
    struct Tuple
    {
        int hot;
        int cold;
        Count firstGap;      ///< G_1 for this tuple
        Count switched;      ///< N_{i-1}, cumulative rows switched
        Count createdRound;  ///< round the slot was opened (N_1 = 0)
    };

    /** Eq. 5 increment, exact or with the hardware shift approximation. */
    Count eq5Increment(Count gap, Count first_gap) const;

    /** SLT row selection + shuffling-switch rewrite for one tuple.
     *  Returns rows moved. */
    int shuffleRows(int hot, int cold, Count gap, Count budget_rows,
                    const std::vector<Count> &row_work,
                    RowPartition &partition);

    AccelConfig cfg_;
    Count initialWorkR_;  ///< R: rows per PE under the equal partition
    std::deque<Tuple> window_;
    /** Hotspots whose rows proved unswitchable (e.g. one giant row),
     *  mapped to the round they were frozen; skipped for a few rounds so
     *  the PESM surfaces the next-latest drainer. */
    std::map<int, Count> frozen_;
    Count bestGap_ = std::numeric_limits<Count>::max();
    int stallRounds_ = 0;  ///< rounds since the gap last improved
    bool converged_ = false;
    Count convergedRound_ = -1;
    Count round_ = 0;
    Count totalMoved_ = 0;
};

} // namespace awb
