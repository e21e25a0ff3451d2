/**
 * @file
 * The counters every engine run produces, declared once (DESIGN.md
 * §13). SpmmStats, PerfSpmmResult, FrontierRunStats and DynamicRunStats
 * derive from RunCounters and add only what is their own. Each field
 * names its merge rule; a site whose rule differs overrides the field
 * after merging, and says why. ScaleOutSummary holds the multi-chip
 * aggregates every GCN, SPMM and frontier result reports beside them.
 */

#pragma once

#include <algorithm>
#include <cstddef>

#include "common/types.hpp"
#include "model/memory_model.hpp"

namespace awb {

struct RunCounters
{
    Cycle cycles = 0;       ///< execution cycles; row merge: sum
    Count tasks = 0;        ///< MACs executed; row merge: sum
    /** Sum over rounds of ceil(tasks_r / P); row merge: sum. */
    Cycle idealCycles = 0;
    /** cycles − idealCycles of one SPMM, the barrier wait; row merge:
     *  sum. A pipelined Session's cycles are its chained delay and a
     *  frontier run leaves both at 0, so there idealCycles + syncCycles
     *  != cycles. */
    Cycle syncCycles = 0;
    Count rounds = 0;       ///< column rounds; row merge: sum
    /** Rounds the batched engine's within-run memo missed, summed over
     *  chips: under EngineKind::Event, rounds unsharded and chips ×
     *  rounds sharded (rounds counts system rounds); fewer under
     *  EngineKind::Batched when the memo replayed. Shared round-cache
     *  replays still count, so cache state never moves it; an SpGEMM
     *  (no memo) counts every round; 0 in the round-level model. Work
     *  merge: sum. */
    Count roundsSimulated = 0;
    Count rowsSwitched = 0;  ///< rows moved by the policy; row merge: sum
    Count convergedRound = -1;  ///< -1 = never; row merge: max
    std::size_t peakQueueDepth = 0;    ///< per-PE TQ; work merge: max
    std::size_t peakNetworkDepth = 0;  ///< Omega buffer; work merge: max
    /** Off-chip traffic (DESIGN.md §8), accounted on every platform;
     *  work merge: sum. */
    MemoryTraffic traffic;
    /** Summed per-round bandwidth floors (0 unconstrained); work merge:
     *  sum. */
    Cycle memoryCycles = 0;
    /** Rounds stretched to their bandwidth floor; work merge: sum. */
    Count bwBoundRounds = 0;

    /** The fields every producer folds alike. */
    void
    mergeWork(const RunCounters &o)
    {
        roundsSimulated += o.roundsSimulated;
        traffic += o.traffic;
        memoryCycles += o.memoryCycles;
        bwBoundRounds += o.bwBoundRounds;
        peakQueueDepth = std::max(peakQueueDepth, o.peakQueueDepth);
        peakNetworkDepth = std::max(peakNetworkDepth, o.peakNetworkDepth);
    }

    /** The work merge plus the run totals and the convergence round. */
    void
    mergeRow(const RunCounters &o)
    {
        mergeWork(o);
        cycles += o.cycles;
        tasks += o.tasks;
        idealCycles += o.idealCycles;
        syncCycles += o.syncCycles;
        rounds += o.rounds;
        rowsSwitched += o.rowsSwitched;
        convergedRound = std::max(convergedRound, o.convergedRound);
    }
};

/** Scale-out-specific aggregates of a run on one or more chips (§9). */
struct ScaleOutSummary
{
    int chips = 1;
    /** Inter-chip bytes moved (all rounds, all chips). */
    Count haloBytes = 0;
    /** Summed per-round link floors (0 on an unconstrained link). */
    Cycle haloCycles = 0;
    /** Rounds stretched to the link floor at the barrier. */
    Count haloBoundRounds = 0;
    /** Chip-level load imbalance: max(W_c) / mean(W_c). */
    double chipImbalance = 1.0;
};

} // namespace awb
