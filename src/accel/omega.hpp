/**
 * @file
 * Multi-stage Omega network used by TDQ-2 to route non-zero elements of
 * the ultra-sparse CSC operand to the PE owning their row (paper §3.3).
 *
 * log2(P) stages of 2x2 routers, perfect-shuffle wiring between stages,
 * one input buffer per router port ("Each router in the Omega-network has
 * a local buffer in case the buffer of the next stage is saturated").
 * Chosen over a crossbar for area: P/2·log2(P) routers vs P^2 crosspoints.
 *
 * Every router port buffer is a ring-backed `Fifo<Task>` sized once at
 * construction. tick() is a template over the sink so the per-flit
 * delivery call inlines into the engine's round loop (DESIGN.md §6).
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "accel/task.hpp"
#include "sim/fifo.hpp"

namespace awb {

/** Blocking multistage interconnect with per-port input buffers. */
class OmegaNetwork
{
  public:
    /**
     * @param ports         network width (power of two, == PE count)
     * @param buffer_depth  per-router-port buffer capacity (>= 1)
     * @param speedup       flits one router output can pass per PE cycle
     *                      (the switch fabric runs faster than the PE
     *                      clock so routing conflicts do not starve the
     *                      PEs; the paper sizes the network to match the
     *                      PEs' aggregate consumption)
     */
    OmegaNetwork(int ports, int buffer_depth, int speedup = 2);

    /**
     * Offer a task at input port `src`; it is routed to output port
     * `task.homePe`. Returns false when the stage-0 buffer on that path
     * is full (caller retries next cycle).
     */
    bool inject(const Task &task, int src);

    /**
     * One clock: stages advance in back-to-front order, each router moving
     * at most `speedup` flits per output. Flits leaving the final stage
     * are handed to `sink(const Task &, int out_port) -> bool`, where
     * `out_port` always equals the task's `homePe`; if the sink rejects
     * (PE queue full), the flit stays buffered.
     */
    template <typename Sink>
    void tick(Cycle now, Sink &&sink);

    /** No flits anywhere in the fabric. */
    bool empty() const;

    int ports() const { return ports_; }
    int stages() const { return stages_; }

    /**
     * Force every router's input-priority toggle to `parity`. The toggle
     * flips once per tick() for every router, so after t ticks from reset
     * it equals t mod 2 array-wide; between rounds it is the only network
     * state besides the (empty) buffers. The round-batched engine calls
     * this with the global cycle parity before event-stepping a round so
     * that skipped (replayed) rounds leave the fabric in the same state
     * the event engine would have (DESIGN.md §6). A no-op under pure
     * event stepping, where the toggle already equals the cycle parity.
     */
    void setArbitration(int parity);

    /**
     * Largest buffer occupancy since the last resetRoundPeak(). The
     * fabric is empty at every round boundary and `Fifo` peaks only
     * move on push, so the lifetime peak equals the max of these
     * round-local peaks; cached round replay restores it exactly
     * (DESIGN.md §13).
     */
    std::size_t roundPeakBufferDepth() const { return roundPeak_; }
    void resetRoundPeak() { roundPeak_ = 0; }

    Count flitsDelivered() const { return delivered_; }
    /** Moves that found their output busy or the next buffer full. A
     *  congestion indicator, not an exact attempt count: provably futile
     *  re-attempts (a pass that cannot make progress) are skipped. */
    Count blockedMoves() const { return blocked_; }

  private:
    /** Perfect-shuffle permutation (rotate-left on log2(P) bits). */
    int
    shuffle(int port) const
    {
        return ((port << 1) | (port >> (stages_ - 1))) & (ports_ - 1);
    }

    int ports_;
    int stages_;
    int bufferDepth_;
    int speedup_;
    /** buffers_[s][p]: input buffer of stage s at port p. */
    std::vector<std::vector<Fifo<Task>>> buffers_;
    /**
     * Input-priority toggle shared by every router. Each router used to
     * carry its own bit, but all of them start at 0 and flip exactly
     * once per tick(), so the array was always uniformly equal to the
     * tick parity; one bit models it exactly and lets tick() skip
     * vacant routers without desynchronizing arbitration state.
     */
    int rrTick_ = 0;
    /** Flits resident per stage; lets tick() skip empty stages and
     *  makes empty() O(stages). */
    std::vector<Count> stageCount_;
    std::size_t roundPeak_ = 0;
    Count delivered_ = 0;
    Count blocked_ = 0;
};

template <typename Sink>
void
OmegaNetwork::tick(Cycle, Sink &&sink)
{
    // Back-to-front: freeing a downstream slot this cycle lets the
    // upstream stage use it this cycle (credit-based flow control).
    const int rr = rrTick_;
    for (int s = stages_ - 1; s >= 0; --s) {
        // A vacant stage (nothing resident) cannot move anything; its
        // routers' state is fully captured by the shared priority bit,
        // so skipping them is behaviour-preserving.
        if (stageCount_[static_cast<std::size_t>(s)] == 0) continue;
        auto &stage = buffers_[static_cast<std::size_t>(s)];
        const int dest_bit = stages_ - 1 - s;
        for (int r = 0; r < ports_ / 2; ++r) {
            if (stage[static_cast<std::size_t>(2 * r)].empty() &&
                stage[static_cast<std::size_t>(2 * r + 1)].empty())
                continue;
            int out_used[2] = {0, 0};
            // The fabric clock allows `speedup_` passes over the two
            // inputs per PE cycle. Within one tick a router's inputs
            // only shrink and its outputs only fill (stages advance
            // back-to-front and each output port belongs to exactly one
            // router), so a pass that moves nothing proves every later
            // pass would move nothing: stop early.
            for (int pass = 0; pass < speedup_; ++pass) {
                bool progressed = false;
                for (int i = 0; i < 2; ++i) {
                    int in_port = 2 * r + ((rr + i) & 1);
                    Fifo<Task> &buf =
                        stage[static_cast<std::size_t>(in_port)];
                    if (buf.empty()) continue;
                    const Task &head = buf.front();
                    int bit = (head.homePe >> dest_bit) & 1;
                    if (out_used[bit] >= speedup_) {
                        ++blocked_;
                        continue;
                    }
                    int out_port = 2 * r + bit;
                    if (s == stages_ - 1) {
                        if (sink(head, out_port)) {
                            buf.pop();
                            --stageCount_[static_cast<std::size_t>(s)];
                            ++out_used[bit];
                            ++delivered_;
                            progressed = true;
                        } else {
                            ++blocked_;
                        }
                    } else {
                        int next_in = shuffle(out_port);
                        Fifo<Task> &next =
                            buffers_[static_cast<std::size_t>(s + 1)]
                                    [static_cast<std::size_t>(next_in)];
                        if (next.push(head)) {
                            buf.pop();
                            --stageCount_[static_cast<std::size_t>(s)];
                            ++stageCount_[static_cast<std::size_t>(s + 1)];
                            roundPeak_ =
                                std::max(roundPeak_, next.size());
                            ++out_used[bit];
                            progressed = true;
                        } else {
                            ++blocked_;
                        }
                    }
                }
                if (!progressed) break;
            }
        }
    }
    rrTick_ ^= 1;  // alternate input priority
}

} // namespace awb
