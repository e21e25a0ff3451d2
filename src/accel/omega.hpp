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
 * A flit is the id of its destination PE: routing reads nothing else
 * (DESIGN.md §6). The fabric's buffers are one flat `int` slot array:
 * every router input port (stage s, port p) owns a power-of-two ring of
 * 2^ceil(log2 depth) slots at a fixed offset, with its head and size in
 * two flat arrays; capacity is still `depth`. tick() is a template over
 * the sink so the per-flit delivery call inlines into the engine's round
 * loop, and it keeps its counters (blocked and delivered moves, the
 * round peak, the flits leaving each stage) in locals that it writes
 * back once (DESIGN.md §6).
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

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
     * Offer a flit bound for output port `dest` at input port `src`.
     * Returns false when the stage-0 buffer on that path is full (caller
     * retries next cycle).
     */
    bool inject(int dest, int src);

    /**
     * One clock: stages advance in back-to-front order, each router moving
     * at most `speedup` flits per output. Flits leaving the final stage
     * are handed to `sink(int dest, int out_port) -> bool`, where
     * `out_port` always equals `dest`; if the sink rejects (the PE's
     * receive ports are taken this cycle), the flit stays buffered.
     */
    template <typename Sink>
    void tick(Sink &&sink);

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
     * fabric is empty at every round boundary and occupancy peaks only
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
    /** Perfect-shuffle permutation (rotate-left on `stages` bits) of a
     *  `ports`-wide fabric. Static so tick() can pass its locals. */
    static int
    shuffle(int port, int stages, int ports)
    {
        return ((port << 1) | (port >> (stages - 1))) & (ports - 1);
    }

    int ports_;
    int stages_;
    std::uint32_t bufferDepth_;
    int speedup_;
    /** Ring slots per buffer are 1 << slotShift_ (>= bufferDepth_). */
    int slotShift_;
    std::uint32_t slotMask_;
    /** Buffer b = s * ports_ + p (stage s, input port p) owns slots
     *  [b << slotShift_, (b + 1) << slotShift_). */
    std::vector<int> slots_;
    std::vector<std::uint32_t> head_;
    std::vector<std::uint32_t> size_;
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
OmegaNetwork::tick(Sink &&sink)
{
    // Every member the loop reads is copied to a local first: a store
    // through `slots` may alias any int member, which would otherwise be
    // reloaded after every move.
    int *const slots = slots_.data();
    std::uint32_t *const head = head_.data();
    std::uint32_t *const size = size_.data();
    Count *const stage_count = stageCount_.data();
    const int ports = ports_;
    const int stages = stages_;
    const int speedup = speedup_;
    const std::uint32_t depth = bufferDepth_;
    const int shift = slotShift_;
    const std::uint32_t mask = slotMask_;
    const int rr = rrTick_;
    Count blocked = blocked_;
    Count delivered = delivered_;
    std::size_t peak = roundPeak_;
    // Back-to-front: freeing a downstream slot this cycle lets the
    // upstream stage use it this cycle (credit-based flow control).
    for (int s = stages - 1; s >= 0; --s) {
        // A vacant stage (nothing resident) cannot move anything; its
        // routers' state is fully captured by the shared priority bit,
        // so skipping them is behaviour-preserving.
        if (stage_count[s] == 0) continue;
        const bool last = s == stages - 1;
        const std::size_t base =
            static_cast<std::size_t>(s) * static_cast<std::size_t>(ports);
        const int dest_bit = stages - 1 - s;
        Count moved = 0;  // flits leaving stage s this tick
        for (int r = 0; r < ports / 2; ++r) {
            const std::size_t b0 = base + static_cast<std::size_t>(2 * r);
            if (size[b0] == 0 && size[b0 + 1] == 0) continue;
            int out_used[2] = {0, 0};
            // The fabric clock allows `speedup_` passes over the two
            // inputs per PE cycle. Within one tick a router's inputs
            // only shrink and its outputs only fill (stages advance
            // back-to-front and each output port belongs to exactly one
            // router), so a pass that moves nothing proves every later
            // pass would move nothing: stop early.
            for (int pass = 0; pass < speedup; ++pass) {
                bool progressed = false;
                for (int i = 0; i < 2; ++i) {
                    const std::size_t in =
                        b0 + static_cast<std::size_t>((rr + i) & 1);
                    if (size[in] == 0) continue;
                    const int front = slots[(in << shift) + head[in]];
                    const int bit = (front >> dest_bit) & 1;
                    if (out_used[bit] >= speedup) {
                        ++blocked;
                        continue;
                    }
                    const int out_port = 2 * r + bit;
                    if (last) {
                        if (!sink(front, out_port)) {
                            ++blocked;
                            continue;
                        }
                    } else {
                        const int next_in = shuffle(out_port, stages, ports);
                        const std::size_t next =
                            base + static_cast<std::size_t>(ports + next_in);
                        if (size[next] >= depth) {
                            ++blocked;
                            continue;
                        }
                        slots[(next << shift) +
                              ((head[next] + size[next]) & mask)] = front;
                        peak = std::max<std::size_t>(peak, ++size[next]);
                    }
                    head[in] = (head[in] + 1) & mask;
                    --size[in];
                    ++moved;
                    ++out_used[bit];
                    progressed = true;
                }
                if (!progressed) break;
            }
        }
        // Stage s + 1 was already advanced this tick and stage s - 1
        // comes next and reads only its own count, so both counts can
        // settle here.
        stage_count[s] -= moved;
        (last ? delivered : stage_count[s + 1]) += moved;
    }
    blocked_ = blocked;
    delivered_ = delivered;
    roundPeak_ = peak;
    rrTick_ ^= 1;  // alternate input priority
}

} // namespace awb
