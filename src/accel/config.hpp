/**
 * @file
 * Configuration of the AWB-GCN accelerator and the design points evaluated
 * in the paper (§5.2): Baseline, Design(A) 1-hop local sharing, Design(B)
 * 2-hop, Design(C) 1-hop + remote switching, Design(D) 2-hop + remote
 * switching, plus the EIE-like reference of Table 3. Nell overrides the
 * hop counts to 2/3 (paper §5.2).
 *
 * The MAC latency is not a field: every design point accumulates in one
 * cycle, as the D5005's DSP MACCs do (accel/pe.hpp, DESIGN.md §6). Nor
 * are the Omega router depth and the round watchdog, which are constants
 * of the SPMM engine (spmm_engine.cpp).
 */

#pragma once

#include <string>

#include "common/types.hpp"

namespace awb {

/** How rows of the sparse operand are initially assigned to PEs. */
enum class RowMapPolicy
{
    Blocked,  ///< n/P consecutive rows per PE (paper Fig. 6)
    Cyclic,   ///< row i -> PE i mod P
};

/**
 * Which cycle-engine implementation executes an SPMM (DESIGN.md §6).
 *
 * Both produce bit-identical timing statistics (cycles, rowsSwitched,
 * convergedRound, per-round durations). Either engine replays a round
 * the process-wide shared round cache holds (DESIGN.md §13; on by
 * default in awbsim) instead of stepping it. The batched engine also
 * event-steps only rounds whose entry state (row partition, PE arbiter
 * cursors, Omega arbitration parity) has not been seen before in the
 * run and replays cached per-round aggregates for the rest, which is
 * what makes Reddit-scale cycle-mode sweeps tractable.
 */
enum class EngineKind
{
    Event,    ///< per-non-zero event stepping of every round not in the
              ///< shared round cache (every round with the cache off)
    Batched,  ///< round-batched: state-keyed memoization of round outcomes
};

/** "event" / "batched". */
std::string engineKindName(EngineKind e);

/** Parse an engine name; fatal() with the valid set on an unknown one. */
EngineKind parseEngineKind(const std::string &s);

/** Full accelerator configuration. */
struct AccelConfig
{
    int numPes = 64;          ///< PE-array size (power of two for TDQ-2)
    /** Unbounded TQs per PE (TDQ-1 arbitration, Fig. 7); runs measure
     *  the depth they need (SpmmStats::peakQueueDepth). */
    int numQueuesPerPe = 4;
    int sharingHops = 0;      ///< local sharing distance; 0 = disabled
    bool remoteSwitching = false;  ///< enable PESM/UGT/SLT path
    int trackingWindow = 2;   ///< PE-tuples tracked concurrently (PESM)
    bool approximateEq5 = false;   ///< hardware-efficient shift-based Eq. 5
    RowMapPolicy mapPolicy = RowMapPolicy::Blocked;
    /** Omega fabric clock multiple relative to the PE clock: flits one
     *  router output passes per PE cycle. The paper provisions the
     *  network so task distribution, not routing, limits throughput. */
    int networkSpeedup = 8;
    /** Cycle-engine implementation (accel/spmm_engine.hpp). The default
     *  event engine steps every non-zero of every round the shared round
     *  cache does not hold, and replays those it does; the batched
     *  engine reproduces its statistics bit for bit while event-stepping
     *  only distinct round-entry states (DESIGN.md §6). */
    EngineKind engine = EngineKind::Event;
    /** Registered balance-policy name (accel/policy.hpp) driving the
     *  initial partition and per-round rebalancing. Empty = derive both
     *  from mapPolicy and remoteSwitching alone: DynamicRunner clears the
     *  name on purpose so epochs run unbalanced at the policy's queue
     *  shape and clock, and hand-built test configs rely on it. */
    std::string balancePolicy;
    /** Registered platform name (model/memory_model.hpp) bounding the
     *  off-chip bandwidth of both fidelities. Empty = `unconstrained`:
     *  no bandwidth floor is composed and timing is bit-identical to a
     *  build without the memory model (DESIGN.md §8). */
    std::string platform;
    /** Simulated accelerator chips the sparse operand's rows are sharded
     *  across (DESIGN.md §9). Each chip runs its own numPes-wide array;
     *  chips synchronize at round barriers and exchange boundary
     *  dense-feature rows over the platform's inter-chip link. 1 (the
     *  default) is a provable timing no-op: the sharded paths reduce to
     *  the single-accelerator engines bit for bit. */
    int chips = 1;

    /** True when this configuration performs any runtime rebalancing. */
    bool rebalancing() const { return sharingHops > 0 || remoteSwitching; }

    /**
     * Check every field for out-of-range values (non-positive PE or
     * queue counts, negative hop distances, ...) and for nonsensical
     * field combinations (remote switching on fewer than 2 PEs, a
     * sharing window wider than the PE array, the Eq. 5 shift
     * approximation without remote switching, an unregistered
     * balancePolicy or platform name). With `cycle_accurate_tdq2`,
     * additionally require the power-of-two PE count the Omega network
     * needs. Returns an empty string when valid, else a descriptive
     * error; callers surface the message (CLI error rows, fatal())
     * instead of asserting.
     */
    std::string validate(bool cycle_accurate_tdq2 = false) const;
};

} // namespace awb
