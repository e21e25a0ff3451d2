/**
 * @file
 * Cycle-accurate AWB-SPMM engine (paper Figs. 7 and 12): computes
 * C = A × B for a sparse A (CSC) and dense B, streaming B column by
 * column ("rounds", Eq. 4) through either
 *
 *  - TDQ-1: dense-format scan of a general-sparse operand (the X×W SPMM);
 *    P / density elements are scanned per cycle, so about P non-zeros
 *    a cycle reach the per-PE task queues;
 *  - TDQ-2: CSC non-zero stream routed by the Omega network (the A×(XW)
 *    SPMM over the ultra-sparse adjacency).
 *
 * Dynamic local sharing diverts tasks to under-loaded neighbour PEs at
 * enqueue time; between rounds the configuration's RebalancePolicy
 * (accel/policy.hpp — the paper's RemoteSwitcher for Designs C/D,
 * arbitrary registered policies otherwise) observes the round and may
 * rewrite the row map until it converges, after which the tuned map is
 * reused for the remaining columns. A per-column barrier separates rounds
 * (§3.3: synchronization happens when a full column of C is complete).
 *
 * The per-cycle loop is structure-only: tasks carry a result row and a
 * home PE, never operand values, and C is computed outside the loop by
 * the deterministic functional kernels. Two implementations share that
 * one round core (AccelConfig::engine):
 *
 *  - EngineKind::Event steps every non-zero of every round, except the
 *    rounds the process-wide shared round cache (DESIGN.md §13; on by
 *    default in awbsim, off under --no-cache) already holds, which it
 *    replays from their records;
 *  - EngineKind::Batched exploits that a round's timing is a pure
 *    function of its entry state — the row partition, the PE arbiter
 *    cursors and the Omega arbitration parity — so it event-steps each
 *    distinct entry state once and replays cached per-round aggregates
 *    for repeats. Once the rebalance policy converges the state recurs
 *    and whole rounds advance without simulation, which is what makes
 *    Reddit-scale cycle-mode sweeps tractable. Timing statistics are
 *    bit-identical to the event engine by construction (DESIGN.md §6),
 *    and C is bit-identical under either engine, any cache state and
 *    any thread count.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "accel/config.hpp"
#include "accel/row_map.hpp"
#include "model/memory_model.hpp"
#include "sparse/csc.hpp"
#include "sparse/dense.hpp"

namespace awb {

/** Which task-distribution path feeds the PEs. */
enum class TdqKind
{
    Tdq1DenseScan,  ///< operand stored dense, scanned with zero-skip
    Tdq2OmegaCsc,   ///< operand in CSC, routed through the Omega network
};

/** Cycle-level results of one SPMM execution. */
struct SpmmStats
{
    std::string label;
    Cycle cycles = 0;          ///< total execution cycles (all rounds)
    Count tasks = 0;           ///< MAC operations executed
    Cycle idealCycles = 0;     ///< sum over rounds of ceil(tasks_r / P)
    Cycle syncCycles = 0;      ///< cycles - idealCycles (barrier waiting)
    double utilization = 0.0;  ///< tasks / (P * cycles)
    std::size_t peakQueueDepth = 0;    ///< worst per-PE TQ occupancy
    std::size_t peakNetworkDepth = 0;  ///< worst Omega buffer occupancy
    Count rounds = 0;
    /** Rounds the batched engine's within-run memo missed: == rounds
     *  for EngineKind::Event and for executeSpgemm; smaller under
     *  EngineKind::Batched when the memo replayed a round. A replay
     *  from the shared round cache still counts, so the value is the
     *  same with that cache on or off; it is not the number of rounds
     *  actually event-stepped. */
    Count roundsSimulated = 0;
    Count rowsSwitched = 0;    ///< rows moved by remote switching
    Count convergedRound = -1; ///< auto-tuning convergence round
    /** Off-chip traffic accounted by the memory model (DESIGN.md §8);
     *  filled on every platform, unconstrained included. */
    MemoryTraffic traffic;
    /** Sum over rounds of the bandwidth-bound cycle floor; 0 on an
     *  unconstrained platform. */
    Cycle memoryCycles = 0;
    /** Rounds whose bandwidth floor exceeded their compute cycles (the
     *  round was stretched to the floor). */
    Count bwBoundRounds = 0;
    std::vector<Cycle> roundCycles;   ///< per-round duration incl. any
                                      ///< bandwidth stretch (pipelining)
    std::vector<Count> perPeTasks;    ///< executed tasks per PE (heat map)
};

/** Value-semantics result of one SPMM execution. */
struct SpmmResult
{
    DenseMatrix c;    ///< the dense result matrix (spmmCsr of the operands)
    SpmmStats stats;  ///< cycle-level results
};

/** Value-semantics result of one sparse-output SpGEMM execution. */
struct SpgemmResult
{
    CscMatrix c;      ///< the sparse result matrix (functionally exact)
    SpmmStats stats;  ///< cycle-level results
};

/**
 * The SPMM engine. One instance may execute several SPMMs; each
 * execution's partition argument carries tuned row maps across
 * invocations (the adjacency matrix is reused every layer, so its map
 * keeps improving). Most callers should not drive the engine directly:
 * sim::Session (sim/session.hpp) schedules whole workload graphs and
 * carries the tuned row maps automatically.
 */
class SpmmEngine
{
  public:
    /** fatal() with a descriptive message when the config is invalid. */
    explicit SpmmEngine(const AccelConfig &cfg);

    /**
     * Execute C = a × b cycle-accurately.
     *
     * @param a          sparse operand in CSC
     * @param b          dense operand (rows == a.cols())
     * @param kind       distribution path (TDQ-1 or TDQ-2)
     * @param partition  row map; mutated by the rebalance policy
     */
    SpmmResult execute(const CscMatrix &a, const DenseMatrix &b,
                       TdqKind kind, RowPartition &partition);

    /**
     * The timing half of execute(): the statistics of C = a × b for any
     * dense b with `cols` columns. Operand values never affect timing,
     * so callers that discard C (or compute it once for several shards)
     * skip the functional product.
     */
    SpmmStats simulate(const CscMatrix &a, Index cols, TdqKind kind,
                       RowPartition &partition);

    /**
     * Execute the sparse-output SpGEMM C = a × b cycle-accurately
     * (DESIGN.md §11). Rounds are B's sparse columns streamed through
     * the TDQ-2/Omega path; each round's task stream expands B column
     * k's non-zeros (ascending inner index) against the matching A
     * columns, so per-round task counts track the *output* work, not a
     * fixed non-zero stream. Values are materialized by the functional
     * kernel (kernels::spgemm) — bit-identical across engines — while
     * the event schedule prices the work. Differences from simulate():
     *
     *  - the round-state cache is keyed per round by the digest of its
     *    stream (A's structure plus B column k's row ids) and admits a
     *    stream on its second sighting only (DESIGN.md §13); there is
     *    no within-run memo, so roundsSimulated == rounds under both
     *    engines and any cache state;
     *  - the rebalance policy observes after *every* round including
     *    the last (frontier kernels chain 1-round SpGEMMs over a
     *    carried partition, so the last round's observation is the only
     *    one they would ever get); migration ordered after the final
     *    round bills its bytes to `stats.traffic.migrationBytes` without
     *    a bandwidth floor.
     *
     * @param a          sparse left operand in CSC
     * @param b          sparse right operand in CSC (rows == a.cols())
     * @param partition  row map; mutated by the rebalance policy
     */
    SpgemmResult executeSpgemm(const CscMatrix &a, const CscMatrix &b,
                               RowPartition &partition);

    /** executeSpgemm with `a_context` == spgemmContext(a) precomputed,
     *  for callers that multiply one operand many times. */
    SpgemmResult executeSpgemm(const CscMatrix &a, const CscMatrix &b,
                               RowPartition &partition,
                               std::uint64_t a_context);

    /** The round-cache context of SpGEMMs over `a` on this engine's
     *  configuration: O(nnz(a)), independent of the right operand. */
    std::uint64_t spgemmContext(const CscMatrix &a) const;

  private:
    AccelConfig cfg_;
};

} // namespace awb
