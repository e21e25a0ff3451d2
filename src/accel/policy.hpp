/**
 * @file
 * Pluggable balance-policy API. The paper's workload-rebalancing machinery
 * (static row mapping, local sharing hops, the PESM/UGT/SLT remote
 * switcher) is split into two small interfaces plus a string-keyed
 * registry, so a new balancing idea is one registration instead of a
 * cross-cutting patch:
 *
 *  - `PartitionPolicy`: builds the initial row→PE map (subsumes the old
 *    `RowMapPolicy` blocked/cyclic switch);
 *  - `RebalancePolicy` (accel/rebalance.hpp): the per-round
 *    observe/adjust/converged protocol both simulators drive between
 *    rounds, which the paper's `RemoteSwitcher` implements;
 *  - `BalancePolicy`: a named composition of the two plus a config hook,
 *    registered in the process-wide `PolicyRegistry`.
 *
 * The six paper design points are themselves registered policies, and
 * the registry is the only place they are named: `baseline`, `local-a`,
 * `local-b`, `remote-c`, `remote-d` and `eie-like` (aliases base, a, b,
 * c, d, eie), each with its paper legend label and modelled clock.
 * tests/test_policy.cpp locks them bit-identical to a reference
 * implementation of the original hard-wired designs. Non-paper policies
 * ship alongside: `degree-sorted` (static LPT partition), `work-steal`
 * (greedy round-level stealing), `rechunk` (periodic contiguous
 * re-chunking) and the streaming policies of DESIGN.md §12.
 *
 * Both fidelities — the cycle-accurate SpmmEngine and the round-level
 * PerfModel — resolve their policy objects through `makePartitionPolicy`
 * / `makeRebalancePolicy`, so a registered policy automatically runs in
 * Model and Cycle sweeps alike.
 */

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "accel/config.hpp"
#include "accel/rebalance.hpp"
#include "accel/row_map.hpp"
#include "common/types.hpp"

namespace awb {

/** Builds the initial row→PE assignment for one sparse operand. */
class PartitionPolicy
{
  public:
    virtual ~PartitionPolicy() = default;

    /**
     * @param rows      rows of the sparse operand (== result rows)
     * @param row_work  per-row task count (its row-nnz); static policies
     *                  that ignore load may disregard it
     * @param cfg       full accelerator configuration
     */
    virtual RowPartition build(Index rows,
                               const std::vector<Count> &row_work,
                               const AccelConfig &cfg) const = 0;
};

/** RebalancePolicy that never moves anything (static designs). */
class NullRebalance : public RebalancePolicy
{
  public:
    int observeAndAdjust(const RoundObservation &,
                         const std::vector<Count> &,
                         RowPartition &) override
    {
        return 0;
    }
    bool wantsObservations() const override { return false; }
    bool converged() const override { return false; }
    Count convergedRound() const override { return -1; }
    Count totalRowsMoved() const override { return 0; }
};

/**
 * A named, registered balancing strategy: how the config is derived for a
 * design point, how rows are initially partitioned, and how (if at all)
 * the map is rewritten between rounds.
 *
 * `configure` runs inside makePolicyConfig and sets the config fields the
 * policy needs (sharing hops, remote-switching flag, queue shape, ...).
 * `partition` / `rebalance` may be left empty to derive them from the
 * config fields (`mapPolicy`, `remoteSwitching`) — the paper designs do
 * exactly that, so hand-mutated configs (e.g. ablations flipping
 * `mapPolicy` after makePolicyConfig) get what their fields say.
 */
struct BalancePolicy
{
    std::string name;         ///< registry key (kebab-case)
    std::string label;        ///< display name (paper legend for Designs)
    std::string description;  ///< one-liner for `awbsim --list-designs`
    std::vector<std::string> aliases;  ///< CLI shorthands (a, b, eie, ...)
    double clockMhz = 275.0;  ///< modelled operating frequency

    std::function<void(AccelConfig &, int hop_base)> configure;
    std::function<std::unique_ptr<PartitionPolicy>(const AccelConfig &)>
        partition;
    std::function<std::unique_ptr<RebalancePolicy>(const AccelConfig &,
                                                   Index rows)>
        rebalance;
};

/**
 * Process-wide policy registry. Built-in policies (the six paper designs
 * plus the non-paper extensions) register on first access; user code may
 * add() more at any time before the first sweep. Lookup is by canonical
 * name or alias. Thread-safe for concurrent lookups (sweep workers);
 * add() must not race with lookups.
 */
class PolicyRegistry
{
  public:
    static PolicyRegistry &instance();

    /** Register a policy; fatal() on a duplicate name or alias. */
    void add(BalancePolicy policy);

    /** nullptr when neither name nor alias matches. */
    const BalancePolicy *find(const std::string &name_or_alias) const;

    /** fatal() with a near-miss suggestion when unknown. */
    const BalancePolicy &get(const std::string &name_or_alias) const;

    /** All policies in registration order (paper designs first). */
    std::vector<const BalancePolicy *> all() const;

    /** Closest registered name to `s` (for error messages). */
    std::string nearest(const std::string &s) const;

  private:
    PolicyRegistry();
    std::vector<std::unique_ptr<BalancePolicy>> policies_;
};

/**
 * Build the configuration for a registered policy: baseline AccelConfig
 * with `numPes`, `balancePolicy` set to the canonical policy name and the
 * policy's `configure` hook applied. fatal() on an unknown policy (with a
 * near-miss suggestion) or an invalid resulting config. `hop_base` is
 * the base hop distance: 1 for most datasets, 2 for Nell (hopBase()).
 */
AccelConfig makePolicyConfig(const std::string &policy, int num_pes,
                             int hop_base = 1);

/**
 * The non-validating core of makePolicyConfig: apply `spec.configure` to
 * a fresh config without checking the result. For callers that surface
 * `validate()` errors themselves instead of aborting (the sweep engine
 * turns them into per-point error rows).
 */
AccelConfig configureForPolicy(const BalancePolicy &spec, int num_pes,
                               int hop_base = 1);

/**
 * Resolve the partition policy of a configuration: the registered
 * policy's factory when `cfg.balancePolicy` names one (and it provides
 * one), else the blocked/cyclic mapping `cfg.mapPolicy` names.
 */
std::unique_ptr<PartitionPolicy> makePartitionPolicy(const AccelConfig &cfg);

/**
 * Resolve the rebalance policy of a configuration for one SPMM over
 * `rows` rows: the registered policy's factory when `cfg.balancePolicy`
 * names one (and it provides one), else the field derivation — the
 * RemoteSwitcher when `cfg.remoteSwitching`, a NullRebalance otherwise.
 */
std::unique_ptr<RebalancePolicy> makeRebalancePolicy(const AccelConfig &cfg,
                                                     Index rows);

/**
 * Build a partition for `row_work` under `cfg` and drive a *fresh*
 * rebalance-policy instance to convergence against that fixed workload
 * (synthetic observations: per-PE home-attributed work, drain == work).
 * Stops at converged(), after three consecutive zero-move rounds (the
 * remote switcher's first round legitimately moves nothing), or after
 * `max_rounds`. This is the "freshly tuned" reference the dynamic
 * runner compares a carried partition against when computing the
 * convergence half-life (DESIGN.md §12).
 */
RowPartition tuneToConvergence(const AccelConfig &cfg,
                               const std::vector<Count> &row_work,
                               int max_rounds = 64);

/**
 * Drive an *existing* rebalance-policy instance over `partition` with
 * the same synthetic-observation loop as tuneToConvergence(). The
 * dynamic runner uses this to warm up its persistent policy on the
 * initial graph, so that epoch-level drift measures churn-induced
 * staleness rather than the policy's own warm-up transient.
 */
void tuneWithPolicy(RebalancePolicy &policy,
                    const std::vector<Count> &row_work,
                    RowPartition &partition, int max_rounds = 64);

/** Modelled clock of a configuration: its policy's `clockMhz` (275 MHz;
 *  the EIE-like reference runs at 285 MHz). A config without a policy
 *  name is clocked by its queue shape. */
double policyClockMhz(const AccelConfig &cfg);

} // namespace awb
