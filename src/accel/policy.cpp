#include "accel/policy.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <queue>
#include <utility>

#include "common/log.hpp"
#include "common/text.hpp"

namespace awb {

namespace {

constexpr double kFpgaMhz = 275.0;  ///< paper operating frequency
constexpr double kEieMhz = 285.0;   ///< EIE-like reference frequency

// ------------------------------------------------- partition policies

/** The paper's static mappings (Fig. 6): blocked or cyclic. */
class StaticMapPartition : public PartitionPolicy
{
  public:
    explicit StaticMapPartition(RowMapPolicy policy) : policy_(policy) {}

    RowPartition build(Index rows, const std::vector<Count> &,
                       const AccelConfig &cfg) const override
    {
        return RowPartition(rows, cfg.numPes, policy_);
    }

  private:
    RowMapPolicy policy_;
};

/**
 * Degree-sorted static partition: rows ordered by descending work and
 * greedily assigned to the least-loaded PE (LPT scheduling). A static
 * alternative to runtime rebalancing — near-perfect load balance when the
 * degree profile is known up front, but blind to queueing dynamics.
 */
class DegreeSortedPartition : public PartitionPolicy
{
  public:
    RowPartition build(Index rows, const std::vector<Count> &row_work,
                       const AccelConfig &cfg) const override
    {
        const int P = cfg.numPes;
        std::vector<Index> order(static_cast<std::size_t>(rows));
        std::iota(order.begin(), order.end(), Index(0));
        std::sort(order.begin(), order.end(), [&](Index a, Index b) {
            Count wa = row_work[static_cast<std::size_t>(a)];
            Count wb = row_work[static_cast<std::size_t>(b)];
            if (wa != wb) return wa > wb;
            return a < b;
        });

        // Min-heap of (load, pe); ties resolve to the lowest PE index so
        // the assignment is fully deterministic.
        using Slot = std::pair<Count, int>;
        std::priority_queue<Slot, std::vector<Slot>, std::greater<Slot>>
            heap;
        for (int p = 0; p < P; ++p) heap.push({0, p});

        std::vector<int> owner(static_cast<std::size_t>(rows), 0);
        for (Index r : order) {
            Slot s = heap.top();
            heap.pop();
            owner[static_cast<std::size_t>(r)] = s.second;
            s.first += row_work[static_cast<std::size_t>(r)];
            heap.push(s);
        }
        return RowPartition(std::move(owner), P);
    }
};

// ------------------------------------------------- rebalance policies

/**
 * Rebuild `partition` as contiguous row chunks of near-equal cumulative
 * work: each row goes to the chunk holding its midpoint in prefix-sum
 * space (split at total·p/P). Returns the rows whose owner changed; the
 * partition is left untouched when that is 0 (a fixed point) or when
 * there is no work to chunk.
 */
int
rechunkEqualWork(const std::vector<Count> &row_work, RowPartition &partition)
{
    const int P = partition.numPes();
    const Index n = partition.rows();
    Count total = std::accumulate(row_work.begin(), row_work.end(),
                                  Count(0));
    if (total <= 0) return 0;

    std::vector<int> owner(static_cast<std::size_t>(n), 0);
    int moved = 0;
    Count prefix = 0;
    for (Index r = 0; r < n; ++r) {
        Count w = row_work[static_cast<std::size_t>(r)];
        // Monotonic in r, so chunks stay contiguous.
        Count mid = prefix + w / 2;
        int pe = static_cast<int>(std::min<Count>(P - 1, (mid * P) / total));
        owner[static_cast<std::size_t>(r)] = pe;
        if (partition.owner(r) != pe) ++moved;
        prefix += w;
    }
    if (moved > 0) partition = RowPartition(std::move(owner), P);
    return moved;
}

/**
 * Greedy round-level work stealing: each round the most-loaded PE (by
 * home-attributed work) hands its heaviest rows to the least-loaded PE,
 * transferring at most half the gap. One donor/thief pair per round —
 * deliberately simpler than the paper's Eq. 5 controller (no gap history,
 * no tracked tuples), as an ablation of how much that machinery buys.
 */
class GreedyStealRebalance : public RebalancePolicy
{
  public:
    int observeAndAdjust(const RoundObservation &obs,
                         const std::vector<Count> &row_work,
                         RowPartition &partition) override
    {
        ++round_;
        if (converged_) return 0;
        const int P = static_cast<int>(obs.peWork.size());
        int hot = 0, cold = 0;
        for (int p = 1; p < P; ++p) {
            if (obs.peWork[static_cast<std::size_t>(p)] >
                obs.peWork[static_cast<std::size_t>(hot)])
                hot = p;
            if (obs.peWork[static_cast<std::size_t>(p)] <
                obs.peWork[static_cast<std::size_t>(cold)])
                cold = p;
        }
        Count total = std::accumulate(obs.peWork.begin(), obs.peWork.end(),
                                      Count(0));
        Count mean = total / std::max(P, 1);
        Count gap = obs.peWork[static_cast<std::size_t>(hot)] -
                    obs.peWork[static_cast<std::size_t>(cold)];
        if (gap <= std::max<Count>(1, mean / 10)) {
            converged_ = true;
            convergedRound_ = round_;
            return 0;
        }

        std::vector<Index> rows = partition.rowsOf(hot);
        std::sort(rows.begin(), rows.end(), [&](Index a, Index b) {
            Count wa = row_work[static_cast<std::size_t>(a)];
            Count wb = row_work[static_cast<std::size_t>(b)];
            if (wa != wb) return wa > wb;
            return a < b;
        });
        const Count target = gap / 2;
        Count transferred = 0;
        int moved = 0;
        for (Index r : rows) {
            Count w = row_work[static_cast<std::size_t>(r)];
            if (w <= 0) break;  // only zero-work rows remain
            // Too-heavy rows are skipped; lighter ones further down may
            // still fit under the no-overshoot budget.
            if (transferred + w > target) continue;
            partition.moveRow(r, cold);
            transferred += w;
            ++moved;
            if (moved >= kMaxRowsPerRound) break;
        }
        if (moved == 0) {
            // Granularity floor: even the lightest positive row of the
            // hotspot overshoots half the gap. Nothing left to steal.
            converged_ = true;
            convergedRound_ = round_;
            return 0;
        }
        totalMoved_ += moved;
        return moved;
    }

    bool converged() const override { return converged_; }
    Count convergedRound() const override { return convergedRound_; }
    Count totalRowsMoved() const override { return totalMoved_; }

  private:
    static constexpr int kMaxRowsPerRound = 64;
    bool converged_ = false;
    Count convergedRound_ = -1;
    Count round_ = 0;
    Count totalMoved_ = 0;
};

/**
 * Periodic contiguous re-chunking: every `period` rounds the whole map is
 * rebuilt as contiguous row chunks of near-equal cumulative work (split
 * at total·p/P boundaries in prefix-sum space). Keeps the baseline's
 * block locality while adapting chunk widths to the degree profile; once
 * a rebuild changes nothing the policy is converged (row work is constant
 * across rounds, so the map is a fixed point).
 */
class PeriodicRechunkRebalance : public RebalancePolicy
{
  public:
    explicit PeriodicRechunkRebalance(int period) : period_(period) {}

    int observeAndAdjust(const RoundObservation &,
                         const std::vector<Count> &row_work,
                         RowPartition &partition) override
    {
        ++round_;
        if (converged_ || round_ % period_ != 0) return 0;
        const int moved = rechunkEqualWork(row_work, partition);
        if (moved == 0) {
            converged_ = true;
            convergedRound_ = round_;
            return 0;
        }
        totalMoved_ += moved;
        return moved;
    }

    bool converged() const override { return converged_; }
    Count convergedRound() const override { return convergedRound_; }
    Count totalRowsMoved() const override { return totalMoved_; }

  private:
    int period_;
    bool converged_ = false;
    Count convergedRound_ = -1;
    Count round_ = 0;
    Count totalMoved_ = 0;
};

/**
 * Delta-reacting rebalancing for streaming graphs (DESIGN.md §12): the
 * policy keeps a snapshot of the per-row work it last acted on; each
 * observation it diffs the live row-work vector against that snapshot
 * and only the *changed* rows (the churn delta) are candidates for
 * migration — heaviest first, moved off above-mean PEs onto the
 * current coldest PE when that narrows the gap. A static workload
 * diffs to an empty delta, so inside a fixed-operand execution the
 * policy is a no-op after its first (snapshot-only) observation.
 *
 * `threshold` gates action on global imbalance: the delta is only
 * acted on while max PE load exceeds threshold × mean. While the gate
 * holds the snapshot is *not* advanced, so tolerated drift accumulates
 * and the eventual correction sees every row changed since the last
 * action. threshold == 1.0 reacts to every delta (delta-greedy);
 * 1.15 tolerates ±15% skew first (delta-threshold).
 *
 * Never latches converged(): a streaming workload may change again at
 * any epoch, so the policy stays live for the whole run.
 */
class DeltaRebalance : public RebalancePolicy
{
  public:
    explicit DeltaRebalance(double threshold) : threshold_(threshold) {}

    int observeAndAdjust(const RoundObservation &,
                         const std::vector<Count> &row_work,
                         RowPartition &partition) override
    {
        if (!seeded_) {
            prevWork_ = row_work;
            seeded_ = true;
            return 0;
        }
        const Index n = static_cast<Index>(row_work.size());
        std::vector<Index> changed;
        for (Index r = 0; r < n; ++r) {
            if (row_work[static_cast<std::size_t>(r)] !=
                prevWork_[static_cast<std::size_t>(r)])
                changed.push_back(r);
        }
        if (changed.empty()) return 0;

        const int P = partition.numPes();
        std::vector<Count> load = partition.workload(row_work);
        const Count total =
            std::accumulate(load.begin(), load.end(), Count(0));
        const double mean =
            static_cast<double>(total) / std::max(P, 1);
        const Count max_load =
            *std::max_element(load.begin(), load.end());
        if (static_cast<double>(max_load) <= threshold_ * mean)
            return 0;  // tolerated skew; keep accumulating the delta
        prevWork_ = row_work;

        std::sort(changed.begin(), changed.end(),
                  [&](Index a, Index b) {
                      Count wa = row_work[static_cast<std::size_t>(a)];
                      Count wb = row_work[static_cast<std::size_t>(b)];
                      if (wa != wb) return wa > wb;
                      return a < b;
                  });
        int moved = 0;
        for (Index r : changed) {
            const Count w = row_work[static_cast<std::size_t>(r)];
            if (w <= 0) break;  // only vanished rows remain
            const int from = partition.owner(r);
            const Count mean_floor = static_cast<Count>(mean);
            if (load[static_cast<std::size_t>(from)] <= mean_floor)
                continue;
            int cold = 0;
            for (int p = 1; p < P; ++p) {
                if (load[static_cast<std::size_t>(p)] <
                    load[static_cast<std::size_t>(cold)])
                    cold = p;
            }
            // Move only when it narrows the donor/receiver gap.
            if (cold == from ||
                load[static_cast<std::size_t>(from)] -
                        load[static_cast<std::size_t>(cold)] <=
                    w)
                continue;
            partition.moveRow(r, cold);
            load[static_cast<std::size_t>(from)] -= w;
            load[static_cast<std::size_t>(cold)] += w;
            ++moved;
        }
        totalMoved_ += moved;
        return moved;
    }

    bool converged() const override { return false; }
    Count convergedRound() const override { return -1; }
    Count totalRowsMoved() const override { return totalMoved_; }

  private:
    double threshold_;
    bool seeded_ = false;
    std::vector<Count> prevWork_;
    Count totalMoved_ = 0;
};

/**
 * From-scratch baseline for the streaming experiments: every
 * observation rebuilds the contiguous equal-work chunking
 * (rechunkEqualWork, as PeriodicRechunkRebalance with period 1 but no
 * convergence latch). Under a static workload the rebuild is a fixed
 * point after its first application; under churn it re-tunes completely
 * each epoch — the "retune from scratch" upper bound the delta policies
 * are measured against.
 */
class RescratchRebalance : public RebalancePolicy
{
  public:
    int observeAndAdjust(const RoundObservation &,
                         const std::vector<Count> &row_work,
                         RowPartition &partition) override
    {
        const int moved = rechunkEqualWork(row_work, partition);
        totalMoved_ += moved;
        return moved;
    }

    bool converged() const override { return false; }
    Count convergedRound() const override { return -1; }
    Count totalRowsMoved() const override { return totalMoved_; }

  private:
    Count totalMoved_ = 0;
};

// ------------------------------------------------------------ helpers

/** The field derivation of the paper designs: partition from
 *  cfg.mapPolicy, rebalancing from cfg.remoteSwitching. */
std::unique_ptr<PartitionPolicy>
partitionFromFields(const AccelConfig &cfg)
{
    return std::make_unique<StaticMapPartition>(cfg.mapPolicy);
}

std::unique_ptr<RebalancePolicy>
rebalanceFromFields(const AccelConfig &cfg, Index rows)
{
    if (cfg.remoteSwitching)
        return std::make_unique<RemoteSwitcher>(cfg, rows);
    return std::make_unique<NullRebalance>();
}

} // namespace

PolicyRegistry &
PolicyRegistry::instance()
{
    static PolicyRegistry registry;
    return registry;
}

PolicyRegistry::PolicyRegistry()
{
    // The six paper design points (§5.2 / Table 3). Their partition and
    // rebalance factories are left empty on purpose: they derive both
    // from the config fields, so code that mutates mapPolicy /
    // remoteSwitching after makePolicyConfig (ablations) gets what the
    // fields say.
    auto paper = [this](std::string name, std::string label,
                        std::string desc, std::vector<std::string> aliases,
                        std::function<void(AccelConfig &, int)> conf,
                        double mhz = kFpgaMhz) {
        BalancePolicy p;
        p.name = std::move(name);
        p.label = std::move(label);
        p.description = std::move(desc);
        p.aliases = std::move(aliases);
        p.clockMhz = mhz;
        p.configure = std::move(conf);
        add(std::move(p));
    };
    paper("baseline", "Baseline",
          "static equal partition, no rebalancing (paper Fig. 6)",
          {"base"}, {});
    paper("local-a", "Design(A)",
          "dynamic local sharing, base hops (paper §4.1)", {"a"},
          [](AccelConfig &cfg, int hop_base) {
              cfg.sharingHops = hop_base;
          });
    paper("local-b", "Design(B)",
          "dynamic local sharing, base+1 hops (paper §4.1)", {"b"},
          [](AccelConfig &cfg, int hop_base) {
              cfg.sharingHops = hop_base + 1;
          });
    paper("remote-c", "Design(C)",
          "local sharing + dynamic remote switching (paper §4.2)", {"c"},
          [](AccelConfig &cfg, int hop_base) {
              cfg.sharingHops = hop_base;
              cfg.remoteSwitching = true;
          });
    paper("remote-d", "Design(D)",
          "2-hop local sharing + dynamic remote switching (paper §4.2)",
          {"d"},
          [](AccelConfig &cfg, int hop_base) {
              cfg.sharingHops = hop_base + 1;
              cfg.remoteSwitching = true;
          });
    paper("eie-like", "EIE-like",
          "EIE-style column-major forwarding, single TQ per PE (Table 3)",
          {"eie"},
          [](AccelConfig &cfg, int) { cfg.numQueuesPerPe = 1; }, kEieMhz);

    // Non-paper extensions: one registration each, runnable through both
    // fidelities and every sweep mode.
    {
        BalancePolicy p;
        p.name = "degree-sorted";
        p.label = "DegSorted";
        p.description = "static degree-sorted LPT partition: heaviest "
                        "rows spread greedily, no runtime rebalancing";
        p.aliases = {"degsort"};
        p.partition = [](const AccelConfig &) {
            return std::make_unique<DegreeSortedPartition>();
        };
        add(std::move(p));
    }
    {
        BalancePolicy p;
        p.name = "work-steal";
        p.label = "WorkSteal";
        p.description = "greedy round-level work stealing: the hottest PE "
                        "hands heaviest rows to the coldest each round";
        p.aliases = {"steal"};
        p.rebalance = [](const AccelConfig &, Index) {
            return std::make_unique<GreedyStealRebalance>();
        };
        add(std::move(p));
    }
    {
        BalancePolicy p;
        p.name = "rechunk";
        p.label = "Rechunk";
        p.description = "periodic contiguous re-chunking: rebuild "
                        "equal-work row chunks every 4 rounds";
        p.rebalance = [](const AccelConfig &, Index) {
            return std::make_unique<PeriodicRechunkRebalance>(4);
        };
        add(std::move(p));
    }

    // Streaming-graph policies (DESIGN.md §12): consumed by the dynamic
    // runner at churn-epoch boundaries, but registered like any other
    // policy so they also run through both fidelities and every sweep
    // mode (where a static workload makes them cheap no-ops).
    {
        BalancePolicy p;
        p.name = "delta-greedy";
        p.label = "DeltaGreedy";
        p.description = "delta-reacting rebalance: only rows whose work "
                        "changed migrate, heaviest-first to the coldest PE";
        p.aliases = {"dgreedy"};
        p.rebalance = [](const AccelConfig &, Index) {
            return std::make_unique<DeltaRebalance>(1.0);
        };
        add(std::move(p));
    }
    {
        BalancePolicy p;
        p.name = "delta-threshold";
        p.label = "DeltaThresh";
        p.description = "delta-reacting rebalance gated on imbalance: "
                        "acts once max PE load exceeds 1.15x the mean";
        p.aliases = {"dthresh"};
        p.rebalance = [](const AccelConfig &, Index) {
            return std::make_unique<DeltaRebalance>(1.15);
        };
        add(std::move(p));
    }
    {
        BalancePolicy p;
        p.name = "rescratch";
        p.label = "Rescratch";
        p.description = "from-scratch streaming baseline: rebuild the "
                        "equal-work chunking at every observation";
        p.aliases = {"scratch"};
        p.rebalance = [](const AccelConfig &, Index) {
            return std::make_unique<RescratchRebalance>();
        };
        add(std::move(p));
    }
}

void
PolicyRegistry::add(BalancePolicy policy)
{
    if (policy.name.empty()) fatal("PolicyRegistry: policy needs a name");
    auto taken = [&](const std::string &key) {
        for (const auto &p : policies_) {
            if (p->name == key) return true;
            for (const auto &a : p->aliases)
                if (a == key) return true;
        }
        return false;
    };
    if (taken(policy.name))
        fatal("PolicyRegistry: duplicate policy name '" + policy.name +
              "'");
    for (std::size_t i = 0; i < policy.aliases.size(); ++i) {
        const std::string &a = policy.aliases[i];
        // Check against earlier registrations AND the policy's own keys
        // (a self-shadowed alias would be dead weight).
        bool self_dup = a == policy.name;
        for (std::size_t j = 0; !self_dup && j < i; ++j)
            self_dup = a == policy.aliases[j];
        if (self_dup || taken(a))
            fatal("PolicyRegistry: alias '" + a + "' of policy '" +
                  policy.name + "' is already registered");
    }
    policies_.push_back(
        std::make_unique<BalancePolicy>(std::move(policy)));
}

const BalancePolicy *
PolicyRegistry::find(const std::string &name_or_alias) const
{
    for (const auto &p : policies_) {
        if (p->name == name_or_alias) return p.get();
        for (const auto &a : p->aliases)
            if (a == name_or_alias) return p.get();
    }
    return nullptr;
}

const BalancePolicy &
PolicyRegistry::get(const std::string &name_or_alias) const
{
    const BalancePolicy *p = find(name_or_alias);
    if (p == nullptr)
        fatal("unknown balance policy '" + name_or_alias +
              "' — did you mean '" + nearest(name_or_alias) +
              "'? (awbsim --list-designs shows all registered policies)");
    return *p;
}

std::vector<const BalancePolicy *>
PolicyRegistry::all() const
{
    std::vector<const BalancePolicy *> out;
    out.reserve(policies_.size());
    for (const auto &p : policies_) out.push_back(p.get());
    return out;
}

std::string
PolicyRegistry::nearest(const std::string &s) const
{
    std::vector<std::string> candidates;
    for (const auto &p : policies_) {
        candidates.push_back(p->name);
        for (const auto &a : p->aliases) candidates.push_back(a);
    }
    return nearestOf(s, candidates);
}

AccelConfig
configureForPolicy(const BalancePolicy &spec, int num_pes, int hop_base)
{
    if (hop_base < 1) hop_base = 1;
    AccelConfig cfg;
    cfg.numPes = num_pes;
    cfg.balancePolicy = spec.name;
    if (spec.configure) spec.configure(cfg, hop_base);
    return cfg;
}

AccelConfig
makePolicyConfig(const std::string &policy, int num_pes, int hop_base)
{
    const BalancePolicy &spec = PolicyRegistry::instance().get(policy);
    AccelConfig cfg = configureForPolicy(spec, num_pes, hop_base);
    std::string err = cfg.validate();
    if (!err.empty()) fatal("makePolicyConfig(" + spec.name + "): " + err);
    return cfg;
}

std::unique_ptr<PartitionPolicy>
makePartitionPolicy(const AccelConfig &cfg)
{
    if (!cfg.balancePolicy.empty()) {
        const BalancePolicy &spec =
            PolicyRegistry::instance().get(cfg.balancePolicy);
        if (spec.partition) return spec.partition(cfg);
    }
    return partitionFromFields(cfg);
}

std::unique_ptr<RebalancePolicy>
makeRebalancePolicy(const AccelConfig &cfg, Index rows)
{
    if (!cfg.balancePolicy.empty()) {
        const BalancePolicy &spec =
            PolicyRegistry::instance().get(cfg.balancePolicy);
        if (spec.rebalance) return spec.rebalance(cfg, rows);
    }
    return rebalanceFromFields(cfg, rows);
}

void
tuneWithPolicy(RebalancePolicy &policy,
               const std::vector<Count> &row_work,
               RowPartition &partition, int max_rounds)
{
    int idle = 0;
    for (int round = 0;
         round < max_rounds && !policy.converged() && idle < 4;
         ++round) {
        RoundObservation obs;
        obs.peWork = partition.workload(row_work);
        obs.drainCycle.assign(obs.peWork.begin(), obs.peWork.end());
        const int moved =
            policy.observeAndAdjust(obs, row_work, partition);
        // Four idle rounds, not one: the remote switcher's Eq. 5 sets
        // N_1 = 0 so its first round legitimately moves nothing, and
        // the periodic rechunker only acts on every 4th observation.
        idle = moved == 0 ? idle + 1 : 0;
    }
}

RowPartition
tuneToConvergence(const AccelConfig &cfg,
                  const std::vector<Count> &row_work, int max_rounds)
{
    const Index rows = static_cast<Index>(row_work.size());
    RowPartition partition =
        makePartitionPolicy(cfg)->build(rows, row_work, cfg);
    auto policy = makeRebalancePolicy(cfg, rows);
    tuneWithPolicy(*policy, row_work, partition, max_rounds);
    return partition;
}

double
policyClockMhz(const AccelConfig &cfg)
{
    if (!cfg.balancePolicy.empty()) {
        const BalancePolicy *spec =
            PolicyRegistry::instance().find(cfg.balancePolicy);
        if (spec != nullptr) return spec->clockMhz;
    }
    // Configs without a named policy (DynamicRunner's static epochs): the
    // single-queue EIE shape is the only one clocked differently.
    return cfg.numQueuesPerPe == 1 ? kEieMhz : kFpgaMhz;
}

} // namespace awb
