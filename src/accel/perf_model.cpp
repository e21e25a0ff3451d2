#include "accel/perf_model.hpp"

#include <algorithm>
#include <numeric>

#include "accel/gcn_accel.hpp"
#include "accel/policy.hpp"
#include "accel/scaleout.hpp"
#include "common/log.hpp"
#include "kernels/spgemm.hpp"

namespace awb {

namespace {

/** Online greedy sharing leaves a few percent on the table compared with
 *  the optimal water-filling bound; calibrated against the cycle engine. */
constexpr double kSharingInefficiency = 1.15;

int
log2i(int v)
{
    int s = 0;
    while ((1 << s) < v) ++s;
    return s;
}

/** (source PE, remaining work) of one PE's unserved tasks. */
using PendingWork = std::pair<int, Count>;

/**
 * Feasibility check for balancedDrain: can every PE's work be served
 * within `hops` positions with per-PE capacity t? Greedy left-to-right
 * serving the earliest-expiring work first (exact for interval-constrained
 * transportation on a line). Each source enters the queue once, so
 * `pending` (at least P entries) is a flat FIFO that never wraps.
 */
bool
feasible(const std::vector<Count> &w, int hops, Cycle t,
         std::vector<PendingWork> &pending, std::vector<Count> *served)
{
    const int P = static_cast<int>(w.size());
    if (served) served->assign(static_cast<std::size_t>(P), 0);
    std::size_t head = 0, tail = 0;
    int next_src = 0;
    for (int s = 0; s < P; ++s) {
        for (; next_src < P && next_src <= s + hops; ++next_src) {
            const Count work = w[static_cast<std::size_t>(next_src)];
            if (work > 0) pending[tail++] = {next_src, work};
        }
        // Work whose window has closed cannot be served any more.
        if (head < tail && pending[head].first < s - hops) return false;
        Count cap = t;
        while (cap > 0 && head < tail) {
            Count &rem = pending[head].second;
            Count take = std::min(cap, rem);
            rem -= take;
            cap -= take;
            if (served) (*served)[static_cast<std::size_t>(s)] += take;
            if (rem == 0) ++head;
        }
    }
    return head == tail;
}

/**
 * What one round of a given per-PE home work costs. A pure function of
 * that work, so runSpmm reuses it for as long as the row map holds.
 */
struct RoundLoad
{
    Count total = 0;
    Cycle inject = 0;       ///< ideal cycles, ceil(total / P)
    Cycle cycles = 0;       ///< drain/inject bound plus overhead, no floor
    Count backlogPeak = 0;  ///< largest served - inject over PEs (>= 0)
    std::vector<Count> served;  ///< tasks each PE executes after sharing
};

void
modelLoad(const std::vector<Count> &pe_work, int num_pes, int hops,
          Cycle overhead, RoundLoad &load)
{
    load.total = std::accumulate(pe_work.begin(), pe_work.end(), Count(0));
    Cycle no_share = *std::max_element(pe_work.begin(), pe_work.end());
    Cycle drain = PerfModel::balancedDrain(pe_work, hops, &load.served);
    if (hops > 0) {
        // Online greedy sharing pays an inefficiency over the optimal
        // water-filling, but never loses to not sharing at all.
        drain = std::min(no_share,
                         static_cast<Cycle>(static_cast<double>(drain) *
                                            kSharingInefficiency));
    }
    load.inject = (load.total + num_pes - 1) / num_pes;
    load.cycles = std::max(drain, load.inject) + overhead;
    // Peak queue depth: a PE's arrivals spread over the injection window
    // while it drains at one task per cycle.
    load.backlogPeak = 0;
    for (Count s : load.served)
        load.backlogPeak = std::max(load.backlogPeak, s - load.inject);
}

/**
 * Fold one round into `res`: roofline composition of the round with the
 * bandwidth floor of its traffic, then cycles, tasks, per-PE work and the
 * backlog peak.
 */
void
accountRound(PerfSpmmResult &res, const RoundLoad &load,
             const MemoryTraffic &traffic, const MemoryModel &mem)
{
    res.traffic += traffic;
    const Cycle bw_floor = mem.floorCycles(traffic.total());
    res.memoryCycles += bw_floor;
    Cycle round_cycles = load.cycles;
    if (bw_floor > round_cycles) {
        ++res.bwBoundRounds;
        round_cycles = bw_floor;
    }
    res.roundCycles.push_back(round_cycles);
    res.cycles += round_cycles;
    res.tasks += load.total;
    res.idealCycles += load.inject;
    for (std::size_t p = 0; p < res.perPeTasks.size(); ++p)
        res.perPeTasks[p] += load.served[p];
    res.peakQueueDepth = std::max(
        res.peakQueueDepth, static_cast<std::size_t>(load.backlogPeak));
}

/**
 * Let the policy observe a round and adjust the map; returns the summed
 * `row_work` of the rows that changed owner (0 if none did). Once the
 * policy has converged it is not called again, and a call returning 0
 * left the map as it was (the RebalancePolicy contract), so `owners`
 * (the map as of the previous call, copied on the first) is brought up
 * to date by one diff pass only when rows moved. That pass also shifts
 * each moved row's work between the PEs of `pe_work`, when given; it may
 * be `&home_work`, which the observation has copied by then.
 *
 * PESM ranks by home-attributed load (see SpmmEngine): the switchable
 * quantity is row ownership, not where sharing happened to execute the
 * tasks, so the observation is the home work plus the served tasks.
 */
Count
observeRound(RebalancePolicy &policy, const std::vector<Count> &home_work,
             const std::vector<Count> &served,
             const std::vector<Count> &row_work, RowPartition &partition,
             std::vector<int> &owners, RoundObservation &obs,
             std::vector<Count> *pe_work)
{
    if (!policy.wantsObservations() || policy.converged()) return 0;
    if (owners.empty()) owners = partition.owners();
    obs.peWork.assign(home_work.begin(), home_work.end());
    obs.drainCycle.assign(served.begin(), served.end());
    if (policy.observeAndAdjust(obs, row_work, partition) == 0) return 0;

    const std::vector<int> &now = partition.owners();
    Count moved_nnz = 0;
    for (std::size_t r = 0; r < owners.size(); ++r) {
        if (owners[r] == now[r]) continue;
        const Count w = row_work[r];
        moved_nnz += w;
        if (pe_work) {
            (*pe_work)[static_cast<std::size_t>(owners[r])] -= w;
            (*pe_work)[static_cast<std::size_t>(now[r])] += w;
        }
        owners[r] = now[r];
    }
    return moved_nnz;
}

/** Summary fields derived once the last round is accounted. */
void
finishResult(PerfSpmmResult &res, const AccelConfig &cfg,
             const RebalancePolicy &policy)
{
    res.peakQueueDepth = std::max<std::size_t>(
        res.peakQueueDepth, static_cast<std::size_t>(cfg.numQueuesPerPe));
    res.syncCycles = std::max<Cycle>(0, res.cycles - res.idealCycles);
    res.utilization = res.cycles > 0
        ? static_cast<double>(res.tasks) /
          (static_cast<double>(cfg.numPes) * static_cast<double>(res.cycles))
        : 0.0;
    res.rowsSwitched = policy.totalRowsMoved();
    res.convergedRound = policy.convergedRound();
}

} // namespace

PerfModel::PerfModel(const AccelConfig &cfg) : cfg_(cfg) {}

Cycle
PerfModel::balancedDrain(const std::vector<Count> &pe_work, int hops,
                         std::vector<Count> *served)
{
    const int P = static_cast<int>(pe_work.size());
    Count total = std::accumulate(pe_work.begin(), pe_work.end(), Count(0));
    Cycle lo = (total + P - 1) / P;
    Cycle hi = *std::max_element(pe_work.begin(), pe_work.end());
    if (hops <= 0 || lo >= hi) {
        if (served) *served = pe_work;
        return hi;
    }
    std::vector<PendingWork> pending(static_cast<std::size_t>(P));
    while (lo < hi) {
        Cycle mid = lo + (hi - lo) / 2;
        if (feasible(pe_work, hops, mid, pending, nullptr)) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    if (served) feasible(pe_work, hops, lo, pending, served);
    return lo;
}

PerfSpmmResult
PerfModel::runSpmm(const std::vector<Count> &row_work, Index rounds,
                   RowPartition &partition, Index inner_dim) const
{
    if (static_cast<Index>(row_work.size()) != partition.rows())
        fatal("PerfModel::runSpmm: partition rows != row_work size");

    const int P = cfg_.numPes;
    PerfSpmmResult res;
    res.rounds = rounds;
    res.roundCycles.reserve(static_cast<std::size_t>(rounds));

    std::unique_ptr<RebalancePolicy> rebalance =
        makeRebalancePolicy(cfg_, partition.rows());
    res.perPeTasks.assign(static_cast<std::size_t>(P), 0);
    // The one-cycle MAC plus the log2(P)-stage network traversal.
    const Cycle overhead = 1 + log2i(P) + 2;

    // Off-chip memory model (DESIGN.md §8): same accounting and
    // roofline composition as the cycle engine, at round granularity.
    const MemoryModel mem(findPlatform(cfg_.platform),
                          policyClockMhz(cfg_));
    const Count total_nnz =
        std::accumulate(row_work.begin(), row_work.end(), Count(0));
    const MemoryTraffic steady_traffic = mem.roundTraffic(
        total_nnz, inner_dim > 0 ? inner_dim : partition.rows(),
        partition.rows());
    Count pending_migration_bytes = 0;

    // Every round processes the same sparse operand, so a round's cost
    // depends only on the per-PE home work. That work is built once and
    // carried; the round is re-modelled only after moved rows changed it
    // (DESIGN.md §4, "Host representation").
    std::vector<Count> pe_work = partition.workload(row_work);
    RoundLoad load;
    modelLoad(pe_work, P, cfg_.sharingHops, overhead, load);
    std::vector<int> owners;
    RoundObservation obs;
    for (Index k = 0; k < rounds; ++k) {
        // Rows the policy moved after round k-1 bill their migration here.
        MemoryTraffic round_traffic = steady_traffic;
        round_traffic.migrationBytes = pending_migration_bytes;
        pending_migration_bytes = 0;
        accountRound(res, load, round_traffic, mem);

        if (k + 1 < rounds) {
            const Count moved_nnz =
                observeRound(*rebalance, pe_work, load.served, row_work,
                             partition, owners, obs, &pe_work);
            pending_migration_bytes = mem.migrationBytes(moved_nnz);
            if (moved_nnz != 0)
                modelLoad(pe_work, P, cfg_.sharingHops, overhead, load);
        }
    }

    finishResult(res, cfg_, *rebalance);
    return res;
}

PerfSpmmResult
PerfModel::runSpgemm(const CscMatrix &a, const CscMatrix &b,
                     RowPartition &partition) const
{
    if (a.cols() != b.rows())
        fatal("PerfModel::runSpgemm: inner dimensions differ");
    if (partition.rows() != a.rows())
        fatal("PerfModel::runSpgemm: partition rows != operand rows");

    const int P = cfg_.numPes;
    const Index K = b.cols();
    PerfSpmmResult res;
    res.rounds = K;
    res.roundCycles.reserve(static_cast<std::size_t>(K));

    std::unique_ptr<RebalancePolicy> rebalance =
        makeRebalancePolicy(cfg_, partition.rows());
    res.perPeTasks.assign(static_cast<std::size_t>(P), 0);
    // The one-cycle MAC plus the log2(P)-stage network traversal.
    const Cycle overhead = 1 + log2i(P) + 2;

    const MemoryModel mem(findPlatform(cfg_.platform),
                          policyClockMhz(cfg_));
    // Migration billing moves whole rows of A between banks, the same
    // quantity the cycle engine bills (not the round-masked work).
    const std::vector<Count> row_work = a.rowNnz();
    const std::vector<Count> out_nnz = kernels::spgemmColumnNnz(a, b);
    Count pending_migration_bytes = 0;

    std::vector<Count> row_work_k(static_cast<std::size_t>(a.rows()));
    std::vector<int> owners;
    RoundObservation obs;
    RoundLoad load;
    for (Index k = 0; k < K; ++k) {
        // Round-k per-row work: B column k's non-zeros each expand the
        // matching A column, so only rows reachable through those
        // columns carry tasks this round.
        std::fill(row_work_k.begin(), row_work_k.end(), Count(0));
        const Count b_begin = b.colPtr()[static_cast<std::size_t>(k)];
        const Count b_end = b.colPtr()[static_cast<std::size_t>(k) + 1];
        for (Count p = b_begin; p < b_end; ++p) {
            const Index j = b.rowId()[static_cast<std::size_t>(p)];
            for (Count q = a.colPtr()[static_cast<std::size_t>(j)];
                 q < a.colPtr()[static_cast<std::size_t>(j) + 1]; ++q) {
                ++row_work_k[static_cast<std::size_t>(
                    a.rowId()[static_cast<std::size_t>(q)])];
            }
        }

        const std::vector<Count> pe_work = partition.workload(row_work_k);
        modelLoad(pe_work, P, cfg_.sharingHops, overhead, load);
        MemoryTraffic round_traffic = mem.spgemmRoundTraffic(
            load.total, b_end - b_begin, out_nnz[static_cast<std::size_t>(k)]);
        round_traffic.migrationBytes = pending_migration_bytes;
        pending_migration_bytes = 0;
        accountRound(res, load, round_traffic, mem);

        // Observe after every round, the last included, mirroring
        // SpmmEngine::executeSpgemm (frontier kernels chain 1-round
        // SpGEMMs over a carried partition).
        const Count mig = mem.migrationBytes(
            observeRound(*rebalance, pe_work, load.served, row_work,
                         partition, owners, obs, nullptr));
        if (k + 1 < K) {
            pending_migration_bytes = mig;
        } else {
            res.traffic.migrationBytes += mig;
        }
    }

    finishResult(res, cfg_, *rebalance);
    return res;
}

PerfGcnResult
PerfModel::runGcn(const WorkloadProfile &profile,
                  const CscMatrix *structure) const
{
    const Index n = profile.spec.nodes;
    PerfGcnResult res;
    res.scaleout.chips = cfg_.chips;

    // Multi-chip (DESIGN.md §9): one node-ownership partition over the
    // adjacency's rows shards every SPMM; only A×(XW) pays a halo.
    RowPartition owners;
    std::vector<Count> a_halo;
    if (cfg_.chips > 1) {
        if (!structure || structure->rows() != n || structure->cols() != n)
            fatal("PerfModel::runGcn: chips > 1 needs the profile's "
                  "adjacency structure for halo counting "
                  "(loadSyntheticAdjacency)");
        owners = chipOwners(cfg_, n, profile.aRowNnz);
        a_halo = haloRows(owners, *structure);
        res.scaleout.chipImbalance = chipImbalance(owners, profile.aRowNnz);
    }
    const RowPartition *cp = cfg_.chips > 1 ? &owners : nullptr;
    ShardedOperand a = shardOperand(cfg_, cp, profile.aRowNnz);

    struct LayerIn
    {
        const std::vector<Count> *xRow;
        Index rounds;
        Index innerDim;  ///< feature width of X (streamed W column)
    };
    const LayerIn layers[2] = {
        {&profile.x1RowNnz, profile.spec.f2, profile.spec.f1},
        {&profile.x2RowNnz, profile.spec.f3, profile.spec.f2},
    };

    auto fold = [&res](const PerfSpmmResult &s) {
        res.traffic += s.traffic;
        res.memoryCycles += s.memoryCycles;
        res.bwBoundRounds += s.bwBoundRounds;
    };
    for (const LayerIn &li : layers) {
        PerfGcnResult::Layer layer;
        ShardedOperand x = shardOperand(cfg_, cp, *li.xRow);
        layer.xw = modelSpmm(cfg_, *li.xRow, li.rounds, li.innerDim, x, {},
                             res.scaleout);
        layer.ax = modelSpmm(cfg_, profile.aRowNnz, li.rounds, n, a, a_halo,
                             res.scaleout);
        layer.pipelinedCycles =
            pipelineCycles(layer.xw.roundCycles, layer.ax.roundCycles);
        res.totalCycles += layer.pipelinedCycles;
        res.totalCyclesSerial += layer.xw.cycles + layer.ax.cycles;
        res.totalTasks += layer.xw.tasks + layer.ax.tasks;
        fold(layer.xw);
        fold(layer.ax);
        res.layers.push_back(std::move(layer));
    }

    res.utilization = res.totalCyclesSerial > 0
        ? static_cast<double>(res.totalTasks) /
          (static_cast<double>(cfg_.chips) *
           static_cast<double>(cfg_.numPes) *
           static_cast<double>(res.totalCyclesSerial))
        : 0.0;
    return res;
}

} // namespace awb
