#include "accel/spmm_engine.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "accel/cursor_models.hpp"
#include "accel/local_share.hpp"
#include "accel/omega.hpp"
#include "accel/pe.hpp"
#include "accel/policy.hpp"
#include "accel/round_cache.hpp"
#include "common/log.hpp"
#include "kernels/spgemm.hpp"
#include "sparse/convert.hpp"
#include "sparse/spmm.hpp"

namespace awb {

namespace {

/** roundContextDigest's TDQ-kind slot for SpGEMM rounds: distinct from
 *  both TdqKind values, whose rounds stream a fixed non-zero set. */
constexpr int kSpgemmContextTag = 2;

/** Tasks a PE can receive per cycle (distribution fan-in ports).
 *  Independent of queue count: the EIE-like design has one deep
 *  activation queue but still ingests at full distribution rate. */
constexpr int kReceivePorts = 4;

/** Input-buffer slots of every Omega router (TDQ-2). */
constexpr int kOmegaBufferDepth = 8;

/** Cycles one round may run before the engine declares a deadlock. */
constexpr Cycle kRoundWatchdog = 100000000;

/** The cache context of SpGEMM round k: the operand's context mixed
 *  with B column k's row ids, which fix the round's task stream. */
std::uint64_t
spgemmStreamDigest(std::uint64_t a_context, const CscMatrix &b,
                   std::size_t k)
{
    std::uint64_t h = roundMix64(
        a_context ^ static_cast<std::uint64_t>(b.colPtr()[k + 1] -
                                               b.colPtr()[k]));
    for (Count p = b.colPtr()[k]; p < b.colPtr()[k + 1]; ++p)
        h = roundMix64(h ^ static_cast<std::uint64_t>(
                               b.rowId()[static_cast<std::size_t>(p)]));
    return h;
}

/**
 * The per-cycle round core both entry points share: the PE array, the
 * local sharer and the Omega fabric, the simulated clock, and per-round
 * accounting (traffic, bandwidth floor, statistics, rebalance
 * observation and migration billing). Tasks carry structure only, so a
 * round's outcome depends on nothing but its task stream and the
 * RoundEntryKey state (DESIGN.md §6).
 */
struct RoundCore
{
    /** `use_net` routes through the Omega network (TDQ-2 on P >= 2);
     *  `observe_last` lets the rebalance policy observe the last round
     *  too, billing its migration bytes without a floor. */
    RoundCore(const AccelConfig &cfg, std::vector<Count> row_work,
              bool use_net, bool observe_last)
        : cfg(cfg), rowWork(std::move(row_work)), useNet(use_net),
          observeLast(observe_last), sharer(cfg.sharingHops),
          rebalance(makeRebalancePolicy(
              cfg, static_cast<Index>(rowWork.size()))),
          mem(findPlatform(cfg.platform), policyClockMhz(cfg)),
          cursors(static_cast<std::size_t>(cfg.numPes), 0)
    {
        stats.perPeTasks.assign(static_cast<std::size_t>(cfg.numPes), 0);
    }

    /** The state the next round's dynamics depend on (replay key);
     *  without the arbiter cursors unless `with_cursors`. */
    RoundEntryKey
    entryKey(const RowPartition &part, bool with_cursors) const
    {
        return {part.owners(),
                with_cursors ? cursors : std::vector<std::size_t>{},
                useNet ? static_cast<int>(now & 1) : 0};
    }

    /** Advance a round from a cached outcome without stepping it, and
     *  return its peak queue depth from the current entry cursors. */
    std::size_t
    replay(const RoundRecord &rec)
    {
        now += rec.roundCycles;
        if (rec.cursorTable.empty()) {
            cursors = rec.arbiterAfter;
            return rec.peakQueue;
        }
        const auto Q = static_cast<std::size_t>(cfg.numQueuesPerPe);
        std::size_t peak = 0;
        for (std::size_t p = 0; p < cursors.size(); ++p) {
            const CursorOutcome &o = rec.cursorTable[p * Q + cursors[p]];
            cursors[p] = o.exit;
            peak = std::max<std::size_t>(peak, o.peak);
        }
        return peak;
    }

    /** Build the PE array, the Omega fabric and their scratch on the
     *  first stepped round: a run that only replays never needs them. */
    void
    buildFabric()
    {
        const auto P = static_cast<std::size_t>(cfg.numPes);
        if (useNet)
            net.emplace(std::max(cfg.numPes, 2), kOmegaBufferDepth,
                        cfg.networkSpeedup);
        accepted.assign(P, 0);
        home.assign(P, 0);
        lane.assign(P, 0);
        active.reserve(P);
        touched.reserve(P);
        pes = PeArray(P);
    }

    /** Hand a task to its home PE or, under local sharing, the least
     *  loaded neighbour with a free receive port; false = backpressure.
     *  Kept out of line: GCC 12 inlines it into step()'s three call
     *  sites, the Omega sink among them, and TDQ-2 stepping then ran
     *  about 20% slower (perfbench event-step, 4-vCPU Xeon). */
    [[gnu::noinline]] bool
    deliver(int home_pe)
    {
        const auto h = static_cast<std::size_t>(home_pe);
        const int target = sharer.hops() > 0
            ? sharer.choose(home_pe, pes, accepted.data(), kReceivePorts)
            : (accepted[h] < kReceivePorts ? home_pe : -1);
        if (target < 0) return false;
        const auto p = static_cast<std::size_t>(target);
        pes.enqueue(p);
        models.enqueue(p);
        // A PE is on the active list exactly while it has queued work.
        if (pes.pending(p) == 1) active.push_back(target);
        if (accepted[p]++ == 0) touched.push_back(target);
        ++home[h];
        return true;
    }

    RoundRecord step(const std::vector<Index> &row,
                     const std::vector<Count> *scan_pos, Count scan_width,
                     const RowPartition &part, bool with_table);
    void account(const RoundRecord &rec, std::size_t peak_queue,
                 MemoryTraffic traffic, bool last, RowPartition &part);
    SpmmStats finish();

    const AccelConfig &cfg;
    const std::vector<Count> rowWork;
    const bool useNet;
    const bool observeLast;
    LocalSharer sharer;
    std::unique_ptr<RebalancePolicy> rebalance;
    // Off-chip memory model (DESIGN.md §8): per-round traffic is
    // accounted on every platform; a bandwidth-bound cycle floor is
    // composed roofline-style only when the platform is constrained, so
    // the unconstrained default is a provable timing no-op.
    const MemoryModel mem;
    // Arbiter cursors entering the next round: the only PE state a
    // round barrier carries (all zero on a fresh core).
    std::vector<std::size_t> cursors;
    // Built by the first stepped round (buildFabric).
    std::optional<OmegaNetwork> net;
    PeArray pes;
    Cycle now = 0;
    Count pendingMigration = 0;
    SpmmStats stats;
    // Scratch: tasks each PE accepted this cycle, and the PEs whose
    // count is non-zero; home-attributed dispatch counts this round
    // (what the PESM's distribution-point monitors see — local sharing
    // smears execution across neighbours, but the switchable quantity is
    // row ownership); TDQ-2 lane cursors; the PEs with queued work.
    std::vector<int> accepted;
    std::vector<int> touched;
    std::vector<Count> home;
    std::vector<std::size_t> lane;
    std::vector<int> active;
    // The per-queue half of every PE: exit cursors, peaks and, on a
    // round bound for the shared cache, the cursor table.
    CursorModels models;
};

/**
 * Event-step one round of tasks for result rows `row`, in stream order.
 * TDQ-1 passes each task's dense-scan position in `scan_pos` and scans
 * `scan_width` positions per cycle; otherwise tasks enter through the
 * Omega lanes, or directly on a single PE. `with_table` fills the
 * record's cursor table.
 */
RoundRecord
RoundCore::step(const std::vector<Index> &row,
                const std::vector<Count> *scan_pos, Count scan_width,
                const RowPartition &part, bool with_table)
{
    if (pes.empty()) buildFabric();
    const std::size_t n = row.size();
    const std::size_t P = pes.size();
    std::fill(home.begin(), home.end(), 0);
    pes.resetRound();
    models.begin(cursors, static_cast<std::size_t>(cfg.numQueuesPerPe),
                 with_table);
    // Align the fabric's input-priority toggles with the global cycle
    // parity (identity under pure event stepping; required after
    // replayed rounds advanced the clock without ticking).
    if (useNet) {
        net->resetRoundPeak();
        net->setArbitration(static_cast<int>(now & 1));
    }
    const Cycle start = now;
    // A task is its home PE: nothing downstream reads its row.
    auto homeOf = [&](std::size_t f) { return part.owner(row[f]); };
    std::size_t next = 0;  // next task to dispatch (TDQ-1, direct)
    Count scanned = 0;     // TDQ-1 dense-scan pointer
    // TDQ-2: the CSC array is banked P ways; each bank feeds one network
    // port through its own read pointer, so a congested path stalls only
    // its own lane (port p streams tasks p, p+P, ...).
    for (std::size_t p = 0; p < P; ++p) lane[p] = p;
    // Every task issues exactly once, and issue times only grow, so the
    // round is over once all n have issued and the last one's MAC op has
    // retired, one cycle after its issue: nothing is left in the lanes,
    // the fabric or any queue.
    std::size_t issued = 0;
    Cycle drain_at = start;

    while (true) {
        // 1. PEs consume (they see queue state from previous cycles).
        //    An idle PE's tick is a no-op and no PE's tick touches
        //    another, so only the active ones tick, in any order.
        for (std::size_t i = 0; i < active.size();) {
            const auto p = static_cast<std::size_t>(active[i]);
            if (pes.tick(p, now)) {
                ++issued;
                drain_at = now + 1;
                models.issue(p);
            }
            if (pes.pending(p) == 0) {
                active[i] = active.back();
                active.pop_back();
            } else {
                ++i;
            }
        }
        for (int p : touched) accepted[static_cast<std::size_t>(p)] = 0;
        touched.clear();

        // 2. The network advances and delivers into queues.
        if (useNet) {
            net->tick([&](int dest, int out_port) {
                if (out_port != dest)
                    panic("Omega routing invariant violated");
                return deliver(dest);
            });
        }

        // 3. Injection.
        if (scan_pos != nullptr) {
            scanned += scan_width;
            while (next < n && (*scan_pos)[next] < scanned) {
                if (!deliver(homeOf(next))) {
                    // Backpressure: the scan stalls at this element.
                    scanned = (*scan_pos)[next];
                    break;
                }
                ++next;
            }
        } else if (useNet) {
            // Every lane offers its next task once a cycle.
            for (std::size_t p = 0; p < P; ++p)
                if (lane[p] < n &&
                    net->inject(homeOf(lane[p]), static_cast<int>(p)))
                    lane[p] += P;
        } else if (next < n && deliver(homeOf(next))) {
            // Single-PE TDQ-2: one task a cycle, delivered directly.
            ++next;
        }

        ++now;
        if (now - start > kRoundWatchdog)
            panic("SpmmEngine: round watchdog expired");
        if (issued == n && now >= drain_at) break;
    }
    bool in_flight = useNet && !net->empty();
    for (std::size_t p = 0; p < P; ++p) in_flight |= !pes.drained(p, now);
    if (in_flight) panic("SpmmEngine: round ended with work in flight");

    RoundRecord out;
    out.roundCycles = now - start;
    out.homeTasks = home;
    for (std::size_t p = 0; p < P; ++p) {
        const Count t = pes.tasksThisRound(p);
        const Cycle last = pes.lastBusyCycle(p);
        out.execTasks.push_back(t);
        out.drainCycle.push_back(t > 0 && last >= start ? last - start : 0);
    }
    out.peakNet = useNet ? net->roundPeakBufferDepth() : 0;
    models.finish(cursors, out);
    cursors = out.arbiterAfter;
    return out;
}

/** Bill a stepped or replayed round and let the policy observe it. */
void
RoundCore::account(const RoundRecord &rec, std::size_t peak_queue,
                   MemoryTraffic traffic, bool last, RowPartition &part)
{
    // Roofline composition: row migrations ordered after the previous
    // round must land before this round's stream, so their bytes bill to
    // this round's floor.
    traffic.migrationBytes = pendingMigration;
    pendingMigration = 0;
    stats.traffic += traffic;
    Cycle duration = rec.roundCycles;
    const Cycle bw_floor = mem.floorCycles(traffic.total());
    stats.memoryCycles += bw_floor;
    if (bw_floor > duration) {
        // Bandwidth-bound: the PE array idles until the off-chip stream
        // completes; the round stretches to the floor.
        ++stats.bwBoundRounds;
        now += bw_floor - duration;
        duration = bw_floor;
    }

    stats.roundCycles.push_back(duration);
    Count round_tasks = 0;
    for (std::size_t p = 0; p < rec.execTasks.size(); ++p) {
        round_tasks += rec.execTasks[p];
        stats.perPeTasks[p] += rec.execTasks[p];
    }
    const auto P = static_cast<Count>(cfg.numPes);
    stats.tasks += round_tasks;
    stats.idealCycles += (round_tasks + P - 1) / P;
    // Peaks fold from per-round maxima: a replayed round repeats the
    // dynamics of the stepped round that produced its record, up to the
    // cursor-dependent queue peak that replay() rebuilt.
    stats.peakQueueDepth = std::max(stats.peakQueueDepth, peak_queue);
    stats.peakNetworkDepth = std::max(stats.peakNetworkDepth, rec.peakNet);

    // The rebalance policy auto-tunes the row map for the next round; it
    // digests the same observation whether the round was stepped or
    // replayed, so auto-tuning trajectories are engine-invariant.
    if (last && !observeLast) return;
    RoundObservation obs;
    obs.peWork = rec.homeTasks;
    obs.drainCycle = rec.drainCycle;
    // Moved rows migrate between the PEs' banks before the next round
    // streams them. Static policies never move rows: skip the snapshot.
    std::vector<int> owners_before;
    if (rebalance->wantsObservations()) owners_before = part.owners();
    rebalance->observeAndAdjust(obs, rowWork, part);
    if (owners_before.empty()) return;
    const Count mig = mem.migrationBytes(owners_before, part.owners(), rowWork);
    // With no next round to floor, the last round's bytes bill alone.
    (last ? stats.traffic.migrationBytes : pendingMigration) += mig;
}

SpmmStats
RoundCore::finish()
{
    stats.cycles = now;
    stats.syncCycles = std::max<Cycle>(0, stats.cycles - stats.idealCycles);
    stats.utilization = stats.cycles > 0
        ? static_cast<double>(stats.tasks) /
          (static_cast<double>(cfg.numPes) *
           static_cast<double>(stats.cycles))
        : 0.0;
    stats.rowsSwitched = rebalance->totalRowsMoved();
    stats.convergedRound = rebalance->convergedRound();
    return std::move(stats);
}

} // namespace

SpmmEngine::SpmmEngine(const AccelConfig &cfg) : cfg_(cfg)
{
    std::string err = cfg.validate();
    if (!err.empty()) fatal("SpmmEngine: " + err);
}

SpmmResult
SpmmEngine::execute(const CscMatrix &a, const DenseMatrix &b, TdqKind kind,
                    RowPartition &partition)
{
    if (a.cols() != b.rows()) panic("SpmmEngine: inner dimensions differ");
    SpmmStats stats = simulate(a, b.cols(), kind, partition);
    return {spmmCsr(cscToCsr(a), b), std::move(stats)};
}

SpmmStats
SpmmEngine::simulate(const CscMatrix &a, Index cols, TdqKind kind,
                     RowPartition &partition)
{
    if (partition.rows() != a.rows())
        panic("SpmmEngine: partition rows != operand rows");
    const bool dense_scan = kind == TdqKind::Tdq1DenseScan;
    if (!dense_scan) {
        std::string err = cfg_.validate(/*cycle_accurate_tdq2=*/true);
        if (!err.empty()) fatal("SpmmEngine: " + err);
    }
    const int P = cfg_.numPes;
    RoundCore core(cfg_, a.rowNnz(), !dense_scan && P >= 2,
                   /*observe_last=*/false);
    core.stats.rounds = cols;
    const MemoryTraffic steady_traffic =
        core.mem.roundTraffic(a.nnz(), a.cols(), a.rows());

    // Every round streams the column-major non-zeros of `a` (its row
    // ids). TDQ-1 scans the dense-stored operand, fetching enough
    // elements per cycle that, with evenly distributed non-zeros, about
    // P emerge per cycle (paper: N_PE / (1 - sparsity) per cycle).
    std::vector<Count> scan_pos;
    Count scan_width = 0;
    if (dense_scan) {
        for (Index j = 0; j < a.cols(); ++j)
            for (Count p = a.colPtr()[static_cast<std::size_t>(j)];
                 p < a.colPtr()[static_cast<std::size_t>(j) + 1]; ++p)
                scan_pos.push_back(static_cast<Count>(j) * a.rows() +
                                   a.rowId()[static_cast<std::size_t>(p)]);
        const double elems = static_cast<double>(a.rows()) *
                             static_cast<double>(a.cols());
        const double density =
            elems > 0.0 ? static_cast<double>(a.nnz()) / elems : 1.0;
        scan_width = std::max<Count>(
            static_cast<Count>(static_cast<double>(P) /
                               std::max(density, 1e-9)),
            1);
    }

    // Replay a round whose entry state was simulated before instead of
    // event-stepping it again: the batched engine's within-run memo
    // (hash-bucketed, exact key compare; lock-free) first, then (both
    // engines) the process-wide shared cache (DESIGN.md §13). The memo
    // keys on the cursors; the shared cache drops them and rebuilds
    // them from the record's cursor table.
    const bool batched = cfg_.engine == EngineKind::Batched;
    std::unordered_map<std::uint64_t,
                       std::vector<std::pair<
                           RoundEntryKey, std::shared_ptr<const RoundRecord>>>>
        local;
    RoundStateCache &shared = RoundStateCache::instance();
    const bool shared_on = shared.enabled();
    const std::uint64_t shared_ctx =
        shared_on ? roundContextDigest(a, cfg_, static_cast<int>(kind)) : 0;
    for (Index k = 0; k < cols; ++k) {
        std::shared_ptr<const RoundRecord> record;
        bool local_hit = false;
        std::uint64_t h = 0;
        RoundEntryKey key;  // the within-run memo's
        if (batched) {
            key = core.entryKey(partition, /*with_cursors=*/true);
            h = hashRoundKey(key);
            for (const auto &entry : local[h]) {
                if (entry.first == key) {
                    record = entry.second;
                    local_hit = true;
                    break;
                }
            }
        }
        RoundEntryKey shared_key;
        if (record == nullptr && shared_on) {
            shared_key = core.entryKey(partition, /*with_cursors=*/false);
            record = shared.lookup(shared_ctx, shared_key);
        }
        std::size_t peak_queue = 0;
        if (record != nullptr) {
            peak_queue = core.replay(*record);
        } else {
            record = std::make_shared<RoundRecord>(core.step(
                a.rowId(), dense_scan ? &scan_pos : nullptr, scan_width,
                partition, shared_on));
            peak_queue = record->peakQueue;
            if (shared_on) shared.insert(shared_ctx, shared_key, record);
        }
        // Charged per round the within-run memo missed (every round for
        // the event engine), so counts are bit-identical with the shared
        // cache on or off.
        if (!local_hit) {
            ++core.stats.roundsSimulated;
            if (batched) local[h].emplace_back(key, record);
        }
        core.account(*record, peak_queue, steady_traffic, k + 1 == cols,
                     partition);
    }
    return core.finish();
}

std::uint64_t
SpmmEngine::spgemmContext(const CscMatrix &a) const
{
    return roundContextDigest(a, cfg_, kSpgemmContextTag);
}

SpgemmResult
SpmmEngine::executeSpgemm(const CscMatrix &a, const CscMatrix &b,
                          RowPartition &partition)
{
    return executeSpgemm(a, b, partition, spgemmContext(a));
}

SpgemmResult
SpmmEngine::executeSpgemm(const CscMatrix &a, const CscMatrix &b,
                          RowPartition &partition, std::uint64_t a_context)
{
    if (a.cols() != b.rows())
        panic("SpmmEngine: spgemm inner dimensions differ");
    if (partition.rows() != a.rows())
        panic("SpmmEngine: partition rows != operand rows");
    std::string err = cfg_.validate(/*cycle_accurate_tdq2=*/true);
    if (!err.empty()) fatal("SpmmEngine: " + err);

    CscMatrix c = kernels::spgemm(a, b);
    RoundCore core(cfg_, a.rowNnz(), cfg_.numPes >= 2,
                   /*observe_last=*/true);
    const Index K = b.cols();
    core.stats.rounds = K;
    RoundStateCache &shared = RoundStateCache::instance();
    const bool shared_on = shared.enabled();
    std::vector<Index> rows;
    for (Index k = 0; k < K; ++k) {
        // Round-k task stream: B column k's non-zeros in ascending inner
        // index j, each expanding A column j (a sparse B-column fetch,
        // where simulate() streams one fixed non-zero set). The stream
        // is a function of A and B column k's row ids alone.
        const auto kk = static_cast<std::size_t>(k);
        const Count b_begin = b.colPtr()[kk];
        const Count b_end = b.colPtr()[kk + 1];
        Count tasks = 0;
        for (Count p = b_begin; p < b_end; ++p)
            tasks += a.colNnz(b.rowId()[static_cast<std::size_t>(p)]);

        // Replay through the shared cache (DESIGN.md §13), keyed by the
        // stream's digest. Streams rarely repeat inside one call (A x A
        // runs n distinct columns), so a stream is admitted only on its
        // second sighting, and only when it carries at least as many
        // tasks as the entry key holds owners: that bounds the cache to
        // the size of the admitted streams and keeps key hashing cheaper
        // than stepping.
        std::shared_ptr<const RoundRecord> cached;
        RoundEntryKey key;
        std::uint64_t stream = 0;
        bool admitted = false;
        if (shared_on && tasks >= a.rows()) {
            stream = spgemmStreamDigest(a_context, b, kk);
            admitted = shared.admit(stream);
        }
        if (admitted) {
            key = core.entryKey(partition, /*with_cursors=*/false);
            cached = shared.lookup(stream, key);
        }
        RoundRecord stepped;
        const RoundRecord *rec = cached.get();
        std::size_t peak_queue = 0;
        if (rec != nullptr) {
            peak_queue = core.replay(*rec);
        } else {
            rows.clear();
            for (Count p = b_begin; p < b_end; ++p) {
                const auto j = static_cast<std::size_t>(
                    b.rowId()[static_cast<std::size_t>(p)]);
                rows.insert(rows.end(), a.rowId().begin() + a.colPtr()[j],
                            a.rowId().begin() + a.colPtr()[j + 1]);
            }
            stepped = core.step(rows, nullptr, 0, partition, admitted);
            rec = &stepped;
            peak_queue = stepped.peakQueue;
            if (admitted)
                shared.insert(stream, key,
                              std::make_shared<RoundRecord>(stepped));
        }
        // Every round counts as simulated, replayed or not: there is no
        // within-run memo to miss, and the count stays independent of
        // what the shared cache holds.
        ++core.stats.roundsSimulated;

        // Traffic (DESIGN.md §11): the A-task stream, the fetched B
        // column, and the written sparse C column (values + row ids).
        const MemoryTraffic traffic = core.mem.spgemmRoundTraffic(
            tasks, b_end - b_begin, c.colPtr()[kk + 1] - c.colPtr()[kk]);
        core.account(*rec, peak_queue, traffic, k + 1 == K, partition);
    }
    return {std::move(c), core.finish()};
}

} // namespace awb
