#include "kernels/frontier.hpp"

#include <algorithm>

#include "accel/policy.hpp"
#include "common/log.hpp"

namespace awb::kernels {

CscMatrix
frontierVector(Index rows,
               const std::vector<std::pair<Index, Value>> &entries)
{
    std::vector<Count> col_ptr{0, static_cast<Count>(entries.size())};
    std::vector<Index> row_id;
    std::vector<Value> val;
    row_id.reserve(entries.size());
    val.reserve(entries.size());
    Index prev = -1;
    for (const auto &[row, v] : entries) {
        if (row <= prev)
            fatal("frontierVector: entries must be strictly ascending");
        if (row >= rows) fatal("frontierVector: row out of range");
        prev = row;
        row_id.push_back(row);
        val.push_back(v);
    }
    return CscMatrix::fromParts(rows, 1, std::move(col_ptr),
                                std::move(row_id), std::move(val));
}

namespace {

/** Close one iteration: record it and add it to the run totals. */
void
finishIteration(FrontierRunStats &stats, const FrontierIteration &it)
{
    stats.iterations.push_back(it);
    stats.cycles += it.cycles;
    stats.tasks += it.tasks;
    stats.rowsSwitched += it.rowsSwitched;
    stats.rounds += 1;
}

/** Fold one SpGEMM's counters (a chip's, or the whole operand's) into
 *  the run: the work merge, and the convergence round last-wins. */
void
foldSpgemm(FrontierRunStats &stats, const RunCounters &s)
{
    stats.mergeWork(s);
    stats.convergedRound = s.convergedRound;
}

} // namespace

void
foldIteration(FrontierRunStats &stats, const RunCounters &s,
              Count frontier_nnz)
{
    foldSpgemm(stats, s);
    finishIteration(stats, {frontier_nnz, s.cycles, s.tasks, s.rowsSwitched});
}

FrontierRunner::FrontierRunner(const AccelConfig &cfg, const CscMatrix &a)
    : cfg_(cfg), engine_(cfg),
      mem_(findPlatform(cfg.platform), policyClockMhz(cfg)),
      rows_(a.rows())
{
    std::unique_ptr<PartitionPolicy> partitioner =
        makePartitionPolicy(cfg_);
    const std::vector<Count> row_work = a.rowNnz();
    if (cfg_.chips <= 1) {
        a_ = a;
        aContext_ = engine_.spgemmContext(a_);
        part_ = partitioner->build(a.rows(), row_work, cfg_);
        return;
    }
    chipPart_ = chipOwners(cfg_, a.rows(), row_work);
    stats_.scaleout.chipImbalance = chipImbalance(chipPart_, row_work);
    for (int c = 0; c < chipPart_.numPes(); ++c) {
        // Skip empty shards (chips may exceed rows): a 0-row partition
        // has nothing to execute or rebalance.
        if (chipPart_.rowsOf(c).empty()) continue;
        shardChip_.push_back(c);
        shards_.push_back(extractRows(chipPart_, a, c));
        shardContexts_.push_back(engine_.spgemmContext(shards_.back()));
        shardParts_.push_back(partitioner->build(
            shards_.back().rows(),
            extractWork(chipPart_, row_work, c), cfg_));
    }
}

CscMatrix
FrontierRunner::step(const CscMatrix &x)
{
    if (x.cols() != 1)
        fatal("FrontierRunner::step: frontier must be a 1-column vector");

    if (cfg_.chips <= 1) {
        SpgemmResult r = engine_.executeSpgemm(a_, x, part_, aContext_);
        foldIteration(stats_, r.stats, x.nnz());
        return std::move(r.c);
    }

    // Multi-chip iteration: every chip processes its shard against the
    // whole frontier; the round barrier is the slowest chip, stretched
    // roofline-style to the slowest chip's frontier-halo link floor.
    const Count per_entry = mem_.platform().bytesPerValue +
                            mem_.platform().bytesPerIndex;
    FrontierIteration it{x.nnz()};
    Cycle chip_max = 0;
    Cycle halo_floor = 0;
    Count halo_total = 0;
    std::vector<std::pair<Index, Value>> merged;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        const int c = shardChip_[s];
        SpgemmResult r = engine_.executeSpgemm(shards_[s], x, shardParts_[s],
                                               shardContexts_[s]);
        chip_max = std::max(chip_max, r.stats.cycles);
        it.tasks += r.stats.tasks;
        it.rowsSwitched += r.stats.rowsSwitched;
        foldSpgemm(stats_, r.stats);

        // Dynamic halo: frontier entries this chip references (its shard
        // has non-zeros in that column) but does not own cross the link.
        Count halo_c = 0;
        for (Count p = x.colPtr()[0]; p < x.colPtr()[1]; ++p) {
            const Index u = x.rowId()[static_cast<std::size_t>(p)];
            if (chipPart_.owner(u) != c &&
                shards_[s].colNnz(u) > 0)
                halo_c += per_entry;
        }
        halo_total += halo_c;
        halo_floor = std::max(halo_floor, mem_.haloFloorCycles(halo_c));

        // Map the shard's local output rows back to global numbering.
        const std::vector<Index> &mine = chipPart_.rowsOf(c);
        for (Count p = r.c.colPtr()[0]; p < r.c.colPtr()[1]; ++p) {
            merged.emplace_back(
                mine[static_cast<std::size_t>(
                    r.c.rowId()[static_cast<std::size_t>(p)])],
                r.c.val()[static_cast<std::size_t>(p)]);
        }
    }

    it.cycles = chip_max;
    if (halo_floor > it.cycles) {
        ++stats_.scaleout.haloBoundRounds;
        it.cycles = halo_floor;
    }
    stats_.scaleout.haloBytes += halo_total;
    stats_.scaleout.haloCycles += halo_floor;
    stats_.traffic.haloBytes += halo_total;
    finishIteration(stats_, it);

    std::sort(merged.begin(), merged.end(),
              [](const auto &l, const auto &r) { return l.first < r.first; });
    return frontierVector(rows_, merged);
}

} // namespace awb::kernels
