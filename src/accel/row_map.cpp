#include "accel/row_map.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace awb {

RowPartition::RowPartition(Index rows, int num_pes, RowMapPolicy policy)
    : numPes_(num_pes)
{
    // Check before sizing: a negative count would otherwise throw
    // std::length_error from the vector constructor.
    if (rows <= 0 || num_pes <= 0)
        fatal("RowPartition: rows and PEs must be positive");
    owner_.resize(static_cast<std::size_t>(rows));
    rowsOf_.resize(static_cast<std::size_t>(num_pes));
    // Blocked: contiguous blocks as in paper Fig. 6, with the remainder
    // spread one row each over the first (rows % numPes) PEs so every PE
    // owns either floor or ceil rows (a ceil-sized block for everyone
    // would leave trailing PEs with no rows at all).
    const Index base = rows / num_pes;
    const Index extra = rows % num_pes;
    // Both policies give PE p the same row count, so each list is sized
    // once up front.
    for (int p = 0; p < num_pes; ++p)
        rowsOf_[static_cast<std::size_t>(p)].reserve(
            static_cast<std::size_t>(base + (p < extra ? 1 : 0)));
    Index next_row = 0;
    for (int p = 0; p < num_pes; ++p) {
        Index count = (policy == RowMapPolicy::Blocked)
            ? base + (p < extra ? 1 : 0)
            : 0;
        for (Index i = 0; i < count; ++i) {
            owner_[static_cast<std::size_t>(next_row)] = p;
            rowsOf_[static_cast<std::size_t>(p)].push_back(next_row);
            ++next_row;
        }
    }
    if (policy == RowMapPolicy::Cyclic) {
        for (Index r = 0; r < rows; ++r) {
            int pe = static_cast<int>(r % num_pes);
            owner_[static_cast<std::size_t>(r)] = pe;
            rowsOf_[static_cast<std::size_t>(pe)].push_back(r);
        }
    }
}

RowPartition::RowPartition(std::vector<int> owner, int num_pes)
    : numPes_(num_pes), owner_(std::move(owner))
{
    if (owner_.empty() || num_pes <= 0)
        fatal("RowPartition: rows and PEs must be positive");
    std::vector<std::size_t> count(static_cast<std::size_t>(num_pes), 0);
    for (int pe : owner_) {
        if (pe < 0 || pe >= num_pes)
            fatal("RowPartition: owner entry out of range");
        ++count[static_cast<std::size_t>(pe)];
    }
    rowsOf_.resize(static_cast<std::size_t>(num_pes));
    for (std::size_t p = 0; p < count.size(); ++p)
        rowsOf_[p].reserve(count[p]);
    for (std::size_t r = 0; r < owner_.size(); ++r)
        rowsOf_[static_cast<std::size_t>(owner_[r])].push_back(
            static_cast<Index>(r));
}

void
RowPartition::moveRow(Index row, int to_pe)
{
    int from = owner_[static_cast<std::size_t>(row)];
    if (from == to_pe) return;
    auto &v = rowsOf_[static_cast<std::size_t>(from)];
    v.erase(std::find(v.begin(), v.end(), row));
    rowsOf_[static_cast<std::size_t>(to_pe)].push_back(row);
    owner_[static_cast<std::size_t>(row)] = to_pe;
}

void
RowPartition::swapRows(const std::vector<Index> &from_hot,
                       const std::vector<Index> &from_cold, int hot_pe,
                       int cold_pe)
{
    for (Index r : from_hot) {
        if (owner(r) != hot_pe)
            panic("swapRows: row not owned by hotspot PE");
        moveRow(r, cold_pe);
    }
    for (Index r : from_cold) {
        if (owner(r) != cold_pe)
            panic("swapRows: row not owned by coldspot PE");
        moveRow(r, hot_pe);
    }
}

std::vector<Count>
RowPartition::workload(const std::vector<Count> &row_work) const
{
    std::vector<Count> w(static_cast<std::size_t>(numPes_), 0);
    for (std::size_t r = 0; r < owner_.size(); ++r)
        w[static_cast<std::size_t>(owner_[r])] += row_work[r];
    return w;
}

bool
RowPartition::consistent() const
{
    std::size_t total = 0;
    for (int p = 0; p < numPes_; ++p) {
        for (Index r : rowsOf_[static_cast<std::size_t>(p)]) {
            if (owner_[static_cast<std::size_t>(r)] != p) return false;
        }
        total += rowsOf_[static_cast<std::size_t>(p)].size();
    }
    return total == owner_.size();
}

} // namespace awb
