/**
 * @file
 * Row-to-PE ownership map — the state the Shuffling Switches (SS) and the
 * Remote Balancing Control Registers (RBCR) maintain in hardware (paper
 * Fig. 12). The initial assignment is the static equal partition of the
 * baseline (Fig. 6); dynamic remote switching rewrites entries between
 * rounds.
 */

#pragma once

#include <vector>

#include "accel/config.hpp"
#include "common/types.hpp"

namespace awb {

/** Ownership of sparse-operand rows (== result rows) by PEs. */
class RowPartition
{
  public:
    RowPartition() = default;

    /** Build the static initial mapping. */
    RowPartition(Index rows, int num_pes, RowMapPolicy policy);

    /** Adopt an explicit row→PE assignment (balance policies that
     *  compute the whole map at once). Every entry must be in
     *  [0, num_pes). */
    RowPartition(std::vector<int> owner, int num_pes);

    Index rows() const { return static_cast<Index>(owner_.size()); }
    int numPes() const { return numPes_; }

    int owner(Index row) const
    {
        return owner_[static_cast<std::size_t>(row)];
    }

    /** The full row→PE assignment vector. The batched cycle engine keys
     *  its round memoization on this (DESIGN.md §6). */
    const std::vector<int> &owners() const { return owner_; }

    /** Rows currently owned by PE p: ascending as built (every
     *  constructor appends rows in order) until a moveRow or swapRows
     *  appends a moved row at the end. */
    const std::vector<Index> &rowsOf(int pe) const
    {
        return rowsOf_[static_cast<std::size_t>(pe)];
    }

    /** Reassign one row to a new PE. */
    void moveRow(Index row, int to_pe);

    /** Swap ownership of two row sets between two PEs (remote switching). */
    void swapRows(const std::vector<Index> &from_hot,
                  const std::vector<Index> &from_cold, int hot_pe,
                  int cold_pe);

    /**
     * Per-PE workload given per-row task counts (one round's work):
     * W_p = sum of work[row] over rows owned by p.
     */
    std::vector<Count> workload(const std::vector<Count> &row_work) const;

    /** Structural check: rowsOf lists and owner vector agree. */
    bool consistent() const;

  private:
    int numPes_ = 0;
    std::vector<int> owner_;
    std::vector<std::vector<Index>> rowsOf_;
};

} // namespace awb
