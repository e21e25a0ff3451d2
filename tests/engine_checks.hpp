/**
 * @file
 * Exact structural check of the cycle engine's task delivery, shared by
 * the engine test suites. C is computed outside the timing loop, so a
 * value comparison no longer proves that every task reached a PE; this
 * check does.
 */

#pragma once

#include <gtest/gtest.h>

#include "accel/spmm_engine.hpp"

namespace awb {

/**
 * Every round of C = a × b (b with `cols` columns) executes each
 * non-zero of `a` exactly once. Under a configuration with no local
 * sharing and no row moves, each PE executes exactly the work of the
 * rows `part` assigns it, every round.
 */
inline void
expectExactDelivery(const CscMatrix &a, Index cols, const AccelConfig &cfg,
                    const RowPartition &part, const SpmmStats &stats)
{
    EXPECT_EQ(stats.tasks, a.nnz() * cols);
    if (cfg.rebalancing()) return;
    std::vector<Count> want = part.workload(a.rowNnz());
    for (Count &w : want) w *= cols;
    EXPECT_EQ(stats.perPeTasks, want);
}

} // namespace awb
