/**
 * @file
 * Checks shared by the engine test suites: the exact structural check of
 * the cycle engine's task delivery (C is computed outside the timing
 * loop, so a value comparison no longer proves that every task reached a
 * PE; this check does) and the digest that recorded-schedule tests use.
 */

#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "accel/spmm_engine.hpp"

namespace awb {

/** FNV-1a over 64-bit words: a compact, order-sensitive digest for
 *  locking a recorded schedule or set of timing fields. */
struct Digest
{
    std::uint64_t h = 1469598103934665603ULL;

    void
    add(std::uint64_t v)
    {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xffU;
            h *= 1099511628211ULL;
        }
    }

    /** The length, then every element. */
    template <typename T>
    void
    addAll(const std::vector<T> &vs)
    {
        add(vs.size());
        for (const T &v : vs) add(static_cast<std::uint64_t>(v));
    }
};

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
