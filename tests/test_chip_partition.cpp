/**
 * @file
 * Chip-ownership tests (DESIGN.md §9): the row→chip RowPartition that
 * chipOwners builds and the shard functions over it. Shard extraction
 * when chips outnumber rows (empty shards), single-row shards, non-zero
 * coverage across shards, halo-row sanity — the boundary shapes the
 * frontier kernels (DESIGN.md §11) shard through — and the ascending
 * rowsOf order extractRows renumbers by, for every registered policy.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <string>

#include "accel/policy.hpp"
#include "accel/scaleout.hpp"
#include "sparse/coo.hpp"

using namespace awb;

namespace {

CscMatrix
smallMatrix(Index rows, Index cols)
{
    CooMatrix coo(rows, cols);
    for (Index r = 0; r < rows; ++r)
        for (Index c = 0; c < cols; c += 2)
            coo.add(r, (c + r) % cols, static_cast<Value>(r + 1));
    return CscMatrix::fromCoo(coo);
}

} // namespace

TEST(ChipPartition, EmptyShardsWhenChipsExceedRows)
{
    CscMatrix a = smallMatrix(3, 5);
    AccelConfig cfg = makePolicyConfig("baseline", 8, 1);
    cfg.chips = 8;
    RowPartition part = chipOwners(cfg, a.rows(), a.rowNnz());

    int empty = 0;
    Index covered = 0;
    for (int c = 0; c < part.numPes(); ++c) {
        const auto &rows = part.rowsOf(c);
        covered += static_cast<Index>(rows.size());
        if (!rows.empty()) continue;
        ++empty;
        // An empty shard extracts a valid 0×cols matrix and an empty
        // work slice — the degenerate shapes FrontierRunner skips.
        CscMatrix shard = extractRows(part, a, c);
        EXPECT_EQ(shard.rows(), 0);
        EXPECT_EQ(shard.cols(), a.cols());
        EXPECT_EQ(shard.nnz(), 0);
        EXPECT_TRUE(shard.valid());
        EXPECT_TRUE(extractWork(part, a.rowNnz(), c).empty());
    }
    EXPECT_GE(empty, 5);  // at most 3 of 8 shards can own a row
    EXPECT_EQ(covered, a.rows());
}

TEST(ChipPartition, SingleRowShards)
{
    CscMatrix a = smallMatrix(4, 4);
    AccelConfig cfg = makePolicyConfig("baseline", 4, 1);
    cfg.chips = 4;
    RowPartition part = chipOwners(cfg, a.rows(), a.rowNnz());

    const std::vector<Count> row_work = a.rowNnz();
    Count nnz_covered = 0;
    for (int c = 0; c < part.numPes(); ++c) {
        ASSERT_EQ(part.rowsOf(c).size(), 1u) << c;
        const Index global = part.rowsOf(c)[0];
        EXPECT_EQ(part.owner(global), c);

        CscMatrix shard = extractRows(part, a, c);
        EXPECT_EQ(shard.rows(), 1);
        EXPECT_EQ(shard.cols(), a.cols());
        EXPECT_TRUE(shard.valid());
        EXPECT_EQ(shard.nnz(),
                  row_work[static_cast<std::size_t>(global)]);
        nnz_covered += shard.nnz();

        std::vector<Count> work = extractWork(part, row_work, c);
        ASSERT_EQ(work.size(), 1u);
        EXPECT_EQ(work[0], row_work[static_cast<std::size_t>(global)]);
    }
    // Every non-zero of the original lands in exactly one shard.
    EXPECT_EQ(nnz_covered, a.nnz());
    EXPECT_EQ(chipImbalance(part, row_work), 1.0);
}

TEST(ChipPartition, HaloRowsZeroUnshardedAndRectangular)
{
    CscMatrix square = smallMatrix(6, 6);
    AccelConfig one = makePolicyConfig("baseline", 4, 1);
    one.chips = 1;
    RowPartition p1 = chipOwners(one, square.rows(), square.rowNnz());
    for (Count h : haloRows(p1, square)) EXPECT_EQ(h, 0);

    // Rectangular operand: the dense operand is replicated, no halo.
    CscMatrix rect = smallMatrix(6, 4);
    AccelConfig two = makePolicyConfig("baseline", 4, 1);
    two.chips = 2;
    RowPartition p2 = chipOwners(two, rect.rows(), rect.rowNnz());
    for (Count h : haloRows(p2, rect)) EXPECT_EQ(h, 0);

    // Square sharded operand with cross-chip references has a halo.
    RowPartition p3 = chipOwners(two, square.rows(), square.rowNnz());
    std::vector<Count> halo = haloRows(p3, square);
    EXPECT_GT(std::accumulate(halo.begin(), halo.end(), Count(0)), 0);
}

// extractRows renumbers a chip's rows in rowsOf order and relies on it
// ascending; chipOwners builds through the RowPartition constructors,
// which append rows in order, and no row of a chip map ever moves.
TEST(ChipPartition, FreshOwnershipListsRowsAscendingForEveryPolicy)
{
    // Skewed row work, so the load-aware policies cut unevenly.
    std::vector<Count> row_work(37);
    for (std::size_t r = 0; r < row_work.size(); ++r)
        row_work[r] = static_cast<Count>((r * 7) % 11 + (r % 5 == 0 ? 40 : 1));
    const Index rows = static_cast<Index>(row_work.size());
    for (const BalancePolicy *policy : PolicyRegistry::instance().all()) {
        for (int chips : {1, 2, 3, 8}) {
            AccelConfig cfg = makePolicyConfig(policy->name, 8, 1);
            cfg.chips = chips;
            RowPartition part = chipOwners(cfg, rows, row_work);
            const std::string what =
                policy->name + " chips " + std::to_string(chips);
            ASSERT_EQ(part.numPes(), chips) << what;
            ASSERT_EQ(part.rows(), rows) << what;
            Index listed = 0;
            for (int c = 0; c < chips; ++c) {
                const std::vector<Index> &mine = part.rowsOf(c);
                EXPECT_EQ(std::adjacent_find(mine.begin(), mine.end(),
                                             std::greater_equal<Index>()),
                          mine.end())
                    << what << " chip " << c;
                for (Index r : mine)
                    EXPECT_EQ(part.owners()[static_cast<std::size_t>(r)], c)
                        << what << " row " << r;
                listed += static_cast<Index>(mine.size());
            }
            EXPECT_EQ(listed, rows) << what;
        }
    }
}
