/**
 * @file
 * Dynamic-graph streaming tests (DESIGN.md §12): the churn stream's
 * determinism contract (same seed ⇒ byte-identical events, batched
 * draws == single draws), event validity against the live edge set,
 * DeltaCsr's rebuild equivalence (bit-identical CSR arrays vs a
 * from-scratch CsrMatrix::fromCoo build after every batch, through
 * relocations, compactions, whole-row deletions and rejected events),
 * the dynamic runner's determinism and fidelity-independent churn
 * trajectory, and the convergence half-life's churn-rate monotonicity.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "accel/policy.hpp"
#include "dynamic/churn.hpp"
#include "dynamic/delta_csr.hpp"
#include "dynamic/dynamic_runner.hpp"
#include "graph/datasets.hpp"
#include "sparse/convert.hpp"
#include "sparse/coo.hpp"

using namespace awb;
using namespace awb::dynamic;

namespace {

/** Scaled-down Cora: big enough to churn, small enough for ctest. */
CscMatrix
smallAdjacency(std::uint64_t seed = 7)
{
    return loadSyntheticAdjacency(findDataset("cora"), seed, 0.25);
}

std::uint64_t
packEdge(Index r, Index c)
{
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(r))
            << 32U) |
           static_cast<std::uint32_t>(c);
}

/** Live edge set of a CSR snapshot, keyed by packed (row, col). */
std::unordered_map<std::uint64_t, Value>
liveEdgeMap(const CsrMatrix &a)
{
    std::unordered_map<std::uint64_t, Value> live;
    for (Index r = 0; r < a.rows(); ++r) {
        for (Count k = a.rowPtr()[static_cast<std::size_t>(r)];
             k < a.rowPtr()[static_cast<std::size_t>(r) + 1]; ++k) {
            live.emplace(
                packEdge(r, a.colId()[static_cast<std::size_t>(k)]),
                a.val()[static_cast<std::size_t>(k)]);
        }
    }
    return live;
}

/** Apply one event to a live edge map (the reference implementation the
 *  DeltaCsr is checked against). */
void
applyToMap(std::unordered_map<std::uint64_t, Value> &live,
           const EdgeEvent &e)
{
    if (e.op == ChurnOp::Insert)
        live.emplace(packEdge(e.row, e.col), e.val);
    else
        live.erase(packEdge(e.row, e.col));
}

/** From-scratch rebuild of a live edge map as CSR. */
CsrMatrix
rebuildCsr(Index rows, Index cols,
           const std::unordered_map<std::uint64_t, Value> &live)
{
    CooMatrix coo(rows, cols);
    for (const auto &[key, val] : live)
        coo.add(static_cast<Index>(key >> 32U),
                static_cast<Index>(key & 0xffffffffU), val);
    return CsrMatrix::fromCoo(coo);
}

void
expectCsrEq(const CsrMatrix &a, const CsrMatrix &b)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    EXPECT_EQ(a.rowPtr(), b.rowPtr());
    EXPECT_EQ(a.colId(), b.colId());
    EXPECT_EQ(a.val(), b.val());
}

/** Tiny hand-built matrix for targeted DeltaCsr cases. */
CscMatrix
tinyMatrix()
{
    CooMatrix coo(6, 6);
    coo.add(0, 1, Value(1));
    coo.add(0, 3, Value(2));
    coo.add(2, 0, Value(3));
    coo.add(2, 5, Value(4));
    coo.add(4, 2, Value(5));
    return CscMatrix::fromCoo(coo);
}

} // namespace

// --------------------------------------------------------- churn stream

TEST(ChurnStream, SameSeedReplaysByteIdentically)
{
    const CscMatrix a = smallAdjacency();
    ChurnParams params;
    params.seed = 42;
    EdgeChurnStream s1(a, params);
    EdgeChurnStream s2(a, params);
    std::vector<EdgeEvent> e1, e2;
    for (int i = 0; i < 600; ++i) e1.push_back(s1.next());
    for (int i = 0; i < 600; ++i) e2.push_back(s2.next());
    EXPECT_EQ(e1, e2);
    EXPECT_EQ(s1.liveEdges(), s2.liveEdges());

    params.seed = 43;
    EdgeChurnStream s3(a, params);
    std::vector<EdgeEvent> e3;
    for (int i = 0; i < 600; ++i) e3.push_back(s3.next());
    EXPECT_NE(e1, e3);  // a different seed must change the stream
}

TEST(ChurnStream, BatchedDrawsMatchSingleDraws)
{
    const CscMatrix a = smallAdjacency();
    ChurnParams params;
    params.seed = 9;
    EdgeChurnStream single(a, params);
    EdgeChurnStream batched(a, params);

    std::vector<EdgeEvent> one_by_one;
    for (int i = 0; i < 504; ++i) one_by_one.push_back(single.next());

    // Uneven batch sizes: the split points must not matter.
    std::vector<EdgeEvent> concatenated;
    for (Count n : {1, 7, 64, 129, 3, 300}) {
        std::vector<EdgeEvent> b = batched.nextBatch(n);
        ASSERT_EQ(static_cast<Count>(b.size()), n);
        concatenated.insert(concatenated.end(), b.begin(), b.end());
    }
    EXPECT_EQ(one_by_one, concatenated);
}

TEST(ChurnStream, EventsAreValidAgainstTheLiveSet)
{
    const CscMatrix a = smallAdjacency();
    ChurnParams params;
    params.seed = 3;
    params.insertFrac = 0.6;
    EdgeChurnStream stream(a, params);

    std::unordered_map<std::uint64_t, Value> live =
        liveEdgeMap(cscToCsr(a));
    Count prev_time = -1;
    for (const EdgeEvent &e : stream.nextBatch(800)) {
        EXPECT_GT(e.time, prev_time);  // strictly increasing timestamps
        prev_time = e.time;
        ASSERT_GE(e.row, 0);
        ASSERT_LT(e.row, a.rows());
        ASSERT_GE(e.col, 0);
        ASSERT_LT(e.col, a.cols());
        const auto it = live.find(packEdge(e.row, e.col));
        if (e.op == ChurnOp::Insert) {
            EXPECT_EQ(it, live.end());  // inserts are never duplicates
            EXPECT_NE(e.row, e.col);    // no self-loops by default
        } else {
            EXPECT_NE(it, live.end());  // deletes name a live edge
        }
        applyToMap(live, e);
    }
    EXPECT_EQ(stream.liveEdges(), static_cast<Count>(live.size()));
}

TEST(ChurnStream, DeleteOnlyStreamDrainsThenDegradesToInserts)
{
    const CscMatrix a = tinyMatrix();
    ChurnParams params;
    params.insertFrac = 0.0;
    EdgeChurnStream stream(a, params);
    for (Count i = 0; i < a.nnz(); ++i)
        EXPECT_EQ(stream.next().op, ChurnOp::Delete);
    EXPECT_EQ(stream.liveEdges(), 0);
    // The only valid mutation of an empty edge set is an insert.
    EXPECT_EQ(stream.next().op, ChurnOp::Insert);
    EXPECT_EQ(stream.liveEdges(), 1);
}

// ------------------------------------------------------------- DeltaCsr

TEST(DeltaCsr, MatchesFromScratchRebuildAfterEveryBatch)
{
    const CscMatrix a = smallAdjacency();
    ChurnParams params;
    params.seed = 11;
    EdgeChurnStream stream(a, params);
    DeltaCsr delta(a);
    std::unordered_map<std::uint64_t, Value> live =
        liveEdgeMap(cscToCsr(a));

    for (int batch = 0; batch < 12; ++batch) {
        SCOPED_TRACE("batch " + std::to_string(batch));
        const std::vector<EdgeEvent> events = stream.nextBatch(64);
        const Count applied = delta.apply(events);
        EXPECT_EQ(applied, static_cast<Count>(events.size()));
        for (const EdgeEvent &e : events) applyToMap(live, e);

        const CsrMatrix snapshot = delta.toCsr();
        expectCsrEq(snapshot, rebuildCsr(a.rows(), a.cols(), live));
        EXPECT_EQ(delta.nnz(), static_cast<Count>(live.size()));
        // rowNnz() is the same row-work vector the snapshot implies.
        for (Index r = 0; r < a.rows(); ++r)
            ASSERT_EQ(delta.rowNnz()[static_cast<std::size_t>(r)],
                      snapshot.rowNnz(r));
    }
    EXPECT_EQ(delta.stats().rejected, 0);
}

TEST(DeltaCsr, DuplicateInsertAndAbsentDeleteAreRejected)
{
    DeltaCsr delta(tinyMatrix());
    const CsrMatrix before = delta.toCsr();
    EXPECT_FALSE(delta.insert(0, 1, Value(9)));  // already present
    EXPECT_FALSE(delta.erase(5, 5));             // never present
    EXPECT_EQ(delta.stats().rejected, 2);
    EXPECT_EQ(delta.nnz(), before.nnz());
    expectCsrEq(delta.toCsr(), before);  // rejections change nothing
}

TEST(DeltaCsr, DeletingAWholeRowLeavesAnEmptyRow)
{
    const CscMatrix a = tinyMatrix();
    DeltaCsr delta(a);
    std::unordered_map<std::uint64_t, Value> live =
        liveEdgeMap(cscToCsr(a));

    // Row 2 has two edges; remove them all.
    EXPECT_TRUE(delta.erase(2, 0));
    EXPECT_TRUE(delta.erase(2, 5));
    live.erase(packEdge(2, 0));
    live.erase(packEdge(2, 5));
    EXPECT_EQ(delta.rowNnz()[2], 0);
    expectCsrEq(delta.toCsr(), rebuildCsr(a.rows(), a.cols(), live));

    // The row is re-insertable after being emptied.
    EXPECT_TRUE(delta.insert(2, 4, Value(7)));
    live.emplace(packEdge(2, 4), Value(7));
    expectCsrEq(delta.toCsr(), rebuildCsr(a.rows(), a.cols(), live));
}

TEST(DeltaCsr, RelocationAndCompactionPreserveRebuildEquivalence)
{
    const CscMatrix a = tinyMatrix();
    DeltaCsr delta(a);
    std::unordered_map<std::uint64_t, Value> live =
        liveEdgeMap(cscToCsr(a));

    // Grow one row far past its seeded capacity: every doubling is a
    // relocation to the arena tail.
    CooMatrix grown(6, 200);
    for (const auto &[key, val] : live)
        grown.add(static_cast<Index>(key >> 32U),
                  static_cast<Index>(key & 0xffffffffU), val);
    DeltaCsr wide(CscMatrix::fromCoo(grown));
    std::unordered_map<std::uint64_t, Value> wide_live = live;
    for (Index c = 0; c < 120; ++c) {
        if (wide_live.count(packEdge(0, c)) != 0U) continue;
        ASSERT_TRUE(wide.insert(0, c, Value(c)));
        wide_live.emplace(packEdge(0, c), Value(c));
    }
    EXPECT_GT(wide.stats().relocations, 0);
    expectCsrEq(wide.toCsr(), rebuildCsr(6, 200, wide_live));

    // Now delete most of it: dead + slack slots outnumber live
    // non-zeros and the arena compacts.
    for (Index c = 0; c < 120; ++c) {
        const auto it = wide_live.find(packEdge(0, c));
        if (it == wide_live.end()) continue;
        ASSERT_TRUE(wide.erase(0, c));
        wide_live.erase(it);
    }
    EXPECT_GT(wide.stats().compactions, 0);
    EXPECT_LT(wide.slackRatio(), 1.0);
    expectCsrEq(wide.toCsr(), rebuildCsr(6, 200, wide_live));
}

TEST(DeltaCsr, SelfLoopsAreOrdinaryCoordinates)
{
    DeltaCsr delta(tinyMatrix());
    EXPECT_TRUE(delta.insert(3, 3, Value(1)));
    EXPECT_FALSE(delta.insert(3, 3, Value(1)));  // now a duplicate
    EXPECT_TRUE(delta.erase(3, 3));
}

TEST(DeltaCsr, CscSnapshotMatchesCsrConversion)
{
    const CscMatrix a = smallAdjacency();
    ChurnParams params;
    params.seed = 5;
    EdgeChurnStream stream(a, params);
    DeltaCsr delta(a);
    delta.apply(stream.nextBatch(300));

    const CscMatrix direct = delta.toCsc();
    const CscMatrix via_csr = csrToCsc(delta.toCsr());
    EXPECT_EQ(direct.colPtr(), via_csr.colPtr());
    EXPECT_EQ(direct.rowId(), via_csr.rowId());
    EXPECT_EQ(direct.val(), via_csr.val());
}

TEST(DeltaCsr, SingleEventsAndBatchesReachTheSameMatrix)
{
    const CscMatrix a = smallAdjacency();
    ChurnParams params;
    params.seed = 21;
    EdgeChurnStream s1(a, params);
    EdgeChurnStream s2(a, params);

    DeltaCsr one_by_one(a);
    for (int i = 0; i < 400; ++i) {
        const EdgeEvent e = s1.next();
        if (e.op == ChurnOp::Insert)
            EXPECT_TRUE(one_by_one.insert(e.row, e.col, e.val));
        else
            EXPECT_TRUE(one_by_one.erase(e.row, e.col));
    }
    DeltaCsr batched(a);
    batched.apply(s2.nextBatch(400));
    expectCsrEq(one_by_one.toCsr(), batched.toCsr());
}

// ------------------------------------------------------- dynamic runner

TEST(DynamicRunner, IdenticalRunsAreDeterministic)
{
    const CscMatrix a = smallAdjacency();
    const AccelConfig cfg = makePolicyConfig("work-steal", 32);
    ChurnParams churn;
    churn.seed = 2;
    DynamicOptions opts;
    opts.epochs = 4;
    opts.eventsPerEpoch = 64;
    opts.denseCols = 4;
    opts.fidelity = DynamicFidelity::Model;

    const DynamicRunStats s1 = runChurnGcn(cfg, a, churn, opts);
    const DynamicRunStats s2 = runChurnGcn(cfg, a, churn, opts);
    EXPECT_EQ(s1.cycles, s2.cycles);
    EXPECT_EQ(s1.tasks, s2.tasks);
    EXPECT_EQ(s1.rowsSwitched, s2.rowsSwitched);
    EXPECT_EQ(s1.halfLifeEpochs, s2.halfLifeEpochs);
    ASSERT_EQ(s1.epochs.size(), s2.epochs.size());
    for (std::size_t i = 0; i < s1.epochs.size(); ++i) {
        EXPECT_EQ(s1.epochs[i].cycles, s2.epochs[i].cycles);
        EXPECT_EQ(s1.epochs[i].freshCycles, s2.epochs[i].freshCycles);
    }
}

// DynamicRunner builds its partition before validating the config, so
// the partition's own check must refuse a bad PE count cleanly.
TEST(DynamicRunnerDeath, NegativePeCountIsRefused)
{
    const CscMatrix a = smallAdjacency();
    AccelConfig cfg = makePolicyConfig("baseline", 8);
    cfg.numPes = -1;
    EXPECT_EXIT(DynamicRunner(cfg, a, ChurnParams{}, DynamicOptions{}),
                ::testing::ExitedWithCode(1), "must be positive");
}

TEST(DynamicRunner, ModelAndCycleShareTheChurnTrajectory)
{
    const CscMatrix a = smallAdjacency();
    const AccelConfig cfg = makePolicyConfig("work-steal", 32);
    ChurnParams churn;
    churn.seed = 4;
    DynamicOptions opts;
    opts.epochs = 3;
    opts.eventsPerEpoch = 64;
    opts.denseCols = 4;

    opts.fidelity = DynamicFidelity::Cycle;
    const DynamicRunStats cycle = runChurnGcn(cfg, a, churn, opts);
    opts.fidelity = DynamicFidelity::Model;
    const DynamicRunStats model = runChurnGcn(cfg, a, churn, opts);

    // Epoch boundaries are fidelity-independent: the churn batches,
    // row-work deltas, and boundary-policy migrations must agree even
    // though cycle counts differ.
    ASSERT_EQ(cycle.epochs.size(), model.epochs.size());
    for (std::size_t i = 0; i < cycle.epochs.size(); ++i) {
        SCOPED_TRACE("epoch " + std::to_string(i));
        EXPECT_EQ(cycle.epochs[i].inserts, model.epochs[i].inserts);
        EXPECT_EQ(cycle.epochs[i].deletes, model.epochs[i].deletes);
        EXPECT_EQ(cycle.epochs[i].nnz, model.epochs[i].nnz);
        EXPECT_EQ(cycle.epochs[i].rowsChanged,
                  model.epochs[i].rowsChanged);
        EXPECT_EQ(cycle.epochs[i].rowsMoved, model.epochs[i].rowsMoved);
    }
    EXPECT_EQ(cycle.roundsSimulated > 0, true);
    EXPECT_EQ(model.roundsSimulated, 0);
}

TEST(DynamicRunner, BaselineNeverDrifts)
{
    const CscMatrix a = smallAdjacency();
    const AccelConfig cfg = makePolicyConfig("baseline", 32);
    ChurnParams churn;
    churn.seed = 6;
    DynamicOptions opts;
    opts.epochs = 4;
    opts.eventsPerEpoch = 128;
    opts.denseCols = 4;
    opts.fidelity = DynamicFidelity::Model;

    // The baseline's carried and fresh partitions are the same static
    // blocked map, so drift is exactly zero and the half-life never
    // triggers — the anchor row of the bench table.
    const DynamicRunStats s = runChurnGcn(cfg, a, churn, opts);
    EXPECT_EQ(s.halfLifeEpochs, -1);
    EXPECT_EQ(s.rowsSwitched, 0);
    for (const DynamicEpoch &e : s.epochs) {
        EXPECT_EQ(e.cycles, e.freshCycles);
        EXPECT_DOUBLE_EQ(e.drift, 0.0);
    }
}

TEST(DynamicRunner, HalfLifeShrinksWithChurnRate)
{
    // A frozen work-steal map on a wide array ages with accumulated
    // churn; heavier growth-dominated churn must reach the drift
    // tolerance no later than lighter churn. "Never" (−1) is encoded
    // as epochs + 1 so it orders after every finite half-life.
    const CscMatrix a =
        loadSyntheticAdjacency(findDataset("cora"), 1, 1.0);
    const AccelConfig cfg = makePolicyConfig("work-steal", 256);
    DynamicOptions opts;
    opts.epochs = 10;
    opts.denseCols = 4;
    opts.fidelity = DynamicFidelity::Model;

    auto halfLife = [&](Count events_per_epoch) {
        ChurnParams churn;
        churn.seed = 1;
        churn.insertFrac = 0.9;
        DynamicOptions o = opts;
        o.eventsPerEpoch = events_per_epoch;
        const DynamicRunStats s = runChurnGcn(cfg, a, churn, o);
        return s.halfLifeEpochs < 0 ? opts.epochs + 1 : s.halfLifeEpochs;
    };

    const Count light = halfLife(256);
    const Count heavy = halfLife(2048);
    EXPECT_LE(heavy, light);
    EXPECT_LE(heavy, opts.epochs);  // heavy churn must actually trigger
}
