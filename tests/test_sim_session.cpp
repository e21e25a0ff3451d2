/**
 * @file
 * Session executor tests: bit-for-bit equivalence against the original
 * hand-rolled pre-Session orchestration (re-implemented here as the
 * golden reference) on Cora and Citeseer for all six designs, functional
 * exactness of the GraphSAGE/GIN/k-hop factories against the dense
 * reference interpreter, automatic row-map carrying, StatsSink delivery,
 * and pipelineCyclesMulti edge cases.
 */

#include <gtest/gtest.h>

#include "accel/gcn_accel.hpp"
#include "accel/policy.hpp"
#include "accel/spmm_engine.hpp"
#include "gcn/model.hpp"
#include "gcn/reference.hpp"
#include "graph/datasets.hpp"
#include "sim/factories.hpp"
#include "sim/session.hpp"
#include "sparse/convert.hpp"

using namespace awb;

namespace {

/**
 * The pre-Session hand-rolled GCN orchestration, verbatim (manual
 * per-layer partitions, hand-carried adjacency map, explicit pipeline
 * combination). The Session must reproduce its numbers bit for bit.
 */
GcnRunResult
legacyReferenceRun(const AccelConfig &cfg, const Dataset &ds,
                   const GcnModel &model)
{
    const Index n = ds.adjacency.rows();
    GcnRunResult res;
    RowPartition part_a(n, cfg.numPes, cfg.mapPolicy);
    CscMatrix x_csc = csrToCsc(ds.features);
    SpmmEngine engine(cfg);

    for (Index l = 0; l < model.layers(); ++l) {
        const DenseMatrix &w = model.weights[static_cast<std::size_t>(l)];
        GcnLayerResult layer;

        RowPartition part_x(n, cfg.numPes, cfg.mapPolicy);
        SpmmResult xw =
            engine.execute(x_csc, w, TdqKind::Tdq1DenseScan, part_x);
        layer.xw = std::move(xw.stats);

        SpmmResult ax = engine.execute(ds.adjacency, xw.c,
                                       TdqKind::Tdq2OmegaCsc, part_a);
        layer.ax = std::move(ax.stats);
        DenseMatrix z = std::move(ax.c);

        for (Index h = 1; h < model.adjHops; ++h) {
            SpmmResult hop = engine.execute(ds.adjacency, z,
                                            TdqKind::Tdq2OmegaCsc, part_a);
            z = std::move(hop.c);
            layer.extraHops.push_back(std::move(hop.stats));
        }

        std::vector<const std::vector<Cycle> *> stages = {
            &layer.xw.roundCycles, &layer.ax.roundCycles};
        for (const auto &hop : layer.extraHops)
            stages.push_back(&hop.roundCycles);
        layer.pipelinedCycles = pipelineCyclesMulti(stages);
        res.totalCycles += layer.pipelinedCycles;
        res.totalCyclesSerial += layer.xw.cycles + layer.ax.cycles;
        res.totalTasks += layer.xw.tasks + layer.ax.tasks;
        for (const auto &hop : layer.extraHops) {
            res.totalCyclesSerial += hop.cycles;
            res.totalTasks += hop.tasks;
        }
        res.layers.push_back(std::move(layer));

        bool last = (l == model.layers() - 1);
        if (!last) {
            z.relu();
            x_csc = denseToCsc(z);
        } else {
            res.output = std::move(z);
        }
    }

    res.utilization = res.totalCyclesSerial > 0
        ? static_cast<double>(res.totalTasks) /
          (static_cast<double>(cfg.numPes) *
           static_cast<double>(res.totalCyclesSerial))
        : 0.0;
    return res;
}

} // namespace

/** Session vs legacy orchestration on Cora and Citeseer, all six designs. */
class SessionVsLegacy
    : public ::testing::TestWithParam<std::tuple<const char *, std::string>>
{};

TEST_P(SessionVsLegacy, BitIdenticalCyclesAndUtilization)
{
    auto [name, design] = GetParam();
    auto ds = loadSyntheticByName(name, 31, 0.04);
    auto model = makeGcnModel(ds.spec.f1, ds.spec.f2, ds.spec.f3, 31);
    model.adjHops = 2;  // exercise the multi-hop chain too

    AccelConfig cfg = makePolicyConfig(design, 16);
    GcnRunResult legacy = legacyReferenceRun(cfg, ds, model);
    GcnRunResult session = runGcn(cfg, ds, model);

    EXPECT_EQ(session.totalCycles, legacy.totalCycles);
    EXPECT_EQ(session.totalCyclesSerial, legacy.totalCyclesSerial);
    EXPECT_EQ(session.totalTasks, legacy.totalTasks);
    EXPECT_EQ(session.utilization, legacy.utilization);  // same bits
    EXPECT_EQ(session.output.maxAbsDiff(legacy.output), 0.0);

    ASSERT_EQ(session.layers.size(), legacy.layers.size());
    for (std::size_t l = 0; l < legacy.layers.size(); ++l) {
        EXPECT_EQ(session.layers[l].pipelinedCycles,
                  legacy.layers[l].pipelinedCycles);
        EXPECT_EQ(session.layers[l].xw.cycles, legacy.layers[l].xw.cycles);
        EXPECT_EQ(session.layers[l].ax.cycles, legacy.layers[l].ax.cycles);
        EXPECT_EQ(session.layers[l].ax.rowsSwitched,
                  legacy.layers[l].ax.rowsSwitched);
        ASSERT_EQ(session.layers[l].extraHops.size(),
                  legacy.layers[l].extraHops.size());
        for (std::size_t h = 0; h < legacy.layers[l].extraHops.size(); ++h)
            EXPECT_EQ(session.layers[l].extraHops[h].cycles,
                      legacy.layers[l].extraHops[h].cycles);
    }
}

INSTANTIATE_TEST_SUITE_P(
    CoraCiteseerAllDesigns, SessionVsLegacy,
    ::testing::Combine(::testing::Values("cora", "citeseer"),
                       ::testing::Values(std::string("baseline"),
                                         std::string("local-a"),
                                         std::string("local-b"),
                                         std::string("remote-c"),
                                         std::string("remote-d"),
                                         std::string("eie-like"))));

TEST(PipelineMultiEdge, EmptyStageListIsZero)
{
    EXPECT_EQ(pipelineCyclesMulti({}), 0);
}

TEST(PipelineMultiEdge, ZeroRoundStagesAreZero)
{
    std::vector<Cycle> empty;
    EXPECT_EQ(pipelineCyclesMulti({&empty, &empty}), 0);
}

TEST(PipelineMultiEdge, SingleColumnIsSerialSum)
{
    // With one column there is nothing to overlap: every stage waits for
    // its predecessor, so the delay is the plain sum.
    std::vector<Cycle> s1 = {7};
    std::vector<Cycle> s2 = {11};
    std::vector<Cycle> s3 = {2};
    EXPECT_EQ(pipelineCyclesMulti({&s1, &s2, &s3}), 20);
}

TEST(PipelineMultiEdgeDeath, UnequalRoundCountsPanic)
{
    std::vector<Cycle> s1 = {1, 2, 3};
    std::vector<Cycle> s2 = {1, 2};
    EXPECT_DEATH(pipelineCyclesMulti({&s1, &s2}), "round counts differ");
}

/** Each factory's cycle-accurate output must match the dense reference. */
class FactoryFunctional : public ::testing::TestWithParam<const char *>
{};

TEST_P(FactoryFunctional, ExactAgainstDenseReference)
{
    std::string which = GetParam();
    auto ds = loadSyntheticByName("cora", 33, 0.05);
    GcnModel model = makeGcnModel(ds.spec.f1, ds.spec.f2, ds.spec.f3, 33);

    sim::WorkloadBundle bundle;
    if (which == "graphsage-mean")
        bundle = sim::buildGraphSage(ds, ds.spec.f2, ds.spec.f3, true, 33);
    else if (which == "graphsage-concat")
        bundle = sim::buildGraphSage(ds, ds.spec.f2, ds.spec.f3, false, 33);
    else if (which == "gin")
        bundle = sim::buildGin(ds, ds.spec.f2, ds.spec.f3, 0.1, 33);
    else
        bundle = sim::buildMultiHopGcn(ds, model, 3);

    sim::Session session(makePolicyConfig("remote-d", 16));
    sim::SessionResult res = sim::runWorkload(session, bundle);
    DenseMatrix golden = sim::referenceEval(bundle);

    ASSERT_TRUE(res.output.sameShape(golden));
    EXPECT_LT(res.output.maxAbsDiff(golden), 1e-3);
    EXPECT_GT(res.totalTasks, 0);
    EXPECT_LE(res.totalCycles, res.totalCyclesSerial);
}

INSTANTIATE_TEST_SUITE_P(Zoo, FactoryFunctional,
                         ::testing::Values("graphsage-mean",
                                           "graphsage-concat", "gin",
                                           "khop"));

TEST(Session, GcnMatchesGoldenInference)
{
    auto ds = loadSyntheticByName("citeseer", 34, 0.04);
    auto model = makeGcnModel(ds.spec.f1, ds.spec.f2, ds.spec.f3, 34);
    auto golden = inferGcn(ds, model);

    sim::Session session(makePolicyConfig("remote-d", 16));
    auto res = sim::runWorkload(session, sim::buildGcn(ds, model));
    EXPECT_LT(res.output.maxAbsDiff(golden.output), 1e-3);
}

TEST(Session, CarriesRowMapPerSparseOperand)
{
    auto ds = loadSyntheticByName("nell", 35, 0.03);
    auto model = makeGcnModel(ds.spec.f1, ds.spec.f2, ds.spec.f3, 35);
    sim::WorkloadBundle bundle = sim::buildGcn(ds, model);

    sim::Session session(makePolicyConfig("remote-d", 16, 2));
    EXPECT_EQ(session.rowMap("A"), nullptr);
    sim::SessionResult first = sim::runWorkload(session, bundle);
    ASSERT_NE(session.rowMap("A"), nullptr);
    EXPECT_TRUE(session.rowMap("A")->consistent());

    // The adjacency map tuned in layer 1 is carried into layer 2: layer
    // 2's first A-round must not be slower than layer 1's untuned start.
    const SpmmStats &l1_ax = first.nodeStats[1];
    const SpmmStats &l2_ax = first.nodeStats[3];
    ASSERT_FALSE(l1_ax.roundCycles.empty());
    ASSERT_FALSE(l2_ax.roundCycles.empty());
    EXPECT_LE(l2_ax.roundCycles.front(),
              l1_ax.roundCycles.front() + l1_ax.roundCycles.front() / 10);

    // And it persists across run() calls: rebinding the same operand
    // structure (runWorkload on the same bundle) keeps the tuned map, so
    // a second inference's layer-1 A-SPMM needs no further switching.
    sim::SessionResult second = sim::runWorkload(session, bundle);
    EXPECT_LE(second.nodeStats[1].rowsSwitched,
              first.nodeStats[1].rowsSwitched);
    EXPECT_LE(second.nodeStats[1].roundCycles.front(),
              first.nodeStats[1].roundCycles.front());
}

TEST(Session, DenseBoundLeftOperandWorks)
{
    // A dense-bound tensor consumed as the left (zero-skipped, scanned)
    // operand of a DenseMm: the Session sparsifies it on the fly.
    Rng rng(40);
    DenseMatrix x(24, 12), w(12, 6);
    x.fillUniform(rng, -1.0f, 1.0f);
    w.fillUniform(rng, -1.0f, 1.0f);

    sim::WorkloadBuilder b;
    auto c = b.denseMm(b.input("X"), b.input("W"));
    sim::WorkloadGraph g = b.build(c);

    sim::Session session(makePolicyConfig("local-a", 8));
    session.bindDense("X", x);
    session.bindDense("W", w);
    sim::SessionResult res = session.run(g);
    EXPECT_LT(res.output.maxAbsDiff(multiply(x, w)), 1e-4);
}

TEST(Session, ProducedTensorRowMapsArePerRun)
{
    // Two graphs of different sizes share auto-generated intermediate
    // names; their per-run row maps must not collide across run() calls.
    auto dsA = loadSyntheticByName("cora", 41, 0.04);
    auto dsB = loadSyntheticByName("cora", 41, 0.02);
    ASSERT_NE(dsA.spec.nodes, dsB.spec.nodes);
    auto sageA = sim::buildGraphSage(dsA, 8, 4, true, 41);
    auto sageB = sim::buildGraphSage(dsB, 8, 4, true, 41);

    sim::Session session(makePolicyConfig("remote-d", 8));
    sim::SessionResult a = sim::runWorkload(session, sageA);
    sim::SessionResult b = sim::runWorkload(session, sageB);
    EXPECT_LT(a.output.maxAbsDiff(sim::referenceEval(sageA)), 1e-3);
    EXPECT_LT(b.output.maxAbsDiff(sim::referenceEval(sageB)), 1e-3);
}

TEST(Session, StatsSinkSeesEveryCostedNodeAndChain)
{
    auto ds = loadSyntheticByName("cora", 36, 0.04);
    auto model = makeGcnModel(ds.spec.f1, ds.spec.f2, ds.spec.f3, 36);

    sim::Session session(makePolicyConfig("local-a", 16));
    sim::CollectingSink sink;
    auto res = sim::runWorkload(session, sim::buildGcn(ds, model), &sink);

    // 2 layers x (XW + A(XW)) costed nodes, one chain per layer.
    ASSERT_EQ(sink.stats.size(), 4u);
    EXPECT_EQ(sink.nodes[0].label, "L1.XW");
    EXPECT_EQ(sink.stats[1].label, "L1.A(XW)");
    ASSERT_EQ(sink.chains.size(), 2u);
    EXPECT_EQ(sink.chains[0].stages.size(), 2u);
    EXPECT_EQ(sink.runs, 1);
    EXPECT_EQ(res.nodeStats.size(), 4u);
    // Chain pipelining can only help, never hurt.
    for (const auto &chain : res.chains)
        EXPECT_LE(chain.pipelinedCycles, chain.serialCycles);
}

TEST(SessionDeath, UnboundTensorIsDescriptive)
{
    sim::WorkloadBuilder b;
    auto c = b.spmm(b.input("A"), b.input("B"), TdqKind::Tdq2OmegaCsc);
    sim::WorkloadGraph g = b.build(c);
    sim::Session session(makePolicyConfig("baseline", 4));
    EXPECT_EXIT(session.run(g), ::testing::ExitedWithCode(1),
                "not bound");
}

TEST(SessionDeath, InvalidConfigIsDescriptive)
{
    AccelConfig cfg = makePolicyConfig("baseline", 8);
    cfg.numQueuesPerPe = 0;
    EXPECT_EXIT(sim::Session{cfg}, ::testing::ExitedWithCode(1),
                "numQueuesPerPe");
}

TEST(Engine, RepeatedExecuteFromFreshPartitionsIsDeterministic)
{
    // The shim-era equivalence test lived here; the out-param shims are
    // gone (see CHANGES.md migration notes), so what remains to pin down
    // is that execute() from identical fresh partitions reproduces
    // identical stats and values.
    auto ds = loadSyntheticByName("cora", 37, 0.04);
    AccelConfig cfg = makePolicyConfig("remote-c", 16);

    Rng rng(37);
    DenseMatrix b(ds.spec.nodes, 5);
    b.fillUniform(rng, -1.0f, 1.0f);
    RowPartition part_one(ds.spec.nodes, 16, cfg.mapPolicy);
    RowPartition part_two(ds.spec.nodes, 16, cfg.mapPolicy);
    SpmmEngine engine(cfg);
    SpmmResult one =
        engine.execute(ds.adjacency, b, TdqKind::Tdq2OmegaCsc, part_one);
    SpmmResult two =
        engine.execute(ds.adjacency, b, TdqKind::Tdq2OmegaCsc, part_two);

    EXPECT_EQ(one.stats.cycles, two.stats.cycles);
    EXPECT_EQ(one.stats.rowsSwitched, two.stats.rowsSwitched);
    EXPECT_EQ(one.c.maxAbsDiff(two.c), 0.0);
}
