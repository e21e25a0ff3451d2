/**
 * @file
 * Unit tests for the workload-graph IR: builder composition, structural
 * validation (descriptive errors, not asserts), deterministic topological
 * scheduling of arbitrarily ordered node lists, the dense reference
 * interpreter's operator semantics, and AccelConfig::validate.
 */

#include <gtest/gtest.h>

#include "accel/config.hpp"
#include "accel/policy.hpp"
#include "sim/factories.hpp"
#include "sim/workload.hpp"

using namespace awb;
using namespace awb::sim;

TEST(WorkloadBuilder, ComposesAndAutoNames)
{
    WorkloadBuilder b;
    auto x = b.input("X");
    auto w = b.input("W");
    auto a = b.input("A");
    auto xw = b.spmm(x, w, TdqKind::Tdq1DenseScan, "L1.XW");
    auto z = b.spmm(a, xw, TdqKind::Tdq2OmegaCsc);
    auto h = b.relu(z, "H1");
    WorkloadGraph g = b.build(h);

    ASSERT_EQ(g.nodes().size(), 3u);
    EXPECT_EQ(g.inputs().size(), 3u);
    EXPECT_EQ(g.output(), "H1");
    EXPECT_EQ(g.nodes()[0].label, "L1.XW");
    // Auto-generated names cannot collide with user tensors.
    EXPECT_EQ(g.nodes()[1].out.front(), '%');
    EXPECT_TRUE(g.validate().empty());
}

TEST(WorkloadBuilder, InputIsIdempotent)
{
    WorkloadBuilder b;
    b.input("X");
    b.input("X");
    auto g = b.build(b.relu(b.input("X")));
    EXPECT_EQ(g.inputs().size(), 1u);
}

TEST(WorkloadGraph, ValidateReportsUnboundTensor)
{
    WorkloadNode n;
    n.kind = OpKind::Spmm;
    n.out = "C";
    n.a = "A";
    n.b = "nope";
    WorkloadGraph g({n}, {"A"}, "C");
    EXPECT_NE(g.validate().find("unbound tensor 'nope'"), std::string::npos);
}

TEST(WorkloadGraph, ValidateReportsDuplicateProducer)
{
    WorkloadNode n1;
    n1.kind = OpKind::Elementwise;
    n1.ew = EwKind::Relu;
    n1.out = "C";
    n1.a = "A";
    WorkloadNode n2 = n1;
    WorkloadGraph g({n1, n2}, {"A"}, "C");
    EXPECT_NE(g.validate().find("more than one node"), std::string::npos);
}

TEST(WorkloadGraph, ValidateReportsArityErrors)
{
    WorkloadNode relu2;  // ReLU with two inputs
    relu2.kind = OpKind::Elementwise;
    relu2.ew = EwKind::Relu;
    relu2.out = "C";
    relu2.a = "A";
    relu2.b = "B";
    EXPECT_NE(WorkloadGraph({relu2}, {"A", "B"}, "C").validate().find(
                  "exactly one input"),
              std::string::npos);

    WorkloadNode lonely;  // Spmm without a dense operand
    lonely.kind = OpKind::Spmm;
    lonely.out = "C";
    lonely.a = "A";
    EXPECT_NE(WorkloadGraph({lonely}, {"A"}, "C").validate().find(
                  "needs a second input"),
              std::string::npos);
}

TEST(WorkloadGraph, ValidateReportsMissingOutputAndCycles)
{
    WorkloadNode n;
    n.kind = OpKind::Elementwise;
    n.ew = EwKind::Relu;
    n.out = "C";
    n.a = "A";
    EXPECT_NE(WorkloadGraph({n}, {"A"}, "missing").validate().find(
                  "never produced"),
              std::string::npos);

    // C depends on D depends on C.
    WorkloadNode c;
    c.kind = OpKind::Elementwise;
    c.ew = EwKind::AddScaled;
    c.out = "C";
    c.a = "A";
    c.b = "D";
    WorkloadNode d;
    d.kind = OpKind::Elementwise;
    d.ew = EwKind::Relu;
    d.out = "D";
    d.a = "C";
    const std::string err = WorkloadGraph({c, d}, {"A"}, "C").validate();
    EXPECT_NE(err.find("cycle"), std::string::npos);
    // The error names every node on the cycle so a misauthored graph is
    // debuggable without re-deriving the topological order by hand.
    EXPECT_NE(err.find("'C'"), std::string::npos) << err;
    EXPECT_NE(err.find("'D'"), std::string::npos) << err;
}

TEST(WorkloadGraph, ScheduleHandlesArbitraryNodeOrder)
{
    // Author the chain backwards: relu(C), C = A x B, and a parallel
    // branch; schedule() must still order producers first.
    WorkloadNode relu;
    relu.kind = OpKind::Elementwise;
    relu.ew = EwKind::Relu;
    relu.out = "H";
    relu.a = "C";
    WorkloadNode mm;
    mm.kind = OpKind::Spmm;
    mm.out = "C";
    mm.a = "A";
    mm.b = "B";
    WorkloadNode cat;
    cat.kind = OpKind::Concat;
    cat.out = "Z";
    cat.a = "H";
    cat.b = "C";
    WorkloadGraph g({cat, relu, mm}, {"A", "B"}, "Z");
    EXPECT_TRUE(g.validate().empty());

    std::vector<std::size_t> order = g.schedule();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 2u);  // mm first
    EXPECT_EQ(order[1], 1u);  // then relu
    EXPECT_EQ(order[2], 0u);  // concat last
}

TEST(ReferenceEval, ElementwiseAndConcatSemantics)
{
    DenseMatrix a(2, 2), b(2, 2);
    a.at(0, 0) = 1;
    a.at(0, 1) = -2;
    a.at(1, 0) = 3;
    a.at(1, 1) = -4;
    b.at(0, 0) = 10;
    b.at(0, 1) = 20;
    b.at(1, 0) = 30;
    b.at(1, 1) = 40;

    WorkloadBuilder bld;
    auto add = bld.addScaled(bld.input("a"), bld.input("b"), 0.5, "add");
    auto mean = bld.mean("a", "b", "mean");
    auto rel = bld.relu("a", "rel");
    auto cat = bld.concat(add, mean, "cat");
    auto cat2 = bld.concat(cat, rel, "cat2");

    WorkloadBundle w;
    w.graph = bld.build(cat2);
    w.dense.emplace("a", a);
    w.dense.emplace("b", b);
    DenseMatrix out = referenceEval(w);

    ASSERT_EQ(out.rows(), 2);
    ASSERT_EQ(out.cols(), 6);
    EXPECT_FLOAT_EQ(out.at(0, 0), 6.0f);    // 1 + 0.5*10
    EXPECT_FLOAT_EQ(out.at(1, 1), 16.0f);   // -4 + 0.5*40
    EXPECT_FLOAT_EQ(out.at(0, 2), 5.5f);    // (1+10)/2
    EXPECT_FLOAT_EQ(out.at(1, 3), 18.0f);   // (-4+40)/2
    EXPECT_FLOAT_EQ(out.at(0, 5), 0.0f);    // relu(-2)
    EXPECT_FLOAT_EQ(out.at(1, 4), 3.0f);    // relu(3)
}

TEST(RowNormalized, RowsSumToOne)
{
    auto ds = loadSyntheticByName("cora", 21, 0.05);
    CscMatrix norm = rowNormalized(ds.adjacency);
    ASSERT_EQ(norm.nnz(), ds.adjacency.nnz());

    std::vector<double> rowSum(static_cast<std::size_t>(norm.rows()), 0.0);
    for (std::size_t p = 0; p < norm.val().size(); ++p)
        rowSum[static_cast<std::size_t>(norm.rowId()[p])] += norm.val()[p];
    for (double s : rowSum) {
        if (s != 0.0) {
            EXPECT_NEAR(s, 1.0, 1e-5);
        }
    }
}

TEST(ConfigValidate, DescribesEveryFieldError)
{
    AccelConfig good;
    EXPECT_TRUE(good.validate().empty());
    EXPECT_TRUE(good.validate(/*cycle_accurate_tdq2=*/true).empty());

    AccelConfig c = good;
    c.numPes = 0;
    EXPECT_NE(c.validate().find("numPes"), std::string::npos);
    c = good;
    c.sharingHops = -2;
    EXPECT_NE(c.validate().find("sharingHops"), std::string::npos);

    // The Omega network constraint only binds the cycle-accurate TDQ-2
    // path (the round-level model sweeps 512/768/1024 freely).
    c = good;
    c.numPes = 48;
    EXPECT_TRUE(c.validate().empty());
    EXPECT_NE(c.validate(true).find("power-of-two"), std::string::npos);
}

TEST(ConfigValidateDeath, MakeConfigSurfacesDescriptiveError)
{
    EXPECT_EXIT(makePolicyConfig("baseline", 0),
                ::testing::ExitedWithCode(1), "numPes must be positive");
}
