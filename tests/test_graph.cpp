/**
 * @file
 * Tests for the graph substrate: degree samplers hit their targets and
 * shapes, generators realize the requested distributions, normalization
 * satisfies the spectral-GCN invariants, the dataset registry matches
 * the paper's Table 1 statistics, and the direct CSC/CSR synthesis is
 * byte-identical to the COO pipeline it replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <unordered_set>

#include "graph/datasets.hpp"
#include "graph/degree_dist.hpp"
#include "graph/generator.hpp"
#include "graph/normalize.hpp"
#include "sparse/convert.hpp"

using namespace awb;

TEST(DegreeDist, PowerLawHitsTarget)
{
    Rng rng(1);
    auto deg = samplePowerLawDegrees(rng, 1000, 2.2, 1, 200, 8000);
    Count total = std::accumulate(deg.begin(), deg.end(), Count(0));
    EXPECT_NEAR(static_cast<double>(total), 8000.0, 80.0);
}

TEST(DegreeDist, PowerLawIsSkewed)
{
    Rng rng(2);
    auto pl = samplePowerLawDegrees(rng, 5000, 2.1, 1, 1000, 40000);
    auto un = sampleUniformDegrees(rng, 5000, 40000);
    EXPECT_GT(giniCoefficient(pl), 0.4);
    EXPECT_LT(giniCoefficient(un), 0.05);
}

TEST(DegreeDist, UniformExactTotal)
{
    Rng rng(3);
    auto deg = sampleUniformDegrees(rng, 777, 10000);
    EXPECT_EQ(std::accumulate(deg.begin(), deg.end(), Count(0)), 10000);
}

TEST(DegreeDist, GiniBounds)
{
    EXPECT_DOUBLE_EQ(giniCoefficient({5, 5, 5, 5}), 0.0);
    // One node owns everything out of n=4: gini = (n-1)/n = 0.75.
    EXPECT_NEAR(giniCoefficient({0, 0, 0, 100}), 0.75, 1e-9);
}

TEST(Generator, RealizesDegreeSequence)
{
    Rng rng(4);
    GraphGenParams p;
    p.nodes = 200;
    p.edges = 1500;
    p.style = GraphStyle::PowerLaw;
    Rng rng_deg(4);
    auto deg = synthesizeRowDegrees(rng_deg, p);
    auto m = adjacencyFromDegrees(rng_deg, p.nodes, deg);
    auto csc = CscMatrix::fromCoo(m);
    auto realized = csc.rowNnz();
    for (Index r = 0; r < p.nodes; ++r)
        EXPECT_EQ(realized[static_cast<std::size_t>(r)],
                  std::min<Count>(deg[static_cast<std::size_t>(r)], p.nodes));
}

TEST(Generator, EdgeCountNearTarget)
{
    Rng rng(5);
    GraphGenParams p;
    p.nodes = 500;
    p.edges = 4000;
    p.style = GraphStyle::PowerLaw;
    auto m = synthesizeAdjacency(rng, p);
    EXPECT_NEAR(static_cast<double>(m.nnz()), 4000.0, 120.0);
    EXPECT_TRUE(m.valid());
}

TEST(Generator, ClusteredConcentratesBand)
{
    Rng rng(6);
    GraphGenParams p;
    p.nodes = 1000;
    p.edges = 20000;
    p.style = GraphStyle::Clustered;
    p.clusterRowFrac = 0.01;   // 10 rows
    p.clusterNnzFrac = 0.5;
    auto deg = synthesizeRowDegrees(rng, p);
    Index band_rows = 10;
    Index band_start = p.nodes / 2 - band_rows / 2;
    Count band_total = 0, total = 0;
    for (Index r = 0; r < p.nodes; ++r) {
        total += deg[static_cast<std::size_t>(r)];
        if (r >= band_start && r < band_start + band_rows)
            band_total += deg[static_cast<std::size_t>(r)];
    }
    // 1% of rows should hold roughly half the non-zeros.
    EXPECT_GT(static_cast<double>(band_total) / static_cast<double>(total),
              0.35);
}

TEST(Normalize, RowColScaling)
{
    // Hand example: path graph 0-1-2. With self loops, D = diag(2,3,2).
    CooMatrix a(3, 3);
    a.add(0, 1, 1.0f);
    a.add(1, 0, 1.0f);
    a.add(1, 2, 1.0f);
    a.add(2, 1, 1.0f);
    auto norm = cooToDense(normalizeAdjacency(a));
    EXPECT_NEAR(norm.at(0, 0), 0.5, 1e-6);
    EXPECT_NEAR(norm.at(0, 1), 1.0 / std::sqrt(6.0), 1e-6);
    EXPECT_NEAR(norm.at(1, 1), 1.0 / 3.0, 1e-6);
    EXPECT_NEAR(norm.at(2, 2), 0.5, 1e-6);
}

TEST(Normalize, SymmetricInputGivesSymmetricOutput)
{
    Rng rng(8);
    GraphGenParams p;
    p.nodes = 50;
    p.edges = 200;
    // Mirror a directed graph into an undirected one (binary values).
    CooMatrix a = synthesizeAdjacency(rng, p);
    const std::vector<Triplet> directed = a.entries();
    for (const Triplet &t : directed)
        if (t.row != t.col) a.add(t.col, t.row, t.val);
    a.canonicalize();
    for (Triplet &t : a.entries()) t.val = Value(1);
    auto norm = cooToDense(normalizeAdjacency(a));
    for (Index i = 0; i < 50; ++i)
        for (Index j = 0; j < 50; ++j)
            EXPECT_NEAR(norm.at(i, j), norm.at(j, i), 1e-6);
}

TEST(Normalize, SelfLoopsPresent)
{
    CooMatrix a(4, 4);
    a.add(0, 1, 1.0f);
    auto norm = cooToDense(normalizeAdjacency(a));
    for (Index i = 0; i < 4; ++i) EXPECT_GT(norm.at(i, i), 0.0f);
}

TEST(Datasets, RegistryHasFivePaperDatasets)
{
    const auto &specs = paperDatasets();
    ASSERT_EQ(specs.size(), 5u);
    EXPECT_EQ(findDataset("CORA").nodes, 2708);
    EXPECT_EQ(findDataset("citeseer").f1, 3703);
    EXPECT_EQ(findDataset("pubmed").nodes, 19717);
    EXPECT_EQ(findDataset("nell").f3, 186);
    EXPECT_EQ(findDataset("Reddit").f2, 64);
}

TEST(Datasets, NellIsClusteredWithHopOverride)
{
    const auto &nell = findDataset("nell");
    EXPECT_EQ(nell.style, GraphStyle::Clustered);
    EXPECT_EQ(nell.hopOverride, 2);
}

TEST(Datasets, SyntheticCoraMatchesTable1)
{
    auto ds = loadSyntheticByName("cora", 1, 1.0);
    EXPECT_EQ(ds.spec.nodes, 2708);
    EXPECT_EQ(ds.adjacency.rows(), 2708);
    EXPECT_TRUE(ds.adjacency.valid());
    // Density within 20% of the published 0.18% (self loops add ~n).
    EXPECT_NEAR(ds.adjacency.density(), 0.0018, 0.0018 * 0.25);
    EXPECT_NEAR(ds.features.density(), 0.0127, 0.0127 * 0.15);
    EXPECT_EQ(ds.features.cols(), 1433);
}

TEST(Datasets, ScaledLoadShrinksNodes)
{
    auto ds = loadSyntheticByName("pubmed", 1, 0.05);
    EXPECT_NEAR(static_cast<double>(ds.spec.nodes), 19717.0 * 0.05, 2.0);
    EXPECT_EQ(ds.features.cols(), 500);  // feature dims not scaled
    // At small node counts the +I self loops dominate density: expect
    // densityA + 1/n rather than the published full-scale densityA.
    double expect = 0.00028 + 1.0 / static_cast<double>(ds.spec.nodes);
    EXPECT_NEAR(ds.adjacency.density(), expect, expect * 0.2);
}

TEST(Datasets, DeterministicPerSeed)
{
    auto a = loadSyntheticByName("cora", 7, 0.1);
    auto b = loadSyntheticByName("cora", 7, 0.1);
    EXPECT_EQ(a.adjacency.nnz(), b.adjacency.nnz());
    EXPECT_EQ(a.adjacency.rowId(), b.adjacency.rowId());
    EXPECT_EQ(a.features.colId(), b.features.colId());
}

TEST(Datasets, ProfileMatchesSyntheticDistribution)
{
    // The profile loader must produce the same adjacency degree sequence
    // the full loader realizes (both consume synthesizeRowDegrees with the
    // same seed derivation).
    auto ds = loadSyntheticByName("citeseer", 3, 0.2);
    auto prof = loadProfile(findDataset("citeseer"), 3, 0.2);
    ASSERT_EQ(prof.aRowNnz.size(), static_cast<std::size_t>(ds.spec.nodes));
    auto realized = ds.adjacency.rowNnz();
    Count total_prof = std::accumulate(prof.aRowNnz.begin(),
                                       prof.aRowNnz.end(), Count(0));
    Count total_real = std::accumulate(realized.begin(), realized.end(),
                                       Count(0));
    // Self loops + merge effects keep these close but not identical.
    EXPECT_NEAR(static_cast<double>(total_prof),
                static_cast<double>(total_real),
                0.05 * static_cast<double>(total_real));
}

TEST(Datasets, ProfileFullScaleRedditIsCheap)
{
    auto prof = loadProfile(findDataset("reddit"), 1, 1.0);
    EXPECT_EQ(prof.aRowNnz.size(), 232965u);
    Count total = std::accumulate(prof.aRowNnz.begin(), prof.aRowNnz.end(),
                                  Count(0));
    // densityA * n^2 ~ 23.3M plus self loops.
    EXPECT_GT(total, Count(20000000));
    EXPECT_LT(total, Count(27000000));
}

TEST(Datasets, X2DensityProfile)
{
    auto prof = loadProfile(findDataset("cora"), 1, 0.5);
    double mean = 0.0;
    for (auto v : prof.x2RowNnz) mean += static_cast<double>(v);
    mean /= static_cast<double>(prof.x2RowNnz.size()) * 16.0;
    EXPECT_NEAR(mean, 0.78, 0.05);
}

// ---------------------------------------------------------------------
// Reference COO pipeline. The loaders used to draw each row through a
// per-row hash set into a COO, canonicalize it, normalize it through a
// second COO and build CSC/CSR with fromCoo; the features followed the
// same set -> COO -> sort shape. That pipeline is kept here verbatim so
// the direct build can be compared against it byte for byte.
// ---------------------------------------------------------------------

namespace {

GraphGenParams
refGenParams(const DatasetSpec &spec)
{
    GraphGenParams p;
    p.nodes = spec.nodes;
    p.edges = static_cast<Count>(spec.densityA *
                                 static_cast<double>(spec.nodes) *
                                 static_cast<double>(spec.nodes));
    p.style = spec.style;
    p.alpha = spec.alpha;
    p.dMax = spec.dMax;
    return p;
}

Rng
refRng(const DatasetSpec &scaled, std::uint64_t seed)
{
    return Rng(seed ^ 0x9e3779b97f4a7c15ULL,
               std::hash<std::string>{}(scaled.name));
}

void
refFillRow(Rng &rng, CooMatrix &m, Index r, Count degree)
{
    Index n = m.cols();
    degree = std::min<Count>(degree, n);
    if (degree <= 0) return;
    std::unordered_set<Index> used;
    used.reserve(static_cast<std::size_t>(degree) * 2);
    while (static_cast<Count>(used.size()) < degree) {
        Index c = rng.nextIndex(n);
        if (used.insert(c).second) m.add(r, c, Value(1));
    }
}

CooMatrix
refRawAdjacency(Rng &rng, const GraphGenParams &p)
{
    auto deg = synthesizeRowDegrees(rng, p);
    CooMatrix m(p.nodes, p.nodes);
    for (Index r = 0; r < p.nodes; ++r)
        refFillRow(rng, m, r, deg[static_cast<std::size_t>(r)]);
    m.canonicalize();
    return m;
}

Count
refSampleRowFeatureNnz(Rng &rng, Index f, double d)
{
    double mean = d * static_cast<double>(f);
    double sdev = std::sqrt(std::max(mean * (1.0 - d), 0.0));
    double v = mean + sdev * rng.nextGaussian();
    return std::clamp<Count>(static_cast<Count>(std::llround(v)), 0,
                             static_cast<Count>(f));
}

CsrMatrix
refMakeFeatures(Rng &rng, Index nodes, Index f, double density)
{
    CooMatrix coo(nodes, f);
    std::unordered_set<Index> used;
    for (Index r = 0; r < nodes; ++r) {
        Count k = refSampleRowFeatureNnz(rng, f, density);
        k = std::min<Count>(k, f);
        used.clear();
        while (static_cast<Count>(used.size()) < k) {
            Index c = rng.nextIndex(f);
            if (used.insert(c).second)
                coo.add(r, c, rng.nextFloat(0.05f, 1.0f));
        }
    }
    coo.canonicalize();
    return CsrMatrix::fromCoo(coo);
}

/** The old loadSynthetic; `features == false` is the old adjacency-only
 *  loader. */
Dataset
refLoad(const DatasetSpec &spec, std::uint64_t seed, double scale,
        bool features)
{
    DatasetSpec s = scaledSpec(spec, scale);
    Rng rng = refRng(s, seed);
    Dataset ds;
    ds.spec = s;
    ds.scale = scale;
    ds.adjacency = CscMatrix::fromCoo(normalizeAdjacency(
        refRawAdjacency(rng, refGenParams(s)), /*add_self_loops=*/true));
    if (features)
        ds.features = refMakeFeatures(rng, s.nodes, s.f1, s.densityX1);
    return ds;
}

template <typename T>
bool
sameBytes(const std::vector<T> &a, const std::vector<T> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

void
expectSameCsc(const CscMatrix &got, const CscMatrix &want,
              const std::string &what)
{
    EXPECT_EQ(got.rows(), want.rows()) << what;
    EXPECT_EQ(got.cols(), want.cols()) << what;
    EXPECT_TRUE(sameBytes(got.colPtr(), want.colPtr())) << what;
    EXPECT_TRUE(sameBytes(got.rowId(), want.rowId())) << what;
    EXPECT_TRUE(sameBytes(got.val(), want.val())) << what;
}

void
expectSameCsr(const CsrMatrix &got, const CsrMatrix &want,
              const std::string &what)
{
    EXPECT_EQ(got.rows(), want.rows()) << what;
    EXPECT_EQ(got.cols(), want.cols()) << what;
    EXPECT_TRUE(sameBytes(got.rowPtr(), want.rowPtr())) << what;
    EXPECT_TRUE(sameBytes(got.colId(), want.colId())) << what;
    EXPECT_TRUE(sameBytes(got.val(), want.val())) << what;
}

const std::uint64_t kSeeds[] = {1, 7, 12345};

std::string
label(const std::string &name, std::uint64_t seed, double scale)
{
    return name + " seed " + std::to_string(seed) + " scale " +
           std::to_string(scale);
}

} // namespace

TEST(SynthesisEquivalence, LoadSyntheticMatchesCooPipeline)
{
    auto check = [](const std::string &name, double scale) {
        const DatasetSpec &spec = findDataset(name);
        for (std::uint64_t seed : kSeeds) {
            const auto what = label(name, seed, scale);
            Dataset got = loadSynthetic(spec, seed, scale);
            Dataset want = refLoad(spec, seed, scale, true);
            expectSameCsc(got.adjacency, want.adjacency, what);
            expectSameCsr(got.features, want.features, what);
            expectSameCsc(loadSyntheticAdjacency(spec, seed, scale),
                          got.adjacency, what + " adjacency-only");
        }
    };
    for (const char *name : {"cora", "citeseer", "pubmed", "nell"})
        for (double scale : {0.05, 0.3}) check(name, scale);
    // Reddit at 0.3 with features costs seconds per seed in the
    // reference, so Reddit runs at 0.05 only.
    check("reddit", 0.05);
}

TEST(SynthesisEquivalence, RedditAdjacencyMatchesCooPipeline)
{
    const DatasetSpec &spec = findDataset("reddit");
    expectSameCsc(loadSyntheticAdjacency(spec, 7, 0.2),
                  refLoad(spec, 7, 0.2, false).adjacency,
                  label("reddit", 7, 0.2));
}

// Outside tier-1 (about 11 s with the reference): CI runs it with
// --gtest_also_run_disabled_tests --gtest_filter='*FullScaleReddit*'.
TEST(SynthesisEquivalence, DISABLED_FullScaleRedditMatchesCooPipeline)
{
    const DatasetSpec &spec = findDataset("reddit");
    expectSameCsc(loadSyntheticAdjacency(spec, 7, 1.0),
                  refLoad(spec, 7, 1.0, false).adjacency,
                  label("reddit", 7, 1.0));
}

TEST(SynthesisEquivalence, NormalizedBuildMatchesCooOnEveryStyle)
{
    for (GraphStyle style : {GraphStyle::Uniform, GraphStyle::PowerLaw,
                             GraphStyle::Clustered}) {
        GraphGenParams p;
        p.nodes = 700;
        p.edges = 9000;
        p.style = style;
        Rng a(31, 5), b(31, 5);
        const std::string what =
            "style " + std::to_string(static_cast<int>(style));
        expectSameCsc(synthesizeNormalizedAdjacency(a, p),
                      normalizeAdjacencyCsc(synthesizeAdjacency(b, p)),
                      what);
        // Both consumed the same draws.
        EXPECT_EQ(a.nextU32(), b.nextU32()) << what;
    }
}

TEST(SynthesisEquivalence, ProfileOvercountsExactlyTheSelfDrawnRows)
{
    // loadProfile counts degree + 1 for the +I self loop; a row that drew
    // its own column has only `degree` entries after +I. The profile
    // keeps that approximation: it is off by exactly one on those rows
    // (129 of the 340,695 rows of this grid) and exact everywhere else.
    Count self_drawn = 0;
    for (const DatasetSpec &spec : paperDatasets()) {
        for (double scale : {0.05, 0.3}) {
            for (std::uint64_t seed : kSeeds) {
                const auto what = label(spec.name, seed, scale);
                DatasetSpec s = scaledSpec(spec, scale);
                Rng rng = refRng(s, seed);
                CooMatrix raw = synthesizeAdjacency(rng, refGenParams(s));
                std::vector<bool> drew_self(
                    static_cast<std::size_t>(s.nodes), false);
                for (const Triplet &t : raw.entries())
                    if (t.row == t.col)
                        drew_self[static_cast<std::size_t>(t.row)] = true;

                auto realized =
                    loadSyntheticAdjacency(spec, seed, scale).rowNnz();
                auto prof = loadProfile(spec, seed, scale);
                ASSERT_EQ(prof.aRowNnz.size(), realized.size()) << what;
                for (std::size_t r = 0; r < realized.size(); ++r) {
                    EXPECT_EQ(prof.aRowNnz[r] - realized[r],
                              drew_self[r] ? 1 : 0)
                        << what << " row " << r;
                    self_drawn += drew_self[r] ? 1 : 0;
                }
            }
        }
    }
    EXPECT_GT(self_drawn, 0);
}
