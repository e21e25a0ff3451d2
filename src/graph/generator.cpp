#include "graph/generator.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"
#include "graph/degree_dist.hpp"

namespace awb {

std::vector<Count>
synthesizeRowDegrees(Rng &rng, const GraphGenParams &params)
{
    const Index n = params.nodes;
    if (n <= 0) fatal("synthesizeRowDegrees: nodes must be positive");
    Count d_max = params.dMax > 0 ? params.dMax
                                  : std::max<Count>(Count(8), n / 8);

    switch (params.style) {
      case GraphStyle::Uniform:
        return sampleUniformDegrees(rng, n, params.edges);
      case GraphStyle::PowerLaw:
        return samplePowerLawDegrees(rng, n, params.alpha, 1, d_max,
                                     params.edges);
      case GraphStyle::Clustered: {
        // A narrow contiguous band of rows receives clusterNnzFrac of all
        // non-zeros (the Nell signature, paper Fig. 13: a few rows with
        // tens of thousands of entries while the bulk have a handful).
        auto band_rows = static_cast<Index>(
            std::max<double>(1.0, params.clusterRowFrac *
                                  static_cast<double>(n)));
        auto band_edges = static_cast<Count>(
            params.clusterNnzFrac * static_cast<double>(params.edges));
        Count rest_edges = params.edges - band_edges;
        Index band_start = n / 2 - band_rows / 2;

        auto deg = samplePowerLawDegrees(rng, n, params.alpha, 1, d_max,
                                         rest_edges);
        auto band_deg = samplePowerLawDegrees(
            rng, band_rows, 1.5, band_edges / (2 * band_rows) + 1, n,
            band_edges);
        for (Index i = 0; i < band_rows; ++i) {
            deg[static_cast<std::size_t>(band_start + i)] =
                std::min<Count>(band_deg[static_cast<std::size_t>(i)], n);
        }
        return deg;
      }
    }
    panic("unreachable graph style");
}

CooMatrix
adjacencyFromDegrees(Rng &rng, Index nodes, const std::vector<Count> &degrees)
{
    CooMatrix m(nodes, nodes);
    std::vector<Index> stamp(static_cast<std::size_t>(nodes), -1);
    for (Index r = 0; r < nodes; ++r) {
        drawDistinctColumns(rng, stamp, r,
                            degrees[static_cast<std::size_t>(r)],
                            [&](Index c) { m.add(r, c, Value(1)); });
    }
    m.canonicalize();
    return m;
}

Index
preferentialColumn(Rng &rng, const std::vector<Index> &endpoint_cols,
                   Index num_cols)
{
    if (num_cols <= 0) fatal("preferentialColumn: num_cols must be > 0");
    if (endpoint_cols.empty()) return rng.nextIndex(num_cols);
    return endpoint_cols[static_cast<std::size_t>(
        rng.nextIndex(static_cast<Index>(endpoint_cols.size())))];
}

CooMatrix
synthesizeAdjacency(Rng &rng, const GraphGenParams &params)
{
    auto deg = synthesizeRowDegrees(rng, params);
    return adjacencyFromDegrees(rng, params.nodes, deg);
}

CscMatrix
synthesizeNormalizedAdjacency(Rng &rng, const GraphGenParams &params)
{
    const Index n = params.nodes;
    const auto deg = synthesizeRowDegrees(rng, params);
    const auto un = static_cast<std::size_t>(n);

    // Draw each row's columns in draw order, then its +I self loop
    // unless the row drew its own column. The row length is the degree.
    std::vector<Count> row_ptr(un + 1, 0);
    Count bound = n;
    for (Count d : deg) bound += std::min<Count>(d, n);
    std::vector<Index> cols;
    cols.reserve(static_cast<std::size_t>(bound));
    std::vector<Index> stamp(un, -1);
    for (Index r = 0; r < n; ++r) {
        const auto ur = static_cast<std::size_t>(r);
        drawDistinctColumns(rng, stamp, r, deg[ur],
                            [&](Index c) { cols.push_back(c); });
        if (stamp[ur] != r) cols.push_back(r);
        row_ptr[ur + 1] = static_cast<Count>(cols.size());
    }

    // D^-1/2 in double, as normalizeAdjacency() computes it.
    std::vector<double> inv(un);
    for (std::size_t r = 0; r < un; ++r)
        inv[r] = 1.0 / std::sqrt(static_cast<double>(row_ptr[r + 1] -
                                                     row_ptr[r]));

    // Counting scatter into CSC: rows are visited in ascending order, so
    // every column comes out sorted with no per-column sort. Values are
    // computed here rather than transposed (csrToCsc), so no draw-order
    // value array is held next to the CSC arrays at Reddit scale.
    std::vector<Count> col_ptr(un + 1, 0);
    for (Index c : cols) ++col_ptr[static_cast<std::size_t>(c) + 1];
    for (std::size_t j = 1; j <= un; ++j) col_ptr[j] += col_ptr[j - 1];
    std::vector<Count> cursor(col_ptr.begin(), col_ptr.end() - 1);
    std::vector<Index> row_id(cols.size());
    std::vector<Value> val(cols.size());
    for (std::size_t r = 0; r < un; ++r) {
        for (Count k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
            const auto c = static_cast<std::size_t>(
                cols[static_cast<std::size_t>(k)]);
            const auto at = static_cast<std::size_t>(cursor[c]++);
            row_id[at] = static_cast<Index>(r);
            // A + I is binary, so inv[r] * 1 * inv[c] drops the factor 1.
            val[at] = static_cast<Value>(inv[r] * inv[c]);
        }
    }
    return CscMatrix::fromParts(n, n, std::move(col_ptr), std::move(row_id),
                                std::move(val));
}

} // namespace awb
