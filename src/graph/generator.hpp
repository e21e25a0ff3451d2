/**
 * @file
 * Synthetic graph adjacency generators.
 *
 * Substitution (see DESIGN.md §3): the paper evaluates on the published
 * Cora/Citeseer/Pubmed/Nell/Reddit datasets. These generators reproduce the
 * structural properties those results depend on — size, density, power-law
 * per-row non-zero skew, and (for Nell) heavy clustering of non-zeros in a
 * small contiguous band of rows.
 */

#pragma once

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "sparse/coo.hpp"
#include "sparse/csc.hpp"

namespace awb {

/** Shape of the per-row non-zero distribution to synthesize. */
enum class GraphStyle
{
    Uniform,    ///< evenly distributed non-zeros (the baseline's happy case)
    PowerLaw,   ///< heavy-tailed row degrees (Cora/Citeseer/Pubmed-like)
    Clustered,  ///< power law + dense clustered band of rows (Nell-like)
};

/** Parameters for synthesizeAdjacency(). */
struct GraphGenParams
{
    Index nodes = 1000;          ///< vertex count (matrix is nodes x nodes)
    Count edges = 5000;          ///< target non-zero count (pre-self-loop)
    GraphStyle style = GraphStyle::PowerLaw;
    double alpha = 2.2;          ///< power-law exponent
    Count dMax = 0;              ///< max row degree; 0 = nodes/8
    double clusterRowFrac = 0.004;  ///< Clustered: fraction of rows in band
    double clusterNnzFrac = 0.5;    ///< Clustered: fraction of nnz in band
};

/**
 * Sample only the per-row non-zero counts the generator would realize.
 * synthesizeAdjacency() consumes exactly this sequence, so profile-only
 * workload modelling (DESIGN.md §4) sees the same distribution the full
 * matrices have.
 */
std::vector<Count> synthesizeRowDegrees(Rng &rng,
                                        const GraphGenParams &params);

/**
 * Generate a random adjacency matrix with the requested non-zero
 * distribution. Values are 1.0 (pre-normalization); no self loops
 * (normalizeAdjacency() adds the +I term).
 */
CooMatrix synthesizeAdjacency(Rng &rng, const GraphGenParams &params);

/** Materialize an adjacency from an explicit per-row degree sequence. */
CooMatrix adjacencyFromDegrees(Rng &rng, Index nodes,
                               const std::vector<Count> &degrees);

/**
 * synthesizeAdjacency() followed by normalizeAdjacencyCsc() with +I,
 * bit for bit, consuming the same Rng draws, built straight into CSC
 * (DESIGN.md §3).
 */
CscMatrix synthesizeNormalizedAdjacency(Rng &rng,
                                        const GraphGenParams &params);

/**
 * The one row drawer every synthesizer shares: rejection-sample
 * min(count, stamp.size()) distinct uniform columns for row `r`, calling
 * `accept(c)` on each new column in draw order. Sampling is without
 * replacement, so a row realizes exactly the requested count — the
 * quantity the workload-balance experiments key on.
 *
 * `stamp[c] == r` marks column c as drawn for row r. Start the array at
 * -1, one slot per column, and reuse it across rows, drawing each row
 * once. The Rng sequence is one nextIndex() per attempt, in order, plus
 * whatever `accept` draws, so every synthesizer that shares this drawer
 * replays the same stream.
 */
template <typename Accept>
void
drawDistinctColumns(Rng &rng, std::vector<Index> &stamp, Index r,
                    Count count, Accept &&accept)
{
    const auto n = static_cast<Index>(stamp.size());
    for (Count drawn = 0; drawn < std::min<Count>(count, n);) {
        Index c = rng.nextIndex(n);
        if (stamp[static_cast<std::size_t>(c)] == r) continue;
        stamp[static_cast<std::size_t>(c)] = r;
        accept(c);
        ++drawn;
    }
}

/**
 * Degree-proportional column sampling via edge-endpoint draw: picking
 * the column endpoint of a uniformly random live edge selects column c
 * with probability deg(c)/|E| — the same "rich get richer" mechanism
 * the power-law degree synthesis above models, here applied online.
 * Used by the preferential-attachment inserts of the edge-churn stream
 * (dynamic/churn.hpp, DESIGN.md §12). Falls back to a uniform column
 * when no edges exist yet.
 *
 * @param endpoint_cols  column endpoints of every live edge
 * @param num_cols       matrix column count (uniform fallback range)
 */
Index preferentialColumn(Rng &rng, const std::vector<Index> &endpoint_cols,
                         Index num_cols);

} // namespace awb
