/**
 * @file
 * Registry of the five GCN datasets the paper evaluates (Table 1), plus
 * loaders that build fully synthetic equivalents matched to the published
 * statistics (node count, feature dimensions, matrix densities, non-zero
 * distribution shape). See DESIGN.md §3 for the substitution rationale.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/generator.hpp"
#include "sparse/csc.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"

namespace awb {

/** Published per-dataset statistics (paper Table 1). */
struct DatasetSpec
{
    std::string name;
    Index nodes;        ///< vertex count
    Index f1;           ///< input feature dimension (layer-1 input)
    Index f2;           ///< hidden feature dimension
    Index f3;           ///< output classes (layer-2 output)
    double densityA;    ///< adjacency density (fraction, e.g. 0.0018)
    double densityX1;   ///< layer-1 input feature density
    double densityX2;   ///< layer-2 input feature density (post-ReLU)
    GraphStyle style;   ///< non-zero distribution shape
    double alpha;       ///< power-law exponent used for synthesis
    Count dMax;         ///< max row degree (published hub sizes)
    int hopOverride;    ///< 0 = paper-default sharing hops (1/2-hop);
                        ///< N > 0 = evaluate N and N+1 hops instead
                        ///< (Nell uses 2/3-hop, paper §5.2)
};

/** A loaded dataset ready for functional inference. */
struct Dataset
{
    DatasetSpec spec;
    CscMatrix adjacency;    ///< normalized A_hat, n x n, CSC (TDQ-2 input)
    CsrMatrix features;     ///< X1, n x f1. Content-sparse; the hardware
                            ///< stores X densely but skips zeros (TDQ-1),
                            ///< so CSR carries exactly the streamed work.
    double scale = 1.0;     ///< applied node-count scale factor
};

/**
 * Row-level workload profile of a dataset — all the information the
 * round-level performance model needs, cheap to build even at full Reddit
 * scale (no matrices are materialized).
 *
 * Per processed column ("round") of the dense operand, the work a PE
 * performs is the summed row-nnz of the rows it owns, so per-row non-zero
 * counts fully determine workload balance (DESIGN.md §4).
 */
struct WorkloadProfile
{
    DatasetSpec spec;       ///< scaled copy (nodes adjusted)
    double scale = 1.0;
    std::vector<Count> aRowNnz;   ///< adjacency non-zeros per row (with +I)
    std::vector<Count> x1RowNnz;  ///< layer-1 feature non-zeros per row
    std::vector<Count> x2RowNnz;  ///< layer-2 feature non-zeros per row
};

/** The five paper datasets: Cora, Citeseer, Pubmed, Nell, Reddit. */
const std::vector<DatasetSpec> &paperDatasets();

/** Base sharing-hop distance for a dataset (Nell overrides to 2/3-hop,
 *  paper §5.2). */
inline int
hopBase(const DatasetSpec &spec)
{
    return spec.hopOverride > 0 ? spec.hopOverride : 1;
}

/** Look up a spec by (case-insensitive) name; fatal() if unknown. */
const DatasetSpec &findDataset(const std::string &name);

/** Spec with node count scaled by `scale` (dims/densities preserved). */
DatasetSpec scaledSpec(const DatasetSpec &spec, double scale);

/**
 * Build a synthetic instance of a dataset with materialized matrices.
 *
 * @param spec   published statistics to match
 * @param seed   RNG seed (deterministic per (spec, seed, scale))
 * @param scale  node-count scale in (0, 1]; densities preserved.
 *               Intended for the cycle-accurate simulator; use
 *               loadProfile() for full-scale round-level modelling.
 */
Dataset loadSynthetic(const DatasetSpec &spec, std::uint64_t seed = 1,
                      double scale = 1.0);

/** Shorthand: loadSynthetic(findDataset(name), seed, scale). */
Dataset loadSyntheticByName(const std::string &name, std::uint64_t seed = 1,
                            double scale = 1.0);

/**
 * Build only the normalized adjacency of a dataset — bit-identical to
 * the `adjacency` member loadSynthetic() would produce for the same
 * (spec, seed, scale), without materializing the feature matrix. Used
 * by single-SPMM benchmarks (bench/bench_engine.cpp) where features
 * would dominate memory at Reddit scale.
 */
CscMatrix loadSyntheticAdjacency(const DatasetSpec &spec,
                                 std::uint64_t seed = 1, double scale = 1.0);

/**
 * Build only the per-row workload profile (degree sequences), matched to
 * the same distributions loadSynthetic() uses. O(nodes) time and memory.
 */
WorkloadProfile loadProfile(const DatasetSpec &spec, std::uint64_t seed = 1,
                            double scale = 1.0);

} // namespace awb
