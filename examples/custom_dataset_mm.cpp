/**
 * @file
 * Bring-your-own-graph: load an adjacency matrix from a Matrix Market
 * (.mtx) file — e.g. a SuiteSparse copy of a real citation graph —
 * normalize it, synthesize features, and run AWB-GCN inference on it.
 * A ready-made sample ships at data/example_graph.mtx; when no file is
 * given, the example writes a synthetic one into the working directory
 * first (demonstrating the writer) and then consumes it, so it is
 * runnable out of the box.
 *
 * Run:  ./custom_dataset_mm [graph.mtx]
 *       ./custom_dataset_mm ../data/example_graph.mtx   # from build/
 */

#include <cstdio>

#include "accel/gcn_accel.hpp"
#include "accel/policy.hpp"
#include "common/rng.hpp"
#include "gcn/reference.hpp"
#include "graph/generator.hpp"
#include "graph/normalize.hpp"
#include "sparse/convert.hpp"
#include "sparse/mm_io.hpp"

using namespace awb;

int
main(int argc, char **argv)
{
    std::string path;
    if (argc > 1) {
        path = argv[1];
    } else {
        // No input given: synthesize a small directed power-law graph and
        // save it (the committed data/example_graph.mtx sample is this
        // graph with every edge mirrored), so the load path below
        // exercises exactly what a user would run.
        path = "example_graph.mtx";
        Rng rng(11);
        GraphGenParams params;
        params.nodes = 600;
        params.edges = 3600;
        params.style = GraphStyle::PowerLaw;
        writeMatrixMarketFile(path, synthesizeAdjacency(rng, params));
        std::printf("wrote synthetic graph to %s\n", path.c_str());
    }

    // 1. Load and renormalize: A_hat = D^-1/2 (A + I) D^-1/2.
    CooMatrix raw = readMatrixMarketFile(path);
    if (raw.rows() != raw.cols()) {
        std::fprintf(stderr, "adjacency must be square\n");
        return 1;
    }
    CscMatrix a_hat = normalizeAdjacencyCsc(raw);
    std::printf("loaded %s: %d nodes, %lld edges\n", path.c_str(),
                raw.rows(), static_cast<long long>(raw.nnz()));

    // 2. Features: users would load real ones; we synthesize sparse
    //    128-dim inputs here.
    Rng rng(23);
    CooMatrix fcoo(raw.rows(), 128);
    for (Index r = 0; r < raw.rows(); ++r)
        for (Index c = 0; c < 128; ++c)
            if (rng.nextBool(0.05)) fcoo.add(r, c, rng.nextFloat(0.1f, 1.0f));
    fcoo.canonicalize();
    CsrMatrix features = CsrMatrix::fromCoo(fcoo);

    // 3. A 2-layer GCN head: 128 -> 32 -> 8 classes.
    GcnModel model = makeGcnModel(128, 32, 8, 23);

    // 4. Accelerate, and check against the golden model.
    Dataset ds;
    ds.spec = {"custom", raw.rows(), 128, 32, 8, raw.density(), 0.05, 0.8,
               GraphStyle::PowerLaw, 2.2, 0, 0};
    ds.adjacency = a_hat;
    ds.features = features;

    GcnRunResult run = runGcn(makePolicyConfig("remote-d", 32), ds, model);
    InferenceResult golden = inferGcn(ds.adjacency, ds.features, model);

    std::printf("inference done: %lld cycles, util %.1f%%, "
                "max error vs golden %.2e\n",
                static_cast<long long>(run.totalCycles),
                run.utilization * 100.0,
                run.output.maxAbsDiff(golden.output));
    std::printf("predicted class of node 0: ");
    Index best = 0;
    for (Index c = 1; c < run.output.cols(); ++c)
        if (run.output.at(0, c) > run.output.at(0, best)) best = c;
    std::printf("%d\n", best);
    return 0;
}
