/**
 * @file
 * google-benchmark microbenchmarks of the substrate kernels and simulator
 * components: reference SpMM kernels across density, Omega-network
 * throughput, cycle-accurate engine speed, and round-level model speed.
 * These measure THIS library's software performance (simulator throughput),
 * not the modelled hardware.
 */

#include <benchmark/benchmark.h>

#include "accel/omega.hpp"
#include "accel/perf_model.hpp"
#include "accel/policy.hpp"
#include "accel/spmm_engine.hpp"
#include "common/rng.hpp"
#include "graph/datasets.hpp"
#include "sparse/convert.hpp"
#include "sparse/spmm.hpp"

using namespace awb;

namespace {

CscMatrix
randomCsc(Rng &rng, Index rows, Index cols, double density)
{
    CooMatrix coo(rows, cols);
    for (Index i = 0; i < rows; ++i)
        for (Index j = 0; j < cols; ++j)
            if (rng.nextBool(density))
                coo.add(i, j, rng.nextFloat(-1.0f, 1.0f));
    coo.canonicalize();
    return CscMatrix::fromCoo(coo);
}

void
BM_SpmmCsc(benchmark::State &state)
{
    Rng rng(1);
    auto density = 1.0 / static_cast<double>(state.range(1));
    auto a = randomCsc(rng, static_cast<Index>(state.range(0)),
                       static_cast<Index>(state.range(0)), density);
    DenseMatrix b(static_cast<Index>(state.range(0)), 16);
    b.fillUniform(rng, -1.0f, 1.0f);
    for (auto _ : state) {
        auto c = spmmCsc(a, b);
        benchmark::DoNotOptimize(c.data().data());
    }
    state.SetItemsProcessed(state.iterations() * a.nnz() * 16);
}

void
BM_SpmmCsr(benchmark::State &state)
{
    Rng rng(2);
    auto density = 1.0 / static_cast<double>(state.range(1));
    auto a = cscToCsr(randomCsc(rng, static_cast<Index>(state.range(0)),
                                static_cast<Index>(state.range(0)),
                                density));
    DenseMatrix b(static_cast<Index>(state.range(0)), 16);
    b.fillUniform(rng, -1.0f, 1.0f);
    for (auto _ : state) {
        auto c = spmmCsr(a, b);
        benchmark::DoNotOptimize(c.data().data());
    }
    state.SetItemsProcessed(state.iterations() * a.nnz() * 16);
}

/** The engine's own fabric (its fixed 8-slot router buffers and the
 *  AccelConfig{} speedup) under uniform random traffic at full offered
 *  load for 256 cycles, then drained; items are task-hops (delivered
 *  tasks x stages). */
void
BM_OmegaThroughput(benchmark::State &state)
{
    const int ports = static_cast<int>(state.range(0));
    const AccelConfig cfg;
    Rng rng(3);
    Count hops = 0;
    for (auto _ : state) {
        OmegaNetwork net(ports, 8, cfg.networkSpeedup);
        auto sink = [](int, int) { return true; };
        for (int cycle = 0; cycle < 256; ++cycle) {
            net.tick(sink);
            for (int s = 0; s < ports; ++s)
                net.inject(static_cast<int>(rng.nextIndex(ports)), s);
        }
        while (!net.empty()) net.tick(sink);
        hops += net.flitsDelivered() * net.stages();
    }
    state.SetItemsProcessed(hops);
}

void
BM_CycleEngineCora(benchmark::State &state)
{
    auto ds = loadSyntheticByName("cora", 1, 0.2);
    AccelConfig cfg = makePolicyConfig("remote-d", 32);
    Rng rng(4);
    DenseMatrix b(ds.spec.nodes, 4);
    b.fillUniform(rng, -1.0f, 1.0f);
    for (auto _ : state) {
        RowPartition part(ds.spec.nodes, cfg.numPes, cfg.mapPolicy);
        SpmmResult r = SpmmEngine(cfg).execute(ds.adjacency, b,
                                               TdqKind::Tdq2OmegaCsc, part);
        benchmark::DoNotOptimize(r.stats.cycles);
    }
}

void
BM_RoundModelFullCora(benchmark::State &state)
{
    auto prof = loadProfile(findDataset("cora"), 1, 1.0);
    AccelConfig cfg = makePolicyConfig("remote-d", 1024);
    for (auto _ : state) {
        auto res = PerfModel(cfg).runGcn(prof);
        benchmark::DoNotOptimize(res.totalCycles);
    }
}

BENCHMARK(BM_SpmmCsc)->Args({256, 100})->Args({256, 10})->Args({1024, 100});
BENCHMARK(BM_SpmmCsr)->Args({256, 100})->Args({256, 10})->Args({1024, 100});
BENCHMARK(BM_OmegaThroughput)->Arg(64)->Arg(256)->Arg(4096);
BENCHMARK(BM_CycleEngineCora);
BENCHMARK(BM_RoundModelFullCora);

} // namespace

BENCHMARK_MAIN();
