/**
 * @file
 * Inference-serving tests (DESIGN.md §10): closed-form latencies on
 * hand-built traces through the real event loop, discipline semantics
 * (fifo / sjf-nnz / dyn-batch), the request queue (drop/timeout and
 * peak accounting, in-order takes from anywhere, range panics), SLO
 * counting, percentile and depth-trace units, ego extraction,
 * request-generator determinism, the discipline registry's near-miss
 * diagnostics, and the headline guarantee: the same options render
 * byte-identical serving JSON across repeated runs and across sweep
 * thread counts.
 */

#include <gtest/gtest.h>

#include "driver/serve_cli.hpp"
#include "graph/datasets.hpp"
#include "serve/ego.hpp"
#include "serve/queue.hpp"
#include "serve/request_gen.hpp"
#include "serve/scheduler.hpp"
#include "serve/serve.hpp"
#include "serve/service.hpp"
#include "serve/stats.hpp"

using namespace awb;
using namespace awb::serve;

namespace {

Request
traceRequest(std::uint64_t id, Cycle arrival,
             WorkloadKind kind = WorkloadKind::Gcn, Count nnz = 1)
{
    Request r;
    r.id = id;
    r.arrival = arrival;
    r.kind = kind;
    r.nnz = nnz;
    return r;
}

/** Trace-mode options: explicit discipline, no timeout, roomy queue. */
ServeOptions
traceOptions(const std::string &discipline, int devices)
{
    ServeOptions o;
    o.discipline = discipline;
    o.devices = devices;
    o.queueCapacity = 0;
    o.timeoutCycles = 0;
    return o;
}

} // namespace

// ------------------------------------------------------ percentiles

TEST(ServeStats, PercentileIsNearestRank)
{
    // 10..100 in scrambled order; nearest rank = ceil(p/100 * n), 1-based.
    std::vector<Cycle> s = {70, 10, 100, 40, 90, 20, 80, 50, 30, 60};
    EXPECT_EQ(percentile(s, 10), 10);
    EXPECT_EQ(percentile(s, 50), 50);
    EXPECT_EQ(percentile(s, 95), 100);
    EXPECT_EQ(percentile(s, 99.9), 100);
    EXPECT_EQ(percentile(s, 100), 100);
    // Tiny sample: p50 of {100, 190} is the first element.
    EXPECT_EQ(percentile({100, 190}, 50), 100);
    EXPECT_EQ(percentile({100, 190}, 99), 190);
}

TEST(ServeStatsDeath, PercentileRejectsEmptyAndOutOfRange)
{
    EXPECT_DEATH(percentile({}, 50), "empty sample");
    EXPECT_DEATH(percentile({1}, 0.0), "out of \\(0, 100\\]");
    EXPECT_DEATH(percentile({1}, 100.5), "out of \\(0, 100\\]");
}

TEST(ServeStats, SummarizeLatencies)
{
    EXPECT_EQ(summarizeLatencies({}).count, 0);
    EXPECT_EQ(summarizeLatencies({}).p999, 0);

    LatencySummary one = summarizeLatencies({5});
    EXPECT_EQ(one.count, 1);
    EXPECT_EQ(one.p50, 5);
    EXPECT_EQ(one.p999, 5);
    EXPECT_EQ(one.min, 5);
    EXPECT_EQ(one.max, 5);
    EXPECT_DOUBLE_EQ(one.mean, 5.0);

    std::vector<Cycle> s;
    for (Cycle c = 100; c >= 1; --c) s.push_back(c);
    LatencySummary big = summarizeLatencies(s);
    EXPECT_EQ(big.count, 100);
    EXPECT_EQ(big.p50, 50);
    EXPECT_EQ(big.p95, 95);
    EXPECT_EQ(big.p99, 99);
    EXPECT_EQ(big.p999, 100);
    EXPECT_EQ(big.min, 1);
    EXPECT_EQ(big.max, 100);
    EXPECT_DOUBLE_EQ(big.mean, 50.5);
}

TEST(ServeStats, DepthTraceTimeWeightedMean)
{
    DepthTrace t;
    t.record(0, 0);
    t.record(10, 2);
    t.record(20, 1);
    // 10 cycles at 0, 10 at 2, 10 at 1 over [0, 30].
    EXPECT_DOUBLE_EQ(t.meanDepth(30), 1.0);

    // Same-cycle records coalesce to the final depth; repeats of the
    // same depth add no sample.
    DepthTrace c;
    c.record(0, 0);
    c.record(0, 3);
    c.record(0, 1);
    ASSERT_EQ(c.samples().size(), 1u);
    EXPECT_EQ(c.samples()[0].depth, 1u);
    c.record(5, 1);
    EXPECT_EQ(c.samples().size(), 1u);
}

TEST(ServeStatsDeath, DepthTraceRejectsTimeReversal)
{
    DepthTrace t;
    t.record(10, 1);
    EXPECT_DEATH(t.record(9, 2), "time went backwards");
}

// ---------------------------------------------------- request queue

TEST(ServeQueue, AdmitDropExpireAccounting)
{
    RequestQueue q(2);
    EXPECT_TRUE(q.admit(traceRequest(0, 0)));
    EXPECT_TRUE(q.admit(traceRequest(1, 5)));
    EXPECT_FALSE(q.admit(traceRequest(2, 6)));  // full → counted drop
    EXPECT_EQ(q.dropped(), 1);
    EXPECT_EQ(q.admitted(), 2);
    EXPECT_EQ(q.peakDepth(), 2u);

    // Earliest eviction instant: arrival 0 ages out right after 100.
    EXPECT_EQ(q.nextExpiry(100), 101);
    EXPECT_EQ(q.nextExpiry(0), -1);  // timeout disabled

    std::vector<Request> evicted;
    EXPECT_EQ(q.expire(101, 100, &evicted), 1u);
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0].id, 0u);  // arrival 5 is only 96 old — kept
    EXPECT_EQ(q.timedOut(), 1);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.expire(101, 0), 0u);  // disabled timeout never evicts
}

// The disciplines read the queue by index and take from anywhere in it
// (sjf-nnz the smallest, dyn-batch every same-class member); what is
// left must stay in arrival order, and the requests must keep what they
// own.
TEST(ServeQueue, TakeFromTheMiddleKeepsTheOrderOfTheRest)
{
    RequestQueue q(0);
    for (std::uint64_t id = 0; id < 5; ++id) {
        Request r = traceRequest(id, static_cast<Cycle>(id));
        r.nodes.assign(id + 1, static_cast<Index>(id));
        q.admit(std::move(r));
    }
    const Request mid = q.take(2);
    EXPECT_EQ(mid.id, 2u);
    EXPECT_EQ(mid.nodes, std::vector<Index>(3, 2));
    ASSERT_EQ(q.size(), 4u);
    const std::uint64_t rest[] = {0, 1, 3, 4};
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(q.at(i).id, rest[i]);
        EXPECT_EQ(q.at(i).nodes.size(), rest[i] + 1);
    }
    EXPECT_EQ(q.take(3).id, 4u);  // the back
    EXPECT_EQ(q.take(0).id, 0u);  // the front
    EXPECT_EQ(q.at(0).id, 1u);
    EXPECT_EQ(q.at(1).id, 3u);
}

TEST(ServeQueue, PeakIsAHighWaterMarkAcrossTakesAndReadmits)
{
    RequestQueue q(3);  // not a power of two: full at exactly three
    for (std::uint64_t id = 0; id < 4; ++id) q.admit(traceRequest(id, 0));
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.dropped(), 1);
    q.take(0);
    q.take(0);
    EXPECT_TRUE(q.admit(traceRequest(4, 1)));
    EXPECT_EQ(q.peakDepth(), 3u);  // depth 2 now; the mark stays
    EXPECT_TRUE(q.admit(traceRequest(5, 1)));
    EXPECT_FALSE(q.admit(traceRequest(6, 1)));
    EXPECT_EQ(q.admitted(), 5);
    EXPECT_EQ(q.dropped(), 2);
    EXPECT_EQ(q.peakDepth(), 3u);
    EXPECT_EQ(q.at(0).id, 2u);
    EXPECT_EQ(q.at(2).id, 5u);

    // Capacity one alternates between full and empty.
    RequestQueue one(1);
    for (std::uint64_t id = 0; id < 3; ++id) {
        EXPECT_TRUE(one.admit(traceRequest(id, 0)));
        EXPECT_FALSE(one.admit(traceRequest(id + 10, 0)));
        EXPECT_EQ(one.take(0).id, id);
        EXPECT_TRUE(one.empty());
    }
    EXPECT_EQ(one.admitted(), 3);
    EXPECT_EQ(one.dropped(), 3);
    EXPECT_EQ(one.peakDepth(), 1u);
}

TEST(ServeQueue, CapacityZeroIsUnbounded)
{
    RequestQueue q(0);
    for (std::uint64_t id = 0; id < 5000; ++id)
        EXPECT_TRUE(q.admit(traceRequest(id, 0)));
    for (std::uint64_t id = 0; id < 3000; ++id)
        EXPECT_EQ(q.take(0).id, id);
    for (std::uint64_t id = 0; id < 10; ++id)
        EXPECT_TRUE(q.admit(traceRequest(5000 + id, 0)));
    EXPECT_EQ(q.size(), 2010u);
    EXPECT_EQ(q.admitted(), 5010);
    EXPECT_EQ(q.dropped(), 0);
    EXPECT_EQ(q.peakDepth(), 5000u);
    EXPECT_EQ(q.at(0).id, 3000u);
    EXPECT_EQ(q.at(2009).id, 5009u);
}

TEST(ServeQueueDeath, OutOfRangeAtAndTakePanic)
{
    RequestQueue q(0);
    EXPECT_DEATH(q.at(0), "RequestQueue::at index out of range");
    EXPECT_DEATH(q.take(0), "RequestQueue::take index out of range");
    q.admit(traceRequest(0, 0));
    EXPECT_DEATH(q.at(1), "RequestQueue::at index out of range");
    EXPECT_DEATH(q.take(1), "RequestQueue::take index out of range");
}

// ------------------------------------------------ closed-form traces

TEST(ServeTrace, FifoSingleDeviceClosedForm)
{
    // Two requests at cycles 0 and 10, fixed 100-cycle service, one
    // device: latencies are exactly 100 and 190.
    FixedServiceModel svc(100, 0);
    ServeResult r = runServeTrace(
        {traceRequest(0, 0), traceRequest(1, 10)}, svc,
        traceOptions("fifo", 1));

    EXPECT_EQ(r.offered, 2);
    EXPECT_EQ(r.admitted, 2);
    EXPECT_EQ(r.completed, 2);
    EXPECT_EQ(r.dropped, 0);
    EXPECT_EQ(r.timedOut, 0);
    EXPECT_EQ(r.endCycle, 200);
    EXPECT_EQ(r.latency.min, 100);
    EXPECT_EQ(r.latency.max, 190);
    EXPECT_EQ(r.latency.p50, 100);
    EXPECT_EQ(r.latency.p99, 190);
    EXPECT_DOUBLE_EQ(r.latency.mean, 145.0);
    EXPECT_EQ(r.queueWait.min, 0);   // first request never waits
    EXPECT_EQ(r.queueWait.max, 90);  // second waits 100 - 10
    EXPECT_EQ(r.batches, 2);
    EXPECT_DOUBLE_EQ(r.meanBatchSize, 1.0);
    ASSERT_EQ(r.devices.size(), 1u);
    EXPECT_EQ(r.devices[0].busyCycles, 200);
    EXPECT_DOUBLE_EQ(r.devices[0].utilization, 1.0);
    EXPECT_EQ(r.devices[0].requests, 2);
    // Queue depth: 1 over [10, 100), 0 elsewhere in [0, 200].
    EXPECT_DOUBLE_EQ(r.meanQueueDepth, 0.45);
    EXPECT_EQ(r.egoCompleted, 2);
    EXPECT_EQ(r.fullCompleted, 0);
}

TEST(ServeTrace, TwoDevicesServeSimultaneousArrivalsInParallel)
{
    FixedServiceModel svc(100, 0);
    ServeResult r = runServeTrace(
        {traceRequest(0, 0), traceRequest(1, 0)}, svc,
        traceOptions("fifo", 2));
    EXPECT_EQ(r.completed, 2);
    EXPECT_EQ(r.endCycle, 100);
    EXPECT_EQ(r.latency.min, 100);
    EXPECT_EQ(r.latency.max, 100);
    ASSERT_EQ(r.devices.size(), 2u);
    EXPECT_EQ(r.devices[0].requests, 1);
    EXPECT_EQ(r.devices[1].requests, 1);
}

TEST(ServeTrace, SjfServesSmallestNnzFirst)
{
    // Both queued at cycle 0; sjf-nnz must pick the 1-nnz GraphSAGE
    // request before the 5-nnz GCN one (fifo would reverse this).
    FixedServiceModel svc(10, 0);
    ServeResult r = runServeTrace(
        {traceRequest(0, 0, WorkloadKind::Gcn, 5),
         traceRequest(1, 0, WorkloadKind::GraphSage, 1)},
        svc, traceOptions("sjf-nnz", 1));
    const auto &gcn =
        r.kindLatency[static_cast<std::size_t>(WorkloadKind::Gcn)];
    const auto &sage =
        r.kindLatency[static_cast<std::size_t>(WorkloadKind::GraphSage)];
    EXPECT_EQ(sage.max, 10);  // served first
    EXPECT_EQ(gcn.max, 20);   // served second
}

TEST(ServeTrace, DynBatchCoalescesWhenSecondRequestArrives)
{
    // maxBatch 2: the lone front request holds until the second arrives
    // at cycle 10, then both dispatch as one batch costing 100 + 2*10.
    FixedServiceModel svc(100, 10);
    ServeOptions o = traceOptions("dyn-batch", 1);
    o.disciplineParams.maxBatch = 2;
    o.disciplineParams.maxWait = 50;
    ServeResult r = runServeTrace(
        {traceRequest(0, 0), traceRequest(1, 10)}, svc, o);
    EXPECT_EQ(r.completed, 2);
    EXPECT_EQ(r.batches, 1);
    EXPECT_DOUBLE_EQ(r.meanBatchSize, 2.0);
    EXPECT_EQ(r.endCycle, 130);
    EXPECT_EQ(r.latency.max, 130);  // arrival 0, done at 10 + 120
    EXPECT_EQ(r.latency.min, 120);
    EXPECT_EQ(r.queueWait.max, 10);  // front waited for the batch
    EXPECT_EQ(r.queueWait.min, 0);
}

TEST(ServeTrace, DynBatchDeadlineDispatchesUnderfullBatch)
{
    // No second request ever arrives: the front's maxWait deadline
    // fires at cycle 50 and the batch of one dispatches then.
    FixedServiceModel svc(100, 10);
    ServeOptions o = traceOptions("dyn-batch", 1);
    o.disciplineParams.maxBatch = 4;
    o.disciplineParams.maxWait = 50;
    ServeResult r = runServeTrace({traceRequest(0, 0)}, svc, o);
    EXPECT_EQ(r.completed, 1);
    EXPECT_EQ(r.batches, 1);
    EXPECT_EQ(r.queueWait.max, 50);
    EXPECT_EQ(r.latency.max, 160);  // 50 wait + 110 service
    EXPECT_EQ(r.endCycle, 160);
}

TEST(ServeTrace, BoundedQueueDropsWhatItCannotAdmit)
{
    // Capacity 1, 1000-cycle service: the third arrival finds the
    // queue occupied and is dropped; conservation still holds.
    FixedServiceModel svc(1000, 0);
    ServeOptions o = traceOptions("fifo", 1);
    o.queueCapacity = 1;
    ServeResult r = runServeTrace(
        {traceRequest(0, 0), traceRequest(1, 1), traceRequest(2, 2)},
        svc, o);
    EXPECT_EQ(r.offered, 3);
    EXPECT_EQ(r.dropped, 1);
    EXPECT_EQ(r.completed, 2);
    EXPECT_EQ(r.offered, r.completed + r.dropped + r.timedOut);
    EXPECT_EQ(r.endCycle, 2000);
    EXPECT_EQ(r.latency.max, 1999);  // arrival 1 dispatched at 1000
}

TEST(ServeTrace, QueueTimeoutEvictsAgedRequests)
{
    // Device busy for 1000 cycles; the two queued requests age past the
    // 100-cycle deadline and are evicted, never served.
    FixedServiceModel svc(1000, 0);
    ServeOptions o = traceOptions("fifo", 1);
    o.timeoutCycles = 100;
    ServeResult r = runServeTrace(
        {traceRequest(0, 0), traceRequest(1, 1), traceRequest(2, 2)},
        svc, o);
    EXPECT_EQ(r.offered, 3);
    EXPECT_EQ(r.timedOut, 2);
    EXPECT_EQ(r.completed, 1);
    EXPECT_EQ(r.latency.max, 1000);
    EXPECT_EQ(r.offered, r.completed + r.dropped + r.timedOut);
}

TEST(ServeTrace, SloViolationsCountTailAndFailures)
{
    // SLO at exactly 150 cycles: the 190-cycle completion violates it,
    // the 100-cycle one does not.
    FixedServiceModel svc(100, 0);
    ServeOptions o = traceOptions("fifo", 1);
    o.sloMs = 150.0 / (275.0 * 1000.0);  // 150 cycles at 275 MHz
    ServeResult r = runServeTrace(
        {traceRequest(0, 0), traceRequest(1, 10)}, svc, o);
    EXPECT_EQ(r.sloCycles, 150);
    EXPECT_EQ(r.sloViolations, 1);
}

TEST(ServeTrace, ZeroCostServiceIsClampedToOneCycle)
{
    FixedServiceModel svc(0, 0);
    ServeResult r =
        runServeTrace({traceRequest(0, 0)}, svc, traceOptions("fifo", 1));
    EXPECT_EQ(r.completed, 1);
    EXPECT_EQ(r.latency.max, 1);
    EXPECT_EQ(r.endCycle, 1);
}

// ------------------------------------------------- ego extraction

TEST(ServeEgo, KhopNodeSetsAreSortedCappedAndNested)
{
    Dataset ds = loadSyntheticByName("cora", 1, 0.1);
    const CscMatrix &a = ds.adjacency;
    const Index seed = 3;

    std::vector<Index> one = egoNodes(a, seed, 1, 1 << 20);
    std::vector<Index> two = egoNodes(a, seed, 2, 1 << 20);
    EXPECT_TRUE(std::is_sorted(one.begin(), one.end()));
    EXPECT_TRUE(std::binary_search(one.begin(), one.end(), seed));
    EXPECT_GE(two.size(), one.size());
    for (Index n : one)  // 1-hop ⊆ 2-hop
        EXPECT_TRUE(std::binary_search(two.begin(), two.end(), n));

    std::vector<Index> capped = egoNodes(a, seed, 3, 4);
    EXPECT_LE(capped.size(), 4u);
    EXPECT_FALSE(capped.empty());
}

TEST(ServeEgo, InducedSubgraphOverAllNodesIsTheWholeGraph)
{
    Dataset ds = loadSyntheticByName("cora", 1, 0.05);
    const CscMatrix &a = ds.adjacency;
    std::vector<Index> all(static_cast<std::size_t>(a.rows()));
    for (std::size_t i = 0; i < all.size(); ++i)
        all[i] = static_cast<Index>(i);
    CscMatrix sub = inducedSubgraph(a, all);
    EXPECT_EQ(sub.rows(), a.rows());
    EXPECT_EQ(sub.nnz(), a.nnz());

    std::vector<Index> nodes = egoNodes(a, 0, 2, 64);
    CscMatrix ego = inducedSubgraph(a, nodes);
    EXPECT_EQ(ego.rows(), static_cast<Index>(nodes.size()));
    EXPECT_LE(ego.nnz(), a.nnz());

    CsrMatrix x = selectRows(ds.features, nodes);
    EXPECT_EQ(x.rows(), static_cast<Index>(nodes.size()));
    EXPECT_EQ(x.cols(), ds.features.cols());
}

// --------------------------------------------- request generation

TEST(ServeGen, SameSeedSameStreamDifferentSeedDiverges)
{
    Dataset ds = loadSyntheticByName("cora", 1, 0.1);
    RequestMix mix;
    RequestGenerator a(ds, mix, 42);
    RequestGenerator b(ds, mix, 42);
    RequestGenerator c(ds, mix, 43);

    bool diverged = false;
    for (int i = 0; i < 32; ++i) {
        Request ra = a.next();
        Request rb = b.next();
        Request rc = c.next();
        EXPECT_EQ(ra.id, rb.id);
        EXPECT_EQ(ra.kind, rb.kind);
        EXPECT_EQ(ra.scope, rb.scope);
        EXPECT_EQ(ra.seedNode, rb.seedNode);
        EXPECT_EQ(ra.nnz, rb.nnz);
        EXPECT_EQ(ra.nodes, rb.nodes);
        EXPECT_EQ(a.nextArrivalGap(1000.0), b.nextArrivalGap(1000.0));
        if (rc.seedNode != ra.seedNode || rc.kind != ra.kind)
            diverged = true;
    }
    EXPECT_TRUE(diverged);
    EXPECT_EQ(a.issued(), 32u);
}

TEST(ServeGen, EgoRequestsCarryTheirInducedProfile)
{
    Dataset ds = loadSyntheticByName("cora", 1, 0.1);
    RequestMix mix;
    mix.egoFraction = 1.0;
    RequestGenerator gen(ds, mix, 7);
    for (int i = 0; i < 16; ++i) {
        Request r = gen.next();
        ASSERT_EQ(r.scope, RequestScope::Ego);
        EXPECT_FALSE(r.nodes.empty());
        EXPECT_EQ(r.aRowNnz.size(), r.nodes.size());
        EXPECT_EQ(r.xRowNnz.size(), r.nodes.size());
        Count sum = 0;
        for (Count c : r.aRowNnz) sum += c;
        EXPECT_EQ(sum, r.nnz);
    }
}

TEST(ServeGenDeath, MixValidationIsFatal)
{
    Dataset ds = loadSyntheticByName("cora", 1, 0.05);
    RequestMix bad_weights;
    bad_weights.gcn = bad_weights.graphsage = bad_weights.gin = 0.0;
    EXPECT_EXIT(RequestGenerator(ds, bad_weights, 1),
                ::testing::ExitedWithCode(1), "sum > 0");
    RequestMix bad_frac;
    bad_frac.egoFraction = 1.5;
    EXPECT_EXIT(RequestGenerator(ds, bad_frac, 1),
                ::testing::ExitedWithCode(1), "egoFraction");
}

// ------------------------------------------------- registry errors

TEST(ServeRegistryDeath, UnknownDisciplineSuggestsNearMiss)
{
    EXPECT_EXIT(DisciplineRegistry::instance().get("fifoo"),
                ::testing::ExitedWithCode(1), "did you mean 'fifo'");
    EXPECT_EXIT(makeDiscipline("dyn-batc", {}),
                ::testing::ExitedWithCode(1), "did you mean 'dyn-batch'");
}

TEST(ServeRegistryDeath, DuplicateDisciplineIsRejected)
{
    EXPECT_EXIT(DisciplineRegistry::instance().add(
                    {"fifo", "dup", nullptr}),
                ::testing::ExitedWithCode(1),
                "duplicate batch discipline 'fifo'");
}

TEST(ServeRegistry, BuiltinsAreRegistered)
{
    const auto all = DisciplineRegistry::instance().all();
    ASSERT_GE(all.size(), 3u);
    EXPECT_EQ(all[0]->name, "fifo");
    EXPECT_NE(DisciplineRegistry::instance().find("sjf-nnz"), nullptr);
    EXPECT_NE(DisciplineRegistry::instance().find("dyn-batch"), nullptr);
    EXPECT_EQ(DisciplineRegistry::instance().find("lifo"), nullptr);
}

TEST(ServeOptionsDeath, EnumParsersRejectUnknownNames)
{
    EXPECT_EXIT(parseServeFidelity("cycle-ish"),
                ::testing::ExitedWithCode(1), "unknown serving fidelity");
    EXPECT_EXIT(parseArrivalMode("poisson"),
                ::testing::ExitedWithCode(1), "unknown arrival mode");
    EXPECT_EQ(parseServeFidelity("model"), ServeFidelity::Model);
    EXPECT_EQ(parseServeFidelity("cycle"), ServeFidelity::Cycle);
    EXPECT_EQ(parseArrivalMode("open"), ArrivalMode::Open);
    EXPECT_EQ(parseArrivalMode("closed"), ArrivalMode::Closed);
}

TEST(ServeOptionsDeath, ClosedLoopCapacityBelowClientsIsFatal)
{
    ServeOptions o;
    o.arrivals = ArrivalMode::Closed;
    o.clients = 8;
    o.queueCapacity = 4;
    o.durationMs = 0.1;
    EXPECT_EXIT(runServe(o), ::testing::ExitedWithCode(1),
                "starve clients");
}

// ------------------------------------------------- end-to-end runs

TEST(ServeDeterminism, ModelFidelityJsonIsByteIdentical)
{
    ServeOptions o;
    o.dataset = "cora";
    o.ratePerSec = 50000.0;
    o.durationMs = 1.0;
    o.devices = 2;
    o.discipline = "dyn-batch";
    ServeResult a = runServe(o);
    ServeResult b = runServe(o);
    EXPECT_EQ(driver::serveToJson(o, a).dump(2),
              driver::serveToJson(o, b).dump(2));
    EXPECT_GT(a.completed, 0);
    EXPECT_EQ(a.offered, a.completed + a.dropped + a.timedOut);
}

TEST(ServeDeterminism, CycleFidelityJsonIsByteIdentical)
{
    ServeOptions o;
    o.dataset = "cora";
    o.fidelity = ServeFidelity::Cycle;
    o.scale = 0.2;
    o.ratePerSec = 20000.0;
    o.durationMs = 5.0;
    o.requestCap = 4;
    ServeResult a = runServe(o);
    ServeResult b = runServe(o);
    EXPECT_EQ(driver::serveToJson(o, a).dump(2),
              driver::serveToJson(o, b).dump(2));
    EXPECT_GT(a.completed, 0);
}

TEST(ServeDeterminism, ClosedLoopConservesRequests)
{
    ServeOptions o;
    o.dataset = "cora";
    o.arrivals = ArrivalMode::Closed;
    o.clients = 4;
    o.durationMs = 0.5;
    ServeResult r = runServe(o);
    EXPECT_GT(r.completed, 0);
    EXPECT_EQ(r.offered, r.completed + r.dropped + r.timedOut);
    // Every completion belongs to one of the fixed clients.
    EXPECT_EQ(r.dropped, 0);  // capacity 1024 >= 4 clients
}

TEST(ServeSweep, ThreadCountCannotChangeTheBytes)
{
    driver::ServeSweepOptions o;
    o.base.dataset = "cora";
    o.base.durationMs = 0.5;
    o.rates = {20000.0, 40000.0};
    o.disciplines = {"fifo", "dyn-batch"};
    o.deviceCounts = {1, 2};
    o.threads = 1;
    auto serial = driver::runServeSweep(o);
    o.threads = 8;
    auto wide = driver::runServeSweep(o);
    ASSERT_EQ(serial.size(), wide.size());
    ASSERT_EQ(serial.size(), 8u);  // 2 rates × 2 disciplines × 2 devices
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(
            driver::serveToJson(serial[i].opts, serial[i].result).dump(2),
            driver::serveToJson(wide[i].opts, wide[i].result).dump(2))
            << "grid point " << i;
}
