/**
 * @file
 * Tests for the FIFO primitive and the Omega network:
 * full src/dest delivery coverage, in-order per-path delivery, contention
 * backpressure, and buffer-occupancy accounting.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "accel/omega.hpp"
#include "sim/fifo.hpp"

using namespace awb;

TEST(Fifo, FifoOrder)
{
    Fifo<int> q;
    q.push(1);
    q.push(2);
    q.push(3);
    EXPECT_EQ(q.pop(), 1);
    EXPECT_EQ(q.pop(), 2);
    EXPECT_EQ(q.pop(), 3);
    EXPECT_TRUE(q.empty());
}

TEST(Fifo, CapacityEnforced)
{
    Fifo<int> q(2);
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    EXPECT_TRUE(q.full());
    EXPECT_FALSE(q.push(3));
    q.pop();
    EXPECT_TRUE(q.push(3));
}

TEST(Fifo, UnboundedTracksPeak)
{
    Fifo<int> q;  // capacity 0 == unbounded
    for (int i = 0; i < 100; ++i) q.push(i);
    for (int i = 0; i < 60; ++i) q.pop();
    for (int i = 0; i < 10; ++i) q.push(i);
    EXPECT_EQ(q.peakOccupancy(), 100u);
    EXPECT_EQ(q.totalPushes(), 110);
}

namespace {

/** Drain everything currently in the network into `out`. */
void
drainAll(OmegaNetwork &net, std::vector<Task> &out, int max_cycles = 1000)
{
    int cycles = 0;
    while (!net.empty() && cycles++ < max_cycles) {
        net.tick(cycles, [&](const Task &t, int port) {
            EXPECT_EQ(port, t.homePe);
            out.push_back(t);
            return true;
        });
    }
}

} // namespace

TEST(Omega, AllSrcDestPairsRoute)
{
    // Routing invariant: every (src, dest) pair must end at dest.
    for (int ports : {2, 4, 8, 16}) {
        OmegaNetwork net(ports, 4);
        for (int s = 0; s < ports; ++s) {
            for (int d = 0; d < ports; ++d) {
                ASSERT_TRUE(net.inject(Task{static_cast<Index>(d), d}, s));
                std::vector<Task> out;
                drainAll(net, out);
                ASSERT_EQ(out.size(), 1u) << "ports=" << ports
                                          << " s=" << s << " d=" << d;
                EXPECT_EQ(out[0].homePe, d);
            }
        }
    }
}

TEST(Omega, DeliveryLatencyIsStageCount)
{
    OmegaNetwork net(8, 4);  // 3 stages
    ASSERT_TRUE(net.inject(Task{0, 5}, 0));
    int cycles = 0;
    bool delivered = false;
    while (!delivered && cycles < 100) {
        ++cycles;
        net.tick(cycles, [&](const Task &, int) {
            delivered = true;
            return true;
        });
    }
    EXPECT_EQ(cycles, 3);
}

TEST(Omega, ContentionSerializesSameDestination)
{
    // P flits all to PE 0: the final output port delivers 1 per cycle, so
    // draining takes at least P cycles.
    const int P = 8;
    OmegaNetwork net(P, 8, /*speedup=*/1);
    for (int s = 0; s < P; ++s) ASSERT_TRUE(net.inject(Task{0, 0}, s));
    std::vector<Task> out;
    int cycles = 0;
    while (!net.empty() && cycles < 1000) {
        ++cycles;
        net.tick(cycles, [&](const Task &t, int) {
            out.push_back(t);
            return true;
        });
    }
    EXPECT_EQ(out.size(), 8u);
    EXPECT_GE(cycles, 8);
    EXPECT_GT(net.blockedMoves(), 0);
}

TEST(Omega, BackpressureWhenSinkRejects)
{
    OmegaNetwork net(4, 2);
    ASSERT_TRUE(net.inject(Task{2, 2}, 0));
    // Sink always rejects: the task must stay in the fabric.
    for (int i = 0; i < 10; ++i)
        net.tick(i, [](const Task &, int) { return false; });
    EXPECT_FALSE(net.empty());
    // Now accept.
    std::vector<Task> out;
    drainAll(net, out);
    ASSERT_EQ(out.size(), 1u);
}

TEST(Omega, EntryBufferFillsUnderInjectionPressure)
{
    OmegaNetwork net(4, 1);
    const Task t{1, 1};
    EXPECT_TRUE(net.inject(t, 0));
    // Same entry path, buffer depth 1 -> second inject fails.
    EXPECT_FALSE(net.inject(t, 0));
}

TEST(Omega, ThroughputUnderUniformTraffic)
{
    // With uniformly spread destinations the network should sustain close
    // to 1 flit/port/cycle; 256 flits over 8 ports in well under 96
    // cycles.
    const int P = 8;
    OmegaNetwork net(P, 4);
    int sent = 0, received = 0, cycles = 0;
    while (received < 256 && cycles < 500) {
        ++cycles;
        net.tick(cycles, [&](const Task &, int) {
            ++received;
            return true;
        });
        for (int s = 0; s < P && sent < 256; ++s) {
            const int d = sent % P;
            if (net.inject(Task{static_cast<Index>(d), d}, s)) ++sent;
        }
    }
    EXPECT_EQ(received, 256);
    EXPECT_LT(cycles, 96);
    EXPECT_GE(net.roundPeakBufferDepth(), 1u);
}
