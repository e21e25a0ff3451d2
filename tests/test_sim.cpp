/**
 * @file
 * Tests for the Omega network: full src/dest delivery coverage,
 * in-order per-path delivery, contention backpressure, and
 * buffer-occupancy accounting.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "engine_checks.hpp"

#include "accel/config.hpp"
#include "accel/omega.hpp"
#include "common/rng.hpp"

using namespace awb;

namespace {

/** Drain everything currently in the network into `out`. */
void
drainAll(OmegaNetwork &net, std::vector<int> &out, int max_cycles = 1000)
{
    int cycles = 0;
    while (!net.empty() && cycles++ < max_cycles) {
        net.tick([&](int dest, int port) {
            EXPECT_EQ(port, dest);
            out.push_back(dest);
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
                ASSERT_TRUE(net.inject(d, s));
                std::vector<int> out;
                drainAll(net, out);
                ASSERT_EQ(out.size(), 1u) << "ports=" << ports
                                          << " s=" << s << " d=" << d;
                EXPECT_EQ(out[0], d);
            }
        }
    }
}

TEST(Omega, DeliveryLatencyIsStageCount)
{
    OmegaNetwork net(8, 4);  // 3 stages
    ASSERT_TRUE(net.inject(5, 0));
    int cycles = 0;
    bool delivered = false;
    while (!delivered && cycles < 100) {
        ++cycles;
        net.tick([&](int, int) {
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
    for (int s = 0; s < P; ++s) ASSERT_TRUE(net.inject(0, s));
    std::vector<int> out;
    int cycles = 0;
    while (!net.empty() && cycles < 1000) {
        ++cycles;
        net.tick([&](int dest, int) {
            out.push_back(dest);
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
    ASSERT_TRUE(net.inject(2, 0));
    // Sink always rejects: the flit must stay in the fabric.
    for (int i = 0; i < 10; ++i) net.tick([](int, int) { return false; });
    EXPECT_FALSE(net.empty());
    // Now accept.
    std::vector<int> out;
    drainAll(net, out);
    ASSERT_EQ(out.size(), 1u);
}

TEST(Omega, EntryBufferFillsUnderInjectionPressure)
{
    OmegaNetwork net(4, 1);
    EXPECT_TRUE(net.inject(1, 0));
    // Same entry path, buffer depth 1 -> second inject fails.
    EXPECT_FALSE(net.inject(1, 0));
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
        net.tick([&](int, int) {
            ++received;
            return true;
        });
        for (int s = 0; s < P && sent < 256; ++s) {
            if (net.inject(sent % P, s)) ++sent;
        }
    }
    EXPECT_EQ(received, 256);
    EXPECT_LT(cycles, 96);
    EXPECT_GE(net.roundPeakBufferDepth(), 1u);
}

namespace {

/** Outcome of one seeded schedule through an Omega fabric. */
struct Schedule
{
    Count delivered = 0;
    Count offered = 0;  ///< flits accepted by inject()
    Count blocked = 0;
    int cycles = 0;
    std::size_t peak = 0;
    std::uint64_t digest = 0;
};

/**
 * Seeded random traffic (~75% offered load) for 400 cycles through a
 * `ports`-wide fabric whose sink rejects on a fixed (cycle, port)
 * pattern, run until the fabric drains. The digest covers the per-cycle
 * (cycle, out_port) delivery sequence plus the blocked-move count, so it
 * pins the schedule of every output port: any change to buffer
 * representation, arbitration or stage order that alters timing changes
 * it. Flits bound for the same port are indistinguishable, so their
 * order among themselves is not covered; no engine output reads it.
 */
Schedule
seededSchedule(int ports, int depth, int speedup)
{
    OmegaNetwork net(ports, depth, speedup);
    Rng rng(2024);
    Digest d;
    Schedule out;
    int cycle = 0;
    for (; cycle < 400 || !net.empty(); ++cycle) {
        if (cycle >= 10000) {
            ADD_FAILURE() << "fabric did not drain";
            break;
        }
        net.tick([&](int dest, int port) {
            EXPECT_EQ(port, dest);
            if ((cycle * 7 + port * 3) % 5 == 0) return false;
            d.add(static_cast<std::uint64_t>(cycle));
            d.add(static_cast<std::uint64_t>(port));
            ++out.delivered;
            return true;
        });
        if (cycle >= 400) continue;
        for (int s = 0; s < ports; ++s) {
            if (rng.nextBounded(4) == 0) continue;  // ~75% offered load
            const int dst = static_cast<int>(
                rng.nextIndex(static_cast<Index>(ports)));
            if (net.inject(dst, s)) ++out.offered;
        }
    }
    d.add(static_cast<std::uint64_t>(net.blockedMoves()));
    EXPECT_EQ(net.flitsDelivered(), out.delivered);
    out.blocked = net.blockedMoves();
    out.cycles = cycle;
    out.peak = net.roundPeakBufferDepth();
    out.digest = d.h;
    return out;
}

} // namespace

TEST(Omega, SeededScheduleDigestIsLocked)
{
    // 16 ports, depth 2, speedup 2.
    const Schedule s = seededSchedule(16, 2, 2);
    EXPECT_EQ(s.delivered, s.offered);
    // Recorded values: changing how buffers are stored must move none.
    EXPECT_EQ(s.delivered, 4754);
    EXPECT_EQ(s.blocked, 3709);
    EXPECT_EQ(s.cycles, 407);
    EXPECT_EQ(s.digest, 0xbba2fc6a1cd3c1d1ULL) << std::hex << s.digest;
}

TEST(Omega, SeededScheduleDigestAtNonPowerOfTwoDepth)
{
    // Depth 3: a power-of-two slot ring holds more slots than the
    // capacity, so occupancy, not slot count, must bound every buffer.
    const Schedule s = seededSchedule(16, 3, 2);
    EXPECT_EQ(s.delivered, s.offered);
    EXPECT_LE(s.peak, 3u);
    EXPECT_EQ(s.delivered, 4798);
    EXPECT_EQ(s.blocked, 2236);
    EXPECT_EQ(s.cycles, 407);
    EXPECT_EQ(s.peak, 3u);
    EXPECT_EQ(s.digest, 0x95673f0eeb0fc3b1ULL) << std::hex << s.digest;
}

TEST(Omega, SeededScheduleDigestAtEngineDefaults)
{
    // 64 ports at the engine's default fabric: depth 8 (fixed in the
    // engine), speedup 8.
    const AccelConfig cfg;
    const Schedule s = seededSchedule(64, 8, cfg.networkSpeedup);
    EXPECT_EQ(s.delivered, s.offered);
    EXPECT_EQ(s.delivered, 19279);
    EXPECT_EQ(s.blocked, 4741);
    EXPECT_EQ(s.cycles, 408);
    EXPECT_EQ(s.peak, 8u);
    EXPECT_EQ(s.digest, 0xa4b3144188e34271ULL) << std::hex << s.digest;
}

TEST(Omega, SeededScheduleDigestAt256Ports)
{
    // The 256-PE fabric of the event-step benchmark: 256 ports, depth 8,
    // speedup 8, eight stages.
    const AccelConfig cfg;
    const Schedule s = seededSchedule(256, 8, cfg.networkSpeedup);
    EXPECT_EQ(s.delivered, s.offered);
    EXPECT_EQ(s.delivered, 76945);
    EXPECT_EQ(s.blocked, 18383);
    EXPECT_EQ(s.cycles, 410);
    EXPECT_EQ(s.peak, 8u);
    EXPECT_EQ(s.digest, 0x59f7c7ac9862a426ULL) << std::hex << s.digest;
}

namespace {

/** (cycle, out_port) of each delivery, in order. */
using Deliveries = std::vector<std::pair<int, int>>;

/**
 * Eight flits through an 8-port speedup-1 fabric whose priority toggle
 * starts at `parity`. Source s is bound for port shuffle(s), so the two
 * flits at each stage-0 router (sources r and r + 4) differ only in the
 * last address bit: they contend for the same output, and the toggle
 * decides which one reaches its port first.
 */
Deliveries
contendedSchedule(int parity)
{
    OmegaNetwork net(8, 4, /*speedup=*/1);
    for (int s = 0; s < 8; ++s) {
        const int dest = ((s << 1) | (s >> 2)) & 7;
        EXPECT_TRUE(net.inject(dest, s));
    }
    net.setArbitration(parity);
    Deliveries out;
    for (int cycle = 0; !net.empty() && cycle < 100; ++cycle)
        net.tick([&](int, int port) {
            out.emplace_back(cycle, port);
            return true;
        });
    return out;
}

} // namespace

TEST(Omega, ArbitrationParityOrdersContendedRouter)
{
    // Every router shares one input-priority toggle; starting it at 0 or
    // 1 must give two different, fixed delivery schedules.
    const Deliveries even = contendedSchedule(0);
    const Deliveries odd = contendedSchedule(1);
    // Parity 0 favours each stage-0 router's upper input, whose flit is
    // bound for the even port of its pair; parity 1 the lower one.
    EXPECT_EQ(even, (Deliveries{{2, 0}, {2, 2}, {2, 4}, {2, 6},
                                {3, 1}, {3, 3}, {3, 5}, {3, 7}}));
    EXPECT_EQ(odd, (Deliveries{{2, 1}, {2, 3}, {2, 5}, {2, 7},
                               {3, 0}, {3, 2}, {3, 4}, {3, 6}}));
    EXPECT_NE(even, odd);
}
