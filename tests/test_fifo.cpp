/**
 * @file
 * Hardened-Fifo tests (serving satellite of DESIGN.md §10): capacity-1
 * behaviour, wrap-around cycling under a bounded capacity, full/empty
 * transition edges, rejected-push accounting, indexed erase semantics,
 * clear vs clearStats, and the panic() guards on out-of-range access.
 * Ring-storage cases: growth and at/erase while the live elements wrap
 * the end of the storage, non-power-of-two bounds, and owning elements.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/fifo.hpp"

using namespace awb;

TEST(Fifo, UnboundedNeverFillsAndTracksPeak)
{
    Fifo<int> f;
    EXPECT_EQ(f.capacity(), 0u);
    for (int i = 0; i < 100; ++i) EXPECT_TRUE(f.push(i));
    EXPECT_FALSE(f.full());
    EXPECT_EQ(f.size(), 100u);
    EXPECT_EQ(f.peakOccupancy(), 100u);
    EXPECT_EQ(f.totalPushes(), 100);
    EXPECT_EQ(f.rejectedPushes(), 0);
}

TEST(Fifo, CapacityOneAlternatesFullAndEmpty)
{
    Fifo<int> f(1);
    EXPECT_TRUE(f.empty());
    EXPECT_FALSE(f.full());

    EXPECT_TRUE(f.push(7));
    EXPECT_TRUE(f.full());
    EXPECT_FALSE(f.empty());

    // A push into the single full slot is rejected and counted; the
    // resident element is untouched.
    EXPECT_FALSE(f.push(8));
    EXPECT_EQ(f.rejectedPushes(), 1);
    EXPECT_EQ(f.front(), 7);
    EXPECT_EQ(f.size(), 1u);

    EXPECT_EQ(f.pop(), 7);
    EXPECT_TRUE(f.empty());
    EXPECT_FALSE(f.full());

    // After draining, the slot is usable again.
    EXPECT_TRUE(f.push(9));
    EXPECT_EQ(f.pop(), 9);
    EXPECT_EQ(f.totalPushes(), 2);
    EXPECT_EQ(f.rejectedPushes(), 1);
    EXPECT_EQ(f.peakOccupancy(), 1u);
}

TEST(Fifo, WrapAroundCyclingPreservesOrderAtCapacity)
{
    // Push/pop far past capacity so the underlying storage wraps many
    // times; FIFO order and statistics must survive every transition.
    Fifo<int> f(3);
    int next_in = 0;
    int next_out = 0;
    for (int i = 0; i < 3; ++i) EXPECT_TRUE(f.push(next_in++));
    EXPECT_TRUE(f.full());

    for (int round = 0; round < 50; ++round) {
        EXPECT_FALSE(f.push(999));  // full edge: rejected every round
        EXPECT_EQ(f.pop(), next_out++);
        EXPECT_FALSE(f.full());
        EXPECT_TRUE(f.push(next_in++));
        EXPECT_TRUE(f.full());
    }
    // Drain: the survivors come out in exact insertion order.
    while (!f.empty()) EXPECT_EQ(f.pop(), next_out++);
    EXPECT_EQ(next_out, next_in);
    EXPECT_EQ(f.totalPushes(), 53);
    EXPECT_EQ(f.rejectedPushes(), 50);
    EXPECT_EQ(f.peakOccupancy(), 3u);
}

TEST(Fifo, FullEmptyTransitionsAreExact)
{
    Fifo<int> f(2);
    EXPECT_TRUE(f.empty());
    f.push(1);
    EXPECT_FALSE(f.empty());
    EXPECT_FALSE(f.full());  // between the edges
    f.push(2);
    EXPECT_TRUE(f.full());
    f.pop();
    EXPECT_FALSE(f.full());
    f.pop();
    EXPECT_TRUE(f.empty());
}

TEST(Fifo, IndexedAtAndEraseKeepOrder)
{
    Fifo<int> f;
    for (int i = 10; i < 15; ++i) f.push(i);  // 10 11 12 13 14
    EXPECT_EQ(f.at(0), 10);
    EXPECT_EQ(f.at(4), 14);

    EXPECT_EQ(f.erase(2), 12);  // cherry-pick the middle
    EXPECT_EQ(f.size(), 4u);
    EXPECT_EQ(f.at(2), 13);  // the rest closed ranks in order

    EXPECT_EQ(f.erase(0), 10);  // front erase == pop
    EXPECT_EQ(f.front(), 11);

    EXPECT_EQ(f.erase(f.size() - 1), 14);  // back erase
    EXPECT_EQ(f.pop(), 11);
    EXPECT_EQ(f.pop(), 13);
    EXPECT_TRUE(f.empty());
}

TEST(Fifo, ClearDropsElementsButKeepsStats)
{
    Fifo<int> f(4);
    for (int i = 0; i < 4; ++i) f.push(i);
    f.push(99);  // rejected
    f.clear();
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.peakOccupancy(), 4u);
    EXPECT_EQ(f.totalPushes(), 4);
    EXPECT_EQ(f.rejectedPushes(), 1);

    f.clearStats();
    EXPECT_EQ(f.peakOccupancy(), 0u);
    EXPECT_EQ(f.totalPushes(), 0);
    EXPECT_EQ(f.rejectedPushes(), 0);
}

namespace {

/** Move an empty queue's head `n` slots into its ring (push, pop). */
template <typename T>
void
advanceHead(Fifo<T> &f, int n)
{
    for (int i = 0; i < n; ++i) {
        f.push(T{});
        f.pop();
    }
}

} // namespace

TEST(Fifo, GrowthWhileWrappedPreservesOrder)
{
    // Park the head mid-ring so the live elements straddle the end of
    // the storage, then push past the ring size: growth must re-home
    // them in FIFO order.
    Fifo<int> f;
    advanceHead(f, 5);
    for (int i = 0; i < 100; ++i) ASSERT_TRUE(f.push(i));
    for (int i = 0; i < 40; ++i) ASSERT_EQ(f.pop(), i);
    for (int i = 100; i < 300; ++i) ASSERT_TRUE(f.push(i));
    for (int i = 40; i < 300; ++i) ASSERT_EQ(f.pop(), i);
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.peakOccupancy(), 260u);
}

TEST(Fifo, AtAndEraseAcrossTheWrapPoint)
{
    // Capacity 4 is a 4-slot ring; after 3 push/pops the front sits in
    // the last slot, so indices 1.. wrap to the start of the storage.
    Fifo<int> f(4);
    advanceHead(f, 3);
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(f.push(10 + i));  // 10..13
    EXPECT_TRUE(f.full());
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(f.at(i), 10 + static_cast<int>(i));

    EXPECT_EQ(f.erase(1), 11);  // first slot after the wrap
    EXPECT_EQ(f.at(0), 10);
    EXPECT_EQ(f.at(1), 12);
    EXPECT_EQ(f.at(2), 13);
    EXPECT_TRUE(f.push(14));  // the freed slot is reusable
    EXPECT_EQ(f.front(), 10);
    EXPECT_EQ(f.erase(0), 10);
    EXPECT_EQ(f.pop(), 12);
    EXPECT_EQ(f.pop(), 13);
    EXPECT_EQ(f.pop(), 14);
    EXPECT_TRUE(f.empty());
}

TEST(Fifo, NonPowerOfTwoCapacityFullAtExactSize)
{
    // The ring rounds storage up to a power of two; the bound must not.
    // 5000 is past the eagerly allocated ring, so that bound is reached
    // by growing.
    for (std::size_t cap : {3u, 5u, 5000u}) {
        Fifo<int> f(cap);
        for (int round = 0; round < 3; ++round) {
            for (std::size_t i = 0; i < cap; ++i) {
                ASSERT_FALSE(f.full()) << "cap=" << cap << " i=" << i;
                ASSERT_TRUE(f.push(static_cast<int>(i)));
            }
            EXPECT_TRUE(f.full()) << "cap=" << cap;
            EXPECT_EQ(f.size(), cap);
            EXPECT_FALSE(f.push(99));
            // Each round moves the head by `cap`, so later rounds wrap.
            for (std::size_t i = 0; i < cap; ++i)
                ASSERT_EQ(f.pop(), static_cast<int>(i));
        }
        EXPECT_EQ(f.peakOccupancy(), cap);
        EXPECT_EQ(f.rejectedPushes(), 3);
    }
}

TEST(Fifo, OwningElementsSurviveGrowthAndErase)
{
    // Elements that own heap storage (like serve::Request's node lists)
    // must be moved intact through ring growth, wrap and erase.
    using Payload = std::vector<int>;
    auto payload = [](int i) {
        return Payload(static_cast<std::size_t>(i % 7 + 1), i);
    };
    Fifo<Payload> f;
    advanceHead(f, 3);
    for (int i = 0; i < 50; ++i) f.push(payload(i));  // grows while wrapped
    EXPECT_EQ(f.erase(20), payload(20));
    EXPECT_EQ(f.erase(0), payload(0));
    EXPECT_EQ(f.at(19), payload(21));
    std::vector<int> order;
    while (!f.empty()) {
        Payload p = f.pop();
        ASSERT_FALSE(p.empty());
        EXPECT_EQ(p, payload(p.front()));
        order.push_back(p.front());
    }
    ASSERT_EQ(order.size(), 48u);
    for (std::size_t k = 1; k < order.size(); ++k)
        EXPECT_LT(order[k - 1], order[k]);
}

TEST(FifoDeath, EmptyAndOutOfRangeAccessPanics)
{
    Fifo<int> f;
    EXPECT_DEATH(f.front(), "Fifo::front on empty queue");
    EXPECT_DEATH(f.pop(), "Fifo::pop on empty queue");
    EXPECT_DEATH(f.at(0), "Fifo::at index out of range");
    EXPECT_DEATH(f.erase(0), "Fifo::erase index out of range");
    f.push(1);
    EXPECT_DEATH(f.at(1), "Fifo::at index out of range");
    EXPECT_DEATH(f.erase(1), "Fifo::erase index out of range");
}
