/**
 * @file
 * Bounded FIFO queue with occupancy statistics.
 *
 * The serving queue is modelled with this class; a PE keeps only a
 * count per task queue (accel/pe.hpp) and the Omega fabric keeps its
 * fixed-depth router buffers in one flat slot array (omega.hpp). Peak
 * occupancy is tracked because a physical queue is sized by its
 * worst-case depth.
 *
 * Storage is a power-of-two ring over one std::vector: push/pop/front
 * are a masked index with no allocation. A bounded queue allocates its
 * ring once, at construction; an unbounded one doubles it on demand.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"

namespace awb {

/**
 * FIFO with optional capacity. capacity == 0 means unbounded (used when
 * measuring the depth a physical queue would need).
 */
template <typename T>
class Fifo
{
  public:
    explicit Fifo(std::size_t capacity = 0) : capacity_(capacity)
    {
        // Very large software bounds (a serving --queue-cap) start at a
        // modest ring and double up to the bound instead of reserving it.
        if (capacity_ != 0) {
            std::size_t slots = 1;
            while (slots < std::min(capacity_, kMaxEager)) slots <<= 1;
            resize(slots);
        }
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    bool
    full() const
    {
        return capacity_ != 0 && size_ >= capacity_;
    }

    /** Push; returns false (and drops nothing) when full. Rejected
     *  pushes are counted — serving queues report them as admission
     *  drops (serve/queue.hpp). */
    bool
    push(T item)
    {
        if (full()) {
            ++rejected_;
            return false;
        }
        if (size_ == ring_.size())
            resize(std::max<std::size_t>(8, 2 * ring_.size()));
        slot(size_) = std::move(item);
        ++size_;
        peak_ = std::max(peak_, size_);
        ++pushes_;
        return true;
    }

    const T &
    front() const
    {
        if (size_ == 0) panic("Fifo::front on empty queue");
        return ring_[head_];
    }

    T
    pop()
    {
        if (size_ == 0) panic("Fifo::pop on empty queue");
        T item = std::move(ring_[head_]);
        head_ = (head_ + 1) & mask_;
        --size_;
        return item;
    }

    /** Indexed peek (0 == front); used by multi-queue arbiters and the
     *  serving batch disciplines. panic() on out-of-range instead of
     *  throwing std::out_of_range through simulator frames. */
    const T &
    at(std::size_t i) const
    {
        if (i >= size_) panic("Fifo::at index out of range");
        return ring_[(head_ + i) & mask_];
    }

    /** Remove the element at index i (0 == front), preserving the order
     *  of the rest. Non-front removal is what batch disciplines that
     *  cherry-pick from the middle (sjf-nnz, per-kind batching) need.
     *  panic() on out-of-range. */
    T
    erase(std::size_t i)
    {
        if (i >= size_) panic("Fifo::erase index out of range");
        T item = std::move(slot(i));
        for (std::size_t j = i; j + 1 < size_; ++j)
            slot(j) = std::move(slot(j + 1));
        --size_;
        return item;
    }

    /** Drop all queued elements; statistics are kept (use clearStats). */
    void
    clear()
    {
        for (std::size_t i = 0; i < size_; ++i) slot(i) = T{};
        head_ = 0;
        size_ = 0;
    }

    std::size_t peakOccupancy() const { return peak_; }
    Count totalPushes() const { return pushes_; }
    /** Pushes rejected because the queue was full. */
    Count rejectedPushes() const { return rejected_; }
    std::size_t capacity() const { return capacity_; }

    void
    clearStats()
    {
        peak_ = size_;
        pushes_ = 0;
        rejected_ = 0;
    }

  private:
    static constexpr std::size_t kMaxEager = std::size_t{1} << 12;

    T &slot(std::size_t i) { return ring_[(head_ + i) & mask_]; }

    /** Re-home the live elements, in order, into a ring of `slots` (a
     *  power of two). */
    void
    resize(std::size_t slots)
    {
        std::vector<T> ring(slots);
        for (std::size_t i = 0; i < size_; ++i) ring[i] = std::move(slot(i));
        ring_.swap(ring);
        head_ = 0;
        mask_ = slots - 1;
    }

    std::size_t capacity_;
    std::vector<T> ring_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
    std::size_t peak_ = 0;
    Count pushes_ = 0;
    Count rejected_ = 0;
};

} // namespace awb
