/**
 * @file
 * Admission-controlled request queue of the serving front end
 * (DESIGN.md §10). Waiting requests sit in arrival order in a
 * std::deque: arrivals that find the queue full are *dropped* (counted,
 * never blocked — an open-loop client does not wait for admission), and
 * queued requests whose age exceeds the deadline are *timed out* and
 * evicted before each dispatch decision. Both failure counts feed the
 * SLO accounting, and the peak depth sizes the queue a deployment needs.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "serve/request.hpp"

namespace awb::serve {

/** Bounded FIFO of waiting requests with drop/timeout accounting. */
class RequestQueue
{
  public:
    /** capacity == 0 means unbounded. */
    explicit RequestQueue(std::size_t capacity) : capacity_(capacity) {}

    /** Admit an arrival; false (and a counted drop) when full. */
    bool
    admit(Request r)
    {
        if (capacity_ != 0 && q_.size() >= capacity_) {
            ++dropped_;
            return false;
        }
        q_.push_back(std::move(r));
        ++admitted_;
        peak_ = std::max(peak_, q_.size());
        return true;
    }

    /**
     * Evict every queued request older than `timeout` cycles at time
     * `now` (timeout == 0 disables). Returns the number evicted; the
     * evicted requests are appended to `out` when given (closed-loop
     * clients reissue on timeout).
     */
    std::size_t
    expire(Cycle now, Cycle timeout, std::vector<Request> *out = nullptr)
    {
        if (timeout <= 0) return 0;
        std::size_t evicted = 0;
        for (std::size_t i = 0; i < q_.size();) {
            if (now - q_[i].arrival > timeout) {
                Request r = take(i);
                if (out) out->push_back(std::move(r));
                ++evicted;
            } else {
                ++i;
            }
        }
        timedOut_ += static_cast<Count>(evicted);
        return evicted;
    }

    /** Earliest cycle at which expire() would evict something, or -1
     *  when nothing queued can time out. */
    Cycle
    nextExpiry(Cycle timeout) const
    {
        if (timeout <= 0 || q_.empty()) return -1;
        Cycle earliest = -1;
        for (const Request &r : q_) {
            const Cycle at = r.arrival + timeout + 1;
            if (earliest < 0 || at < earliest) earliest = at;
        }
        return earliest;
    }

    bool empty() const { return q_.empty(); }
    std::size_t size() const { return q_.size(); }

    /** Indexed peek (0 == oldest). panic() on out-of-range: the batch
     *  disciplines are a registry anyone can add to. */
    const Request &
    at(std::size_t i) const
    {
        if (i >= q_.size()) panic("RequestQueue::at index out of range");
        return q_[i];
    }

    /** Remove the request at index i, keeping the order of the rest
     *  (sjf-nnz and dyn-batch take from the middle). panic() on
     *  out-of-range. */
    Request
    take(std::size_t i)
    {
        if (i >= q_.size()) panic("RequestQueue::take index out of range");
        Request r = std::move(q_[i]);
        q_.erase(q_.begin() + static_cast<std::ptrdiff_t>(i));
        return r;
    }

    Count dropped() const { return dropped_; }
    Count timedOut() const { return timedOut_; }
    Count admitted() const { return admitted_; }
    std::size_t peakDepth() const { return peak_; }

  private:
    std::size_t capacity_;
    std::deque<Request> q_;
    Count admitted_ = 0;
    Count dropped_ = 0;
    Count timedOut_ = 0;
    std::size_t peak_ = 0;
};

} // namespace awb::serve
