#include "accel/pe.hpp"

#include <algorithm>

namespace awb {

Pe::Pe(int id, int num_queues, std::size_t queue_depth, int mac_latency)
    : id_(id), macLatency_(mac_latency), depth_(queue_depth)
{
    if (num_queues < 1) num_queues = 1;
    queues_.reserve(static_cast<std::size_t>(num_queues));
    for (int q = 0; q < num_queues; ++q)
        queues_.emplace_back(queue_depth);
    inflight_.reserve(static_cast<std::size_t>(mac_latency) + 1);
}

bool
Pe::drained(Cycle now) const
{
    if (pending_ != 0) return false;
    for (const auto &f : inflight_)
        if (f.done > now) return false;
    return true;
}

bool
Pe::enqueue(const Task &task)
{
    if (!canAccept()) {
        ++enqueueRejects_;
        return false;
    }
    Fifo<Task> *best = nullptr;
    for (auto &q : queues_) {
        if (q.full()) continue;
        if (best == nullptr || q.size() < best->size()) best = &q;
    }
    best->push(task);
    ++pending_;
    roundPeak_ = std::max(roundPeak_, best->size());
    return true;
}

bool
Pe::rowInFlight(Index row) const
{
    for (const auto &f : inflight_)
        if (f.row == row) return true;
    return false;
}

void
Pe::issue(Cycle now)
{
    // Retire MAC ops whose pipeline delay has elapsed.
    inflight_.erase(std::remove_if(inflight_.begin(), inflight_.end(),
                                   [now](const InFlight &f) {
                                       return f.done <= now;
                                   }),
                    inflight_.end());

    // Arbiter: round-robin over queues, issue the first whose head does
    // not RaW-conflict with an in-flight accumulation.
    for (std::size_t i = 0; i < queues_.size(); ++i) {
        auto qi = (nextQueue_ + i) % queues_.size();
        Fifo<Task> &q = queues_[qi];
        if (q.empty() || rowInFlight(q.front().row)) continue;

        Task t = q.pop();
        --pending_;
        nextQueue_ = (qi + 1) % queues_.size();
        // The result row is busy until the pipeline delay elapses, which
        // the scoreboard enforces.
        inflight_.push_back({t.row, now + macLatency_});
        lastBusy_ = now;
        ++tasksRound_;
        return;
    }

    // Work is queued (issue() runs only then) but every head conflicts.
    ++rawStallCycles_;
}

void
Pe::resetRound()
{
    tasksRound_ = 0;
    rawStallCycles_ = 0;
    roundPeak_ = 0;
}

} // namespace awb
