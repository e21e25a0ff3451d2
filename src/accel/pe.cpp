#include "accel/pe.hpp"

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

void
Pe::resetRound()
{
    tasksRound_ = 0;
    rawStallCycles_ = 0;
    roundPeak_ = 0;
}

} // namespace awb
