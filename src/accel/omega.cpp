#include "accel/omega.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace awb {

namespace {

int
log2i(int v)
{
    int s = 0;
    while ((1 << s) < v) ++s;
    return s;
}

} // namespace

OmegaNetwork::OmegaNetwork(int ports, int buffer_depth, int speedup)
    : ports_(ports), stages_(log2i(ports)), bufferDepth_(buffer_depth),
      speedup_(std::max(speedup, 1))
{
    if (ports < 2 || (ports & (ports - 1)) != 0)
        fatal("OmegaNetwork: ports must be a power of two >= 2");
    if (buffer_depth < 1) fatal("OmegaNetwork: buffer depth must be >= 1");
    buffers_.resize(static_cast<std::size_t>(stages_));
    stageCount_.assign(static_cast<std::size_t>(stages_), 0);
    for (int s = 0; s < stages_; ++s) {
        auto &stage = buffers_[static_cast<std::size_t>(s)];
        stage.reserve(static_cast<std::size_t>(ports_));
        for (int p = 0; p < ports_; ++p)
            stage.emplace_back(static_cast<std::size_t>(bufferDepth_));
    }
}

bool
OmegaNetwork::inject(const Task &task, int src)
{
    Fifo<Task> &buf = buffers_[0][static_cast<std::size_t>(shuffle(src))];
    if (!buf.push(task)) return false;
    ++stageCount_[0];
    roundPeak_ = std::max(roundPeak_, buf.size());
    return true;
}

void
OmegaNetwork::setArbitration(int parity)
{
    rrTick_ = parity & 1;
}

bool
OmegaNetwork::empty() const
{
    for (Count c : stageCount_)
        if (c != 0) return false;
    return true;
}

} // namespace awb
