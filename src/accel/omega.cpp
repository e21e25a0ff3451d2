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
    : ports_(ports), stages_(log2i(ports)),
      bufferDepth_(static_cast<std::uint32_t>(buffer_depth)),
      speedup_(std::max(speedup, 1)), slotShift_(log2i(buffer_depth)),
      slotMask_((std::uint32_t{1} << slotShift_) - 1)
{
    if (ports < 2 || (ports & (ports - 1)) != 0)
        fatal("OmegaNetwork: ports must be a power of two >= 2");
    if (buffer_depth < 1) fatal("OmegaNetwork: buffer depth must be >= 1");
    const auto buffers = static_cast<std::size_t>(stages_) *
                         static_cast<std::size_t>(ports_);
    slots_.resize(buffers << slotShift_);
    head_.assign(buffers, 0);
    size_.assign(buffers, 0);
    stageCount_.assign(static_cast<std::size_t>(stages_), 0);
}

bool
OmegaNetwork::inject(int dest, int src)
{
    const auto b = static_cast<std::size_t>(shuffle(src, stages_, ports_));
    if (size_[b] >= bufferDepth_) return false;
    slots_[(b << slotShift_) + ((head_[b] + size_[b]) & slotMask_)] = dest;
    ++stageCount_[0];
    roundPeak_ = std::max<std::size_t>(roundPeak_, ++size_[b]);
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
