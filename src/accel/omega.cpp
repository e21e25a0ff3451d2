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

int
OmegaNetwork::shuffle(int port) const
{
    // Rotate the stages_-bit port id left by one.
    return ((port << 1) | (port >> (stages_ - 1))) & (ports_ - 1);
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
OmegaNetwork::tick(Cycle, const Sink &sink)
{
    // Back-to-front: freeing a downstream slot this cycle lets the
    // upstream stage use it this cycle (credit-based flow control).
    const int rr = rrTick_;
    for (int s = stages_ - 1; s >= 0; --s) {
        // A vacant stage (nothing resident) cannot move anything; its
        // routers' state is fully captured by the shared priority bit,
        // so skipping them is behaviour-preserving.
        if (stageCount_[static_cast<std::size_t>(s)] == 0) continue;
        auto &stage = buffers_[static_cast<std::size_t>(s)];
        const int dest_bit = stages_ - 1 - s;
        for (int r = 0; r < ports_ / 2; ++r) {
            if (stage[static_cast<std::size_t>(2 * r)].empty() &&
                stage[static_cast<std::size_t>(2 * r + 1)].empty())
                continue;
            int out_used[2] = {0, 0};
            // The fabric clock allows `speedup_` passes over the two
            // inputs per PE cycle. Within one tick a router's inputs
            // only shrink and its outputs only fill (stages advance
            // back-to-front and each output port belongs to exactly one
            // router), so a pass that moves nothing proves every later
            // pass would move nothing: stop early.
            for (int pass = 0; pass < speedup_; ++pass) {
                bool progressed = false;
                for (int i = 0; i < 2; ++i) {
                    int in_port = 2 * r + ((rr + i) & 1);
                    Fifo<Task> &buf =
                        stage[static_cast<std::size_t>(in_port)];
                    if (buf.empty()) continue;
                    const Task &head = buf.front();
                    int bit = (head.homePe >> dest_bit) & 1;
                    if (out_used[bit] >= speedup_) {
                        ++blocked_;
                        continue;
                    }
                    int out_port = 2 * r + bit;
                    if (s == stages_ - 1) {
                        if (sink(head, out_port)) {
                            buf.pop();
                            --stageCount_[static_cast<std::size_t>(s)];
                            ++out_used[bit];
                            ++delivered_;
                            progressed = true;
                        } else {
                            ++blocked_;
                        }
                    } else {
                        int next_in = shuffle(out_port);
                        Fifo<Task> &next =
                            buffers_[static_cast<std::size_t>(s + 1)]
                                    [static_cast<std::size_t>(next_in)];
                        if (next.push(head)) {
                            buf.pop();
                            --stageCount_[static_cast<std::size_t>(s)];
                            ++stageCount_[static_cast<std::size_t>(s + 1)];
                            roundPeak_ =
                                std::max(roundPeak_, next.size());
                            ++out_used[bit];
                            progressed = true;
                        } else {
                            ++blocked_;
                        }
                    }
                }
                if (!progressed) break;
            }
        }
    }
    rrTick_ ^= 1;  // alternate input priority
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
