#include "calib.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "trace.hpp"

namespace perfbench {

namespace {

volatile std::uint32_t g_sink = 0;

/** Wall seconds of `iters` dependent random read-modify-writes over the
 *  first `words` (a power of two) words of a 2 MiB table. */
double
tableLoopS(std::size_t words, int iters)
{
    static std::vector<std::uint32_t> table(std::size_t{1} << 19, 1U);
    const std::size_t mask = words - 1;
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    std::uint32_t acc = 0;
    const double t0 = nowUs();
    for (int i = 0; i < iters; ++i) {
        h ^= h >> 31;
        h *= 0xbf58476d1ce4e5b9ULL;
        h ^= h >> 29;
        std::uint32_t &x = table[(h ^ acc) & mask];
        if (x & 1U)
            x += static_cast<std::uint32_t>(h >> 40);
        else
            x ^= acc | 1U;
        acc += x;
    }
    const double dt = (nowUs() - t0) / 1e6;
    g_sink = g_sink + acc;
    return dt;
}

/** Factor that takes a time measured beside `loop_s` loops to the
 *  reference speed. */
double
speedup(double loop_s)
{
    return std::pow(kReferenceS / loop_s, kElasticity);
}

} // namespace

double
calibrationLoopS()
{
    const double l1 = tableLoopS(std::size_t{1} << 11, 1 << 18);  // 8 KiB
    const double l2 = tableLoopS(std::size_t{1} << 15, 1 << 17);  // 128 KiB
    const double llc = tableLoopS(std::size_t{1} << 19, 1 << 15); // 2 MiB
    return std::cbrt(l1 * l2 * llc);
}

void
CalibratedClock::calibrate()
{
    Scope span("bench.calibrate");
    calS_.push_back(calibrationLoopS());
}

void
CalibratedClock::start()
{
    segS_.clear();
    calS_.clear();
    running_ = true;
    calibrate();
    segStartUs_ = nowUs();
}

void
CalibratedClock::mark()
{
    if (running_ && nowUs() - segStartUs_ >= kMinSegmentS * 1e6) split();
}

void
CalibratedClock::split()
{
    segS_.push_back((nowUs() - segStartUs_) / 1e6);
    calibrate();
    segStartUs_ = nowUs();
}

void
CalibratedClock::stop()
{
    if (!running_) return;
    segS_.push_back((nowUs() - segStartUs_) / 1e6);
    running_ = false;
    calibrate();
}

double
CalibratedClock::wallS() const
{
    double s = 0.0;
    for (double x : segS_) s += x;
    return s;
}

double
CalibratedClock::scaledS() const
{
    double s = 0.0;
    for (std::size_t k = 0; k < segS_.size(); ++k)
        s += segS_[k] * speedup(0.5 * (calS_[k] + calS_[k + 1]));
    return s;
}

std::vector<double>
CalibratedClock::segmentsAtMedianS() const
{
    const double scale = speedup(medianLoopS());
    std::vector<double> out;
    for (double x : segS_) out.push_back(x * scale);
    return out;
}

double
CalibratedClock::medianLoopS() const
{
    std::vector<double> v = calS_;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

CalibratedClock &
passClock()
{
    static CalibratedClock c;
    return c;
}

} // namespace perfbench
