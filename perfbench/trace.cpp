#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "driver/json.hpp"

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point kStart =
    std::chrono::steady_clock::now();

} // namespace

double
nowUs()
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - kStart)
        .count();
}

int
Tracer::open(const std::string &name, int request)
{
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.request = request;
    s.startUs = nowUs();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
}

void
Tracer::close(int id)
{
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].endUs = nowUs();
    open_.pop_back();
}

void
Tracer::add(const std::string &name, double start_us, double end_us,
            int request)
{
    if (!enabled_) return;
    Span s;
    s.name = name;
    s.startUs = start_us;
    s.endUs = end_us;
    s.parent = open_.empty() ? -1 : open_.back();
    s.request = request;
    spans_.push_back(std::move(s));
}

std::map<std::string, LayerTime>
Tracer::layers(std::size_t from, std::size_t to) const
{
    to = std::min(to, spans_.size());
    std::vector<double> self(to, 0.0);
    for (std::size_t i = from; i < to; ++i) {
        const Span &s = spans_[i];
        double dur = (s.endUs - s.startUs) / 1000.0;
        self[i] += dur;
        if (s.parent >= static_cast<int>(from))
            self[static_cast<std::size_t>(s.parent)] -= dur;
    }
    std::map<std::string, LayerTime> out;
    for (std::size_t i = from; i < to; ++i) {
        LayerTime &l = out[spans_[i].name];
        ++l.calls;
        l.totalMs += (spans_[i].endUs - spans_[i].startUs) / 1000.0;
        l.selfMs += self[i];
    }
    return out;
}

std::string
Tracer::chromeJson() const
{
    using awb::driver::jsonEscape;
    using awb::driver::jsonNumber;
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (i > 0) out += ",\n";
        out += "{\"name\":\"" + jsonEscape(s.name) +
               "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
               ",\"ts\":" + jsonNumber(s.startUs) +
               ",\"dur\":" + jsonNumber(s.endUs - s.startUs) +
               ",\"args\":{\"id\":" + std::to_string(i) +
               ",\"parent\":" + std::to_string(s.parent) +
               ",\"request\":" + std::to_string(s.request) + "}}";
    }
    out += "]}\n";
    return out;
}

Tracer &
tracer()
{
    static Tracer t;
    return t;
}

std::string
layerTable(const std::map<std::string, LayerTime> &layers)
{
    std::string out;
    char line[160];
    std::snprintf(line, sizeof line, "%-26s %8s %12s %12s\n", "span",
                  "calls", "total ms", "self ms");
    out += line;
    for (const auto &[name, l] : layers) {
        std::snprintf(line, sizeof line, "%-26s %8llu %12.3f %12.3f\n",
                      name.c_str(), static_cast<unsigned long long>(l.calls),
                      l.totalMs, l.selfMs);
        out += line;
    }
    return out;
}

} // namespace perfbench
