/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * Spans are recorded by the benchmark around its calls into the
 * simulator's public functions (the simulator itself is not
 * instrumented). Each span keeps its name, start, end, parent span and
 * request id; they are written once at exit as Chrome trace-event JSON
 * (opens in Perfetto or chrome://tracing) and folded into per-layer
 * totals and self times. When tracing is off every call is one branch.
 * The benchmark runs on one thread, and so does the recorder.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Microseconds on the steady clock since the process started. */
double nowUs();

struct Span
{
    std::string name;
    double startUs = 0.0;
    double endUs = 0.0;
    int parent = -1;   ///< index of the enclosing span, -1 at top level
    int request = -1;  ///< request id shared by one request's spans
};

/** Per span name: calls, total duration and self time (ms). */
struct LayerTime
{
    std::uint64_t calls = 0;
    double totalMs = 0.0;
    double selfMs = 0.0;
};

class Tracer
{
  public:
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Open a span; returns -1 when disabled. */
    int open(const std::string &name, int request);
    /** Close a span returned by open() (no-op for -1). */
    void close(int id);
    /** Record an already-measured span under the innermost open span. */
    void add(const std::string &name, double start_us, double end_us,
             int request);

    std::size_t size() const { return spans_.size(); }
    /** Totals per name over spans [from, to). Self time is a span's
     *  duration minus the durations of its direct children. */
    std::map<std::string, LayerTime> layers(std::size_t from,
                                            std::size_t to) const;
    /** Chrome trace-event JSON ("X" complete events). */
    std::string chromeJson() const;

  private:
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<int> open_;  ///< open spans, innermost last
};

/** The process-wide tracer. */
Tracer &tracer();

/** RAII span: opens on construction, closes on destruction. */
class Scope
{
  public:
    Scope(const std::string &name, int request = -1)
        : id_(tracer().open(name, request))
    {
    }
    ~Scope() { tracer().close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    int id_;
};

/** Per-layer self-time table, one row per span name. */
std::string layerTable(const std::map<std::string, LayerTime> &layers);

} // namespace perfbench
