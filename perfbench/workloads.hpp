/**
 * @file
 * The benchmark's four workloads. Each one synthesizes its inputs from
 * the workload seed in setup(), runs every request once per timed
 * pass() through the simulator's public functions, and checks its
 * outputs by equivalence on a seed-sampled subset in check().
 *
 * A request is one grid point (dataset, policy, PEs, mode); its outcome
 * is the execution core's folded RunResult, so every workload's outputs
 * compare field by field and render through driver::sweepToJson.
 * Untraced passes call the program's entry points; traced passes replay
 * the same requests layer by layer under spans, and must give the same
 * outcomes. Passes call passClock().mark() between requests.
 */

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "driver/sweep.hpp"

namespace perfbench {

using Outcome = awb::driver::SweepOutcome;

/** Per-layer counts of the current traced pass, by metric name. */
using Counts = std::map<std::string, double>;

/** Result of the equivalence checks. */
struct CheckResult
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> messages;  ///< one line per failure
};

/**
 * Every model field of an outcome as exact text (doubles in hex).
 * rounds_simulated is left out when `rounds_simulated` is false: it
 * legitimately differs between engines and cache states.
 */
std::string signature(const Outcome &o, bool rounds_simulated);

/** Stable request key, e.g. "cycle/cora/remote-d/256". */
std::string requestKey(const awb::driver::SweepPoint &p);

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Which process-wide caches start empty and which setup fills. */
    virtual std::string cacheState() const = 0;
    /** Synthesize inputs and fill caches, dropping any earlier setup. */
    virtual void setup(std::uint64_t seed) = 0;
    /** Untimed preparation before every timed pass. */
    virtual void beforePass() {}
    /** One timed pass over every request. */
    virtual std::vector<Outcome> pass() = 0;
    /** Traced runs only: layer probes outside the timed pass. May add
     *  equivalence checks of their own to `check`. */
    virtual void probe(const std::vector<Outcome> &outs, CheckResult &check)
    {
        (void)outs;
        (void)check;
    }
    /** Equivalence checks on a seed-sampled subset of requests. */
    virtual CheckResult check(const std::vector<Outcome> &outs) = 0;

    /** Counts collected while tracing is on (see Tracer). */
    Counts counts;

  protected:
    std::uint64_t seed_ = 1;
};

std::unique_ptr<Workload> makeWorkload(const std::string &name);
const std::vector<std::string> &workloadNames();

} // namespace perfbench
