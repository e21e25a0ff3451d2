#include "accel/config.hpp"

#include "accel/policy.hpp"
#include "common/log.hpp"
#include "model/memory_model.hpp"

namespace awb {

std::string
engineKindName(EngineKind e)
{
    switch (e) {
      case EngineKind::Event:   return "event";
      case EngineKind::Batched: return "batched";
    }
    return "?";
}

EngineKind
parseEngineKind(const std::string &s)
{
    if (s == "event") return EngineKind::Event;
    if (s == "batched") return EngineKind::Batched;
    fatal("unknown engine '" + s + "' (event|batched)");
}

std::string
AccelConfig::validate(bool cycle_accurate_tdq2) const
{
    if (numPes <= 0) return "numPes must be positive";
    if (numQueuesPerPe < 1) return "numQueuesPerPe must be >= 1";
    if (sharingHops < 0) return "sharingHops must be non-negative";
    if (trackingWindow < 1) return "trackingWindow must be >= 1";
    if (networkSpeedup < 1) return "networkSpeedup must be >= 1";
    if (chips < 1) return "chips must be >= 1";
    // Combination checks: fields that are individually fine but make no
    // sense together.
    if (remoteSwitching && numPes < 2)
        return "remote switching needs at least 2 PEs (the PESM tracks "
               "hot/cold PE tuples)";
    if (sharingHops >= numPes && numPes > 1)
        return "sharingHops must be smaller than the PE count (the "
               "sharing window would span the whole array)";
    if (approximateEq5 && !remoteSwitching)
        return "approximateEq5 selects the shift-based Eq. 5 increment "
               "of the remote switcher; enable remoteSwitching with it";
    if (!balancePolicy.empty() &&
        PolicyRegistry::instance().find(balancePolicy) == nullptr)
        return "unknown balance policy '" + balancePolicy +
               "' — did you mean '" +
               PolicyRegistry::instance().nearest(balancePolicy) + "'?";
    if (!platform.empty() && findPlatformOrNull(platform) == nullptr)
        return "unknown platform '" + platform + "' (" +
               knownPlatformNames() + ")";
    // Only the cycle-accurate TDQ-2 path requires a power-of-two PE count
    // (Omega network); the round-level model accepts any size (the
    // paper's Fig. 15 sweeps 512/768/1024).
    if (cycle_accurate_tdq2 && numPes >= 2 &&
        (numPes & (numPes - 1)) != 0)
        return "cycle-accurate TDQ-2 needs a power-of-two PE count "
               "(Omega network); use the round-level model otherwise";
    return "";
}

} // namespace awb
