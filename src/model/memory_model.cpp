#include "model/memory_model.hpp"

#include <cmath>

#include "common/log.hpp"
#include "common/text.hpp"

namespace awb {

const std::vector<PlatformSpec> &
knownPlatforms()
{
    // Bandwidth figures are the parts' published peaks; the reproduction
    // target is the cross-platform ordering, not absolute numbers.
    // interChipGBs is the per-chip scale-out link: PCIe gen3 x16-class
    // (16 GB/s) for the FPGA boards, NVLink-class (80 GB/s) for the GPU
    // part, a modest 8 GB/s for the edge board. unconstrained has no
    // link bound, keeping it the provable-no-op reference platform.
    static const std::vector<PlatformSpec> kPlatforms = {
        {"unconstrained", "inf BW",
         "no off-chip bandwidth bound (compute-only, the default)", 0.0,
         4, 4, 0.0},
        {"ddr4-2400", "DDR4 x1",
         "single-channel DDR4-2400 (19.2 GB/s): edge/embedded board",
         19.2, 4, 4, 8.0},
        {"d5005-ddr4", "D5005",
         "Intel FPGA PAC D5005, 4x DDR4-2400 (76.8 GB/s): the paper's "
         "Stratix 10 SX board class",
         76.8, 4, 4, 16.0},
        {"vcu128-hbm2", "VCU128",
         "Xilinx VCU128 HBM2 (460 GB/s)", 460.0, 4, 4, 16.0},
        {"p100-hbm2", "P100 HBM2",
         "Tesla P100-class HBM2 (732 GB/s, the Table 3 GPU's memory)",
         732.0, 4, 4, 80.0},
    };
    return kPlatforms;
}

const PlatformSpec *
findPlatformOrNull(const std::string &name)
{
    if (name.empty()) return &knownPlatforms().front();
    for (const PlatformSpec &p : knownPlatforms())
        if (p.name == name) return &p;
    return nullptr;
}

std::string
knownPlatformNames()
{
    std::string known;
    for (const PlatformSpec &p : knownPlatforms())
        known += (known.empty() ? "" : "|") + p.name;
    return known;
}

std::string
nearestPlatformName(const std::string &name)
{
    std::vector<std::string> candidates;
    for (const PlatformSpec &p : knownPlatforms())
        candidates.push_back(p.name);
    return nearestOf(name, candidates);
}

const PlatformSpec &
findPlatform(const std::string &name)
{
    if (const PlatformSpec *p = findPlatformOrNull(name)) return *p;
    fatal("unknown platform '" + name + "' — did you mean '" +
          nearestPlatformName(name) + "'? (" + knownPlatformNames() +
          "; awbsim --list-platforms shows details)");
}

MemoryModel::MemoryModel(const PlatformSpec &platform, double clock_mhz)
    : platform_(platform)
{
    if (clock_mhz <= 0.0) fatal("MemoryModel: clock must be positive");
    if (platform.bandwidthGBs > 0.0) {
        // GB/s over MHz: (bw * 1e9 bytes/s) / (clock * 1e6 cycles/s).
        bytesPerCycle_ = platform.bandwidthGBs * 1e3 / clock_mhz;
    }
    if (platform.interChipGBs > 0.0)
        linkBytesPerCycle_ = platform.interChipGBs * 1e3 / clock_mhz;
}

MemoryTraffic
MemoryModel::roundTraffic(Count nnz, Index inner_dim, Index rows) const
{
    MemoryTraffic t;
    t.sparseBytes =
        nnz * (platform_.bytesPerValue + platform_.bytesPerIndex);
    t.denseBytes = static_cast<Count>(inner_dim) * platform_.bytesPerValue;
    t.outputBytes = static_cast<Count>(rows) * platform_.bytesPerValue;
    return t;
}

MemoryTraffic
MemoryModel::spgemmRoundTraffic(Count tasks, Count b_nnz,
                                Count out_nnz) const
{
    MemoryTraffic t;
    const Count per_nnz =
        platform_.bytesPerValue + platform_.bytesPerIndex;
    t.sparseBytes = tasks * per_nnz;
    t.bRowBytes = b_nnz * per_nnz;
    t.outputBytes = out_nnz * platform_.bytesPerValue;
    t.outputIndexBytes = out_nnz * platform_.bytesPerIndex;
    return t;
}

Count
MemoryModel::migrationBytes(const std::vector<int> &owners_before,
                            const std::vector<int> &owners_after,
                            const std::vector<Count> &row_work) const
{
    Count moved_nnz = 0;
    for (std::size_t r = 0; r < owners_before.size(); ++r)
        if (owners_before[r] != owners_after[r]) moved_nnz += row_work[r];
    return migrationBytes(moved_nnz);
}

Count
MemoryModel::migrationBytes(Count moved_nnz) const
{
    return moved_nnz * (platform_.bytesPerValue + platform_.bytesPerIndex);
}

Cycle
MemoryModel::floorCycles(Count bytes) const
{
    if (bytesPerCycle_ <= 0.0 || bytes <= 0) return 0;
    return static_cast<Cycle>(
        std::ceil(static_cast<double>(bytes) / bytesPerCycle_));
}

Cycle
MemoryModel::haloFloorCycles(Count bytes) const
{
    if (linkBytesPerCycle_ <= 0.0 || bytes <= 0) return 0;
    return static_cast<Cycle>(
        std::ceil(static_cast<double>(bytes) / linkBytesPerCycle_));
}

} // namespace awb
