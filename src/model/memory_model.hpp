/**
 * @file
 * Bandwidth-aware off-chip memory model (DESIGN.md §8).
 *
 * The paper's platforms (Table 3) differ as much in memory system as in
 * compute: an accelerator fed from single-channel DDR4 cannot sustain the
 * task rate an HBM2 part can, however well the PE array is balanced. This
 * module models that bound. A `PlatformSpec` names an off-chip memory
 * system (peak bandwidth, element widths); `MemoryModel` converts one
 * SPMM round's off-chip traffic — the sparse-operand non-zero stream,
 * the streamed dense column, the output-column write and any row
 * migrations the rebalance policy ordered — into a bandwidth-bound cycle
 * floor, which both simulation fidelities compose with their compute
 * cycles roofline-style:
 *
 *     round_cycles = max(compute_cycles, ceil(bytes / bytes_per_cycle))
 *
 * The `unconstrained` platform (also the empty `AccelConfig::platform`)
 * has no bandwidth bound: its floor is identically zero, making the
 * composition a provable no-op — cycles, rowsSwitched and convergedRound
 * are bit-identical to a build without the memory model (locked by
 * tests/test_memory_model.cpp). Traffic bytes are accounted on every
 * platform; only the floor needs a bandwidth figure.
 */

#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"

namespace awb {

/** An off-chip memory system an accelerator build can be mounted on. */
struct PlatformSpec
{
    std::string name;         ///< registry key (kebab-case)
    std::string label;        ///< display name
    std::string description;  ///< one-liner for `awbsim --list-platforms`
    /** Peak off-chip bandwidth in GB/s; 0 = unconstrained (no bound). */
    double bandwidthGBs = 0.0;
    int bytesPerValue = 4;    ///< fp32 matrix elements
    int bytesPerIndex = 4;    ///< row ids / CSC bookkeeping entries
    /** Per-chip inter-chip link bandwidth in GB/s (halo exchange,
     *  DESIGN.md §9); 0 = unconstrained link (no halo floor). */
    double interChipGBs = 0.0;
};

/** Registered platforms: `unconstrained` first, then real memory systems
 *  spanning single-channel DDR4 through P100-class HBM2. */
const std::vector<PlatformSpec> &knownPlatforms();

/** nullptr when no platform matches (empty string = `unconstrained`). */
const PlatformSpec *findPlatformOrNull(const std::string &name);

/** "unconstrained|ddr4-2400|..." — for error messages. */
std::string knownPlatformNames();

/** Registered platform name closest to `name` by edit distance — the
 *  "did you mean ...?" suggestion findPlatform's error carries, same as
 *  the policy registry's. */
std::string nearestPlatformName(const std::string &name);

/** Look up a platform by name; the empty string resolves to
 *  `unconstrained`. fatal() with the registered set on an unknown name. */
const PlatformSpec &findPlatform(const std::string &name);

/** Off-chip bytes moved, by accounting category (DESIGN.md §8, §11). */
struct MemoryTraffic
{
    Count sparseBytes = 0;     ///< sparse-operand non-zero stream
    Count denseBytes = 0;      ///< streamed dense-column loads
    Count outputBytes = 0;     ///< result-column writes
    Count migrationBytes = 0;  ///< remote-switch row migrations
    Count haloBytes = 0;       ///< inter-chip boundary-row exchange (§9)
    Count bRowBytes = 0;       ///< SpGEMM sparse B-column fetch (§11)
    Count outputIndexBytes = 0;  ///< SpGEMM output row-id writes (§11)

    Count total() const
    {
        return sparseBytes + denseBytes + outputBytes + migrationBytes +
               haloBytes + bRowBytes + outputIndexBytes;
    }

    MemoryTraffic &operator+=(const MemoryTraffic &o)
    {
        sparseBytes += o.sparseBytes;
        denseBytes += o.denseBytes;
        outputBytes += o.outputBytes;
        migrationBytes += o.migrationBytes;
        haloBytes += o.haloBytes;
        bRowBytes += o.bRowBytes;
        outputIndexBytes += o.outputIndexBytes;
        return *this;
    }
};

/**
 * Converts per-round traffic into a bandwidth-bound cycle floor at a
 * given accelerator clock. Stateless; both fidelities construct one per
 * SPMM from `AccelConfig::platform` and the policy clock.
 */
class MemoryModel
{
  public:
    /**
     * @param platform   the memory system (bandwidth + element widths)
     * @param clock_mhz  PE clock the floor is expressed in (the policy
     *                   clock: 275 MHz paper designs, 285 MHz EIE-like)
     */
    MemoryModel(const PlatformSpec &platform, double clock_mhz);

    /** True when the platform imposes no bandwidth bound (floor == 0). */
    bool unconstrained() const { return bytesPerCycle_ <= 0.0; }

    /** Sustainable off-chip bytes per PE-clock cycle (0 when unbounded). */
    double bytesPerCycle() const { return bytesPerCycle_; }

    /**
     * Steady per-round traffic of one SPMM C = A×B processing one dense
     * column: A's non-zero stream (value + index each), one column of B
     * (`inner_dim` = rows of B), one written column of C (`rows`).
     * Migration traffic is accounted separately (migrationBytes()).
     */
    MemoryTraffic roundTraffic(Count nnz, Index inner_dim,
                               Index rows) const;

    /**
     * Steady per-round traffic of one SpGEMM C = A×B round processing one
     * sparse B column (DESIGN.md §11): the A non-zero stream the round's
     * `tasks` multiply (value + index each), the fetched B column
     * (`b_nnz` value + index pairs — replacing the dense-column stream),
     * and the written sparse C column (`out_nnz` values plus the same
     * count of row-id index writes, the new outputIndexBytes class).
     */
    MemoryTraffic spgemmRoundTraffic(Count tasks, Count b_nnz,
                                     Count out_nnz) const;

    /**
     * Bytes to migrate the rows whose owner changed between two row→PE
     * maps: each moved row re-streams its non-zeros (value + index) to
     * the new owner's bank.
     */
    Count migrationBytes(const std::vector<int> &owners_before,
                         const std::vector<int> &owners_after,
                         const std::vector<Count> &row_work) const;

    /** The same bill from the summed non-zeros of the moved rows, for
     *  callers that diff the maps themselves. */
    Count migrationBytes(Count moved_nnz) const;

    /** Cycle floor for moving `bytes` off-chip: ceil(bytes / B_cyc);
     *  0 on an unconstrained platform. */
    Cycle floorCycles(Count bytes) const;

    /** Cycle floor for moving `bytes` over one chip's inter-chip link:
     *  ceil(bytes / link_B_cyc); 0 on an unconstrained link. Composed
     *  into the round barrier the same roofline way as floorCycles()
     *  (DESIGN.md §9). */
    Cycle haloFloorCycles(Count bytes) const;

    const PlatformSpec &platform() const { return platform_; }

  private:
    PlatformSpec platform_;
    double bytesPerCycle_ = 0.0;
    double linkBytesPerCycle_ = 0.0;
};

} // namespace awb
