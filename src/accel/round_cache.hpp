/**
 * @file
 * Process-wide cache of simulated round outcomes, shared across
 * `SpmmEngine` runs (DESIGN.md §13).
 *
 * The batched engine already memoizes rounds *within* one run: a round's
 * timing is a pure function of its entry state — the row→PE map, the
 * per-PE arbiter cursors and the Omega input-priority parity — because
 * tasks carry structure only (DESIGN.md §6). That purity
 * argument is run-independent: two runs over the same sparse structure
 * and the same timing configuration produce bit-identical outcomes for
 * equal entry states, no matter which engine, balance policy, platform
 * or chip count drove them there. This cache lifts the memo out of the
 * engine so a dataset×policy×PEs sweep grid event-steps each distinct
 * (structure, timing-config, entry-state) once, process-wide.
 *
 * The context digest deliberately covers only what round dynamics read:
 * the CSC structure (row ids and column extents — values are excluded,
 * the round loop never sees them) and the timing fields of
 * `AccelConfig`. Platform is excluded because the roofline floor is
 * composed outside the round loop (§8); engine kind because both
 * engines share one round core; balance policy because its whole
 * effect is the owners vector already inside the entry key. SpGEMM
 * rounds stream a different task set per B column, so their context is
 * the operand's digest mixed with the streamed column's row ids, and
 * they enter the cache only through admit() (DESIGN.md §13).
 *
 * The shared key is smaller than the memo's: {owners, parity}, with no
 * arbiter cursors. The MAC retires an op by the cycle after it issues,
 * so a PE issues exactly when it has a queued task, and acceptance and
 * local sharing read only the PE's total pending count. So every
 * timing field of a round is independent of the cursors; they change
 * only each PE's exit cursor and its per-queue peak depth, and those
 * depend only on that PE's own entry cursor and its cursor-independent
 * arrival and issue sequence. Every record the shared cache holds
 * carries that dependence as a per-(PE, entry cursor) table
 * (`cursorTable`), and a replay rebuilds the exit cursors and the peak
 * from it. The queue models (accel/cursor_models.hpp) fill the table
 * by running a copy of each PE per entry cursor while such a round is
 * stepped; every other round runs one copy per PE, at its real entry
 * cursor. The batched engine's within-run memo keeps the cursors in
 * its key: `roundsSimulated` counts its misses, and that count must
 * not depend on the shared cache.
 *
 * Disabled by default so unit tests and library embedders see the
 * uncached engine; `awbsim` enables it (escape hatch: `--no-cache`).
 * Cached outcomes are bit-identical to freshly simulated ones, so
 * enabling the cache never changes any model output.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "accel/config.hpp"
#include "sparse/csc.hpp"

namespace awb {

/** A PE's cursor-dependent round outcome for one entry cursor. */
struct CursorOutcome
{
    std::uint32_t exit = 0;  ///< arbiter cursor leaving the round
    std::uint32_t peak = 0;  ///< round-peak queue depth
};

/**
 * Everything one round produces that later rounds (or replays of the
 * same round-entry state) need: the duration, the PESM observation, the
 * per-PE execution tallies, the post-round arbiter cursors and the
 * round-local buffer peaks.
 */
struct RoundRecord
{
    Cycle roundCycles = 0;
    std::vector<Count> homeTasks;    ///< obs.peWork (dispatch-attributed)
    std::vector<Cycle> drainCycle;   ///< obs.drainCycle
    std::vector<Count> execTasks;    ///< tasks executed per PE
    std::vector<std::size_t> arbiterAfter;  ///< post-round PE cursors
    std::size_t peakQueue = 0;       ///< max PE queue depth this round
    std::size_t peakNet = 0;         ///< max Omega buffer depth this round
    /// Outcome per PE p and entry cursor c, at [p * numQueuesPerPe + c].
    /// Filled for every record the shared cache holds; arbiterAfter and
    /// peakQueue are its entries for the cursors the round was stepped
    /// with.
    std::vector<CursorOutcome> cursorTable;
};

/** Round-entry state the dynamics depend on (and nothing else). */
struct RoundEntryKey
{
    std::vector<int> owners;           ///< row→PE map
    std::vector<std::size_t> arbiter;  ///< per-PE cursors, or empty
    int netParity = 0;  ///< Omega input-priority toggle (0 when unused)

    bool
    operator==(const RoundEntryKey &o) const
    {
        return netParity == o.netParity && arbiter == o.arbiter &&
               owners == o.owners;
    }
};

/** splitmix64 finalizer — the repo's standard avalanche mix. */
std::uint64_t roundMix64(std::uint64_t x);

/** Hash of the entry key alone (bucket index; exact compare on hit). */
std::uint64_t hashRoundKey(const RoundEntryKey &key);

/**
 * 64-bit digest of everything outside the entry key that round dynamics
 * read: the sparse structure of `a` and the timing-relevant fields of
 * `cfg` plus the TDQ kind.
 */
std::uint64_t roundContextDigest(const CscMatrix &a, const AccelConfig &cfg,
                                 int tdq_kind);

/** Thread-safe process-wide (context, entry-key) → outcome memo. */
class RoundStateCache
{
  public:
    static RoundStateCache &instance();

    /** nullptr on miss. Records are immutable once inserted. */
    std::shared_ptr<const RoundRecord> lookup(std::uint64_t context,
                                              const RoundEntryKey &key);

    /** First insert wins; duplicate inserts of an equal key are no-ops. */
    void insert(std::uint64_t context, const RoundEntryKey &key,
                std::shared_ptr<const RoundRecord> record);

    /**
     * Admission test for streams that seldom repeat: records a sighting
     * of `stream` (a context digest) and returns true when it was
     * sighted before. executeSpgemm caches a round only once its stream
     * is admitted, so a one-off A × A pass leaves no entries behind.
     */
    bool admit(std::uint64_t stream);

    void setEnabled(bool on);
    bool enabled() const;

    std::uint64_t hits() const;
    std::uint64_t misses() const;
    std::size_t size() const;
    /** Drops every entry, every recorded sighting and the counters. */
    void clear();

  private:
    RoundStateCache() = default;
    struct Impl;
    Impl &impl() const;
};

} // namespace awb
