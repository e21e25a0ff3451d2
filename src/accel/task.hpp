/**
 * @file
 * The unit of work flowing through the accelerator: one scalar
 * multiply-accumulate into result element C(row, k) of the round's
 * column k. Tasks carry structure only — the timing of a round never
 * depends on operand values, so the engine computes C outside the
 * per-cycle loop (DESIGN.md §6). The Omega network routes a task to
 * its `homePe`.
 */

#pragma once

#include "common/types.hpp"

namespace awb {

/** One MAC task. */
struct Task
{
    Index row;    ///< result row (row of the sparse operand)
    int homePe;   ///< PE whose ACC bank owns `row` (result returns here
                  ///< when the task was diverted by local sharing)
};

} // namespace awb
