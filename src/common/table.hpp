/**
 * @file
 * ASCII table rendering used by the bench harnesses to print paper-style
 * tables (Table 1/2/3, Figure 14/15 series) to stdout, the number
 * formats their cells use, and the per-PE heat strip of paper Fig. 10.
 */

#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"

namespace awb {

/** Format a count the way the paper does: 999.7K, 62.3M, 257G, ... */
std::string humanCount(double v);

/** Format a ratio as a percentage with one decimal, e.g. "63.4%". */
std::string percent(double frac);

/** Format a double with the given number of decimals. */
std::string fixed(double v, int decimals);

/**
 * Render per-PE load as an ASCII heat strip (the per-PE utilization
 * heat map of paper Fig. 10). Each character encodes one PE's load
 * relative to the mean: ' ' (idle) '.' ':' '-' '=' '+' '*' '#' '%' '@'
 * (≥2x mean), mirroring the paper's blue-to-red heat map. Long arrays
 * are bucketed down to `width` characters (mean within bucket).
 *
 * @param pe_tasks  executed tasks (or any load measure) per PE
 * @param width     maximum strip width in characters
 */
std::string utilizationHeatmap(const std::vector<Count> &pe_tasks,
                               std::size_t width = 64);

/**
 * Column-aligned ASCII table. Rows are added as string vectors; render()
 * pads every column to its widest cell and draws a header separator.
 */
class Table
{
  public:
    explicit Table(std::vector<std::string> header);

    /** Append one data row; must match the header arity. */
    void addRow(std::vector<std::string> row);

    /** Render with column alignment and +-- style separators. */
    std::string render() const;

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace awb
