/**
 * @file
 * Shared helpers for the paper-reproduction scenarios: design iteration
 * order and per-dataset constants. Banners, argument parsing, seeding and
 * repeat logic live in the driver (src/driver/scenario.hpp).
 */

#pragma once

#include <cctype>
#include <string>
#include <vector>

#include "accel/policy.hpp"
#include "graph/datasets.hpp"

namespace awb::bench {

/** Registry names of the paper's five evaluation design points (Fig. 14
 *  legend order). */
inline const std::vector<std::string> kFig14Designs = {
    "baseline", "local-a", "local-b", "remote-c", "remote-d",
};

/** Uppercase dataset label as the paper prints it. */
inline std::string
datasetLabel(const DatasetSpec &spec)
{
    std::string s = spec.name;
    for (auto &c : s) c = static_cast<char>(std::toupper(c));
    return s;
}

} // namespace awb::bench
