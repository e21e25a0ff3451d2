#include "common/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>

#include "common/log.hpp"

namespace awb {

std::string
humanCount(double v)
{
    char buf[64];
    double a = std::fabs(v);
    if (a >= 1e12) {
        std::snprintf(buf, sizeof(buf), "%.1fT", v / 1e12);
    } else if (a >= 1e9) {
        std::snprintf(buf, sizeof(buf), "%.1fG", v / 1e9);
    } else if (a >= 1e6) {
        std::snprintf(buf, sizeof(buf), "%.1fM", v / 1e6);
    } else if (a >= 1e3) {
        std::snprintf(buf, sizeof(buf), "%.1fK", v / 1e3);
    } else {
        std::snprintf(buf, sizeof(buf), "%.0f", v);
    }
    return buf;
}

std::string
percent(double frac)
{
    char buf[32];
    double pct = frac * 100.0;
    // Adaptive precision: adjacency densities reach 0.0073% (Table 1).
    if (pct != 0.0 && std::fabs(pct) < 0.1) {
        std::snprintf(buf, sizeof(buf), "%.4f%%", pct);
    } else {
        std::snprintf(buf, sizeof(buf), "%.1f%%", pct);
    }
    return buf;
}

std::string
fixed(double v, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return buf;
}

std::string
utilizationHeatmap(const std::vector<Count> &pe_tasks, std::size_t width)
{
    static const char kRamp[] = {' ', '.', ':', '-', '=',
                                 '+', '*', '#', '%', '@'};
    if (pe_tasks.empty()) return "";
    width = std::max<std::size_t>(1, std::min(width, pe_tasks.size()));

    // Bucket PEs down to `width` cells.
    std::vector<double> cell(width, 0.0);
    for (std::size_t p = 0; p < pe_tasks.size(); ++p) {
        std::size_t b = p * width / pe_tasks.size();
        cell[b] += static_cast<double>(pe_tasks[p]);
    }
    for (std::size_t b = 0; b < width; ++b) {
        std::size_t lo = b * pe_tasks.size() / width;
        std::size_t hi = (b + 1) * pe_tasks.size() / width;
        cell[b] /= static_cast<double>(std::max<std::size_t>(1, hi - lo));
    }

    double mean = std::accumulate(cell.begin(), cell.end(), 0.0) /
                  static_cast<double>(width);
    std::string s;
    s.reserve(width + 2);
    s.push_back('[');
    for (double v : cell) {
        // 1.0x mean maps mid-ramp; >= 2x mean saturates (paper Fig. 10's
        // red end).
        double t = mean > 0.0 ? v / (2.0 * mean) : 0.0;
        auto idx = static_cast<std::size_t>(t * 9.0);
        s.push_back(kRamp[std::min<std::size_t>(idx, 9)]);
    }
    s.push_back(']');
    return s;
}

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void
Table::addRow(std::vector<std::string> row)
{
    if (row.size() != header_.size()) {
        panic("Table row arity mismatch: expected " +
              std::to_string(header_.size()) + " got " +
              std::to_string(row.size()));
    }
    rows_.push_back(std::move(row));
}

std::string
Table::render() const
{
    std::vector<std::size_t> width(header_.size(), 0);
    for (std::size_t c = 0; c < header_.size(); ++c)
        width[c] = header_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());

    auto line = [&](char fill, char join) {
        std::string s;
        s.push_back(join);
        for (std::size_t c = 0; c < width.size(); ++c) {
            s.append(width[c] + 2, fill);
            s.push_back(join);
        }
        s.push_back('\n');
        return s;
    };
    auto renderRow = [&](const std::vector<std::string> &row) {
        std::string s = "|";
        for (std::size_t c = 0; c < row.size(); ++c) {
            s += " " + row[c];
            s.append(width[c] - row[c].size() + 1, ' ');
            s += "|";
        }
        s += "\n";
        return s;
    };

    std::string out = line('-', '+');
    out += renderRow(header_);
    out += line('=', '+');
    for (const auto &row : rows_) out += renderRow(row);
    out += line('-', '+');
    return out;
}

} // namespace awb
