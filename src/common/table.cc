/**
 * @file
 * Implementation of the console table writer.
 */
#include "common/table.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"

namespace pod {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers))
{
    POD_CHECK_ARG(!headers_.empty(), "table needs at least one column");
}

void
Table::AddRow(std::vector<std::string> cells)
{
    POD_CHECK_ARG(cells.size() == headers_.size(),
                  "row width must match header count");
    rows_.push_back(std::move(cells));
}

void
Table::Print(std::ostream& os) const
{
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c) {
        widths[c] = headers_[c].size();
    }
    for (const auto& row : rows_) {
        for (size_t c = 0; c < row.size(); ++c) {
            widths[c] = std::max(widths[c], row[c].size());
        }
    }

    auto print_row = [&](const std::vector<std::string>& row) {
        for (size_t c = 0; c < row.size(); ++c) {
            os << row[c];
            if (c + 1 < row.size()) {
                for (size_t pad = row[c].size(); pad < widths[c] + 2; ++pad) {
                    os << ' ';
                }
            }
        }
        os << '\n';
    };

    print_row(headers_);
    size_t total = 0;
    for (size_t c = 0; c < widths.size(); ++c) {
        total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
    }
    for (size_t i = 0; i < total; ++i) os << '-';
    os << '\n';
    for (const auto& row : rows_) {
        print_row(row);
    }
}

std::string
Table::Num(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return std::string(buf);
}

std::string
Table::Int(long long v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", v);
    return std::string(buf);
}

std::string
Table::Pct(double fraction, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
    return std::string(buf);
}

}  // namespace pod
