/**
 * @file
 * Fixed-width console table writer used by the benchmark harnesses
 * to print paper-style tables and figure series.
 */
#ifndef POD_COMMON_TABLE_H
#define POD_COMMON_TABLE_H

#include <ostream>
#include <string>
#include <vector>

namespace pod {

/**
 * Accumulates rows of string cells and prints them with aligned,
 * fixed-width columns.
 */
class Table
{
  public:
    /** Construct with column headers. */
    explicit Table(std::vector<std::string> headers);

    /** Append a row; must match the header count. */
    void AddRow(std::vector<std::string> cells);

    /** Number of data rows. */
    size_t RowCount() const { return rows_.size(); }

    /** Print as an aligned console table. */
    void Print(std::ostream& os) const;

    /** Format a double with the given precision as a cell. */
    static std::string Num(double v, int precision = 2);

    /** Format an integer as a cell. */
    static std::string Int(long long v);

    /** Format a percentage ("12.3%"). */
    static std::string Pct(double fraction, int precision = 1);

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

}  // namespace pod

#endif  // POD_COMMON_TABLE_H
