/**
 * @file
 * Unit tests for the console table writer.
 */
#include "common/table.h"

#include <gtest/gtest.h>

#include <sstream>

namespace pod {
namespace {

TEST(Table, PrintAligned)
{
    Table t({"name", "value"});
    t.AddRow({"alpha", "1"});
    t.AddRow({"b", "22"});
    std::ostringstream os;
    t.Print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22"), std::string::npos);
    EXPECT_EQ(t.RowCount(), 2u);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::Num(2.0, 0), "2");
    EXPECT_EQ(Table::Int(42), "42");
    EXPECT_EQ(Table::Int(-7), "-7");
    EXPECT_EQ(Table::Pct(0.123, 1), "12.3%");
}

}  // namespace
}  // namespace pod
