#include "common/table.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.h"
#include "temp_path.h"

namespace cosparse {
namespace {

TEST(Table, PrintsAlignedRows) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "2.5"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("| long-name"), std::string::npos);
  // Header separator row present.
  EXPECT_NE(s.find("|--"), std::string::npos);
}

TEST(Table, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Table::fmt_ratio(2.039), "2.04x");
  EXPECT_EQ(Table::fmt_pct(0.123), "12.3%");
}

TEST(Table, CsvRoundTrip) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  t.add_row({"3", "4"});
  const std::string path = test::unique_temp_path("table.csv");
  t.write_csv(path);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::getline(in, line);
  EXPECT_EQ(line, "3,4");
  std::remove(path.c_str());
}

TEST(Table, RowCount) {
  Table t({"a"});
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"r"});
  EXPECT_EQ(t.rows(), 1u);
}

}  // namespace
}  // namespace cosparse
