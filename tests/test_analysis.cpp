// Unit tests for the analysis primitives: ECDF, frequency table, formatting.
#include <gtest/gtest.h>

#include <stdexcept>

#include "analysis/export.hpp"
#include "analysis/stats.hpp"

namespace zh::analysis {
namespace {

TEST(Ecdf, BasicFractions) {
  Ecdf ecdf;
  ecdf.add(0, 122);  // the paper's 12.2 % zero-iteration shape
  ecdf.add(1, 500);
  ecdf.add(8, 300);
  ecdf.add(100, 70);
  ecdf.add(500, 8);
  EXPECT_EQ(ecdf.total(), 1000u);
  EXPECT_DOUBLE_EQ(ecdf.fraction_at_most(0), 0.122);
  EXPECT_DOUBLE_EQ(ecdf.fraction_at_most(1), 0.622);
  EXPECT_DOUBLE_EQ(ecdf.fraction_at_most(499), 0.992);
  EXPECT_DOUBLE_EQ(ecdf.fraction_at_most(500), 1.0);
  EXPECT_DOUBLE_EQ(ecdf.fraction_at_most(-1), 0.0);
}

TEST(Ecdf, EmptyBehaviour) {
  Ecdf ecdf;
  EXPECT_TRUE(ecdf.empty());
  EXPECT_DOUBLE_EQ(ecdf.fraction_at_most(10), 0.0);
  EXPECT_EQ(ecdf.max(), 0);
}

TEST(Ecdf, Percentiles) {
  Ecdf ecdf;
  for (int v = 1; v <= 100; ++v) ecdf.add(v);
  EXPECT_EQ(ecdf.percentile(0.5), 50);
  EXPECT_EQ(ecdf.percentile(0.999), 100);
  EXPECT_EQ(ecdf.percentile(0.01), 1);
}

// Regression: nearest-rank must agree with the integer oracle at every
// whole-percent p. The double product p·n is not always exact (0.07·100 =
// 7.000000000000001), and a raw ceil turned those into an off-by-one rank.
TEST(Ecdf, PercentileMatchesIntegerOracleAtEveryWholePercent) {
  Ecdf ecdf;
  for (int v = 1; v <= 100; ++v) ecdf.add(v);  // value v == rank v
  for (int percent = 1; percent <= 100; ++percent) {
    const double p = static_cast<double>(percent) / 100.0;
    // ceil(percent·100 / 100) == percent exactly, in integers.
    EXPECT_EQ(ecdf.percentile(p), percent) << "p = " << p;
  }
}

TEST(Ecdf, PercentileFractionalRanksStillRoundUp) {
  Ecdf ecdf;
  for (int v = 1; v <= 10; ++v) ecdf.add(v);
  EXPECT_EQ(ecdf.percentile(0.05), 1);   // rank ceil(0.5) = 1
  EXPECT_EQ(ecdf.percentile(0.11), 2);   // rank ceil(1.1) = 2
  EXPECT_EQ(ecdf.percentile(0.95), 10);  // rank ceil(9.5) = 10
  EXPECT_EQ(ecdf.percentile(1.0), 10);
}

TEST(Ecdf, CountsAboveAndOf) {
  Ecdf ecdf;
  ecdf.add(150, 10);
  ecdf.add(151, 3);
  ecdf.add(500, 12);
  EXPECT_EQ(ecdf.count_above(150), 15u);
  EXPECT_EQ(ecdf.count_of(500), 12u);
  EXPECT_EQ(ecdf.count_above(500), 0u);
}

TEST(Ecdf, CurveIsMonotone) {
  Ecdf ecdf;
  ecdf.add(3, 5);
  ecdf.add(1, 2);
  ecdf.add(7, 3);
  const auto curve = ecdf.curve();
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_EQ(curve.front().first, 1);
  double previous = 0;
  for (const auto& [value, fraction] : curve) {
    EXPECT_GT(fraction, previous);
    previous = fraction;
  }
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

TEST(FreqTable, SharesAndTop) {
  FreqTable table;
  table.add("squarespace", 394);
  table.add("one.com", 95);
  table.add("ovh", 84);
  EXPECT_EQ(table.total(), 573u);
  EXPECT_NEAR(table.share("squarespace"), 394.0 / 573.0, 1e-9);
  EXPECT_EQ(table.count_of("missing"), 0u);
  const auto top = table.top(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, "squarespace");
  EXPECT_EQ(top[1].first, "one.com");
}

TEST(Format, Percent) {
  EXPECT_EQ(format_percent(0.878), "87.8 %");
  EXPECT_EQ(format_percent(0.0035, 2), "0.35 %");
}

TEST(Format, Count) {
  EXPECT_EQ(format_count(302000000), "302.0 M");
  EXPECT_EQ(format_count(15500000), "15.5 M");
  EXPECT_EQ(format_count(994000), "994.0 K");
  EXPECT_EQ(format_count(447), "447");
  EXPECT_EQ(format_count(1900000000), "1.9 B");
}


TEST(Export, EcdfCsv) {
  Ecdf ecdf;
  ecdf.add(0, 3);
  ecdf.add(5, 1);
  const std::string csv = ecdf_to_csv(ecdf, "iterations");
  EXPECT_EQ(csv, "iterations,cumulative_fraction\n0,0.750000\n5,1.000000\n");
}

TEST(Export, FreqCsvEscapesAndOrders) {
  FreqTable table;
  table.add("plain", 10);
  table.add("with,comma", 20);
  const std::string csv = freq_to_csv(table, "operator");
  EXPECT_NE(csv.find("\"with,comma\",20,"), std::string::npos);
  // Descending by count: the comma entry first.
  EXPECT_LT(csv.find("with,comma"), csv.find("plain"));
}

// RFC 4180: a bare carriage return inside a cell must be quoted just like
// a line feed, or \r\n-aware CSV readers split the record.
TEST(Export, CsvQuotesCarriageReturns) {
  Table table({"k"});
  table.add_row({"line\rbreak"});
  EXPECT_NE(table.to_csv().find("\"line\rbreak\""), std::string::npos);
}

TEST(Export, AddRowRejectsWrongArity) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(table.add_row({"1", "2", "3"}), std::invalid_argument);
  table.add_row({"1", "2"});
  EXPECT_NE(table.to_csv().find("1,2"), std::string::npos);
}

TEST(Export, TableCsv) {
  Table table({"metric", "paper", "measured"});
  table.add_row({"zero iterations", "12.2 %", "12.2 %"});
  table.add_row({"quote\"d", "a", "b"});
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("metric,paper,measured"), std::string::npos);
  EXPECT_NE(csv.find("\"quote\"\"d\""), std::string::npos);
}

TEST(Export, WriteFileRoundTrip) {
  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(write_file(dir, "zh_export_test.csv", "a,b\n1,2\n"));
  std::FILE* f = std::fopen((dir + "/zh_export_test.csv").c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[32] = {};
  const size_t n = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  EXPECT_EQ(std::string(buf, n), "a,b\n1,2\n");
  EXPECT_FALSE(write_file("/nonexistent-dir-zh", "x.csv", "y"));
}

}  // namespace
}  // namespace zh::analysis
