// Result export: CSV writers for the campaign outputs, so the regenerated
// figures can be re-plotted outside this repository (gnuplot, matplotlib,
// R). Benches honour ZH_OUTPUT_DIR to drop these next to the console
// reports.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/stats.hpp"

namespace zh::analysis {

/// CDF points as CSV: "value,cumulative_fraction\n".
std::string ecdf_to_csv(const Ecdf& ecdf,
                        const std::string& value_header = "value");

/// Frequency table as CSV: "key,count,share\n", descending by count.
std::string freq_to_csv(const FreqTable& table,
                        const std::string& key_header = "key");

/// A generic columnar table serialisable to CSV.
class Table {
 public:
  explicit Table(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  /// Appends a row; must match the column count.
  void add_row(std::vector<std::string> cells);

  std::size_t rows() const noexcept { return rows_.size(); }
  const std::vector<std::string>& columns() const noexcept {
    return columns_;
  }

  /// RFC 4180-ish CSV (quotes cells containing commas/quotes/newlines).
  std::string to_csv() const;

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Writes `content` to `directory/filename`; returns false on I/O failure.
bool write_file(const std::string& directory, const std::string& filename,
                const std::string& content);

}  // namespace zh::analysis
