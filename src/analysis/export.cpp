#include "analysis/export.hpp"

#include <cstdio>
#include <stdexcept>

namespace zh::analysis {
namespace {

std::string csv_escape(const std::string& cell) {
  // RFC 4180: bare CR needs quoting just like LF, or a \r\n-aware reader
  // splits the record.
  if (cell.find_first_of(",\"\n\r") == std::string::npos) return cell;
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out += '"';
  return out;
}

}  // namespace

std::string ecdf_to_csv(const Ecdf& ecdf, const std::string& value_header) {
  std::string out = value_header + ",cumulative_fraction\n";
  for (const auto& [value, fraction] : ecdf.curve()) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%lld,%.6f\n",
                  static_cast<long long>(value), fraction);
    out += buf;
  }
  return out;
}

std::string freq_to_csv(const FreqTable& table,
                        const std::string& key_header) {
  std::string out = key_header + ",count,share\n";
  for (const auto& [key, count] : table.top(table.raw().size())) {
    char buf[64];
    std::snprintf(buf, sizeof buf, ",%llu,%.6f\n",
                  static_cast<unsigned long long>(count), table.share(key));
    out += csv_escape(key) + buf;
  }
  return out;
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != columns_.size()) {
    throw std::invalid_argument(
        "Table::add_row: " + std::to_string(cells.size()) + " cells for " +
        std::to_string(columns_.size()) + " columns");
  }
  rows_.push_back(std::move(cells));
}

std::string Table::to_csv() const {
  std::string out;
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (i) out += ',';
    out += csv_escape(columns_[i]);
  }
  out += '\n';
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) out += ',';
      out += csv_escape(row[i]);
    }
    out += '\n';
  }
  return out;
}

bool write_file(const std::string& directory, const std::string& filename,
                const std::string& content) {
  const std::string path = directory + "/" + filename;
  // "wb", not "w": artefacts must be byte-identical across platforms, and
  // text mode would rewrite line endings where the distinction exists.
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (!file) return false;
  const std::size_t written =
      std::fwrite(content.data(), 1, content.size(), file);
  const bool closed = std::fclose(file) == 0;
  return closed && written == content.size();
}

}  // namespace zh::analysis
