// Shared helpers for the experiment harness.
//
// Each bench binary regenerates one table or figure of the paper's
// evaluation section (§5), printing the same rows/series the paper reports
// plus a machine-readable CSV block. Absolute numbers come from the
// simulated substrate (see DESIGN.md §1), so the *shape* — who wins, by
// roughly what factor, where crossovers fall — is the reproduction target;
// EXPERIMENTS.md records paper-vs-measured values side by side.
#ifndef VAQ_BENCH_BENCH_UTIL_H_
#define VAQ_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace vaq {
namespace bench {

// Simple fixed-width table printer with a trailing CSV block.
class TablePrinter {
 public:
  TablePrinter(std::string title, std::vector<std::string> columns)
      : title_(std::move(title)), columns_(std::move(columns)) {}

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    std::printf("\n=== %s ===\n", title_.c_str());
    std::vector<size_t> widths(columns_.size());
    for (size_t i = 0; i < columns_.size(); ++i) widths[i] = columns_[i].size();
    for (const auto& row : rows_) {
      for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
        widths[i] = std::max(widths[i], row[i].size());
      }
    }
    PrintRow(columns_, widths);
    std::string rule;
    for (size_t i = 0; i < columns_.size(); ++i) {
      rule += std::string(widths[i] + 2, '-');
    }
    std::printf("%s\n", rule.c_str());
    for (const auto& row : rows_) PrintRow(row, widths);
    // CSV block for downstream plotting.
    std::printf("csv,%s\n", Join(columns_).c_str());
    for (const auto& row : rows_) {
      std::printf("csv,%s\n", Join(row).c_str());
    }
    std::fflush(stdout);
  }

 private:
  static std::string Join(const std::vector<std::string>& cells) {
    std::string out;
    for (size_t i = 0; i < cells.size(); ++i) {
      if (i > 0) out += ",";
      out += cells[i];
    }
    return out;
  }

  static void PrintRow(const std::vector<std::string>& row,
                       const std::vector<size_t>& widths) {
    for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      std::printf("%-*s  ", static_cast<int>(widths[i]), row[i].c_str());
    }
    std::printf("\n");
  }

  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(const char* format, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), format, value);
  return buffer;
}

inline std::string Fmt(int64_t value) { return std::to_string(value); }

}  // namespace bench
}  // namespace vaq

#endif  // VAQ_BENCH_BENCH_UTIL_H_
