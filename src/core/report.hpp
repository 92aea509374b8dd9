#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "cost/cost_model.hpp"

namespace mobidist::core {

/// Fixed-width text table used by the experiment benches to print the
/// paper-formula vs. simulated-measurement comparisons.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Append one row, padded or truncated to the header width.
  Table& row(std::vector<std::string> cells);

  /// Render with a header rule and right-aligned numeric-looking cells.
  void print(std::ostream& os) const;

  /// Rows appended so far (the header not counted).
  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double compactly ("12.5", "3", "0.042").
[[nodiscard]] std::string num(double value);
/// Format a ratio as "x1.37".
[[nodiscard]] std::string ratio(double value);

/// One-line summary of a ledger under given params:
/// "fixed=12 wireless=6 searches=3 total=96".
[[nodiscard]] std::string summarize(const cost::CostLedger& ledger,
                                    const cost::CostParams& params);

// --- artifact helpers -------------------------------------------------------

/// Escape `text` for embedding inside a JSON string literal (quotes,
/// backslashes, control characters).
[[nodiscard]] std::string json_escape(std::string_view text);

/// Resolve an artifact directory from environment variable `var`,
/// normalized to end in '/'. Unset or empty falls back to `fallback`
/// (returned unnormalized when itself empty, so callers can treat "" as
/// "feature disabled"). Shared by MOBIDIST_BENCH_DIR and
/// MOBIDIST_TRACE_DIR so the two cannot drift semantically.
[[nodiscard]] std::string resolve_env_dir(const char* var, std::string_view fallback);

/// On-disk format for TRACE_* artifacts when MOBIDIST_TRACE_DIR is set.
enum class TraceFormat {
  kJsonl,   ///< TRACE_*.jsonl + Perfetto .trace.json (the default)
  kBinlog,  ///< compact TRACE_*.binlog; decode with tools/trace_dump
};

/// Read MOBIDIST_TRACE_FORMAT: unset/"" / "jsonl" -> kJsonl, "binlog"
/// -> kBinlog; anything else throws (a typo must not silently disable
/// trace artifacts). Read by the experiment runner.
[[nodiscard]] TraceFormat resolve_trace_format();

/// Parse a whole command-line or environment number strictly: digits
/// only (plus a fraction and exponent for floating T), no sign, nothing
/// after it, in range for T, and finite. nullopt otherwise — where
/// atoi/strtoul read "-1" as UINT_MAX and "4x" as 4.
template <class T>
[[nodiscard]] std::optional<T> parse_number(std::string_view text) {
  if (text.empty() || text.front() == '-' || text.front() == '+') return std::nullopt;
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

/// Write `content` to `path`, throwing std::runtime_error on any
/// failure (missing directory, unwritable file) so misconfigured
/// artifact dirs fail loudly instead of silently dropping output.
void write_text_file(const std::string& path, std::string_view content);

}  // namespace mobidist::core
