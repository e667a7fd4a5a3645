// Bench-snapshot schema + regression diffing (the bench_diff tool's
// brains, kept in the library so tests can drive them directly).
//
// Every bench binary emits one BENCH_<name>.json via bench::BenchSnapshot
// (bench/bench_util.hpp) with the shared top-level shape:
//
//   {"bench":"<name>",
//    "git_describe":"...",          // optional (CLFLOW_GIT_DESCRIBE env)
//    "metrics":{"<key>":<number>,...}}
//
// Other top-level keys are ignored, so snapshots from older benches that
// embedded a "registries" object still parse.
//
// DiffSnapshots compares the flat "metrics" maps of two snapshots under
// per-key tolerances (longest matching key prefix wins) and classifies
// each change by direction: keys that look like throughput (fps, gflops,
// speedup, hit_rate) regress when they drop; keys that look like cost
// (_us, _ms, time, bytes, stall) regress when they rise; anything else is
// two-sided (any move beyond tolerance demands a baseline refresh).
// Metrics present in the baseline but missing from the current snapshot
// are regressions (coverage loss); new metrics are not.
#pragma once

#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace clflow::prof {

struct BenchSnapshot {
  std::string bench;
  std::string git_describe;  ///< empty when absent
  std::map<std::string, double> metrics;
};

/// Parses a snapshot document; nullopt when the text is not valid JSON or
/// lacks the "bench"/"metrics" keys. When `error` is non-null it receives
/// a one-line reason naming the offending key (e.g. a metric whose value
/// is a string), so tools can say *why* a snapshot was rejected.
[[nodiscard]] std::optional<BenchSnapshot> ParseBenchSnapshot(
    const std::string& json_text, std::string* error = nullptr);

struct DiffOptions {
  double default_tolerance = 0.05;  ///< relative
  /// Per-key tolerance by longest matching prefix ("dse." -> 0.10).
  std::vector<std::pair<std::string, double>> prefix_tolerances;
  /// Keys matching any of these prefixes are reported but never gate
  /// (wall-clock metrics differ across machines).
  std::vector<std::string> ignore_prefixes;
};

enum class MetricStatus {
  kOk,        ///< within tolerance
  kImproved,  ///< beyond tolerance in the good direction
  kRegressed, ///< beyond tolerance in the bad direction
  kMissing,   ///< in baseline, absent now (counts as a regression)
  kNew,       ///< absent from baseline
  kIgnored,   ///< matched an ignore prefix
  kInvalid,   ///< NaN/Inf on either side -- the bench output is corrupt
};

[[nodiscard]] std::string_view MetricStatusName(MetricStatus s);

struct MetricDelta {
  std::string key;
  double baseline = 0.0;
  double current = 0.0;
  double rel_change = 0.0;  ///< current/baseline - 1 (0 when missing/new)
  double tolerance = 0.0;
  MetricStatus status = MetricStatus::kOk;
};

struct DiffResult {
  std::vector<MetricDelta> deltas;  ///< union of keys, sorted
  bool regressed = false;           ///< any kRegressed or kMissing
  /// Any kInvalid: a non-finite value can never pass a tolerance gate, so
  /// it is a hard failure (exit 2), not a soft regression. A NaN that
  /// silently compared "not greater than tolerance" would otherwise read
  /// as an improvement.
  bool invalid = false;
};

[[nodiscard]] DiffResult DiffSnapshots(const BenchSnapshot& baseline,
                                       const BenchSnapshot& current,
                                       const DiffOptions& opts = {});

/// The bench_diff CLI:
///   bench_diff <baseline.json> <current.json>
///              [--tol R] [--tol prefix=R]... [--ignore prefix]...
/// Prints a comparison table to `out`; returns 0 when clean, 1 on
/// regression, 2 on usage/I/O errors or corrupt data (non-numeric metric
/// values, NaN/Inf on either side). The bench_diff binary's main() is a
/// direct wrapper, so tests exercise exit semantics here.
[[nodiscard]] int RunBenchDiff(const std::vector<std::string>& args,
                               std::ostream& out);

}  // namespace clflow::prof
