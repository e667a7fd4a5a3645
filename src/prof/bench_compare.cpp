#include "prof/bench_compare.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <ostream>
#include <set>
#include <sstream>

#include "common/table.hpp"
#include "obs/json.hpp"

namespace clflow::prof {

namespace {

bool Contains(const std::string& key, const char* needle) {
  return key.find(needle) != std::string::npos;
}

enum class Direction { kHigherIsBetter, kLowerIsBetter, kTwoSided };

Direction DirectionFor(const std::string& key) {
  if (Contains(key, "fps") || Contains(key, "gflops") ||
      Contains(key, "speedup") || Contains(key, "hit_rate") ||
      Contains(key, "agree")) {
    return Direction::kHigherIsBetter;
  }
  if (Contains(key, "_us") || Contains(key, "_ms") || Contains(key, "time") ||
      Contains(key, "bytes") || Contains(key, "stall") ||
      Contains(key, "drift") || Contains(key, "wall")) {
    return Direction::kLowerIsBetter;
  }
  return Direction::kTwoSided;
}

double ToleranceFor(const std::string& key, const DiffOptions& opts) {
  double tol = opts.default_tolerance;
  std::size_t best_len = 0;
  for (const auto& [prefix, t] : opts.prefix_tolerances) {
    if (key.rfind(prefix, 0) == 0 && prefix.size() >= best_len) {
      best_len = prefix.size();
      tol = t;
    }
  }
  return tol;
}

bool Ignored(const std::string& key, const DiffOptions& opts) {
  for (const auto& prefix : opts.ignore_prefixes) {
    if (key.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

}  // namespace

std::string_view MetricStatusName(MetricStatus s) {
  switch (s) {
    case MetricStatus::kOk: return "ok";
    case MetricStatus::kImproved: return "improved";
    case MetricStatus::kRegressed: return "REGRESSED";
    case MetricStatus::kMissing: return "MISSING";
    case MetricStatus::kNew: return "new";
    case MetricStatus::kIgnored: return "ignored";
    case MetricStatus::kInvalid: return "INVALID";
  }
  return "?";
}

std::optional<BenchSnapshot> ParseBenchSnapshot(const std::string& json_text,
                                                std::string* error) {
  const auto fail = [error](std::string why) -> std::optional<BenchSnapshot> {
    if (error != nullptr) *error = std::move(why);
    return std::nullopt;
  };
  const auto doc = obs::json::Parse(json_text);
  if (!doc || doc->kind != obs::json::Value::Kind::kObject) {
    return fail("not a JSON object");
  }
  const auto* bench = doc->Find("bench");
  if (bench == nullptr || bench->kind != obs::json::Value::Kind::kString) {
    return fail("missing string \"bench\" key");
  }
  const auto* metrics = doc->Find("metrics");
  if (metrics == nullptr ||
      metrics->kind != obs::json::Value::Kind::kObject) {
    return fail("missing object \"metrics\" key");
  }
  BenchSnapshot snap;
  snap.bench = bench->str;
  if (const auto* gd = doc->Find("git_describe");
      gd != nullptr && gd->kind == obs::json::Value::Kind::kString) {
    snap.git_describe = gd->str;
  }
  for (const auto& [key, value] : metrics->object) {
    if (value.kind != obs::json::Value::Kind::kNumber) {
      return fail("metric \"" + key + "\" is not a number");
    }
    snap.metrics[key] = value.number;
  }
  return snap;
}

DiffResult DiffSnapshots(const BenchSnapshot& baseline,
                         const BenchSnapshot& current,
                         const DiffOptions& opts) {
  DiffResult result;
  std::set<std::string> keys;
  for (const auto& [k, _] : baseline.metrics) keys.insert(k);
  for (const auto& [k, _] : current.metrics) keys.insert(k);

  for (const auto& key : keys) {
    MetricDelta d;
    d.key = key;
    d.tolerance = ToleranceFor(key, opts);
    const auto base_it = baseline.metrics.find(key);
    const auto cur_it = current.metrics.find(key);
    if (base_it != baseline.metrics.end()) d.baseline = base_it->second;
    if (cur_it != current.metrics.end()) d.current = cur_it->second;

    // Non-finite values poison every comparison below (NaN fails the
    // `<= tolerance` check *and* both direction checks, which used to
    // classify it as an improvement), so catch them first.
    const bool base_bad =
        base_it != baseline.metrics.end() && !std::isfinite(base_it->second);
    const bool cur_bad =
        cur_it != current.metrics.end() && !std::isfinite(cur_it->second);

    if (Ignored(key, opts)) {
      d.status = MetricStatus::kIgnored;
    } else if (base_bad || cur_bad) {
      d.status = MetricStatus::kInvalid;
    } else if (base_it == baseline.metrics.end()) {
      d.status = MetricStatus::kNew;
    } else if (cur_it == current.metrics.end()) {
      d.status = MetricStatus::kMissing;
    } else {
      if (d.baseline != 0.0) {
        d.rel_change = d.current / d.baseline - 1.0;
      } else {
        d.rel_change = d.current == 0.0 ? 0.0
                       : d.current > 0.0
                           ? std::numeric_limits<double>::infinity()
                           : -std::numeric_limits<double>::infinity();
      }
      if (std::abs(d.rel_change) <= d.tolerance) {
        d.status = MetricStatus::kOk;
      } else {
        const Direction dir = DirectionFor(key);
        const bool worse =
            dir == Direction::kTwoSided ||
            (dir == Direction::kHigherIsBetter && d.rel_change < 0) ||
            (dir == Direction::kLowerIsBetter && d.rel_change > 0);
        d.status = worse ? MetricStatus::kRegressed : MetricStatus::kImproved;
      }
    }
    if (d.status == MetricStatus::kRegressed ||
        d.status == MetricStatus::kMissing) {
      result.regressed = true;
    }
    if (d.status == MetricStatus::kInvalid) result.invalid = true;
    result.deltas.push_back(std::move(d));
  }
  return result;
}

namespace {

std::optional<BenchSnapshot> LoadSnapshot(const std::string& path,
                                          std::ostream& out) {
  std::ifstream in(path);
  if (!in) {
    out << "bench_diff: cannot open " << path << "\n";
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  auto snap = ParseBenchSnapshot(buf.str(), &error);
  if (!snap) {
    out << "bench_diff: " << path << " is not a valid bench snapshot: "
        << error << "\n";
  }
  return snap;
}

}  // namespace

int RunBenchDiff(const std::vector<std::string>& args, std::ostream& out) {
  std::vector<std::string> files;
  DiffOptions opts;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--tol") {
      if (++i >= args.size()) {
        out << "bench_diff: --tol needs a value (R or prefix=R)\n";
        return 2;
      }
      const std::string& v = args[i];
      const auto eq = v.find('=');
      try {
        if (eq == std::string::npos) {
          opts.default_tolerance = std::stod(v);
        } else {
          opts.prefix_tolerances.emplace_back(v.substr(0, eq),
                                              std::stod(v.substr(eq + 1)));
        }
      } catch (const std::exception&) {
        out << "bench_diff: bad --tol value: " << v << "\n";
        return 2;
      }
    } else if (a == "--ignore") {
      if (++i >= args.size()) {
        out << "bench_diff: --ignore needs a key prefix\n";
        return 2;
      }
      opts.ignore_prefixes.push_back(args[i]);
    } else if (!a.empty() && a[0] == '-') {
      out << "bench_diff: unknown option " << a << "\n";
      return 2;
    } else {
      files.push_back(a);
    }
  }
  if (files.size() != 2) {
    out << "usage: bench_diff <baseline.json> <current.json> "
           "[--tol R] [--tol prefix=R]... [--ignore prefix]...\n";
    return 2;
  }
  const auto baseline = LoadSnapshot(files[0], out);
  const auto current = LoadSnapshot(files[1], out);
  if (!baseline || !current) return 2;
  if (baseline->bench != current->bench) {
    out << "bench_diff: snapshots come from different benches (\""
        << baseline->bench << "\" vs \"" << current->bench << "\")\n";
    return 2;
  }

  const DiffResult diff = DiffSnapshots(*baseline, *current, opts);
  Table table({"Metric", "Baseline", "Current", "Change", "Tol", "Status"});
  int regressions = 0;
  int invalids = 0;
  for (const auto& d : diff.deltas) {
    if (d.status == MetricStatus::kRegressed ||
        d.status == MetricStatus::kMissing) {
      ++regressions;
    }
    if (d.status == MetricStatus::kInvalid) ++invalids;
    table.AddRow(
        {d.key, Table::Num(d.baseline, 4), Table::Num(d.current, 4),
         Table::SignedPct(d.rel_change, 1),
         Table::Pct(d.tolerance, 0), std::string(MetricStatusName(d.status))});
  }
  out << "bench_diff: " << baseline->bench << " (" << diff.deltas.size()
      << " metrics)\n";
  out << table.ToString();
  if (diff.invalid) {
    out << "FAIL: " << invalids
        << " metric(s) are non-finite (NaN/Inf) -- the bench output is "
           "corrupt and cannot be gated\n";
    return 2;
  }
  if (diff.regressed) {
    out << "FAIL: " << regressions
        << " metric(s) regressed beyond tolerance\n";
    // One line per failure with the full old/new/tolerance triple, so the
    // culprit survives in truncated CI logs that drop the table above.
    for (const auto& d : diff.deltas) {
      if (d.status == MetricStatus::kRegressed) {
        out << "  " << MetricStatusName(d.status) << " " << d.key
            << ": baseline " << Table::Num(d.baseline, 4) << ", current "
            << Table::Num(d.current, 4) << " ("
            << (d.rel_change >= 0 ? "+" : "") << Table::Pct(d.rel_change, 1)
            << "), tolerance " << Table::Pct(d.tolerance, 0) << "\n";
      } else if (d.status == MetricStatus::kMissing) {
        out << "  " << MetricStatusName(d.status) << " " << d.key
            << ": baseline " << Table::Num(d.baseline, 4)
            << ", absent from current snapshot\n";
      }
    }
    return 1;
  }
  out << "OK: no regressions\n";
  return 0;
}

}  // namespace clflow::prof
