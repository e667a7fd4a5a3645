// Measurement helpers for bench_e2e: order statistics, the frozen
// speed-calibration kernel, per-op span accounting, and the snapshot
// writer. Of clflow it uses only the obs spans and JSON helpers.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/span.hpp"

namespace clflow::bench_e2e {

/// Nearest-rank quantile (q in (0, 1]) of `values`; 0 for an empty set.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  return values[std::min(rank, values.size()) - 1];
}

inline double Geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

/// Peak resident set of this process so far, in MB.
inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

inline double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// The speed-normalization kernel. On a shared VM the host's speed moves in
/// phases lasting seconds (another tenant on the sibling hardware thread,
/// cache pressure), and single-threaded clflow ops slow by up to 1.9x in
/// them. This kernel slows with them, so the bench reports such ops as
/// wall * (kCalibRefMs / RunMs() measured just before the op). It runs eight
/// independent FNV lanes with data-dependent branches over a 64 KB table, so
/// it competes for execution ports and branch prediction the way clflow's
/// branchy, pointer-heavy code does; README.md compares it with pointer
/// chases, atomics and a large-code kernel, which track the phases worse.
/// The table is allocated once, so no change to clflow -- not even a new
/// allocator -- can move the normalizer. Changing anything here re-bases
/// every normalized metric.
class Calibrator {
 public:
  /// Median RunMs() on the reference machine (4-vCPU Xeon KVM guest, g++ 12
  /// -O3), so normalized times read as that machine's wall time.
  static constexpr double kCalibRefMs = 0.8;

  Calibrator() : table_(kTable) {
    std::uint64_t x = 0x243f6a8885a308d3ULL;
    for (auto& v : table_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = static_cast<std::uint32_t>(x);
    }
  }

  /// Runs the kernel once; returns its wall time in ms.
  double RunMs() {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t h[kLanes];
    for (int j = 0; j < kLanes; ++j) h[j] = 0xcbf29ce484222325ULL + j;
    for (int i = 0; i < kSteps; ++i) {
      for (auto& lane : h) {
        const std::uint32_t v = table_[(lane >> 20) & (kTable - 1)];
        lane = (lane ^ v) * 0x100000001b3ULL;
        if (lane & 0x100) {
          lane ^= lane >> 29;
        } else {
          lane += v;
        }
      }
    }
    std::uint64_t all = 0;
    for (std::uint64_t lane : h) all ^= lane;
    sink_ = all;
    return MsSince(t0);
  }

 private:
  static constexpr std::uint32_t kTable = 1u << 14;
  static constexpr int kSteps = 60000;
  static constexpr int kLanes = 8;

  std::vector<std::uint32_t> table_;
  volatile std::uint64_t sink_ = 0;  // keeps the loop from being elided
};

/// Self-time accounting for one traced op. The root span covers the op;
/// each public call the bench makes is a child span tagged with the layer
/// it belongs to; spans the program recorded itself (Deployment
/// telemetry) are imported beneath the call that produced them. A span's
/// self time is its duration minus its children's, so the layer self times
/// of one op sum to its root duration; Close() checks that no child
/// outlasts its parent, which is what makes that sum meaningful.
class OpTrace {
 public:
  /// `tracer` null makes every method a pass-through (untraced op).
  OpTrace(obs::Tracer* tracer, const std::string& name) : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    root_index_ = tracer_->spans().size();
    root_.emplace(tracer_, name, "op");
  }
  OpTrace(const OpTrace&) = delete;
  OpTrace& operator=(const OpTrace&) = delete;

  [[nodiscard]] bool traced() const { return tracer_ != nullptr; }

  /// Runs fn() as one public call of `layer`.
  template <class F>
  decltype(auto) Call(const std::string& name, const std::string& layer,
                      F&& fn) {
    if (tracer_ == nullptr) return fn();
    calls_.push_back({tracer_->spans().size(), layer, {}});
    obs::ScopedSpan span(tracer_, name, layer);
    return fn();
  }

  /// Imports `program`'s spans from index `from` on as children of the
  /// last Call(). Top-level program spans are attributed to the layer
  /// `layer_of(name)` returns; nested ones only go to the Chrome trace.
  void Import(const obs::Tracer& program, std::size_t from,
              std::string (*layer_of)(const std::string&)) {
    if (tracer_ == nullptr || calls_.empty()) return;
    const auto& all = program.spans();
    for (std::size_t i = from; i < all.size(); ++i) {
      if (all[i].depth == 0) {
        calls_.back().program.push_back({layer_of(all[i].name), all[i]});
      }
      pending_.push_back({calls_.size() - 1, all[i]});
    }
  }

  /// Traced ops only: closes the root span, folds this op's self times into
  /// `self_us` (layer -> us; the root's own time under "unattributed") and
  /// appends the imported spans, re-based onto the bench tracer, to
  /// `imported`. Returns the root duration in us, or -1 when a child
  /// outlasts its parent.
  std::int64_t Close(std::map<std::string, std::int64_t>& self_us,
                     std::vector<obs::SpanRecord>& imported) {
    root_.reset();
    const auto& spans = tracer_->spans();
    const obs::SpanRecord& root = spans[root_index_];
    std::int64_t children = 0;
    bool nested = true;
    for (const CallRecord& c : calls_) {
      const obs::SpanRecord& call = spans[c.index];
      children += call.dur_us;
      std::int64_t program_us = 0;
      for (const auto& [layer, rec] : c.program) {
        program_us += rec.dur_us;
        self_us[layer] += rec.dur_us;
      }
      // The program's tracer ticks on its own epoch; allow one us of
      // rounding per imported span.
      const auto slack = static_cast<std::int64_t>(c.program.size());
      nested = nested && program_us <= call.dur_us + slack;
      self_us[c.layer] += call.dur_us - program_us;
    }
    for (auto& [call, rec] : pending_) {
      const obs::SpanRecord& parent = spans[calls_[call].index];
      rec.start_us += parent.start_us;
      rec.depth += parent.depth + 1;
      imported.push_back(std::move(rec));
    }
    nested = nested && children <= root.dur_us;
    self_us["unattributed"] += root.dur_us - children;
    return nested ? root.dur_us : -1;
  }

 private:
  struct CallRecord {
    std::size_t index;
    std::string layer;
    std::vector<std::pair<std::string, obs::SpanRecord>> program;
  };

  obs::Tracer* tracer_;
  std::size_t root_index_ = 0;
  std::optional<obs::ScopedSpan> root_;
  std::vector<CallRecord> calls_;
  std::vector<std::pair<std::size_t, obs::SpanRecord>> pending_;
};

/// Writes `text` to `path`; false when the file cannot be written.
inline bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

/// Writes `metrics` as a bench snapshot ({"bench":..., "metrics":{...}},
/// the schema prof::ParseBenchSnapshot and bench_diff read).
inline bool WriteSnapshot(const std::string& path, const std::string& bench,
                          const std::map<std::string, double>& metrics) {
  std::string out = "{\"bench\":\"" + obs::JsonEscape(bench) +
                    "\",\"metrics\":{";
  bool first = true;
  for (const auto& [key, v] : metrics) {
    if (!first) out += ",";
    first = false;
    out += "\"" + obs::JsonEscape(key) + "\":" + obs::JsonNum(v);
  }
  return WriteFile(path, out + "}}\n");
}

}  // namespace clflow::bench_e2e
