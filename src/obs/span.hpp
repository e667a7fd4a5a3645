// Scoped wall-clock spans for the compile half of the flow.
//
// The runtime half of the system already has a timeline (ocl::EventPool on
// the simulated clock); compilation happens in real time, so spans use a
// monotonic wall clock (steady_clock) relative to the owning Tracer's
// epoch. Spans nest lexically: a ScopedSpan opened while another is alive
// records one greater depth, which both the summary table (indentation) and
// the Chrome trace export (duration containment on one track) use to show
// the hierarchy.
//
// Like Registry::Current(), Tracer::Current() lets the IR passes open
// spans without plumbing: it is null outside any ScopedTelemetry (spans
// become no-ops, so library users pay nothing) and points at the compiling
// deployment's tracer inside one.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace clflow::obs {

/// One closed (or still-open: dur_us grows monotonically) span.
struct SpanRecord {
  std::string name;
  std::string category;  ///< e.g. "compile", "ir-pass", "codegen"
  std::int64_t start_us = 0;  ///< relative to the tracer's epoch
  std::int64_t dur_us = 0;
  int depth = 0;  ///< lexical nesting depth at open time
  std::vector<std::pair<std::string, std::string>> args;
};

class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Microseconds since this tracer was created.
  [[nodiscard]] std::int64_t NowUs() const;

  /// Spans in open order; records opened by a live ScopedSpan have their
  /// final duration filled in on close.
  [[nodiscard]] const std::vector<SpanRecord>& spans() const {
    return spans_;
  }

  /// The tracer ScopedSpan records into on this thread (innermost
  /// ScopedTelemetry's), or null when none is installed.
  [[nodiscard]] static Tracer* Current();

 private:
  friend class ScopedSpan;
  friend class ScopedTelemetry;

  std::size_t Open(std::string name, std::string category);
  void Close(std::size_t index);
  void AddArg(std::size_t index, std::string key, std::string value);

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  int depth_ = 0;
};

/// RAII span. Constructing against a null tracer (no telemetry installed)
/// is a no-op, so instrumentation sites need no guards.
class ScopedSpan {
 public:
  /// Records into Tracer::Current().
  explicit ScopedSpan(std::string name, std::string category = "compile")
      : ScopedSpan(Tracer::Current(), std::move(name), std::move(category)) {}
  ScopedSpan(Tracer* tracer, std::string name,
             std::string category = "compile");
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan();

  void Arg(const std::string& key, std::string value);
  void Arg(const std::string& key, std::int64_t value);

 private:
  Tracer* tracer_ = nullptr;
  std::size_t index_ = 0;
};

/// Everything one compilation (or one test) records: pass/phase spans plus
/// pass-level and synthesis metrics.
struct Telemetry {
  Registry registry;
  Tracer tracer;
};

/// Installs `t` as the thread's current registry + tracer; restores the
/// previous pair on destruction (scopes nest).
class ScopedTelemetry {
 public:
  explicit ScopedTelemetry(Telemetry* t);
  ScopedTelemetry(const ScopedTelemetry&) = delete;
  ScopedTelemetry& operator=(const ScopedTelemetry&) = delete;
  ~ScopedTelemetry();

 private:
  Registry* prev_registry_ = nullptr;
  Tracer* prev_tracer_ = nullptr;
};

}  // namespace clflow::obs
