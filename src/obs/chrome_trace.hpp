// The one Chrome tracing writer ("traceEvents" JSON for chrome://tracing
// and Perfetto). The runtime event trace (ocl/trace) and the serving
// observatory's counter tracks both write through it, so the envelope,
// the record layouts and the number formatting cannot drift apart. Every
// number goes through JsonNum (shortest round trip): a timestamp parses
// back to exactly the double the caller passed in, so slices that touch
// in simulated time still touch in the file.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

namespace clflow::obs {

/// The members of one event's "args" object, in insertion order.
class TraceArgs {
 public:
  TraceArgs& Num(std::string_view key, double value);
  TraceArgs& Int(std::string_view key, std::int64_t value);
  TraceArgs& Id(std::string_view key, std::uint64_t value);
  TraceArgs& Str(std::string_view key, std::string_view value);
  [[nodiscard]] const std::string& body() const { return body_; }

 private:
  TraceArgs& Add(std::string_view key, const std::string& json);
  std::string body_;
};

class ChromeTraceWriter {
 public:
  /// Opens the envelope; a non-empty `display_time_unit` ("ms") is written
  /// as the top-level "displayTimeUnit".
  explicit ChromeTraceWriter(std::string_view display_time_unit = {});

  /// Process-name metadata ("ph":"M") for the `pid` row.
  void ProcessName(int pid, std::string_view name);
  /// A complete slice ("ph":"X").
  void Slice(std::string_view name, std::string_view cat, int pid, int tid,
             double ts_us, double dur_us, const TraceArgs& args);
  /// One point of flow arrow `id`: `phase` 's' starts it, 't' steps, 'f'
  /// finishes it bound to the enclosing slice. `name` is also its "cat".
  void Flow(std::string_view name, char phase, std::uint64_t id, int pid,
            int tid, double ts_us);
  /// One counter-track sample ("ph":"C"); a negative `tid` leaves the
  /// field out (a process-level track).
  void Counter(std::string_view name, int pid, int tid, double ts_us,
               std::string_view key, double value);

  /// Closes the envelope and returns the document.
  [[nodiscard]] std::string Finish();

 private:
  /// Starts the next record: a comma after the first, then "{".
  std::ostringstream& Open();

  std::ostringstream os_;
  bool first_ = true;
};

}  // namespace clflow::obs
