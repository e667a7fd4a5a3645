// Flight recorder: a fixed-size ring of recent structured events.
//
// The observability registry answers "what did the whole run cost"; the
// flight recorder answers "what was the runtime doing just before it
// died". Producers (ocl::Runtime command completions including every
// [fail#n]/[corrupt#n]/[rerun#n]/[hung] retry slice, Deployment request
// boundaries, CLF diagnostics) append FlightEvents; the ring keeps the
// most recent `capacity` of them and counts what it had to drop. When a
// RuntimeFaultError or VerifyError escapes Deployment::Run the recorder
// is dumped to <base>_flightrec.json, every event carrying the trace id
// of the request it belonged to -- the crash-cart view the postmortem
// starts from.
//
// The ring is a fixed-capacity vector of slots written in place: a
// command record assigns its label into the slot's existing buffer and
// stores its kind as an enum, and a request note stores its run number.
// Text is formatted only when the ring is read (snapshot(), ToJson() and
// the dump), so the per-command cost on the serving path is a slot write.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/context.hpp"

namespace clflow::telemetry {

/// One recorded moment. `kind` is a small vocabulary ("command",
/// "fault", "diag", "request", "note", "failover", "quarantine"; any
/// other text is kept as given); `detail` is free-form text (fault
/// message, diagnostic rendering, queue snapshot).
struct FlightEvent {
  std::uint64_t seq = 0;  ///< global append index (survives ring drops)
  std::string kind;
  std::string label;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  double t_us = 0.0;    ///< simulated start time (0 for host-side events)
  double dur_us = 0.0;  ///< simulated duration (0 for instants)
  int queue = 0;        ///< command queue (-1 autorun, 0 host-side)
  std::string detail;
};

/// Dump path for the `seq`-th postmortem of one base path: seq 0 returns
/// `path` unchanged (the documented artifact name stays stable); seq n > 0
/// inserts ".n" before the extension ("x_flightrec.json" ->
/// "x_flightrec.1.json"), so multiple faults in one run each keep their
/// dump instead of overwriting the previous one.
[[nodiscard]] std::string SequencedDumpPath(const std::string& path,
                                            std::uint64_t seq);

/// Bounded, thread-safe ring of FlightEvents. Appends never fail: when
/// full the oldest event is evicted and `dropped()` advances (that
/// overflow surfaces as CLF703 at dump time, a hint to raise the
/// capacity before the next postmortem).
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  static constexpr std::size_t kDefaultCapacity = 256;

  void Record(FlightEvent event);

  /// Convenience for instant host-side notes.
  void Note(std::string kind, std::string label, const TraceContext& ctx,
            std::string detail = "");

  /// One completed runtime command: a "command" event with an empty
  /// detail. Equivalent to Record() of the same fields.
  void RecordCommand(std::string_view label, const TraceContext& ctx,
                     std::uint64_t span_id, double t_us, double dur_us,
                     int queue);

  /// The request boundary Deployment::Run opens: a "request" note labelled
  /// "run#<run>" with detail "functional" or "timing".
  void NoteRun(std::uint64_t run, const TraceContext& ctx, bool functional);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t total_recorded() const;
  [[nodiscard]] std::uint64_t dropped() const;
  [[nodiscard]] bool overflowed() const { return dropped() > 0; }

  /// Oldest-first copy of the retained window.
  [[nodiscard]] std::vector<FlightEvent> snapshot() const;

  /// {"capacity":N,"total_recorded":N,"dropped":N,"events":[...]}
  [[nodiscard]] std::string ToJson() const;

  /// Writes ToJson() to `path`; returns false when the file cannot be
  /// opened (the dump path must never throw -- it runs inside a catch).
  bool DumpToFile(const std::string& path) const;

 private:
  /// The kinds producers use, plus kOther for any other text.
  enum class Kind : std::uint8_t {
    kCommand,
    kFault,
    kDiag,
    kRequest,
    kNote,
    kFailover,
    kQuarantine,
    kOther,
  };

  /// One ring entry. Strings keep their buffers across reuse.
  struct Slot {
    std::uint64_t seq = 0;
    Kind kind = Kind::kOther;
    std::string other_kind;  ///< the kind text when kind == kOther
    /// A request note's label is "run#<run>"; `label` is then unused.
    bool is_run = false;
    std::uint64_t run = 0;
    std::string label;
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
    std::uint64_t parent_span_id = 0;
    double t_us = 0.0;
    double dur_us = 0.0;
    int queue = 0;
    std::string detail;
  };

  /// Claims the slot of the next sequence number (evicting the oldest
  /// event when full) and stamps its seq. Caller holds mu_.
  Slot& Claim();
  /// Retained events, oldest first. Caller holds mu_.
  [[nodiscard]] std::vector<FlightEvent> Events() const;
  /// Events evicted so far (seqs below the retained window). Caller
  /// holds mu_.
  [[nodiscard]] std::uint64_t Evicted() const {
    return next_seq_ > capacity_ ? next_seq_ - capacity_ : 0;
  }

  const std::size_t capacity_;
  mutable std::mutex mu_;
  /// Slot of sequence number s is slots_[s % capacity_]; grows lazily up
  /// to capacity_.
  std::vector<Slot> slots_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace clflow::telemetry
