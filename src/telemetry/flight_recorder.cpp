#include "telemetry/flight_recorder.hpp"

#include <fstream>
#include <iterator>
#include <sstream>
#include <utility>

#include "obs/json.hpp"

namespace clflow::telemetry {

std::string SequencedDumpPath(const std::string& path, std::uint64_t seq) {
  if (seq == 0) return path;
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  const bool extension =
      dot != std::string::npos && (slash == std::string::npos || dot > slash);
  std::string out = path.substr(0, extension ? dot : path.size());
  out += '.';
  out += std::to_string(seq);
  if (extension) out += path.substr(dot);  // the suffix goes before it
  return out;
}

namespace {

constexpr std::string_view kKindNames[] = {
    "command", "fault", "diag", "request", "note", "failover", "quarantine"};

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

FlightRecorder::Slot& FlightRecorder::Claim() {
  const std::uint64_t seq = next_seq_++;
  const auto pos = static_cast<std::size_t>(seq % capacity_);
  if (pos == slots_.size()) slots_.emplace_back();
  Slot& slot = slots_[pos];
  slot.seq = seq;
  return slot;
}

void FlightRecorder::Record(FlightEvent event) {
  std::lock_guard lock(mu_);
  Slot& slot = Claim();
  slot.kind = Kind::kOther;
  for (std::size_t k = 0; k < std::size(kKindNames); ++k) {
    if (event.kind == kKindNames[k]) slot.kind = static_cast<Kind>(k);
  }
  if (slot.kind == Kind::kOther) slot.other_kind = std::move(event.kind);
  slot.is_run = false;
  slot.label = std::move(event.label);
  slot.trace_id = event.trace_id;
  slot.span_id = event.span_id;
  slot.parent_span_id = event.parent_span_id;
  slot.t_us = event.t_us;
  slot.dur_us = event.dur_us;
  slot.queue = event.queue;
  slot.detail = std::move(event.detail);
}

void FlightRecorder::Note(std::string kind, std::string label,
                          const TraceContext& ctx, std::string detail) {
  FlightEvent ev;
  ev.kind = std::move(kind);
  ev.label = std::move(label);
  ev.trace_id = ctx.trace_id;
  ev.parent_span_id = ctx.parent_span_id;
  ev.detail = std::move(detail);
  Record(std::move(ev));
}

void FlightRecorder::RecordCommand(std::string_view label,
                                   const TraceContext& ctx,
                                   std::uint64_t span_id, double t_us,
                                   double dur_us, int queue) {
  std::lock_guard lock(mu_);
  Slot& slot = Claim();
  slot.kind = Kind::kCommand;
  slot.is_run = false;
  slot.label.assign(label);
  slot.trace_id = ctx.trace_id;
  slot.span_id = span_id;
  slot.parent_span_id = ctx.parent_span_id;
  slot.t_us = t_us;
  slot.dur_us = dur_us;
  slot.queue = queue;
  slot.detail.clear();
}

void FlightRecorder::NoteRun(std::uint64_t run, const TraceContext& ctx,
                             bool functional) {
  std::lock_guard lock(mu_);
  Slot& slot = Claim();
  slot.kind = Kind::kRequest;
  slot.is_run = true;
  slot.run = run;
  slot.trace_id = ctx.trace_id;
  slot.span_id = 0;
  slot.parent_span_id = ctx.parent_span_id;
  slot.t_us = 0.0;
  slot.dur_us = 0.0;
  slot.queue = 0;
  slot.detail.assign(functional ? "functional" : "timing");
}

std::uint64_t FlightRecorder::total_recorded() const {
  std::lock_guard lock(mu_);
  return next_seq_;
}

std::uint64_t FlightRecorder::dropped() const {
  std::lock_guard lock(mu_);
  return Evicted();
}

std::vector<FlightEvent> FlightRecorder::Events() const {
  std::vector<FlightEvent> out;
  out.reserve(static_cast<std::size_t>(next_seq_ - Evicted()));
  for (std::uint64_t seq = Evicted(); seq < next_seq_; ++seq) {
    const Slot& slot = slots_[static_cast<std::size_t>(seq % capacity_)];
    FlightEvent& ev = out.emplace_back();
    ev.seq = slot.seq;
    ev.kind = slot.kind == Kind::kOther
                  ? slot.other_kind
                  : std::string(kKindNames[static_cast<std::size_t>(
                        slot.kind)]);
    ev.label = slot.is_run ? "run#" + std::to_string(slot.run) : slot.label;
    ev.trace_id = slot.trace_id;
    ev.span_id = slot.span_id;
    ev.parent_span_id = slot.parent_span_id;
    ev.t_us = slot.t_us;
    ev.dur_us = slot.dur_us;
    ev.queue = slot.queue;
    ev.detail = slot.detail;
  }
  return out;
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::lock_guard lock(mu_);
  return Events();
}

std::string FlightRecorder::ToJson() const {
  using obs::JsonEscape;
  using obs::JsonNum;
  std::lock_guard lock(mu_);
  std::ostringstream os;
  os << "{\"capacity\":" << capacity_ << ",\"total_recorded\":" << next_seq_
     << ",\"dropped\":" << Evicted() << ",\"events\":[";
  bool first = true;
  for (const FlightEvent& ev : Events()) {
    if (!first) os << ",";
    first = false;
    os << "{\"seq\":" << ev.seq << ",\"kind\":\"" << JsonEscape(ev.kind)
       << "\",\"label\":\"" << JsonEscape(ev.label)
       << "\",\"trace_id\":" << ev.trace_id << ",\"span_id\":" << ev.span_id
       << ",\"parent_span_id\":" << ev.parent_span_id
       << ",\"t_us\":" << JsonNum(ev.t_us)
       << ",\"dur_us\":" << JsonNum(ev.dur_us) << ",\"queue\":" << ev.queue
       << ",\"detail\":\"" << JsonEscape(ev.detail) << "\"}";
  }
  os << "]}";
  return os.str();
}

bool FlightRecorder::DumpToFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << ToJson() << "\n";
  return static_cast<bool>(out);
}

}  // namespace clflow::telemetry
