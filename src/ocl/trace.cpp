#include "ocl/trace.hpp"

#include <map>
#include <sstream>

#include "obs/json.hpp"

namespace clflow::ocl {

namespace {

using obs::JsonEscape;
using obs::JsonNum;

const char* KindName(CommandKind kind) {
  switch (kind) {
    case CommandKind::kWriteBuffer:
      return "write";
    case CommandKind::kReadBuffer:
      return "read";
    case CommandKind::kKernel:
      return "kernel";
  }
  return "?";
}

void EmitProcessName(std::ostringstream& os, int pid,
                     const std::string& name) {
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
     << ",\"args\":{\"name\":\"" << JsonEscape(name) << "\"}}";
}

void EmitRuntimeEvents(std::ostringstream& os, const EventPool& events,
                       int pid) {
  for (const auto& ev : events) {
    // Autorun kernels (queue -1) land on tid 0; queue q on tid q+1.
    const int tid = ev.queue + 1;
    // Channel-stall time precedes execution (the kernel was dispatched at
    // start - stall but blocked on its input channels); render it as its
    // own slice so stalls are visible instead of hiding in args.
    if (ev.stall.us() > 0) {
      os << ",{\"name\":\"" << JsonEscape(std::string(ev.label))
         << " [stall]\",\"cat\":\"stall\",\"ph\":\"X\",\"pid\":" << pid
         << ",\"tid\":" << tid << ",\"ts\":" << (ev.start - ev.stall).us()
         << ",\"dur\":" << ev.stall.us()
         << ",\"args\":{\"channel_wait_us\":" << ev.stall.us() << "}}";
    }
    os << ",{\"name\":\"" << JsonEscape(std::string(ev.label)) << "\",\"cat\":\""
       << KindName(ev.kind) << "\",\"ph\":\"X\",\"pid\":" << pid
       << ",\"tid\":" << tid << ",\"ts\":" << ev.start.us()
       << ",\"dur\":" << ev.duration().us()
       << ",\"args\":{\"queued_us\":" << ev.queued.us()
       << ",\"stall_us\":" << ev.stall.us() << ",\"bytes\":" << ev.bytes
       << ",\"trace_id\":" << ev.trace_id << ",\"span_id\":" << ev.span_id
       << ",\"parent_span_id\":" << ev.parent_span_id << "}}";
  }
}

/// Causal flow arrows per request: every event carrying the same non-zero
/// trace_id chains into one flow ("s" at the first command, "t" through
/// the middle, "f" binding-to-enclosing at the last), so Perfetto renders
/// the request's path across queues. Events are already in span order
/// (the recorder numbers them on the single host thread).
void EmitFlowEvents(std::ostringstream& os, const EventPool& events,
                    int pid) {
  // Pool iteration yields Views by value, so group (queue, start) copies
  // rather than pointers into the range.
  struct FlowPoint {
    int queue;
    SimTime start;
  };
  std::map<std::uint64_t, std::vector<FlowPoint>> requests;
  for (const auto& ev : events) {
    if (ev.trace_id != 0) {
      requests[ev.trace_id].push_back({ev.queue, ev.start});
    }
  }
  for (const auto& [trace_id, evs] : requests) {
    if (evs.size() < 2) continue;
    for (std::size_t i = 0; i < evs.size(); ++i) {
      const FlowPoint& ev = evs[i];
      const int tid = ev.queue + 1;
      const char* ph = i == 0 ? "s" : (i + 1 == evs.size() ? "f" : "t");
      os << ",{\"name\":\"request\",\"cat\":\"request\",\"ph\":\"" << ph
         << "\",\"id\":" << trace_id << ",\"pid\":" << pid
         << ",\"tid\":" << tid << ",\"ts\":" << ev.start.us();
      if (ph[0] == 'f') os << ",\"bp\":\"e\"";
      os << "}";
    }
  }
}

/// Counter tracks ("ph":"C"): how many commands execute concurrently and
/// how many transfer bytes are in flight at each instant. Deltas at equal
/// timestamps merge into one sample, so zero-duration events contribute
/// nothing (correctly).
void EmitCounterTracks(std::ostringstream& os, const EventPool& events,
                       int pid) {
  std::map<double, double> occupancy;    // ts -> delta concurrent commands
  std::map<double, double> outstanding;  // ts -> delta in-flight bytes
  for (const auto& ev : events) {
    occupancy[ev.start.us()] += 1;
    occupancy[ev.end.us()] -= 1;
    if (ev.kind != CommandKind::kKernel && ev.bytes > 0) {
      outstanding[ev.start.us()] += static_cast<double>(ev.bytes);
      outstanding[ev.end.us()] -= static_cast<double>(ev.bytes);
    }
  }
  double commands = 0;
  for (const auto& [ts, delta] : occupancy) {
    commands += delta;
    os << ",{\"name\":\"queue occupancy\",\"ph\":\"C\",\"pid\":" << pid
       << ",\"ts\":" << ts << ",\"args\":{\"commands\":" << JsonNum(commands)
       << "}}";
  }
  double bytes = 0;
  for (const auto& [ts, delta] : outstanding) {
    bytes += delta;
    os << ",{\"name\":\"outstanding transfer bytes\",\"ph\":\"C\",\"pid\":"
       << pid << ",\"ts\":" << ts << ",\"args\":{\"bytes\":" << JsonNum(bytes)
       << "}}";
  }
}

void EmitCompileSpans(std::ostringstream& os,
                      const std::vector<obs::SpanRecord>& spans, int pid) {
  for (const auto& span : spans) {
    os << ",{\"name\":\"" << JsonEscape(span.name) << "\",\"cat\":\""
       << JsonEscape(span.category) << "\",\"ph\":\"X\",\"pid\":" << pid
       << ",\"tid\":0,\"ts\":" << span.start_us << ",\"dur\":" << span.dur_us
       << ",\"args\":{\"depth\":" << span.depth;
    for (const auto& [key, value] : span.args) {
      os << ",\"" << JsonEscape(key) << "\":\"" << JsonEscape(value) << "\"";
    }
    os << "}}";
  }
}

}  // namespace

std::string ExportChromeTrace(const EventPool& events,
                              const std::string& process_name) {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  EmitProcessName(os, 1, process_name);
  EmitRuntimeEvents(os, events, /*pid=*/1);
  EmitFlowEvents(os, events, /*pid=*/1);
  EmitCounterTracks(os, events, /*pid=*/1);
  os << "]}";
  return os.str();
}

std::string ExportChromeTrace(const EventPool& events,
                              const std::vector<obs::SpanRecord>& compile_spans,
                              const std::string& process_name) {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  EmitProcessName(os, 1, process_name + " compile (wall clock)");
  os << ",";
  EmitProcessName(os, 2, process_name + " runtime (simulated clock)");
  EmitCompileSpans(os, compile_spans, /*pid=*/1);
  EmitRuntimeEvents(os, events, /*pid=*/2);
  EmitFlowEvents(os, events, /*pid=*/2);
  EmitCounterTracks(os, events, /*pid=*/2);
  os << "]}";
  return os.str();
}

telemetry::RequestSummary SummarizeRequest(const EventPool& events,
                                           std::uint64_t trace_id) {
  telemetry::RequestSummary req;
  req.trace_id = trace_id;
  SimTime first_queued, last_end;
  SimTime worst_stall;
  bool any = false;
  for (const auto& ev : events) {
    if (ev.trace_id != trace_id) continue;
    ++req.events;
    if (!any || ev.queued < first_queued) first_queued = ev.queued;
    if (!any || ev.end > last_end) last_end = ev.end;
    any = true;
    req.stall_us += ev.stall.us();
    // Enqueue-to-start wait minus the channel-stall share already
    // attributed above; clamped, as autorun events have no queue wait.
    const double wait = (ev.start - ev.queued - ev.stall).us();
    if (ev.queue >= 0 && wait > 0.0) req.queue_wait_us += wait;
    if (ev.stall > worst_stall) {
      worst_stall = ev.stall;
      req.queue = ev.queue;
    }
  }
  req.max_stall_us = worst_stall.us();
  if (any) req.latency_us = (last_end - first_queued).us();
  return req;
}

}  // namespace clflow::ocl
