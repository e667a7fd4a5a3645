#include "ocl/trace.hpp"

#include <map>

#include "obs/chrome_trace.hpp"

namespace clflow::ocl {

namespace {

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

void EmitRuntimeEvents(obs::ChromeTraceWriter& out, const EventPool& events,
                       int pid) {
  for (const auto& ev : events) {
    // Autorun kernels (queue -1) land on tid 0; queue q on tid q+1.
    const int tid = ev.queue + 1;
    const std::string label(ev.label);
    // Channel-stall time precedes execution (the kernel was dispatched at
    // start - stall but blocked on its input channels); render it as its
    // own slice so stalls are visible instead of hiding in args.
    if (ev.stall.us() > 0) {
      out.Slice(label + " [stall]", "stall", pid, tid,
                (ev.start - ev.stall).us(), ev.stall.us(),
                obs::TraceArgs().Num("channel_wait_us", ev.stall.us()));
    }
    out.Slice(label, KindName(ev.kind), pid, tid, ev.start.us(),
              ev.duration().us(),
              obs::TraceArgs()
                  .Num("queued_us", ev.queued.us())
                  .Num("stall_us", ev.stall.us())
                  .Int("bytes", ev.bytes)
                  .Id("trace_id", ev.trace_id)
                  .Id("span_id", ev.span_id)
                  .Id("parent_span_id", ev.parent_span_id));
  }
}

/// Causal flow arrows per request: every event carrying the same non-zero
/// trace_id chains into one flow ("s" at the first command, "t" through
/// the middle, "f" binding-to-enclosing at the last), so Perfetto renders
/// the request's path across queues. Events are already in span order
/// (the recorder numbers them on the single host thread).
void EmitFlowEvents(obs::ChromeTraceWriter& out, const EventPool& events,
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
      const char phase = i == 0 ? 's' : (i + 1 == evs.size() ? 'f' : 't');
      out.Flow("request", phase, trace_id, pid, evs[i].queue + 1,
               evs[i].start.us());
    }
  }
}

/// Counter tracks ("ph":"C"): how many commands execute concurrently and
/// how many transfer bytes are in flight at each instant. Deltas at equal
/// timestamps merge into one sample, so zero-duration events contribute
/// nothing (correctly).
void EmitCounterTracks(obs::ChromeTraceWriter& out, const EventPool& events,
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
    out.Counter("queue occupancy", pid, /*tid=*/-1, ts, "commands", commands);
  }
  double bytes = 0;
  for (const auto& [ts, delta] : outstanding) {
    bytes += delta;
    out.Counter("outstanding transfer bytes", pid, /*tid=*/-1, ts, "bytes",
                bytes);
  }
}

void EmitRuntime(obs::ChromeTraceWriter& out, const EventPool& events,
                 int pid) {
  EmitRuntimeEvents(out, events, pid);
  EmitFlowEvents(out, events, pid);
  EmitCounterTracks(out, events, pid);
}

}  // namespace

std::string ExportChromeTrace(const EventPool& events,
                              const std::string& process_name) {
  obs::ChromeTraceWriter out;
  out.ProcessName(1, process_name);
  EmitRuntime(out, events, /*pid=*/1);
  return out.Finish();
}

std::string ExportChromeTrace(const EventPool& events,
                              const std::vector<obs::SpanRecord>& compile_spans,
                              const std::string& process_name) {
  obs::ChromeTraceWriter out;
  out.ProcessName(1, process_name + " compile (wall clock)");
  out.ProcessName(2, process_name + " runtime (simulated clock)");
  for (const auto& span : compile_spans) {
    obs::TraceArgs args;
    args.Int("depth", span.depth);
    for (const auto& [key, value] : span.args) args.Str(key, value);
    out.Slice(span.name, span.category, /*pid=*/1, /*tid=*/0,
              static_cast<double>(span.start_us),
              static_cast<double>(span.dur_us), args);
  }
  EmitRuntime(out, events, /*pid=*/2);
  return out.Finish();
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
