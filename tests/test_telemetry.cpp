// Tests for the telemetry layer: request-scoped trace-context propagation
// (Deployment::Run -> ocl::Runtime -> EventPool -> Chrome-trace flow
// arrows), the flight-recorder ring and its dump-on-fault postmortem, and
// the SLO monitor's window/burn-rate/diagnostic semantics (CLF701-703).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/codes.hpp"
#include "analysis/diag.hpp"
#include "common/error.hpp"
#include "common/fnv.hpp"
#include "core/deployment.hpp"
#include "nets/nets.hpp"
#include "obs/json.hpp"
#include "ocl/trace.hpp"
#include "resilience/fault.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/slo.hpp"

namespace clflow {
namespace {

using telemetry::FlightEvent;
using telemetry::FlightRecorder;
using telemetry::RequestSummary;
using telemetry::SloMonitor;
using telemetry::SloSpec;
using telemetry::TraceContext;

core::DeployOptions LenetPipelinedOptions() {
  core::DeployOptions opts;
  opts.mode = core::ExecutionMode::kPipelined;
  opts.recipe = core::PipelineAutorun();
  opts.recipe.concurrent_execution = true;
  opts.board = fpga::Stratix10SX();
  return opts;
}

core::Deployment CompileLenet(const core::DeployOptions& opts) {
  Rng rng(7);
  graph::Graph net = nets::BuildLeNet5(rng);
  auto d = core::Deployment::Compile(net, opts);
  EXPECT_TRUE(d.ok());
  return d;
}

Tensor LenetImage() {
  Rng rng(7);
  graph::Graph net = nets::BuildLeNet5(rng);
  const Shape& in_shape = net.node(net.input_id()).output_shape;
  Rng img_rng(21);
  return Tensor::Random(in_shape, img_rng, 0.0f, 1.0f);
}

// --- trace-context propagation ---------------------------------------------

TEST(TraceContext, RunStampsEveryEventWithItsRequestId) {
  auto d = CompileLenet(LenetPipelinedOptions());
  const Tensor image = LenetImage();

  const auto r1 = d.Run(image, /*functional=*/false);
  const auto r2 = d.Run(image, /*functional=*/false);
  EXPECT_EQ(r1.trace_id, 1u);
  EXPECT_EQ(r2.trace_id, 2u);

  std::set<std::uint64_t> trace_ids;
  std::set<std::uint64_t> span_ids;
  for (const auto& ev : d.runtime().event_pool()) {
    trace_ids.insert(ev.trace_id);
    EXPECT_NE(ev.span_id, 0u);  // every recorded event gets a span id
    EXPECT_TRUE(span_ids.insert(ev.span_id).second)
        << "span ids must be unique across the whole event stream";
    EXPECT_EQ(ev.parent_span_id, ev.trace_id)
        << "request root spans use the trace id as parent";
  }
  EXPECT_EQ(trace_ids, (std::set<std::uint64_t>{1u, 2u}));
}

TEST(TraceContext, ChromeTraceEmitsFlowArrowsPerRequest) {
  auto d = CompileLenet(LenetPipelinedOptions());
  const Tensor image = LenetImage();
  (void)d.Run(image, /*functional=*/false);
  (void)d.Run(image, /*functional=*/false);

  const std::string trace = ocl::ExportChromeTrace(d.runtime().event_pool());
  const auto doc = obs::json::Parse(trace);
  ASSERT_TRUE(doc.has_value());
  const auto* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);

  // Each request chains exactly one "s" (start) and one "f" (finish,
  // binding to the enclosing slice) with its trace id as the flow id.
  std::map<double, int> starts, finishes, middles;
  for (const auto& ev : events->array) {
    const auto* ph = ev.Find("ph");
    if (ph == nullptr || ph->kind != obs::json::Value::Kind::kString) continue;
    const auto* id = ev.Find("id");
    if (ph->str == "s") starts[id->number]++;
    if (ph->str == "t") middles[id->number]++;
    if (ph->str == "f") {
      finishes[id->number]++;
      const auto* bp = ev.Find("bp");
      ASSERT_NE(bp, nullptr);
      EXPECT_EQ(bp->str, "e");
    }
  }
  EXPECT_EQ(starts[1], 1);
  EXPECT_EQ(starts[2], 1);
  EXPECT_EQ(finishes[1], 1);
  EXPECT_EQ(finishes[2], 1);
  EXPECT_GT(middles[1], 0);  // lenet has > 2 commands per request
}

TEST(TraceContext, TraceIdsAreBitStableAcrossFreshDeployments) {
  // Two independent compiles of the same network must produce the exact
  // same runtime export: ids come from request/span counters, not from
  // wall clock, addresses, or thread scheduling.
  const Tensor image = LenetImage();
  auto d1 = CompileLenet(LenetPipelinedOptions());
  auto d2 = CompileLenet(LenetPipelinedOptions());
  for (int i = 0; i < 3; ++i) {
    (void)d1.Run(image, /*functional=*/false);
    (void)d2.Run(image, /*functional=*/false);
  }
  EXPECT_EQ(ocl::ExportChromeTrace(d1.runtime().event_pool()),
            ocl::ExportChromeTrace(d2.runtime().event_pool()));
}

// --- flight recorder ---------------------------------------------------------

TEST(FlightRecorderTest, RingEvictsOldestAndCountsDrops) {
  FlightRecorder rec(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    rec.Note("command", "ev" + std::to_string(i), TraceContext{1, 1});
  }
  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_EQ(rec.total_recorded(), 10u);
  EXPECT_EQ(rec.dropped(), 6u);
  EXPECT_TRUE(rec.overflowed());
  const auto snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.front().label, "ev6");  // oldest surviving
  EXPECT_EQ(snap.back().label, "ev9");
  EXPECT_EQ(snap.front().seq, 6u);  // seq keeps counting across evictions
}

TEST(FlightRecorderTest, ToJsonRoundTripsThroughParser) {
  FlightRecorder rec(8);
  FlightEvent ev;
  ev.kind = "command";
  ev.label = "k_conv1 \"quoted\"";
  ev.trace_id = 3;
  ev.span_id = 7;
  ev.parent_span_id = 3;
  ev.t_us = 12.5;
  ev.dur_us = 3.25;
  ev.queue = 2;
  ev.detail = "line\nbreak";
  rec.Record(ev);

  const auto doc = obs::json::Parse(rec.ToJson());
  ASSERT_TRUE(doc.has_value());
  EXPECT_DOUBLE_EQ(doc->Find("capacity")->number, 8.0);
  EXPECT_DOUBLE_EQ(doc->Find("total_recorded")->number, 1.0);
  EXPECT_DOUBLE_EQ(doc->Find("dropped")->number, 0.0);
  const auto* events = doc->Find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 1u);
  const auto& e = events->array[0];
  EXPECT_EQ(e.Find("label")->str, "k_conv1 \"quoted\"");
  EXPECT_EQ(e.Find("detail")->str, "line\nbreak");
  EXPECT_DOUBLE_EQ(e.Find("trace_id")->number, 3.0);
  EXPECT_DOUBLE_EQ(e.Find("span_id")->number, 7.0);
  EXPECT_DOUBLE_EQ(e.Find("queue")->number, 2.0);
}

/// Requests, commands, faults and failover notes, three times past a
/// capacity-8 ring. `in_place` records the requests and commands through
/// NoteRun/RecordCommand, the paths Deployment::Run and the runtime use;
/// otherwise every event goes through Note/Record.
void RecordMixed(FlightRecorder& rec, bool in_place) {
  for (std::uint64_t i = 0; i < 32; ++i) {
    const TraceContext ctx{i / 4 + 1, i / 4 + 1};
    switch (i % 4) {
      case 0:
        if (in_place) {
          rec.NoteRun(i / 4 + 1, ctx, /*functional=*/i % 8 == 0);
        } else {
          rec.Note("request", "run#" + std::to_string(i / 4 + 1), ctx,
                   i % 8 == 0 ? "functional" : "timing");
        }
        break;
      case 1: {
        const std::string label =
            i % 8 == 1 ? "k_conv1" : "write_input [fail#0]";
        const double t_us = 0.5 * static_cast<double>(i);
        const int queue = static_cast<int>(i % 3) - 1;
        if (in_place) {
          rec.RecordCommand(label, ctx, 100 + i, t_us, 3.25, queue);
          break;
        }
        FlightEvent ev;
        ev.kind = "command";
        ev.label = label;
        ev.trace_id = ctx.trace_id;
        ev.span_id = 100 + i;
        ev.parent_span_id = ctx.parent_span_id;
        ev.t_us = t_us;
        ev.dur_us = 3.25;
        ev.queue = queue;
        rec.Record(ev);
        break;
      }
      case 2: {
        FlightEvent ev;
        ev.kind = "fault";
        ev.label = "CLF502 k_conv2";
        ev.trace_id = ctx.trace_id;
        ev.parent_span_id = ctx.parent_span_id;
        ev.t_us = 1.0 + static_cast<double>(i);
        ev.detail = "watchdog: \"k_conv2\" never completed\n";
        rec.Record(ev);
        break;
      }
      default:
        rec.Note("failover", "CLF509 out board0", {ctx.trace_id, 0},
                 "batch#" + std::to_string(i));
        break;
    }
  }
}

TEST(FlightRecorderTest, MixedRecordsPastCapacityArePinned) {
  // seq, order, drops and the JSON bytes are pinned to the values the
  // deque-of-strings ring produced for the same sequence.
  for (const bool in_place : {false, true}) {
    SCOPED_TRACE(in_place ? "in place" : "generic");
    FlightRecorder rec(/*capacity=*/8);
    RecordMixed(rec, in_place);
    EXPECT_EQ(rec.total_recorded(), 32u);
    EXPECT_EQ(rec.dropped(), 24u);
    const std::vector<FlightEvent> snap = rec.snapshot();
    ASSERT_EQ(snap.size(), 8u);
    for (std::size_t k = 0; k < snap.size(); ++k) {
      EXPECT_EQ(snap[k].seq, 24 + k);
    }
    EXPECT_EQ(snap.front().kind, "request");
    EXPECT_EQ(snap.front().label, "run#7");
    EXPECT_EQ(snap.back().kind, "failover");
    const std::string json = rec.ToJson();
    common::Fnv f;
    f.Bytes(json.data(), json.size());
    EXPECT_EQ(f.h, 0xaaf5f1b1215bd5a6ull) << json;
    EXPECT_EQ(json.size(), 1283u);
  }
}

TEST(FlightRecorderTest, DumpOnFaultCarriesTheFailingRequestsTraceId) {
  const std::string path = testing::TempDir() + "clflow_flightrec_test.json";
  std::remove(path.c_str());

  core::DeployOptions opts = LenetPipelinedOptions();
  opts.flightrec_path = path;
  auto d = CompileLenet(opts);

  resilience::FaultPlan plan;
  plan.seed = 17;
  plan.specs.push_back(resilience::ParseFaultSpec("hang:k_conv1"));
  d.runtime().set_fault_injector(
      std::make_shared<resilience::FaultInjector>(plan));

  const Tensor image = LenetImage();
  EXPECT_THROW((void)d.Run(image, /*functional=*/false), RuntimeFaultError);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "fault escape must dump " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto doc = obs::json::Parse(buf.str());
  ASSERT_TRUE(doc.has_value());

  bool saw_request = false, saw_fault = false;
  for (const auto& ev : doc->Find("events")->array) {
    const std::string kind = ev.Find("kind")->str;
    if (kind == "request") {
      saw_request = true;
      EXPECT_DOUBLE_EQ(ev.Find("trace_id")->number, 1.0);
    }
    if (kind == "fault") {
      saw_fault = true;
      EXPECT_DOUBLE_EQ(ev.Find("trace_id")->number, 1.0)
          << "the fault must be attributed to the failing request";
      EXPECT_NE(ev.Find("label")->str.find("CLF502"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_request);
  EXPECT_TRUE(saw_fault);
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, OverflowAtDumpTimeReportsClf703) {
  const std::string path = testing::TempDir() + "clflow_flightrec_703.json";
  std::remove(path.c_str());

  core::DeployOptions opts = LenetPipelinedOptions();
  opts.flightrec_path = path;
  auto d = CompileLenet(opts);

  // Clean batches first, until the ring has wrapped.
  const Tensor image = LenetImage();
  while (d.flight_recorder().total_recorded() <=
         telemetry::FlightRecorder::kDefaultCapacity) {
    (void)d.Run(image, /*functional=*/false);
  }
  resilience::FaultPlan plan;
  plan.seed = 17;
  plan.specs.push_back(resilience::ParseFaultSpec("hang:k_conv1"));
  d.runtime().set_fault_injector(
      std::make_shared<resilience::FaultInjector>(plan));

  EXPECT_THROW((void)d.Run(image, /*functional=*/false), RuntimeFaultError);

  bool found = false;
  for (const auto& diag : d.diagnostics().diagnostics()) {
    if (diag.code == "CLF703") found = true;
  }
  EXPECT_TRUE(found) << "a wrapped ring at dump time must surface CLF703";

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto doc = obs::json::Parse(buf.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_GT(doc->Find("dropped")->number, 0.0);
  std::remove(path.c_str());
}

TEST(SequencedDumpPath, SuffixesEverythingAfterTheFirst) {
  using telemetry::SequencedDumpPath;
  EXPECT_EQ(SequencedDumpPath("x_flightrec.json", 0), "x_flightrec.json");
  EXPECT_EQ(SequencedDumpPath("x_flightrec.json", 1), "x_flightrec.1.json");
  EXPECT_EQ(SequencedDumpPath("x_flightrec.json", 12),
            "x_flightrec.12.json");
  // No extension: the suffix appends.
  EXPECT_EQ(SequencedDumpPath("dump", 2), "dump.2");
  // A dot in a directory component is not an extension.
  EXPECT_EQ(SequencedDumpPath("out.d/dump", 3), "out.d/dump.3");
  EXPECT_EQ(SequencedDumpPath("out.d/dump.json", 3), "out.d/dump.3.json");
}

TEST(FlightRecorderTest, RepeatedFaultsNeverOverwriteAPostmortem) {
  const std::string first =
      testing::TempDir() + "clflow_flightrec_seq.json";
  const std::string second =
      testing::TempDir() + "clflow_flightrec_seq.1.json";
  std::remove(first.c_str());
  std::remove(second.c_str());

  core::DeployOptions opts = LenetPipelinedOptions();
  opts.flightrec_path = first;
  auto d = CompileLenet(opts);

  // Two hang faults on consecutive batches: each escaping fault dumps a
  // postmortem, and the second must not clobber the first.
  resilience::FaultPlan plan;
  plan.seed = 17;
  plan.specs.push_back(resilience::ParseFaultSpec("hang:k_conv1:0"));
  plan.specs.push_back(resilience::ParseFaultSpec("hang:k_conv1:1"));
  d.runtime().set_fault_injector(
      std::make_shared<resilience::FaultInjector>(plan));

  const Tensor image = LenetImage();
  EXPECT_THROW((void)d.Run(image, /*functional=*/false), RuntimeFaultError);
  d.runtime().AbortBatch();  // clear the poisoned batch state
  EXPECT_THROW((void)d.Run(image, /*functional=*/false), RuntimeFaultError);

  for (const std::string& path : {first, second}) {
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_TRUE(obs::json::Parse(buf.str()).has_value()) << path;
  }
  std::remove(first.c_str());
  std::remove(second.c_str());
}

// --- SLO monitor -------------------------------------------------------------

RequestSummary OkRequest(std::uint64_t id, double latency_us) {
  RequestSummary r;
  r.trace_id = id;
  r.latency_us = latency_us;
  r.ok = true;
  return r;
}

TEST(Slo, ViolationRateAndBurnRateFollowTheWindow) {
  SloSpec spec;
  spec.latency_objective_us = 100.0;
  spec.objective = 0.9;  // 10% error budget
  spec.window = 10;
  SloMonitor mon(spec);

  for (int i = 0; i < 8; ++i) mon.ObserveRequest(OkRequest(1, 50.0));
  EXPECT_DOUBLE_EQ(mon.violation_rate(), 0.0);
  EXPECT_DOUBLE_EQ(mon.goodput(), 1.0);

  mon.ObserveRequest(OkRequest(2, 150.0));  // late
  RequestSummary failed = OkRequest(3, 50.0);
  failed.ok = false;
  mon.ObserveRequest(failed);  // faulted counts as violation too

  EXPECT_DOUBLE_EQ(mon.violation_rate(), 0.2);
  EXPECT_DOUBLE_EQ(mon.burn_rate(), 2.0);  // 20% violations vs 10% budget
  EXPECT_DOUBLE_EQ(mon.goodput(), 0.8);
  EXPECT_EQ(mon.total_requests(), 10u);
  EXPECT_EQ(mon.total_violations(), 2u);

  // Violations age out of the sliding window.
  for (int i = 0; i < 10; ++i) mon.ObserveRequest(OkRequest(4, 50.0));
  EXPECT_DOUBLE_EQ(mon.violation_rate(), 0.0);
  EXPECT_EQ(mon.total_violations(), 2u);  // totals never decay
}

TEST(Slo, Clf701FiresOnceOnEachBurnCrossing) {
  SloSpec spec;
  spec.latency_objective_us = 100.0;
  spec.objective = 0.9;
  spec.window = 4;
  spec.burn_threshold = 1.0;
  SloMonitor mon(spec);
  analysis::DiagnosticEngine diags;

  auto count701 = [&diags] {
    int n = 0;
    for (const auto& d : diags.diagnostics()) n += d.code == "CLF701";
    return n;
  };

  mon.ObserveRequest(OkRequest(1, 50.0), &diags);
  EXPECT_EQ(count701(), 0);
  mon.ObserveRequest(OkRequest(2, 500.0), &diags);  // burn crosses
  EXPECT_EQ(count701(), 1);
  mon.ObserveRequest(OkRequest(3, 500.0), &diags);  // still burning: no spam
  EXPECT_EQ(count701(), 1);
  for (int i = 0; i < 4; ++i) mon.ObserveRequest(OkRequest(4, 50.0), &diags);
  mon.ObserveRequest(OkRequest(5, 500.0), &diags);  // second crossing
  EXPECT_EQ(count701(), 2);
}

TEST(Slo, Clf702FiresOnDominantSingleStallNotOnPipelineFill) {
  SloSpec spec;
  spec.latency_objective_us = 0.0;  // latency not under test here
  SloMonitor mon(spec);
  analysis::DiagnosticEngine diags;

  // Healthy pipelined shape: lots of *summed* stall, no dominant one.
  RequestSummary pipelined = OkRequest(1, 100.0);
  pipelined.stall_us = 300.0;
  pipelined.max_stall_us = 80.0;
  mon.ObserveRequest(pipelined, &diags);
  EXPECT_TRUE(diags.diagnostics().empty());

  RequestSummary starved = OkRequest(2, 100.0);
  starved.stall_us = 95.0;
  starved.max_stall_us = 95.0;
  starved.queue = 3;
  mon.ObserveRequest(starved, &diags);
  ASSERT_EQ(diags.diagnostics().size(), 1u);
  EXPECT_EQ(diags.diagnostics()[0].code, "CLF702");
  EXPECT_NE(diags.diagnostics()[0].message.find("queue 3"),
            std::string::npos);
}

TEST(Slo, Clf701FiresUnderInjectedFmaxDroop) {
  auto d = CompileLenet(LenetPipelinedOptions());
  const Tensor image = LenetImage();
  const auto healthy = d.Run(image, /*functional=*/false);

  SloSpec spec;
  spec.latency_objective_us = healthy.latency.us() * 1.05;
  spec.window = 8;
  spec.objective = 0.99;
  SloMonitor mon(spec);
  analysis::DiagnosticEngine diags;

  // Thermal throttling at half clock: every request now misses the
  // budget anchored to the healthy latency.
  resilience::FaultPlan plan;
  plan.seed = 17;
  plan.specs.push_back(resilience::ParseFaultSpec("fmax-droop:0.5"));
  d.runtime().set_fault_injector(
      std::make_shared<resilience::FaultInjector>(plan));

  auto& rt = d.runtime();
  for (int i = 0; i < 8; ++i) {
    const auto r = d.Run(image, /*functional=*/false);
    EXPECT_GT(r.latency.us(), spec.latency_objective_us);
    mon.ObserveRequest(ocl::SummarizeRequest(rt.event_pool(), r.trace_id),
                       &diags);
  }
  EXPECT_GT(mon.burn_rate(), 1.0);
  bool found = false;
  for (const auto& diag : diags.diagnostics()) {
    if (diag.code == "CLF701") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Slo, ExportMetricsWritesGaugesAndWindowedHistogram) {
  SloSpec spec;
  spec.latency_objective_us = 100.0;
  spec.window = 4;
  SloMonitor mon(spec);
  for (int i = 1; i <= 6; ++i) {
    mon.ObserveRequest(OkRequest(static_cast<std::uint64_t>(i), i * 10.0));
  }

  obs::Registry reg;
  mon.ExportMetrics(reg);
  EXPECT_DOUBLE_EQ(reg.gauge("telemetry.slo.objective_us").value(), 100.0);
  EXPECT_DOUBLE_EQ(reg.gauge("telemetry.slo.requests").value(), 6.0);
  EXPECT_DOUBLE_EQ(reg.gauge("telemetry.slo.violations").value(), 0.0);
  EXPECT_DOUBLE_EQ(reg.gauge("telemetry.slo.goodput").value(), 1.0);
  // Only the window's last 4 samples (30..60) are exported.
  const auto snap = reg.histogram("telemetry.slo.latency_us").snapshot();
  EXPECT_EQ(snap.count, 4);
  EXPECT_DOUBLE_EQ(snap.min, 30.0);
  EXPECT_DOUBLE_EQ(snap.max, 60.0);
}

TEST(Slo, ToJsonParsesAndMatchesState) {
  SloSpec spec;
  spec.latency_objective_us = 100.0;
  spec.window = 8;
  SloMonitor mon(spec);
  mon.ObserveRequest(OkRequest(1, 50.0));
  mon.ObserveRequest(OkRequest(2, 150.0));

  const auto doc = obs::json::Parse(mon.ToJson());
  ASSERT_TRUE(doc.has_value());
  EXPECT_DOUBLE_EQ(doc->Find("requests")->number, 2.0);
  EXPECT_DOUBLE_EQ(doc->Find("violations")->number, 1.0);
  EXPECT_DOUBLE_EQ(doc->Find("goodput")->number, 0.5);
  EXPECT_DOUBLE_EQ(doc->Find("latency_us")->Find("count")->number, 2.0);
}

}  // namespace
}  // namespace clflow
