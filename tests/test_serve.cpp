// Tests for the serving layer (obs v2): the deterministic open-loop load
// generator over deployments and replica sets, and the observatory
// dashboard it feeds (JSON schema, self-contained HTML, Chrome-trace
// counters).
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/error.hpp"
#include "core/deployment.hpp"
#include "ha/replica_set.hpp"
#include "nets/nets.hpp"
#include "obs/json.hpp"
#include "resilience/fault.hpp"
#include "serve/loadgen.hpp"
#include "serve/observatory.hpp"

namespace clflow {
namespace {

core::DeployOptions LenetOptions() {
  core::DeployOptions o;
  o.mode = core::ExecutionMode::kPipelined;
  o.recipe = core::PipelineTvmAutorun();
  o.recipe.concurrent_execution = true;
  o.board = fpga::Stratix10SX();
  o.runtime.watchdog_timeout = SimTime::Ms(2.0);
  return o;
}

struct Fixture {
  Rng rng{2021};
  graph::Graph net = nets::BuildLeNet5(rng);
  Tensor image = nets::SyntheticMnistImage(rng);

  core::Deployment Deploy() {
    return core::Deployment::Compile(net, LenetOptions());
  }
};

serve::LoadgenOptions SmallCampaign(serve::TraceShape shape) {
  serve::LoadgenOptions lo;
  lo.seed = 2021;
  lo.requests = 60;
  lo.shape = shape;
  return lo;
}

/// Board 0 hangs k_conv1 on its first 32 invocations.
std::shared_ptr<resilience::FaultInjector> SickBoardPlan() {
  resilience::FaultPlan plan;
  plan.seed = 2021;
  for (int i = 0; i < 32; ++i) {
    resilience::FaultSpec s;
    s.kind = resilience::FaultKind::kKernelHang;
    s.target = "k_conv1";
    s.index = i;
    plan.specs.push_back(s);
  }
  return std::make_shared<resilience::FaultInjector>(plan);
}

TEST(Loadgen, SameSeedSameDigestOnFreshDeployments) {
  Fixture f;
  auto d1 = f.Deploy();
  auto d2 = f.Deploy();
  const auto r1 =
      RunLoadCampaign(d1, f.image, SmallCampaign(serve::TraceShape::kPoisson));
  const auto r2 =
      RunLoadCampaign(d2, f.image, SmallCampaign(serve::TraceShape::kPoisson));
  EXPECT_EQ(r1.digest, r2.digest);
  EXPECT_DOUBLE_EQ(r1.p99_us, r2.p99_us);
  EXPECT_DOUBLE_EQ(r1.goodput, r2.goodput);
  // The recorded series export identically too.
  EXPECT_EQ(r1.metrics->ToJson(), r2.metrics->ToJson());
}

TEST(Loadgen, DifferentSeedsAndShapesDiverge) {
  Fixture f;
  auto d = f.Deploy();
  const auto base =
      RunLoadCampaign(d, f.image, SmallCampaign(serve::TraceShape::kPoisson));
  auto reseeded = SmallCampaign(serve::TraceShape::kPoisson);
  reseeded.seed = 7;
  EXPECT_NE(RunLoadCampaign(d, f.image, reseeded).digest, base.digest);
  EXPECT_NE(
      RunLoadCampaign(d, f.image, SmallCampaign(serve::TraceShape::kBursty))
          .digest,
      base.digest);
}

TEST(Loadgen, ReportInvariantsHold) {
  Fixture f;
  auto d = f.Deploy();
  const auto r =
      RunLoadCampaign(d, f.image, SmallCampaign(serve::TraceShape::kPoisson));
  ASSERT_EQ(r.requests.size(), 60u);
  for (const auto& req : r.requests) {
    EXPECT_LE(req.arrival.ps(), req.start.ps());
    EXPECT_LT(req.start.ps(), req.completion.ps());
    EXPECT_TRUE(req.ok);
  }
  EXPECT_GT(r.p50_us, 0.0);
  EXPECT_GE(r.p99_us, r.p50_us);
  EXPECT_GT(r.goodput, 0.0);
  EXPECT_LE(r.goodput, 1.0);
  EXPECT_GT(r.offered_rps, 0.0);
  EXPECT_GT(r.peak_occupancy, 0.0);
  // Latency includes queueing: it is never below the service time.
  for (const auto& req : r.requests) {
    EXPECT_GE(req.latency().ps(), req.service().ps());
  }
  // Series totals match the record count.
  EXPECT_DOUBLE_EQ(r.metrics->series("serve.arrivals").Total(), 60.0);
  EXPECT_DOUBLE_EQ(r.metrics->series("serve.completions").Total(), 60.0);
  // The latency histogram is bucketed (bounded memory) yet within 1% of
  // the exact nearest-rank p99 computed from the records.
  const obs::Histogram& h = r.metrics->histogram("serve.latency_us");
  EXPECT_FALSE(h.retain_samples());
  EXPECT_NEAR(h.log_buckets().Quantile(0.99), r.p99_us, r.p99_us * 0.01);
}

TEST(Loadgen, RejectsUtilizationThatGivesNoRate) {
  Fixture f;
  auto d = f.Deploy();
  for (const double u : {0.0, -0.5, std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    auto lo = SmallCampaign(serve::TraceShape::kPoisson);
    lo.utilization = u;
    EXPECT_THROW((void)RunLoadCampaign(d, f.image, lo), Error) << u;
  }
  // The rate and window it resolves to are reported, not echoed back.
  const auto r =
      RunLoadCampaign(d, f.image, SmallCampaign(serve::TraceShape::kPoisson));
  EXPECT_DOUBLE_EQ(r.rate_rps, 0.7 / r.base_service.seconds());
  EXPECT_GE(r.resolution.ps(), SimTime::Us(1.0).ps());
  EXPECT_EQ(r.metrics->series("serve.arrivals").spec().resolution.ps(),
            r.resolution.ps());
}

TEST(Loadgen, RampShapeRaisesLateArrivalsRate) {
  Fixture f;
  auto d = f.Deploy();
  auto lo = SmallCampaign(serve::TraceShape::kRamp);
  lo.requests = 80;
  const auto r = RunLoadCampaign(d, f.image, lo);
  // With the rate ramping 1x -> 3x, the second half of the trace arrives
  // in less simulated time than the first half.
  const SimTime mid = r.requests[40].arrival - r.requests[0].arrival;
  const SimTime rest = r.requests[79].arrival - r.requests[40].arrival;
  EXPECT_LT(rest.ps(), mid.ps());
}

TEST(Loadgen, ReplicaSetCampaignRecordsFailoversAndHealth) {
  Fixture f;
  ha::HaOptions ha;
  ha.replicas = 2;
  ha.quarantine_after = 2;
  ha.cooldown_batches = 64;
  ha::ReplicaSet rs(f.net, LenetOptions(), ha);
  rs.set_fault_injector(0, SickBoardPlan());
  const auto r =
      RunLoadCampaign(rs, f.image, SmallCampaign(serve::TraceShape::kPoisson));
  EXPECT_GT(r.failovers, 0);
  EXPECT_EQ(r.errors, 0);  // board 1 absorbs everything
  // Health steps are exported per board under its BoardLabel.
  bool health_series = false;
  for (const auto& [name, labels] : r.metrics->SeriesKeys()) {
    if (name == "ha.board.state" &&
        labels.count("board") != 0U &&
        labels.at("board") == rs.BoardLabel(0)) {
      health_series = true;
    }
  }
  EXPECT_TRUE(health_series);
  // The sick board's transitions were logged (healthy -> ... ->
  // quarantined at minimum).
  EXPECT_FALSE(rs.health_transitions().empty());
}

TEST(Observatory, JsonParsesAndCarriesCampaignSummary) {
  Fixture f;
  auto d = f.Deploy();
  const auto r =
      RunLoadCampaign(d, f.image, SmallCampaign(serve::TraceShape::kPoisson));
  const serve::Observatory o = BuildObservatory(r, "lenet test");
  const auto doc = obs::json::Parse(o.ToJson());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->Find("shape")->str, "poisson");
  EXPECT_DOUBLE_EQ(doc->Find("requests")->number, 60.0);
  EXPECT_DOUBLE_EQ(doc->Find("p99_us")->number, r.p99_us);
  EXPECT_DOUBLE_EQ(doc->Find("goodput")->number, r.goodput);
  const auto* charts = doc->Find("charts");
  ASSERT_NE(charts, nullptr);
  EXPECT_GE(charts->array.size(), 3u);  // latency, throughput, utilization
}

TEST(Observatory, HtmlIsSelfContainedAndTraceParses) {
  Fixture f;
  auto d = f.Deploy();
  const auto r =
      RunLoadCampaign(d, f.image, SmallCampaign(serve::TraceShape::kBursty));
  const serve::Observatory o = BuildObservatory(r, "lenet <bursty>");
  const std::string html = o.ToHtml();
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("lenet &lt;bursty&gt;"), std::string::npos);
  EXPECT_EQ(html.find("<script src"), std::string::npos);  // no externals
  EXPECT_EQ(html.find("href=\"http"), std::string::npos);

  const auto trace = obs::json::Parse(o.ToChromeTrace());
  ASSERT_TRUE(trace.has_value());
  const auto* events = trace->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_FALSE(events->array.empty());
  EXPECT_EQ(events->array[0].Find("ph")->str, "C");
}

TEST(Observatory, SameSeedRendersByteIdenticalDashboards) {
  Fixture f;
  auto d1 = f.Deploy();
  auto d2 = f.Deploy();
  const auto r1 =
      RunLoadCampaign(d1, f.image, SmallCampaign(serve::TraceShape::kPoisson));
  const auto r2 =
      RunLoadCampaign(d2, f.image, SmallCampaign(serve::TraceShape::kPoisson));
  EXPECT_EQ(BuildObservatory(r1, "t").ToHtml(),
            BuildObservatory(r2, "t").ToHtml());
  EXPECT_EQ(BuildObservatory(r1, "t").ToJson(),
            BuildObservatory(r2, "t").ToJson());
}

}  // namespace
}  // namespace clflow
