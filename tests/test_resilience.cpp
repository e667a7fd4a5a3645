// Tests for the resilience layer: deterministic fault injection, the
// hardened runtime's retry/verify/watchdog machinery, fault surfacing
// through Deployment diagnostics, and graceful compile-time degradation.
#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/fallback.hpp"
#include "ir/op_kernels.hpp"
#include "nets/nets.hpp"
#include "obs/metrics.hpp"
#include "ocl/runtime.hpp"
#include "ocl/trace.hpp"
#include "resilience/fault.hpp"

namespace clflow {
namespace {

using ocl::Runtime;
using resilience::FaultInjector;
using resilience::FaultKind;
using resilience::FaultPlan;
using resilience::FaultSpec;
using resilience::ParseFaultSpec;

struct TestDesign {
  std::vector<ir::BuiltKernel> built;
  fpga::Bitstream bitstream;
};

TestDesign MakeDesign(int n, const fpga::BoardSpec& board) {
  TestDesign d;
  std::vector<fpga::SynthInput> inputs;
  d.built.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::string name(1, 'k');
    name += std::to_string(i);
    d.built.push_back(ir::BuildCopyKernel(1024, name));
  }
  for (const auto& b : d.built) inputs.push_back({&b.kernel, {}});
  d.bitstream = fpga::Synthesize(inputs, board);
  return d;
}

ir::KernelStats FixedCycles(double cycles) {
  ir::KernelStats stats;
  stats.compute_cycles = cycles;
  return stats;
}

std::shared_ptr<FaultInjector> Inject(Runtime& rt,
                                      std::vector<std::string> specs,
                                      std::uint64_t seed = 17) {
  FaultPlan plan;
  plan.seed = seed;
  for (const auto& s : specs) plan.specs.push_back(ParseFaultSpec(s));
  auto injector = std::make_shared<FaultInjector>(plan);
  rt.set_fault_injector(injector);
  return injector;
}

// --- FaultSpec parsing ------------------------------------------------------

TEST(FaultSpec, ParsesEveryKind) {
  FaultSpec f = ParseFaultSpec("xfer-fail:write:2:3");
  EXPECT_EQ(f.kind, FaultKind::kTransferFail);
  EXPECT_EQ(f.target, "write");
  EXPECT_EQ(f.index, 2);
  EXPECT_EQ(f.times, 3);

  f = ParseFaultSpec("xfer-corrupt:read");
  EXPECT_EQ(f.kind, FaultKind::kTransferCorrupt);
  EXPECT_EQ(f.target, "read");
  EXPECT_EQ(f.index, 0);
  EXPECT_EQ(f.times, 1);

  f = ParseFaultSpec("hang:k_conv3x3");
  EXPECT_EQ(f.kind, FaultKind::kKernelHang);
  EXPECT_EQ(f.target, "k_conv3x3");

  f = ParseFaultSpec("corrupt:k_dense:1:2");
  EXPECT_EQ(f.kind, FaultKind::kKernelCorrupt);
  EXPECT_EQ(f.index, 1);
  EXPECT_EQ(f.times, 2);

  f = ParseFaultSpec("fmax-droop:0.9");
  EXPECT_EQ(f.kind, FaultKind::kFmaxDroop);
  EXPECT_DOUBLE_EQ(f.factor, 0.9);

  f = ParseFaultSpec("reset:k_pool:1");
  EXPECT_EQ(f.kind, FaultKind::kDeviceReset);
  EXPECT_EQ(f.index, 1);
}

TEST(FaultSpec, RoundTripsThroughToString) {
  for (const char* s : {"xfer-fail:write:2:3", "xfer-corrupt:read:0",
                        "hang:k0:1", "corrupt:kd:0:2", "reset:kr:4"}) {
    const FaultSpec f = ParseFaultSpec(s);
    EXPECT_EQ(ParseFaultSpec(f.ToString()).ToString(), f.ToString()) << s;
  }
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  EXPECT_THROW((void)ParseFaultSpec(""), Error);
  EXPECT_THROW((void)ParseFaultSpec("frobnicate:k0"), Error);
  EXPECT_THROW((void)ParseFaultSpec("xfer-fail:sideways"), Error);
  EXPECT_THROW((void)ParseFaultSpec("xfer-fail:write:x"), Error);
  EXPECT_THROW((void)ParseFaultSpec("xfer-fail:write:0:0"), Error);
  EXPECT_THROW((void)ParseFaultSpec("hang:"), Error);
  EXPECT_THROW((void)ParseFaultSpec("fmax-droop:1.5"), Error);
  EXPECT_THROW((void)ParseFaultSpec("fmax-droop:0"), Error);
  EXPECT_THROW((void)ParseFaultSpec("corrupt:k:0:1:9"), Error);
}

TEST(FaultSpec, RejectsNumbersThatDoNotParseWholeOrFit) {
  for (const char* s : {
           "hang:k_conv1:1x",              // trailing junk after the index
           "hang:k_conv1:-1",              // an index no invocation has
           "xfer-fail:write:0:4294967297",  // times past int
           "xfer-fail:write:0:2x",          // trailing junk after times
           "xfer-fail:write:99999999999999999999",  // index past int64
           "fmax-droop:0.5abc",             // trailing junk after the factor
           "fmax-droop:",                   // no factor at all
           "hang:k_conv1:0:1",              // times is not in hang's grammar
           "reset:k_pool:1:2",              // nor in reset's
       }) {
    EXPECT_THROW((void)ParseFaultSpec(s), Error) << s;
  }
  // The valid forms still parse, to the same fields as before.
  EXPECT_EQ(ParseFaultSpec("xfer-fail:write:0:2").times, 2);
  EXPECT_EQ(ParseFaultSpec("hang:k_conv1:15").index, 15);
  EXPECT_DOUBLE_EQ(ParseFaultSpec("fmax-droop:0.9").factor, 0.9);
  EXPECT_EQ(ParseFaultSpec("corrupt:k_dense:1:2").times, 2);
}

/// One seeded mutation of `s`: a byte flip, a truncation, a splice with
/// another spec, or a run of digits (up to 25, so past int64) inserted.
void MutateSpec(std::string& s, Rng& rng,
                const std::vector<std::string>& corpus) {
  const std::size_t pos = rng.Below(s.size() + 1);
  switch (rng.Below(4)) {
    case 0:
      if (!s.empty()) {
        s[rng.Below(s.size())] = static_cast<char>(rng.Below(256));
      }
      break;
    case 1:
      s.resize(pos);
      break;
    case 2: {
      const std::string& other = corpus[rng.Below(corpus.size())];
      s = s.substr(0, pos) + other.substr(rng.Below(other.size() + 1));
      break;
    }
    default: {
      std::string digits(1 + rng.Below(25), '0');
      for (char& c : digits) c = static_cast<char>('0' + rng.Below(10));
      if (rng.Below(4) == 0) digits.insert(digits.begin(), '-');
      s.insert(pos, digits);
      break;
    }
  }
}

TEST(FaultSpec, MutantsOfValidSpecsParseOrThrowError) {
  // The forms the CLI (CI's --inject-fault lines and the golden runtime
  // faults) and the chaos campaign's FaultSpec::ToString renderings use.
  const std::vector<std::string> corpus = {
      "xfer-fail:write:0:2", "xfer-fail:write:1:2", "xfer-corrupt:read:3:4",
      "hang:k_conv1",        "hang:k_conv1:15",     "hang:k_conv2:1",
      "corrupt:k_conv2:1:1", "corrupt:k_dense3:2:5", "reset:k_pool1:1",
      "reset:k_conv1:0",     "fmax-droop:0.9",      "fmax-droop:0.837415"};
  for (const std::string& spec : corpus) {
    EXPECT_NO_THROW((void)ParseFaultSpec(spec)) << spec;
  }
  Rng rng(37);
  int parsed = 0;
  int rejected = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string mutant = corpus[rng.Below(corpus.size())];
    for (std::uint64_t e = 1 + rng.Below(3); e > 0; --e) {
      MutateSpec(mutant, rng, corpus);
    }
    try {
      const FaultSpec f = ParseFaultSpec(mutant);
      ++parsed;
      // What parses renders back to a spec that parses to the same fault.
      if (f.kind != FaultKind::kFmaxDroop) {
        EXPECT_EQ(ParseFaultSpec(f.ToString()).ToString(), f.ToString())
            << "mutant " << i;
      }
    } catch (const Error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " threw a non-clflow exception: "
                    << e.what();
    }
  }
  // Both outcomes occur, so the mutations reach past the first check.
  EXPECT_GT(parsed, 100);
  EXPECT_GT(rejected, 100);
}

// --- Transfer retry ---------------------------------------------------------

TEST(Resilience, TransferFailureRetriesAndRecovers) {
  TestDesign d = MakeDesign(1, fpga::Stratix10SX());
  Runtime rt(d.bitstream);
  Inject(rt, {"xfer-fail:write:0:2"});
  auto buf = rt.CreateBuffer(1024);
  std::vector<float> src(1024, 3.25f), dst(1024, 0.0f);

  rt.EnqueueWrite(0, buf, src);
  rt.EnqueueRead(0, buf, dst);
  rt.Finish();

  // Functional result is intact despite two failed DMA attempts.
  EXPECT_FLOAT_EQ(dst[1023], 3.25f);
  EXPECT_EQ(rt.xfer_retries(), 2);
  EXPECT_GT(rt.backoff_time(), kSimTimeZero);
  // Backoff is exponential: 50us + 100us with the default policy.
  EXPECT_NEAR(rt.backoff_time().us(), 150.0, 1e-6);
  // Every attempt is a distinct profiled event with an attempt marker.
  const auto& ev = rt.event_pool();
  ASSERT_EQ(ev.size(), 4u);  // fail#0, fail#1, clean write, read
  EXPECT_NE(ev[0].label.find("[fail#0]"), std::string::npos);
  EXPECT_NE(ev[1].label.find("[fail#1]"), std::string::npos);
  EXPECT_EQ(ev[2].label, "write");
  // Failed attempts still consumed bus time and traffic.
  EXPECT_EQ(rt.bytes_h2d(), 3 * 1024 * 4);
}

TEST(Resilience, CorruptedTransferIsDetectedAndRetried) {
  TestDesign d = MakeDesign(1, fpga::Stratix10SX());
  Runtime rt(d.bitstream);
  Inject(rt, {"xfer-corrupt:read:0"});
  auto buf = rt.CreateBuffer(64);
  std::vector<float> src(64, 1.5f), dst(64, 0.0f);

  rt.EnqueueWrite(0, buf, src);
  rt.EnqueueRead(0, buf, dst);
  rt.Finish();

  // The corrupted attempt flipped bits, the verified retry fixed them.
  for (float v : dst) EXPECT_FLOAT_EQ(v, 1.5f);
  EXPECT_EQ(rt.xfer_retries(), 1);
  // The injected log records a nonzero corruption mask.
  const auto& injected = rt.fault_injector()->injected();
  ASSERT_EQ(injected.size(), 1u);
  EXPECT_NE(injected[0].mask, 0u);
}

TEST(Resilience, RetryExhaustionThrowsStructuredClf503) {
  TestDesign d = MakeDesign(1, fpga::Stratix10SX());
  ocl::RuntimeOptions options;
  options.retry.max_attempts = 3;
  Runtime rt(d.bitstream, {}, options);
  Inject(rt, {"xfer-fail:write:0:99"});
  auto buf = rt.CreateBuffer(16);
  std::vector<float> src(16, 1.0f);

  try {
    rt.EnqueueWrite(0, buf, src);
    FAIL() << "expected RuntimeFaultError";
  } catch (const RuntimeFaultError& e) {
    EXPECT_EQ(e.code(), "CLF503");
    EXPECT_EQ(e.attempts(), 3);
    EXPECT_FALSE(e.queue_snapshot().empty());
    EXPECT_NE(std::string(e.what()).find("CLF503"), std::string::npos);
  }
}

// --- Kernel faults ----------------------------------------------------------

TEST(Resilience, KernelCorruptionRerunsAndCharges) {
  TestDesign d = MakeDesign(1, fpga::Stratix10SX());
  Runtime clean_rt(d.bitstream);
  clean_rt.EnqueueKernel(0, {.name = "k0", .stats = FixedCycles(100000),
                             .functional = {}, .reads_channels = {},
                             .writes_channels = {}});
  const SimTime clean = clean_rt.Finish();

  Runtime rt(d.bitstream);
  Inject(rt, {"corrupt:k0:0:2"});
  int calls = 0;
  rt.EnqueueKernel(0, {.name = "k0", .stats = FixedCycles(100000),
                       .functional = [&calls] { ++calls; },
                       .reads_channels = {}, .writes_channels = {}});
  const SimTime faulted = rt.Finish();

  EXPECT_EQ(calls, 1);  // deterministic functor: one clean evaluation
  EXPECT_EQ(rt.kernel_reruns(), 2);
  // Two discarded executions cost real simulated time.
  EXPECT_GT(faulted.us(), 2.5 * clean.us());
  // Reruns are visible as separate events.
  const auto& ev = rt.event_pool();
  ASSERT_EQ(ev.size(), 3u);
  EXPECT_EQ(ev[0].label, "k0");
  EXPECT_NE(ev[1].label.find("[rerun#1]"), std::string::npos);
  EXPECT_NE(ev[2].label.find("[rerun#2]"), std::string::npos);
}

TEST(Resilience, PersistentKernelCorruptionThrowsClf504) {
  TestDesign d = MakeDesign(1, fpga::Stratix10SX());
  Runtime rt(d.bitstream);
  Inject(rt, {"corrupt:k0:0:4"});  // >= default max_attempts of 4
  try {
    rt.EnqueueKernel(0, {.name = "k0", .stats = FixedCycles(1000),
                         .functional = {}, .reads_channels = {},
                         .writes_channels = {}});
    FAIL() << "expected RuntimeFaultError";
  } catch (const RuntimeFaultError& e) {
    EXPECT_EQ(e.code(), "CLF504");
    EXPECT_EQ(e.kernel(), "k0");
  }
}

TEST(Resilience, HungConsumerRaisesWatchdogDeadlock) {
  TestDesign d = MakeDesign(2, fpga::Stratix10SX());
  ocl::RuntimeOptions options;
  options.watchdog_timeout = SimTime::Ms(5.0);
  Runtime rt(d.bitstream, {}, options);
  Inject(rt, {"hang:k0"});
  rt.EnqueueKernel(0, {.name = "k0", .stats = FixedCycles(1000),
                       .functional = {}, .reads_channels = {},
                       .writes_channels = {"ch"}});
  try {
    rt.EnqueueKernel(0, {.name = "k1", .stats = FixedCycles(1000),
                         .functional = {}, .reads_channels = {"ch"},
                         .writes_channels = {}});
    FAIL() << "expected RuntimeFaultError";
  } catch (const RuntimeFaultError& e) {
    EXPECT_EQ(e.code(), "CLF502");
    EXPECT_EQ(e.channel(), "ch");
    EXPECT_EQ(e.kernel(), "k1");  // the blocked reader
    EXPECT_FALSE(e.queue_snapshot().empty());
    EXPECT_NE(std::string(e.what()).find("k0"), std::string::npos);
  }
  // The watchdog charged its bound to the stalled channel.
  EXPECT_GE(rt.channel_stall().at("ch"), SimTime::Ms(5.0));
}

TEST(Resilience, HangWithoutConsumerIsCaughtByFinish) {
  TestDesign d = MakeDesign(1, fpga::Stratix10SX());
  Runtime rt(d.bitstream);
  Inject(rt, {"hang:k0"});
  rt.EnqueueKernel(0, {.name = "k0", .stats = FixedCycles(1000),
                       .functional = {}, .reads_channels = {},
                       .writes_channels = {"ch"}});
  try {
    (void)rt.Finish();
    FAIL() << "expected RuntimeFaultError";
  } catch (const RuntimeFaultError& e) {
    EXPECT_EQ(e.code(), "CLF502");
    EXPECT_EQ(e.kernel(), "k0");
    EXPECT_EQ(e.channel(), "ch");
  }
  // The watchdog cleared the hang: the runtime stays usable.
  rt.set_fault_injector(nullptr);
  rt.EnqueueKernel(0, {.name = "k0", .stats = FixedCycles(1000),
                       .functional = {}, .reads_channels = {},
                       .writes_channels = {}});
  EXPECT_GT(rt.Finish(), kSimTimeZero);
}

TEST(Resilience, FmaxDroopSlowsEveryKernel) {
  TestDesign d = MakeDesign(1, fpga::Stratix10SX());
  Runtime clean_rt(d.bitstream);
  clean_rt.EnqueueKernel(0, {.name = "k0", .stats = FixedCycles(1000000),
                             .functional = {}, .reads_channels = {},
                             .writes_channels = {}});
  clean_rt.Finish();

  Runtime slow_rt(d.bitstream);
  Inject(slow_rt, {"fmax-droop:0.5"});
  slow_rt.EnqueueKernel(0, {.name = "k0", .stats = FixedCycles(1000000),
                            .functional = {}, .reads_channels = {},
                            .writes_channels = {}});
  slow_rt.Finish();

  const double clean_us = clean_rt.event_pool()[0].duration().us();
  const double slow_us = slow_rt.event_pool()[0].duration().us();
  EXPECT_NEAR(slow_us, 2.0 * clean_us, 0.05 * clean_us);
}

TEST(Resilience, DeviceResetChargesReprogram) {
  TestDesign d = MakeDesign(1, fpga::Stratix10SX());
  Runtime rt(d.bitstream);
  Inject(rt, {"reset:k0"});
  rt.EnqueueKernel(0, {.name = "k0", .stats = FixedCycles(1000),
                       .functional = {}, .reads_channels = {},
                       .writes_channels = {}});
  const SimTime makespan = rt.Finish();

  EXPECT_EQ(rt.reprograms(), 1);
  EXPECT_GE(makespan, rt.retry_policy().reprogram_cost);
  const auto& ev = rt.event_pool();
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_NE(ev[0].label.find("reprogram"), std::string::npos);
}

// --- Determinism ------------------------------------------------------------

TEST(Resilience, SamePlanSameSeedIsBitIdentical) {
  TestDesign d = MakeDesign(2, fpga::Stratix10SX());
  auto run = [&d] {
    Runtime rt(d.bitstream);
    auto injector = Inject(
        rt,
        {"xfer-fail:write:0:1", "xfer-corrupt:read:0", "corrupt:k1:0:1",
         "fmax-droop:0.9"},
        /*seed=*/123);
    auto buf = rt.CreateBuffer(256);
    std::vector<float> src(256, 2.0f), dst(256, 0.0f);
    rt.EnqueueWrite(0, buf, src);
    rt.EnqueueKernel(0, {.name = "k0", .stats = FixedCycles(50000),
                         .functional = {}, .reads_channels = {},
                         .writes_channels = {"ch"}});
    rt.EnqueueKernel(0, {.name = "k1", .stats = FixedCycles(50000),
                         .functional = {}, .reads_channels = {"ch"},
                         .writes_channels = {}});
    rt.EnqueueRead(0, buf, dst);
    rt.Finish();
    std::vector<std::string> log;
    for (const auto& f : injector->injected()) log.push_back(f.ToString());
    std::vector<std::string> stream;
    for (const auto& e : rt.event_pool()) {
      stream.push_back(std::string(e.label) + "@" +
                       std::to_string(e.start.ps()) + "-" +
                       std::to_string(e.end.ps()) + " q" +
                       std::to_string(e.queue));
    }
    return std::pair{log, stream};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);    // identical injected-fault log
  EXPECT_EQ(a.second, b.second);  // identical event stream
}

// --- Deployment-level integration -------------------------------------------

core::DeployOptions LenetPipelinedOptions() {
  core::DeployOptions opts;
  opts.mode = core::ExecutionMode::kPipelined;
  opts.recipe = core::PipelineAutorun();
  opts.recipe.concurrent_execution = true;
  opts.board = fpga::Stratix10SX();
  return opts;
}

TEST(Resilience, DeploymentRecoversSeededPlanBitExactly) {
  Rng rng(7);
  graph::Graph net = nets::BuildLeNet5(rng);
  auto d = core::Deployment::Compile(net, LenetPipelinedOptions());
  ASSERT_TRUE(d.ok());

  FaultPlan plan;
  plan.seed = 99;
  plan.specs.push_back(ParseFaultSpec("xfer-fail:write:0:2"));
  plan.specs.push_back(ParseFaultSpec("xfer-corrupt:read:0"));
  plan.specs.push_back(ParseFaultSpec("corrupt:k_conv1:0:1"));
  auto& rt = d.runtime();
  rt.set_fault_injector(std::make_shared<FaultInjector>(plan));

  const Shape& in_shape = net.node(net.input_id()).output_shape;
  Tensor image = Tensor::Random(in_shape, rng, 0.0f, 1.0f);
  const auto run = d.Run(image, /*functional=*/true);

  // The recovered output matches the graph oracle bit-exactly.
  const Tensor expected = graph::Execute(d.fused_graph(), image, 1);
  const Tensor got = run.output.Reshaped(expected.shape());
  const auto gs = got.data();
  const auto es = expected.data();
  ASSERT_EQ(gs.size(), es.size());
  EXPECT_TRUE(std::equal(gs.begin(), gs.end(), es.begin()));

  // Retries and reruns are visible in counters, metrics, and the trace.
  EXPECT_EQ(rt.xfer_retries(), 3);  // 2 write fails + 1 corrupt read
  EXPECT_EQ(rt.kernel_reruns(), 1);
  obs::Registry reg;
  rt.ExportMetrics(reg);
  EXPECT_DOUBLE_EQ(reg.gauge("ocl.resilience.xfer_retries").value(), 3.0);
  EXPECT_DOUBLE_EQ(reg.gauge("ocl.resilience.kernel_reruns").value(), 1.0);
  EXPECT_GT(reg.gauge("ocl.resilience.backoff_us").value(), 0.0);
  const std::string trace = ocl::ExportChromeTrace(
      rt.event_pool(), d.telemetry().tracer.spans(), "faulted");
  EXPECT_NE(trace.find("[fail#0]"), std::string::npos);
  EXPECT_NE(trace.find("[rerun#1]"), std::string::npos);
}

TEST(Resilience, DeploymentSurfacesDeadlockInDiagnostics) {
  Rng rng(7);
  graph::Graph net = nets::BuildLeNet5(rng);
  core::DeployOptions opts = LenetPipelinedOptions();
  opts.runtime.watchdog_timeout = SimTime::Ms(10.0);
  auto d = core::Deployment::Compile(net, opts);
  ASSERT_TRUE(d.ok());

  FaultPlan plan;
  plan.specs.push_back(ParseFaultSpec("hang:k_conv1"));
  d.runtime().set_fault_injector(std::make_shared<FaultInjector>(plan));

  const Shape& in_shape = net.node(net.input_id()).output_shape;
  Tensor image = Tensor::Random(in_shape, rng, 0.0f, 1.0f);
  try {
    (void)d.Run(image, /*functional=*/true);
    FAIL() << "expected RuntimeFaultError";
  } catch (const RuntimeFaultError& e) {
    EXPECT_EQ(e.code(), "CLF502");
    EXPECT_FALSE(e.channel().empty());
  }
  // Run() mirrored the fault into the diagnostics engine.
  const auto found = d.diagnostics().ByCode("CLF502");
  ASSERT_FALSE(found.empty());
  EXPECT_EQ(found[0].severity, analysis::Severity::kError);
  EXPECT_NE(found[0].message.find("watchdog"), std::string::npos);
}

// --- Graceful compile degradation -------------------------------------------

TEST(Fallback, RecoversRouteFailedTiling) {
  Rng rng(42);
  graph::Graph net = nets::BuildMobileNetV1(rng);
  core::DeployOptions opts;
  opts.mode = core::ExecutionMode::kFolded;
  opts.recipe = core::FoldedMobileNet("s10sx");
  // The known S10SX routing casualty: C1/W2/C2 = 8/7/16.
  opts.recipe.conv1x1 = core::ConvTiling{8, 7, 16, true};
  opts.board = fpga::Stratix10SX();

  auto result = core::CompileWithFallback(net, opts);

  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.recovered());
  ASSERT_GE(result.attempts.size(), 2u);
  EXPECT_EQ(result.attempts.front().status, "route-failed");
  EXPECT_EQ(result.attempts.back().status, "ok");
  EXPECT_GT(result.attempts.back().fmax_mhz, 0.0);
  EXPECT_NE(result.attempts[1].delta.find("halved"), std::string::npos);

  // The winning deployment carries the full attempt log in telemetry.
  auto& d = *result.deployment;
  EXPECT_TRUE(d.ok());
  EXPECT_GE(d.telemetry().registry.gauge("fallback.attempts").value(), 2.0);
  EXPECT_DOUBLE_EQ(d.telemetry().registry.gauge("fallback.recovered").value(),
                   1.0);
  bool has_span = false;
  for (const auto& s : d.telemetry().tracer.spans()) {
    if (s.name == "fallback:attempt0") has_span = true;
  }
  EXPECT_TRUE(has_span);

  // The recovered deployment actually runs.
  Tensor probe = Tensor::Full(Shape{1, 3, 224, 224}, 0.0f);
  EXPECT_GT(d.EstimateFps(probe), 0.0);
}

TEST(Fallback, ExhaustedLadderReportsEveryRung) {
  // A board too small for anything: the pipelined ladder sheds every
  // optimization, switches modes, and still fails -- but the log shows
  // each rung, including the mode switch.
  Rng rng(7);
  graph::Graph net = nets::BuildLeNet5(rng);
  core::DeployOptions opts = LenetPipelinedOptions();
  opts.recipe = core::PipelineTvmAutorun();
  opts.board = fpga::Stratix10SX();
  opts.board.aluts = 20000;  // nothing fits

  const auto result = core::CompileWithFallback(net, opts);
  EXPECT_FALSE(result.ok());
  EXPECT_GE(result.attempts.size(), 4u);
  bool switched = false;
  for (const auto& a : result.attempts) {
    EXPECT_NE(a.status, "ok");
    if (a.delta.find("switched execution mode") != std::string::npos) {
      switched = true;
    }
  }
  EXPECT_TRUE(switched);
}

// --- Concurrent fault kinds in one plan -------------------------------------

TEST(Resilience, ConcurrentDroopAndCorruptionRecoverBitExactly) {
  // Thermal throttling AND a corrupted transfer AND kernel output
  // corruption in one plan: the clock scaling must not perturb the
  // retry/rerun machinery, and the recovered output stays bit-exact.
  Rng rng(7);
  graph::Graph net = nets::BuildLeNet5(rng);
  auto clean = core::Deployment::Compile(net, LenetPipelinedOptions());
  auto d = core::Deployment::Compile(net, LenetPipelinedOptions());
  ASSERT_TRUE(d.ok());

  FaultPlan plan;
  plan.seed = 5;
  plan.specs.push_back(ParseFaultSpec("fmax-droop:0.85"));
  plan.specs.push_back(ParseFaultSpec("xfer-corrupt:write:0"));
  plan.specs.push_back(ParseFaultSpec("corrupt:k_conv1:0:2"));
  d.runtime().set_fault_injector(std::make_shared<FaultInjector>(plan));

  const Shape& in_shape = net.node(net.input_id()).output_shape;
  Tensor image = Tensor::Random(in_shape, rng, 0.0f, 1.0f);
  const auto faulted = d.Run(image, /*functional=*/true);
  const auto baseline = clean.Run(image, /*functional=*/true);

  const Tensor expected = graph::Execute(d.fused_graph(), image, 1);
  const Tensor got = faulted.output.Reshaped(expected.shape());
  const auto gs = got.data();
  const auto es = expected.data();
  EXPECT_TRUE(std::equal(gs.begin(), gs.end(), es.begin()));

  auto& rt = d.runtime();
  EXPECT_EQ(rt.xfer_retries(), 1);   // the corrupted write
  EXPECT_EQ(rt.kernel_reruns(), 2);  // two corrupt executions of k_conv1
  // The droop slows every kernel, so even the recovered run is strictly
  // slower than the clean baseline by more than retry overhead alone.
  EXPECT_GT(faulted.latency, baseline.latency);
}

TEST(Resilience, ConcurrentResetAndTransferFailureInOnePlan) {
  Rng rng(7);
  graph::Graph net = nets::BuildLeNet5(rng);
  auto d = core::Deployment::Compile(net, LenetPipelinedOptions());
  ASSERT_TRUE(d.ok());

  FaultPlan plan;
  plan.seed = 5;
  plan.specs.push_back(ParseFaultSpec("reset:k_conv1:0"));
  plan.specs.push_back(ParseFaultSpec("xfer-fail:write:0:2"));
  d.runtime().set_fault_injector(std::make_shared<FaultInjector>(plan));

  const Shape& in_shape = net.node(net.input_id()).output_shape;
  Tensor image = Tensor::Random(in_shape, rng, 0.0f, 1.0f);
  const auto run = d.Run(image, /*functional=*/true);

  const Tensor expected = graph::Execute(d.fused_graph(), image, 1);
  const Tensor got = run.output.Reshaped(expected.shape());
  const auto gs = got.data();
  const auto es = expected.data();
  EXPECT_TRUE(std::equal(gs.begin(), gs.end(), es.begin()));
  EXPECT_EQ(d.runtime().reprograms(), 1);
  EXPECT_EQ(d.runtime().xfer_retries(), 2);
}

TEST(Resilience, ConcurrentDroopAndHangStillRaisesStructuredClf502) {
  Rng rng(7);
  graph::Graph net = nets::BuildLeNet5(rng);
  core::DeployOptions opts = LenetPipelinedOptions();
  opts.runtime.watchdog_timeout = SimTime::Ms(10.0);
  auto d = core::Deployment::Compile(net, opts);
  ASSERT_TRUE(d.ok());

  FaultPlan plan;
  plan.specs.push_back(ParseFaultSpec("fmax-droop:0.9"));
  plan.specs.push_back(ParseFaultSpec("hang:k_conv1"));
  d.runtime().set_fault_injector(std::make_shared<FaultInjector>(plan));

  const Shape& in_shape = net.node(net.input_id()).output_shape;
  Tensor image = Tensor::Random(in_shape, rng, 0.0f, 1.0f);
  try {
    (void)d.Run(image, /*functional=*/true);
    FAIL() << "expected RuntimeFaultError";
  } catch (const RuntimeFaultError& e) {
    EXPECT_EQ(e.code(), "CLF502");
  }
}

TEST(Fallback, RecoveredLadderDeploymentSurvivesConcurrentFaults) {
  // The compile-time ladder and the runtime recovery machinery compose:
  // a route-failed tiling degrades to a routable recipe, and that
  // deployment then recovers a multi-kind runtime fault plan bit-exactly.
  Rng rng(42);
  graph::Graph net = nets::BuildMobileNetV1(rng);
  core::DeployOptions opts;
  opts.mode = core::ExecutionMode::kFolded;
  opts.recipe = core::FoldedMobileNet("s10sx");
  opts.recipe.conv1x1 = core::ConvTiling{8, 7, 16, true};  // route-fails
  opts.board = fpga::Stratix10SX();

  auto result = core::CompileWithFallback(net, opts);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.recovered());
  auto& d = *result.deployment;

  FaultPlan plan;
  plan.seed = 5;
  plan.specs.push_back(ParseFaultSpec("fmax-droop:0.9"));
  plan.specs.push_back(ParseFaultSpec("xfer-corrupt:write:0"));
  d.runtime().set_fault_injector(std::make_shared<FaultInjector>(plan));

  const Shape& in_shape = net.node(net.input_id()).output_shape;
  Tensor image = Tensor::Random(in_shape, rng, 0.0f, 1.0f);
  const auto run = d.Run(image, /*functional=*/true);

  const Tensor expected = graph::Execute(d.fused_graph(), image, 1);
  const Tensor got = run.output.Reshaped(expected.shape());
  const auto gs = got.data();
  const auto es = expected.data();
  EXPECT_TRUE(std::equal(gs.begin(), gs.end(), es.begin()));
  EXPECT_EQ(d.runtime().xfer_retries(), 1);
}

// --- RuntimeOptions validation (CLF507) -------------------------------------

TEST(RuntimeOptionsTest, ConstructorRejectsNonPositiveKnobs) {
  ocl::RuntimeOptions bad;
  bad.watchdog_timeout = kSimTimeZero;
  try {
    ocl::ValidateRuntimeOptions(bad);
    FAIL() << "expected CLF507";
  } catch (const RuntimeFaultError& e) {
    EXPECT_EQ(e.code(), "CLF507");
    EXPECT_NE(std::string(e.what()).find("watchdog"), std::string::npos);
  }

  ocl::RuntimeOptions bad2;
  bad2.retry.max_attempts = 0;
  EXPECT_THROW(ocl::ValidateRuntimeOptions(bad2), RuntimeFaultError);
  ocl::RuntimeOptions bad3;
  bad3.retry.backoff_multiplier = 0.0;
  EXPECT_THROW(ocl::ValidateRuntimeOptions(bad3), RuntimeFaultError);
  ocl::RuntimeOptions bad4;
  bad4.retry.backoff_base = SimTime::Us(-1.0);
  EXPECT_THROW(ocl::ValidateRuntimeOptions(bad4), RuntimeFaultError);
  ocl::RuntimeOptions bad5;
  bad5.retry.reprogram_cost = SimTime::Us(-1.0);
  EXPECT_THROW(ocl::ValidateRuntimeOptions(bad5), RuntimeFaultError);
  EXPECT_NO_THROW(ocl::ValidateRuntimeOptions(ocl::RuntimeOptions{}));
}

TEST(RuntimeOptionsTest, RuntimeConstructorValidatesToo) {
  TestDesign d = MakeDesign(1, fpga::Stratix10SX());
  ocl::RuntimeOptions bad;
  bad.watchdog_timeout = kSimTimeZero;
  EXPECT_THROW((void)Runtime(d.bitstream, {}, bad), RuntimeFaultError);
  ocl::RuntimeOptions bad_retry;
  bad_retry.retry.max_attempts = -1;
  EXPECT_THROW((void)Runtime(d.bitstream, {}, bad_retry), RuntimeFaultError);
  // Valid values are accepted and applied.
  ocl::RuntimeOptions ok;
  ok.watchdog_timeout = SimTime::Ms(1.0);
  ok.retry.max_attempts = 2;
  Runtime rt(d.bitstream, {}, ok);
  EXPECT_EQ(rt.watchdog_timeout().ps(), SimTime::Ms(1.0).ps());
  EXPECT_EQ(rt.retry_policy().max_attempts, 2);
}

TEST(RuntimeOptionsTest, DeployOptionsValidateAtCompileTime) {
  Rng rng(7);
  graph::Graph net = nets::BuildLeNet5(rng);
  core::DeployOptions opts = LenetPipelinedOptions();
  opts.runtime.watchdog_timeout = SimTime::Us(-5.0);
  try {
    (void)core::Deployment::Compile(net, opts);
    FAIL() << "expected CLF507 at compile time";
  } catch (const RuntimeFaultError& e) {
    EXPECT_EQ(e.code(), "CLF507");
  }
}

TEST(RuntimeOptionsTest, CustomWatchdogShortensHangDetection) {
  Rng rng(7);
  graph::Graph net = nets::BuildLeNet5(rng);
  core::DeployOptions opts = LenetPipelinedOptions();
  opts.runtime.watchdog_timeout = SimTime::Ms(2.0);
  auto d = core::Deployment::Compile(net, opts);
  ASSERT_TRUE(d.ok());

  FaultPlan plan;
  plan.specs.push_back(ParseFaultSpec("hang:k_conv1"));
  d.runtime().set_fault_injector(std::make_shared<FaultInjector>(plan));
  const Shape& in_shape = net.node(net.input_id()).output_shape;
  Tensor image = Tensor::Random(in_shape, rng, 0.0f, 1.0f);
  const SimTime before = d.runtime().now();
  EXPECT_THROW((void)d.Run(image, true), RuntimeFaultError);
  // Detection cost is bounded by the configured watchdog plus the batch's
  // own work, far under the 100ms default.
  EXPECT_LT(d.runtime().now() - before, SimTime::Ms(50.0));
}

TEST(Fallback, FirstAttemptSuccessIsNotARecovery) {
  Rng rng(7);
  graph::Graph net = nets::BuildLeNet5(rng);
  const auto result =
      core::CompileWithFallback(net, LenetPipelinedOptions());
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.recovered());
  ASSERT_EQ(result.attempts.size(), 1u);
  EXPECT_EQ(result.attempts[0].status, "ok");
  EXPECT_DOUBLE_EQ(
      result.deployment->telemetry().registry.gauge("fallback.recovered")
          .value(),
      0.0);
}

}  // namespace
}  // namespace clflow
