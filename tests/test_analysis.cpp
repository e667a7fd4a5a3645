// Tests for the static-analysis layer (clflow::analysis): the diagnostic
// engine, the CLF code registry, the IR verifier, the dataflow checker,
// the perf lints, the compile gate in core::Deployment, and the access
// model's two front ends agreeing on every shipped kernel.
//
// Every CLF code has at least one test that provokes it deliberately and
// asserts the code, severity, and fix-it of the resulting diagnostic; a
// property suite then checks that every shipped recipe compiles with zero
// error-severity findings (the paper's naive recipes intentionally carry
// CLF3xx warnings -- those are the diagnoses of Chapter 6).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "analysis/dataflow_checker.hpp"
#include "analysis/diag.hpp"
#include "analysis/ir_verifier.hpp"
#include "analysis/perf_lint.hpp"
#include "codegen/opencl_codegen.hpp"
#include "common/error.hpp"
#include "core/deployment.hpp"
#include "ir/passes.hpp"
#include "nets/nets.hpp"
#include "srclint/analyses.hpp"

namespace clflow::analysis {
namespace {

using ir::Add;
using ir::Block;
using ir::FloatImm;
using ir::For;
using ir::IntImm;
using ir::Load;
using ir::MakeBuffer;
using ir::MakeVar;
using ir::MemScope;
using ir::Stmt;
using ir::Store;
using ir::VarRef;

/// Asserts exactly one diagnostic with `info`'s code and returns it,
/// checking severity and that a fix-it hint is present.
Diagnostic Expect(const DiagnosticEngine& engine, const CodeInfo& info) {
  const auto found = engine.ByCode(info.id);
  EXPECT_EQ(found.size(), 1u) << "expected exactly one " << info.id
                              << ", got:\n"
                              << engine.ToText();
  if (found.empty()) return {};
  EXPECT_EQ(found[0].code, info.id);
  EXPECT_EQ(found[0].severity, info.default_severity);
  EXPECT_FALSE(found[0].fixit.empty()) << info.id << " carries no fix-it";
  return found[0];
}

// --- Code registry -----------------------------------------------------------

TEST(Codes, RegistryIsConsistent) {
  for (const CodeInfo* info : kAllCodes) {
    EXPECT_EQ(info->id.substr(0, 3), "CLF");
    EXPECT_FALSE(info->title.empty());
    EXPECT_FALSE(info->paper_ref.empty());
    EXPECT_FALSE(info->default_fixit.empty());
    EXPECT_EQ(FindCode(info->id), info);
  }
  EXPECT_EQ(FindCode("CLF999"), nullptr);
  // Ids are unique.
  for (const CodeInfo* a : kAllCodes) {
    int hits = 0;
    for (const CodeInfo* b : kAllCodes) {
      if (a->id == b->id) ++hits;
    }
    EXPECT_EQ(hits, 1) << a->id;
  }
}

// --- Diagnostic engine -------------------------------------------------------

TEST(DiagnosticEngine, CountsAndRenders) {
  DiagnosticEngine engine;
  engine.Report(Diagnostic::Make(kOutOfBounds, {"k", "i", "buf"}, "oob"));
  engine.Report(Diagnostic::Make(kUnpinnedStride, {"k", "", "w"}, "stride"));
  EXPECT_EQ(engine.error_count(), 1);
  EXPECT_EQ(engine.warning_count(), 1);
  EXPECT_TRUE(engine.HasErrors());
  const std::string text = engine.ToText();
  EXPECT_NE(text.find("CLF102"), std::string::npos);
  EXPECT_NE(text.find("CLF301"), std::string::npos);
  const std::string json = engine.ToJson();
  EXPECT_NE(json.find("\"errors\":1"), std::string::npos);
  EXPECT_NE(json.find("\"warnings\":1"), std::string::npos);
}

TEST(DiagnosticEngine, SeverityOverridesPromoteAndDemote) {
  DiagnosticEngine engine;
  engine.OverrideSeverity("CLF301", Severity::kError);
  engine.OverrideSeverity("CLF201", Severity::kWarning);
  engine.Report(Diagnostic::Make(kUnpinnedStride, {"k", "", "w"}, "m"));
  engine.Report(Diagnostic::Make(kChannelNoWriter, {"k", "", "ch"}, "m"));
  EXPECT_EQ(engine.error_count(), 1);   // promoted lint
  EXPECT_EQ(engine.warning_count(), 1);  // demoted deadlock
  EXPECT_EQ(engine.ByCode("CLF301")[0].severity, Severity::kError);
  EXPECT_EQ(engine.ByCode("CLF201")[0].severity, Severity::kWarning);
}

// --- IR verifier -------------------------------------------------------------

TEST(IrVerifier, Clf101UndefinedVariable) {
  auto a = MakeBuffer("a", {IntImm(8)}, MemScope::kGlobal, true);
  auto i = MakeVar("i");
  auto ghost = MakeVar("ghost");
  ir::Kernel k;
  k.name = "k";
  k.buffer_args = {a};
  k.body = For(i, IntImm(0), IntImm(8),
               Store(a, {VarRef(i)}, VarRef(ghost)));
  DiagnosticEngine engine;
  EXPECT_GT(VerifyKernel(k, engine), 0);
  const auto d = Expect(engine, kUndefinedVar);
  EXPECT_EQ(d.location.kernel, "k");
  EXPECT_NE(d.message.find("ghost"), std::string::npos);
}

TEST(IrVerifier, Clf102OutOfBoundsStore) {
  auto a = MakeBuffer("a", {IntImm(8)}, MemScope::kGlobal, true);
  auto i = MakeVar("i");
  ir::Kernel k;
  k.name = "k";
  k.buffer_args = {a};
  k.body = For(i, IntImm(0), IntImm(8),
               Store(a, {Add(VarRef(i), IntImm(4))}, FloatImm(0)));
  DiagnosticEngine engine;
  EXPECT_GT(VerifyKernel(k, engine), 0);
  const auto d = Expect(engine, kOutOfBounds);
  EXPECT_EQ(d.location.buffer, "a");
  EXPECT_EQ(d.location.loop, "i");
}

TEST(IrVerifier, Clf102GuardedAccessIsNotFlagged) {
  // The padding pattern: a Select whose taken branch guards the address.
  auto a = MakeBuffer("a", {IntImm(8)}, MemScope::kGlobal, true);
  auto b = MakeBuffer("b", {IntImm(8)}, MemScope::kGlobal, true);
  auto i = MakeVar("i");
  ir::Kernel k;
  k.name = "pad";
  k.buffer_args = {a, b};
  k.body = For(i, IntImm(0), IntImm(8),
               Store(b, {VarRef(i)},
                     ir::Select(ir::Binary(ir::BinOp::kLt, VarRef(i), IntImm(7)),
                                Load(a, {Add(VarRef(i), IntImm(1))}),
                                FloatImm(0))));
  DiagnosticEngine engine;
  EXPECT_EQ(VerifyKernel(k, engine), 0) << engine.ToText();
}

TEST(IrVerifier, Clf103CrossLaneUnrollDependence) {
  // a[i+1] = a[i] under full unrolling: lane i+1 reads what lane i writes,
  // but the lanes execute concurrently.
  auto a = MakeBuffer("a", {IntImm(16)}, MemScope::kGlobal, true);
  auto i = MakeVar("i");
  ir::ForAnnotation ann;
  ann.unroll = -1;
  ir::Kernel k;
  k.name = "shift";
  k.buffer_args = {a};
  k.body = For(i, IntImm(0), IntImm(8),
               Store(a, {Add(VarRef(i), IntImm(1))}, Load(a, {VarRef(i)})),
               ann);
  DiagnosticEngine engine;
  EXPECT_GT(VerifyKernel(k, engine), 0);
  const auto d = Expect(engine, kUnrollDependence);
  EXPECT_EQ(d.location.loop, "i");
  EXPECT_EQ(d.location.buffer, "a");
}

TEST(IrVerifier, Clf103ReductionIsLegal) {
  // acc[0] += x[i] under unrolling is the legal pattern (AOC builds an
  // adder tree); same-element store/load must not be flagged.
  auto x = MakeBuffer("x", {IntImm(8)}, MemScope::kGlobal, true);
  auto acc = MakeBuffer("acc", {IntImm(1)}, MemScope::kPrivate);
  auto i = MakeVar("i");
  ir::ForAnnotation ann;
  ann.unroll = -1;
  ir::Kernel k;
  k.name = "reduce";
  k.buffer_args = {x};
  k.local_buffers = {acc};
  k.body = Block(
      {Store(acc, {IntImm(0)}, FloatImm(0)),
       For(i, IntImm(0), IntImm(8),
           Store(acc, {IntImm(0)},
                 Add(Load(acc, {IntImm(0)}), Load(x, {VarRef(i)}))),
           ann)});
  DiagnosticEngine engine;
  EXPECT_EQ(VerifyKernel(k, engine), 0) << engine.ToText();
}

TEST(IrVerifier, Clf103CollisionThroughAnInnerLoopOrParameter) {
  // Lane i writes a[8i + j + 8], which lane i + 1 reads as a[8(i + 1) + j]
  // in the same iteration of the inner loop j; likewise b[i + N + 1] and
  // b[i + N] for any value of the shape parameter N. The shared term
  // cancels, so the collision is proven without knowing j or N.
  auto a = MakeBuffer("a", {IntImm(64)}, MemScope::kGlobal, true);
  auto b = MakeBuffer("b", {IntImm(64)}, MemScope::kGlobal, true);
  auto n = MakeVar("N", ir::VarKind::kShapeParam);
  auto i = MakeVar("i");
  auto j = MakeVar("j");
  ir::ForAnnotation ann;
  ann.unroll = -1;
  const auto row = ir::Mul(VarRef(i), IntImm(8));
  ir::Kernel k;
  k.name = "shift";
  k.buffer_args = {a, b};
  k.scalar_args = {n};
  k.body = For(
      i, IntImm(0), IntImm(4),
      Block({For(j, IntImm(0), IntImm(8),
                 Store(a, {Add(Add(row, VarRef(j)), IntImm(8))},
                       Load(a, {Add(row, VarRef(j))}))),
             Store(b, {Add(Add(VarRef(i), VarRef(n)), IntImm(1))},
                   Load(b, {Add(VarRef(i), VarRef(n))}))}),
      ann);
  DiagnosticEngine engine;
  EXPECT_EQ(VerifyKernel(k, engine), 2) << engine.ToText();
  const auto found = engine.ByCode(kUnrollDependence.id);
  ASSERT_EQ(found.size(), 2u) << engine.ToText();
  EXPECT_EQ(found[0].location.buffer, "a");
  EXPECT_EQ(found[1].location.buffer, "b");
}

TEST(IrVerifier, Clf103ReductionIsRecognizedThroughArithmetic) {
  // acc[(k + 1) - 1] is acc[k]: every lane of i accumulates into the one
  // element, the legal reduction, though the two indices differ in form.
  auto x = MakeBuffer("x", {IntImm(8), IntImm(8)}, MemScope::kGlobal, true);
  auto acc = MakeBuffer("acc", {IntImm(8)}, MemScope::kPrivate);
  auto k = MakeVar("k");
  auto i = MakeVar("i");
  ir::ForAnnotation ann;
  ann.unroll = -1;
  ir::Kernel kernel;
  kernel.name = "reduce";
  kernel.buffer_args = {x};
  kernel.local_buffers = {acc};
  kernel.body = For(
      k, IntImm(0), IntImm(8),
      Block({Store(acc, {VarRef(k)}, FloatImm(0)),
             For(i, IntImm(0), IntImm(8),
                 Store(acc, {ir::Sub(Add(VarRef(k), IntImm(1)), IntImm(1))},
                       Add(Load(acc, {VarRef(k)}),
                           Load(x, {VarRef(k), VarRef(i)}))),
                 ann)}));
  DiagnosticEngine engine;
  EXPECT_EQ(VerifyKernel(kernel, engine), 0) << engine.ToText();
}

TEST(IrVerifier, Clf104StoreToConstantBuffer) {
  auto w = MakeBuffer("w", {IntImm(4)}, MemScope::kConstant, true);
  auto i = MakeVar("i");
  ir::Kernel k;
  k.name = "k";
  k.buffer_args = {w};
  k.body = For(i, IntImm(0), IntImm(4), Store(w, {VarRef(i)}, FloatImm(0)));
  DiagnosticEngine engine;
  EXPECT_GT(VerifyKernel(k, engine), 0);
  const auto d = Expect(engine, kScopeViolation);
  EXPECT_EQ(d.location.buffer, "w");
}

TEST(IrVerifier, Clf105UnrollOnSymbolicExtent) {
  auto a = MakeBuffer("a", {IntImm(64)}, MemScope::kGlobal, true);
  auto n = MakeVar("N", ir::VarKind::kShapeParam);
  auto i = MakeVar("i");
  ir::ForAnnotation ann;
  ann.unroll = -1;
  ir::Kernel k;
  k.name = "k";
  k.buffer_args = {a};
  k.scalar_args = {n};
  k.body = For(i, IntImm(0), VarRef(n),
               Store(a, {IntImm(0)}, FloatImm(0)), ann);
  DiagnosticEngine engine;
  EXPECT_GT(VerifyKernel(k, engine), 0);
  const auto d = Expect(engine, kUnrollNonConst);
  EXPECT_EQ(d.location.loop, "i");
}

TEST(IrVerifier, Clf106UninitializedOnChipRead) {
  auto out = MakeBuffer("out", {IntImm(4)}, MemScope::kGlobal, true);
  auto scratch = MakeBuffer("scratch", {IntImm(4)}, MemScope::kLocal);
  auto i = MakeVar("i");
  ir::Kernel k;
  k.name = "k";
  k.buffer_args = {out};
  k.local_buffers = {scratch};
  k.body = For(i, IntImm(0), IntImm(4),
               Store(out, {VarRef(i)}, Load(scratch, {VarRef(i)})));
  DiagnosticEngine engine;
  EXPECT_GT(VerifyKernel(k, engine), 0);
  const auto d = Expect(engine, kUninitRead);
  EXPECT_EQ(d.location.buffer, "scratch");
}

// --- Dataflow checker --------------------------------------------------------

/// Compact PlanStep factory for hand-built plans.
PlanStep Step(std::string kernel, int queue = 0, bool autorun = false,
              std::int64_t num_args = 0, double channel_writes = 0.0,
              std::vector<std::string> reads = {},
              std::vector<std::string> writes = {},
              std::vector<int> deps = {}) {
  PlanStep s;
  s.kernel = std::move(kernel);
  s.queue = queue;
  s.autorun = autorun;
  s.num_args = num_args;
  s.channel_writes = channel_writes;
  s.reads = std::move(reads);
  s.writes = std::move(writes);
  s.deps = std::move(deps);
  return s;
}

TEST(DataflowChecker, Clf201ChannelWithoutProducer) {
  Plan plan;
  plan.steps.push_back(Step("consumer", 0, false, 0, 0, {"ch"}));
  DiagnosticEngine engine;
  EXPECT_GT(CheckDataflow(plan, engine), 0);
  const auto d = Expect(engine, kChannelNoWriter);
  EXPECT_EQ(d.location.buffer, "ch");
}

TEST(DataflowChecker, Clf202MultipleWriters) {
  Plan plan;
  plan.steps.push_back(Step("w1", 0, false, 0, 0, {}, {"ch"}));
  plan.steps.push_back(Step("w2", 0, false, 0, 0, {}, {"ch"}));
  plan.steps.push_back(Step("r", 1, false, 0, 0, {"ch"}));
  DiagnosticEngine engine;
  EXPECT_GT(CheckDataflow(plan, engine), 0);
  (void)Expect(engine, kChannelEndpoints);
}

TEST(DataflowChecker, Clf203ConsumerEnqueuedBeforeProducer) {
  Plan plan;
  plan.steps.push_back(Step("consumer", 0, false, 0, 0, {"ch"}));
  plan.steps.push_back(Step("producer", 0, false, 0, 0, {}, {"ch"}));
  plan.channels["ch"] = 1024;
  DiagnosticEngine engine;
  EXPECT_GT(CheckDataflow(plan, engine), 0);
  const auto d = Expect(engine, kChannelDeadlock);
  EXPECT_EQ(d.location.kernel, "consumer");
}

TEST(DataflowChecker, Clf203FifoDepthCannotAbsorbProducer) {
  Plan plan;
  plan.steps.push_back(Step("producer", 0, false, 0, 4096, {}, {"ch"}));
  plan.steps.push_back(Step("consumer", 0, false, 0, 0, {"ch"}));
  plan.channels["ch"] = 16;  // same queue 0: FIFO must buffer all 4096
  DiagnosticEngine engine;
  EXPECT_GT(CheckDataflow(plan, engine), 0);
  (void)Expect(engine, kChannelDeadlock);
}

TEST(DataflowChecker, Clf203ChannelCycle) {
  Plan plan;
  plan.steps.push_back(Step("a", 0, false, 0, 0, {"back"}, {"fwd"}));
  plan.steps.push_back(Step("b", 1, false, 0, 0, {"fwd"}, {"back"}));
  plan.channels["fwd"] = 1;
  plan.channels["back"] = 1;
  DiagnosticEngine engine;
  EXPECT_GT(CheckDataflow(plan, engine), 0);
  EXPECT_FALSE(engine.ByCode("CLF203").empty()) << engine.ToText();
}

TEST(DataflowChecker, Clf204AutorunWithArguments) {
  Plan plan;
  plan.steps.push_back(Step("auto", 0, true, 3, 0, {"in"}, {"out"}));
  plan.steps.push_back(Step("p", 0, false, 0, 0, {}, {"in"}));
  plan.steps.push_back(Step("c", 0, false, 0, 0, {"out"}));
  plan.channels["in"] = 1024;
  plan.channels["out"] = 1024;
  DiagnosticEngine engine;
  EXPECT_GT(CheckDataflow(plan, engine), 0);
  (void)Expect(engine, kAutorunWithArgs);
}

TEST(DataflowChecker, Clf205CrossQueueHazardWithoutChannel) {
  Plan plan;
  plan.steps.push_back(Step("producer", 0));
  plan.steps.push_back(Step("consumer", 1, false, 0, 0, {}, {}, {0}));
  DiagnosticEngine engine;
  EXPECT_GT(CheckDataflow(plan, engine), 0);
  const auto d = Expect(engine, kQueueHazard);
  EXPECT_EQ(d.location.kernel, "consumer");
}

TEST(DataflowChecker, CleanPipelineHasNoFindings) {
  Plan plan;
  plan.steps.push_back(Step("a", 0, false, 2, 64, {}, {"ab"}));
  plan.steps.push_back(Step("b", 1, true, 0, 64, {"ab"}, {"bc"}, {0}));
  plan.steps.push_back(Step("c", 2, false, 2, 0, {"bc"}, {}, {1}));
  plan.channels["ab"] = 64;
  plan.channels["bc"] = 64;
  DiagnosticEngine engine;
  EXPECT_EQ(CheckDataflow(plan, engine), 0) << engine.ToText();
}

// --- Perf lints --------------------------------------------------------------

TEST(PerfLint, Clf301UnpinnedStride) {
  auto s0 = MakeVar("x_s0", ir::VarKind::kShapeParam);
  auto a = MakeBuffer("x", {IntImm(8), IntImm(8)}, MemScope::kGlobal, true);
  a->strides = {VarRef(s0), VarRef(s0)};
  ir::Kernel k;
  k.name = "sym";
  k.buffer_args = {a};
  k.scalar_args = {s0};
  k.body = Store(a, {IntImm(0), IntImm(0)}, FloatImm(0));
  DiagnosticEngine engine;
  EXPECT_GT(LintKernel(k, nullptr, engine), 0);
  const auto d = Expect(engine, kUnpinnedStride);
  EXPECT_NE(d.fixit.find("PinStrideVars"), std::string::npos);
}

TEST(PerfLint, Clf302GlobalAccumulator) {
  auto x = MakeBuffer("x", {IntImm(8)}, MemScope::kGlobal, true);
  auto dot = MakeBuffer("dot", {IntImm(1)}, MemScope::kGlobal, true);
  auto out = MakeBuffer("out", {IntImm(1)}, MemScope::kGlobal, true);
  auto i = MakeVar("i");
  ir::Kernel k;
  k.name = "naive_dense";
  k.buffer_args = {x, dot, out};
  k.body = Block({For(i, IntImm(0), IntImm(8),
                      Store(dot, {IntImm(0)},
                            Add(Load(dot, {IntImm(0)}), Load(x, {VarRef(i)})))),
                  Store(out, {IntImm(0)}, Load(dot, {IntImm(0)}))});
  DiagnosticEngine engine;
  EXPECT_GT(LintKernel(k, nullptr, engine), 0);
  const auto d = Expect(engine, kGlobalAccumulator);
  EXPECT_EQ(d.location.buffer, "dot");
  EXPECT_NE(d.fixit.find("cached_writes"), std::string::npos);
}

TEST(PerfLint, Clf303NonDivisibleUnroll) {
  auto a = MakeBuffer("a", {IntImm(10)}, MemScope::kGlobal, true);
  auto i = MakeVar("i");
  ir::ForAnnotation ann;
  ann.unroll = 4;
  ir::Kernel k;
  k.name = "k";
  k.buffer_args = {a};
  k.body = For(i, IntImm(0), IntImm(10),
               Store(a, {VarRef(i)}, FloatImm(0)), ann);
  DiagnosticEngine engine;
  EXPECT_GT(LintKernel(k, nullptr, engine), 0);
  const auto d = Expect(engine, kNonDivisibleUnroll);
  EXPECT_EQ(d.location.loop, "i");
}

TEST(PerfLint, Clf304NonBurstAccess) {
  ir::Kernel k;
  k.name = "k";
  k.body = Block({});
  ir::KernelStats stats;
  ir::AccessSite site;
  site.buffer = "weights";
  site.sequential = false;
  site.run_elems = 1;
  stats.accesses.push_back(site);
  DiagnosticEngine engine;
  EXPECT_GT(LintKernel(k, &stats, engine), 0);
  const auto d = Expect(engine, kNonBurstAccess);
  EXPECT_EQ(d.location.buffer, "weights");
}

TEST(PerfLint, Clf305MissedAutorun) {
  Plan plan;
  plan.steps.push_back(Step("between", 0, false, 0, 0, {"in"}, {"out"}));
  DiagnosticEngine engine;
  EXPECT_GT(LintPlan(plan, engine), 0);
  const auto d = Expect(engine, kMissedAutorun);
  EXPECT_NE(d.fixit.find("autorun"), std::string::npos);
}

// --- Schedule errors carry their CLF code ----------------------------------

/// The "CLFxxx: " prefix of a ScheduleError's message.
std::string CodePrefix(const ScheduleError& e) {
  return std::string(e.what()).substr(0, 8);
}

TEST(ScheduleErrors, NonDivisibleSplitCarriesContext) {
  auto a = MakeBuffer("a", {IntImm(12)}, MemScope::kGlobal, true);
  auto k = MakeVar("k");
  Stmt root = For(k, IntImm(0), IntImm(12),
                  Store(a, {VarRef(k)}, FloatImm(0)));
  try {
    (void)ir::SplitLoop(root, "k", 5);
    FAIL() << "expected ScheduleError";
  } catch (const ScheduleError& e) {
    EXPECT_EQ(std::string(e.what()),
              "CLF403: SplitLoop: extent 12 of k not divisible by factor 5");
  }
}

TEST(ScheduleErrors, MissingTargetIsClf401) {
  auto a = MakeBuffer("a", {IntImm(4)}, MemScope::kGlobal, true);
  auto i = MakeVar("i");
  Stmt root = For(i, IntImm(0), IntImm(4),
                  Store(a, {VarRef(i)}, FloatImm(0)));
  try {
    (void)ir::FindLoop(root, "zz");
    FAIL() << "expected ScheduleError";
  } catch (const ScheduleError& e) {
    EXPECT_EQ(std::string(e.what()), "CLF401: no loop named zz");
  }
}

TEST(ScheduleErrors, SymbolicExtentIsClf402) {
  auto a = MakeBuffer("a", {IntImm(64)}, MemScope::kGlobal, true);
  auto n = MakeVar("N", ir::VarKind::kShapeParam);
  auto i = MakeVar("i");
  Stmt root = For(i, IntImm(0), VarRef(n),
                  Store(a, {IntImm(0)}, FloatImm(0)));
  try {
    (void)ir::SplitLoop(root, "i", 4);
    FAIL() << "expected ScheduleError";
  } catch (const ScheduleError& e) {
    EXPECT_EQ(CodePrefix(e), "CLF402: ");
    EXPECT_NE(std::string(e.what()).find("loop i "), std::string::npos);
  }
}

TEST(ScheduleErrors, LegacyConstructorDefaultsToClf405) {
  const ScheduleError e("something structural");
  EXPECT_EQ(std::string(e.what()), "CLF405: something structural");
  EXPECT_NE(FindCode(CodePrefix(e).substr(0, 6)), nullptr);
}

// --- Deployment gate + recipe property suite ---------------------------------

core::Deployment CompileLeNet(core::OptimizationRecipe recipe,
                              core::ExecutionMode mode,
                              core::AnalysisOptions analysis = {}) {
  Rng rng(7);
  graph::Graph net = nets::BuildLeNet5(rng);
  core::DeployOptions o;
  o.mode = mode;
  o.recipe = std::move(recipe);
  o.board = fpga::Stratix10SX();
  o.analysis = std::move(analysis);
  return core::Deployment::Compile(net, o);
}

TEST(DeploymentGate, EveryPipelineRecipeLintsClean) {
  for (const auto& recipe : core::PipelineLadder()) {
    auto d = CompileLeNet(recipe, core::ExecutionMode::kPipelined);
    EXPECT_FALSE(d.diagnostics().HasErrors())
        << recipe.name << ":\n" << d.diagnostics().ToText();
  }
}

TEST(DeploymentGate, FoldedRecipesLintClean) {
  Rng rng(7);
  graph::Graph mobilenet = nets::BuildMobileNetV1(rng);
  graph::Graph resnet = nets::BuildResNet(18, rng);
  for (const auto& board : fpga::EvaluationBoards()) {
    core::DeployOptions o;
    o.mode = core::ExecutionMode::kFolded;
    o.recipe = core::FoldedMobileNet(board.key);
    o.board = board;
    auto d = core::Deployment::Compile(mobilenet, o);
    EXPECT_FALSE(d.diagnostics().HasErrors())
        << board.key << ":\n" << d.diagnostics().ToText();
  }
  core::DeployOptions o;
  o.mode = core::ExecutionMode::kFolded;
  o.recipe = core::FoldedResNet();
  o.board = fpga::Stratix10SX();
  auto d = core::Deployment::Compile(resnet, o);
  EXPECT_FALSE(d.diagnostics().HasErrors()) << d.diagnostics().ToText();

  auto base = CompileLeNet(core::FoldedBase(), core::ExecutionMode::kFolded);
  EXPECT_FALSE(base.diagnostics().HasErrors())
      << base.diagnostics().ToText();
}

TEST(DeploymentGate, NaiveRecipeCarriesThePaperWarnings) {
  // The naive pipelined schedule is exactly what Chapter 6 diagnoses:
  // global-memory accumulators (CLF302). The optimized TVM-Autorun rung
  // has none of the CLF301/302/305 diagnoses left.
  auto naive = CompileLeNet(core::PipelineBase(),
                            core::ExecutionMode::kPipelined);
  EXPECT_FALSE(naive.diagnostics().ByCode("CLF302").empty());
  EXPECT_FALSE(naive.diagnostics().HasErrors());

  auto tuned = CompileLeNet(core::PipelineTvmAutorun(),
                            core::ExecutionMode::kPipelined);
  EXPECT_TRUE(tuned.diagnostics().ByCode("CLF301").empty());
  EXPECT_TRUE(tuned.diagnostics().ByCode("CLF302").empty());
  EXPECT_TRUE(tuned.diagnostics().ByCode("CLF305").empty());
}

TEST(DeploymentGate, PromotedLintAbortsCompilation) {
  core::AnalysisOptions analysis;
  analysis.severity_overrides["CLF302"] = Severity::kError;
  EXPECT_THROW((void)CompileLeNet(core::PipelineBase(),
                                  core::ExecutionMode::kPipelined,
                                  analysis),
               VerifyError);
}

TEST(DeploymentGate, DisabledGateSkipsAnalysis) {
  core::AnalysisOptions analysis;
  analysis.verify = false;
  auto d = CompileLeNet(core::PipelineBase(),
                        core::ExecutionMode::kPipelined, analysis);
  EXPECT_TRUE(d.diagnostics().diagnostics().empty());
}

TEST(DeploymentGate, AnalysisPlanMirrorsInvocations) {
  auto recipe = core::PipelineTvmAutorun();
  recipe.concurrent_execution = true;
  auto d = CompileLeNet(recipe, core::ExecutionMode::kPipelined);
  const Plan plan = d.AnalysisPlan();
  ASSERT_EQ(plan.steps.size(), d.invocations().size());
  EXPECT_FALSE(plan.channels.empty());
  // Interior kernels are channel-linked; the checker accepts the plan.
  DiagnosticEngine engine;
  EXPECT_EQ(CheckDataflow(plan, engine), 0) << engine.ToText();
}

TEST(DeploymentGate, BrokenChannelGraphIsRejectedStatically) {
  // Acceptance check for the tentpole: a channel consumer whose producer
  // is missing used to compile fine and only deadlock inside ocl::Runtime
  // (which reports the same CLF201). The dataflow checker now rejects the
  // plan before any runtime exists.
  auto recipe = core::PipelineTvmAutorun();
  recipe.concurrent_execution = true;
  auto d = CompileLeNet(recipe, core::ExecutionMode::kPipelined);
  Plan plan = d.AnalysisPlan();
  PlanStep bogus;
  bogus.kernel = "k_injected";
  bogus.reads = {"ch_nobody_writes_this"};
  plan.steps.push_back(std::move(bogus));
  DiagnosticEngine engine;
  EXPECT_GT(CheckDataflow(plan, engine), 0);
  const auto found = engine.ByCode(kChannelNoWriter.id);
  ASSERT_FALSE(found.empty());
  EXPECT_EQ(found[0].severity, Severity::kError);
}

TEST(DeploymentGate, DiagnosticsLandInMetricsRegistry) {
  auto d = CompileLeNet(core::PipelineBase(),
                        core::ExecutionMode::kPipelined);
  // Every report bumps analysis.diag{code=...} on the deployment registry.
  const std::string json = d.telemetry().registry.ToJson();
  EXPECT_NE(json.find("analysis.diag"), std::string::npos);
}

// --- Access model: the two front ends agree ---------------------------------

/// A form over variable names, terms sorted by name; "?" when not affine.
std::string Render(const AccessStream& s, const MaybeAffine& a) {
  if (!a) return "?";
  std::vector<std::string> terms;
  for (const auto& [v, c] : a->terms) {
    terms.push_back(s.vars[v] + "*" + std::to_string(c));
  }
  std::sort(terms.begin(), terms.end());
  std::string out;
  for (const auto& t : terms) out += t + " + ";
  return out + std::to_string(a->constant);
}

/// One line per access to `arrays`: kind, array, index forms, guard depth
/// and the enclosing loops' variables, innermost first.
std::vector<std::string> Accesses(const AccessStream& s,
                                  const std::set<std::string>& arrays) {
  std::vector<std::string> out;
  for (const AccessEvent& e : s.events) {
    if (e.kind > AccessEvent::kWrite || arrays.count(s.arrays[e.array]) == 0) {
      continue;
    }
    std::string line =
        (e.kind == AccessEvent::kWrite ? "W " : "R ") + s.arrays[e.array];
    for (const MaybeAffine& d : e.index) {
      line += '[';
      line += Render(s, d);
      line += ']';
    }
    line += " guard " + std::to_string(e.guard) + " in";
    for (int l = e.loop; l >= 0; l = s.loops[l].parent) {
      line += " " + s.vars[s.loops[l].var];
    }
    out.push_back(line);
  }
  return out;
}

/// Returns how many on-chip accesses were compared.
std::size_t ExpectFrontEndsAgree(const core::Deployment& d) {
  std::size_t compared = 0;
  for (const auto& pk : d.kernels()) {
    const ir::Kernel& k = pk.built.kernel;
    SCOPED_TRACE(k.name);
    const AccessStream ir = KernelAccessStream(k);
    const AccessStream src =
        srclint::KernelAccessStream(codegen::BuildKernel(k));
    // Local and private arrays keep their array form in the source, so
    // every on-chip access matches element for element.
    std::set<std::string> on_chip;
    for (const auto& b : k.local_buffers) on_chip.insert(b->name);
    const std::vector<std::string> accesses = Accesses(ir, on_chip);
    EXPECT_EQ(accesses, Accesses(src, on_chip));
    compared += accesses.size();
    // The loop nests match; the IR front end gives only constant loop
    // boxes a range, which the source must reproduce.
    EXPECT_EQ(ir.loops.size(), src.loops.size());
    for (std::size_t l = 0; l < std::min(ir.loops.size(), src.loops.size());
         ++l) {
      EXPECT_EQ(ir.vars[ir.loops[l].var], src.vars[src.loops[l].var]);
      EXPECT_EQ(ir.loops[l].parent, src.loops[l].parent);
      if (ir.loops[l].lo) {
        EXPECT_EQ(Render(ir, ir.loops[l].lo), Render(src, src.loops[l].lo));
        EXPECT_EQ(Render(ir, ir.loops[l].hi), Render(src, src.loops[l].hi));
      }
    }
  }
  return compared;
}

TEST(AccessModel, FrontEndsAgreeOnEveryShippedKernel) {
  Rng rng(7);
  const graph::Graph lenet = nets::BuildLeNet5(rng);
  const graph::Graph mobilenet = nets::BuildMobileNetV1(rng);
  const graph::Graph resnet = nets::BuildResNet(18, rng);
  for (const auto& board : fpga::EvaluationBoards()) {
    SCOPED_TRACE(board.key);
    core::DeployOptions o;
    o.board = board;
    o.mode = core::ExecutionMode::kPipelined;
    std::size_t lenet_accesses = 0;
    for (const auto& recipe : core::PipelineLadder()) {
      SCOPED_TRACE(recipe.name);
      o.recipe = recipe;
      lenet_accesses += ExpectFrontEndsAgree(core::Deployment::Compile(lenet, o));
    }
    EXPECT_GT(lenet_accesses, 0u);
    o.mode = core::ExecutionMode::kFolded;
    o.recipe = core::FoldedMobileNet(board.key);
    EXPECT_GT(ExpectFrontEndsAgree(core::Deployment::Compile(mobilenet, o)), 0u);
    o.recipe = core::FoldedResNet();
    EXPECT_GT(ExpectFrontEndsAgree(core::Deployment::Compile(resnet, o)), 0u);
  }
}

}  // namespace
}  // namespace clflow::analysis
