// Tests for clflow::srclint, the source-level linter / translation
// validator (CLF8xx): lexer and parser units, the CLF808/809 walk, one
// injected-defect test per code proving it fires, clean runs over the
// shipped recipes, the Compile-gate rejection path, and the
// channel-dtype emitter bug re-detected from the source alone.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "codegen/opencl_codegen.hpp"
#include "common/error.hpp"
#include "core/deployment.hpp"
#include "nets/nets.hpp"
#include "srclint/inject.hpp"
#include "srclint/lexer.hpp"
#include "srclint/parser.hpp"
#include "srclint/srclint.hpp"

namespace clflow::srclint {
namespace {

std::set<std::string> Codes(const analysis::DiagnosticEngine& diags) {
  std::set<std::string> codes;
  for (const auto& d : diags.diagnostics()) codes.insert(d.code);
  return codes;
}

// --- Lexer ------------------------------------------------------------------

TEST(SrcLexer, TokenizesTheEmittedDialect) {
  const auto toks = Lex("for (int i = 0; i < 10; ++i)\n  out[i] = 1.5f;\n");
  ASSERT_GT(toks.size(), 5u);
  EXPECT_EQ(toks[0].kind, TokKind::kIdent);
  EXPECT_EQ(toks[0].text, "for");
  EXPECT_EQ(toks.back().kind, TokKind::kEof);
  bool saw_float = false;
  for (const auto& t : toks) {
    if (t.kind == TokKind::kFloatLit) {
      saw_float = true;
      EXPECT_DOUBLE_EQ(t.float_value, 1.5);
    }
  }
  EXPECT_TRUE(saw_float);
}

TEST(SrcLexer, PragmaIsOneTokenAndLinesTrack) {
  const auto toks = Lex("#pragma unroll 4\nfor");
  ASSERT_GE(toks.size(), 2u);
  EXPECT_EQ(toks[0].kind, TokKind::kPragma);
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[1].text, "for");
  EXPECT_EQ(toks[1].line, 2);
}

TEST(SrcLexer, RejectsForeignCharacters) {
  EXPECT_THROW(Lex("int i = @;"), SrcParseError);
}

// --- Parser -----------------------------------------------------------------

constexpr const char* kTinyKernel =
    "#pragma OPENCL EXTENSION cl_intel_channels : enable\n"
    "channel float ch_a __attribute__((depth(8)));\n"
    "__attribute__((max_global_work_dim(0)))\n"
    "__attribute__((autorun))\n"
    "__kernel void k_tiny() {\n"
    "  float acc[4][2];\n"
    "  #pragma unroll 2\n"
    "  for (int i = 0; i < 4; ++i) {\n"
    "    acc[i][0] = ((i >= 2) ? 1.0f : 0.0f);\n"
    "    write_channel_intel(ch_a, acc[i][0]);\n"
    "  }\n"
    "}\n";

TEST(SrcParser, ReconstructsProgramStructure) {
  const SrcProgram p = ParseProgram(kTinyKernel);
  EXPECT_TRUE(p.channels_extension);
  ASSERT_EQ(p.channels.size(), 1u);
  EXPECT_EQ(p.channels[0].name, "ch_a");
  EXPECT_EQ(p.channels[0].type, "float");
  EXPECT_EQ(p.channels[0].depth, 8);
  ASSERT_EQ(p.kernels.size(), 1u);
  const SrcKernel& k = p.kernels[0];
  EXPECT_EQ(k.name, "k_tiny");
  EXPECT_TRUE(k.attr_autorun);
  EXPECT_TRUE(k.attr_max_global_work_dim0);
  ASSERT_EQ(k.locals.size(), 1u);
  EXPECT_EQ(k.locals[0].name, "acc");
  EXPECT_EQ(k.locals[0].dims.size(), 2u);
  ASSERT_EQ(k.body.size(), 1u);
  const SrcStmt& loop = *k.body[0];
  EXPECT_EQ(loop.kind, SrcStmtKind::kFor);
  EXPECT_EQ(loop.loop_var, "i");
  EXPECT_EQ(loop.unroll, 2);
  ASSERT_EQ(loop.body.size(), 2u);
  EXPECT_EQ(loop.body[0]->kind, SrcStmtKind::kAssign);
  EXPECT_EQ(loop.body[0]->value->kind, SrcExprKind::kTernary);
  EXPECT_EQ(loop.body[1]->kind, SrcStmtKind::kCallStmt);
  EXPECT_EQ(loop.body[1]->call->name, "write_channel_intel");
}

TEST(SrcParser, ExpressionPrecedenceWithoutParens) {
  // The emitter parenthesizes everything; a hand-edited source must
  // still parse with C precedence.
  const SrcProgram p =
      ParseProgram("__kernel void k() {\n  x = a + b * c;\n}\n");
  const auto& e = p.kernels.at(0).body.at(0)->value;
  ASSERT_EQ(e->kind, SrcExprKind::kBinary);
  EXPECT_EQ(e->op, "+");
  EXPECT_EQ(e->args[1]->kind, SrcExprKind::kBinary);
  EXPECT_EQ(e->args[1]->op, "*");
}

TEST(SrcParser, PrintParseFixpoint) {
  const SrcProgram once = ParseProgram(kTinyKernel);
  const std::string printed = ToSource(once);
  const SrcProgram twice = ParseProgram(printed);
  EXPECT_EQ(printed, ToSource(twice));
}

TEST(SrcParser, RejectsNonCanonicalFor) {
  EXPECT_THROW(
      ParseProgram("__kernel void k_bad() {\n"
                   "  for (int i = 0; i <= 4; ++i) {\n  }\n}\n"),
      SrcParseError);
}

// --- CLF808 / CLF809 -------------------------------------------------------

/// "CODE line N" for every finding, in report order.
std::vector<std::string> Findings(const analysis::DiagnosticEngine& diags) {
  std::vector<std::string> out;
  for (const auto& d : diags.diagnostics()) {
    out.push_back(d.code + " " + d.message.substr(0, d.message.find(':')));
  }
  return out;
}

constexpr const char* kInitKernelHead =
    "__kernel void k_init(__global const float* restrict in, "
    "__global float* restrict out) {\n"
    "  float acc[4];\n";  // the body starts on line 3

TEST(SrclintInit, ReportsOnlyReadsNoStoreReaches) {
  struct Case {
    const char* name;
    const char* body;
    std::vector<std::string> want;
  };
  const std::vector<Case> cases = {
      {"init loop, then read",
       "  for (int i = 0; i < 4; ++i) {\n"
       "    acc[i] = 0.0f;\n"
       "  }\n"
       "  out[0] = acc[0];\n",
       {}},
      {"accumulate without zeroing",
       "  for (int i = 0; i < 4; ++i) {\n"
       "    acc[i] = (acc[i] + out[i]);\n"
       "  }\n"
       "  out[0] = acc[0];\n",
       {"CLF809 line 4"}},
      {"store in then, read in else",
       "  if ((in[0] > 0.0f)) {\n"
       "    acc[0] = 1.0f;\n"
       "  } else {\n"
       "    out[0] = acc[0];\n"
       "  }\n",
       {"CLF809 line 6"}},
      {"store in then, read after the if",
       "  if ((in[0] > 0.0f)) {\n"
       "    acc[0] = 1.0f;\n"
       "  }\n"
       "  out[0] = acc[0];\n",
       {}},
      {"store in a loop that may not run, read after it",
       "  for (int i = 0; i < 4; ++i) {\n"
       "    for (int j = 0; j < i; ++j) {\n"
       "      acc[j] = in[j];\n"
       "    }\n"
       "    out[i] = acc[0];\n"
       "  }\n",
       {}},
      {"read before the store in the same loop body",
       "  for (int i = 0; i < 4; ++i) {\n"
       "    out[i] = acc[i];\n"
       "    acc[i] = in[i];\n"
       "  }\n",
       {"CLF809 line 4"}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    analysis::DiagnosticEngine diags;
    ASSERT_TRUE(
        LintSource(std::string(kInitKernelHead) + c.body + "}\n", diags)
            .has_value());
    EXPECT_EQ(Findings(diags), c.want) << diags.ToText();
  }
}

TEST(SrclintInit, DeadStoreCitesTheFirstStoreInExecutionOrder) {
  // The store in the else branch (line 6) runs before the one after the
  // if (line 8); CLF808 must cite line 6.
  analysis::DiagnosticEngine diags;
  ASSERT_TRUE(LintSource(
      "__kernel void k_dead(__global const float* restrict in, "
      "__global float* restrict out) {\n"
      "  float t[2];\n"
      "  if ((in[0] > 0.0f)) {\n"
      "    out[1] = 0.0f;\n"
      "  } else {\n"
      "    t[0] = 1.0f;\n"
      "  }\n"
      "  t[1] = 2.0f;\n"
      "}\n",
      diags).has_value());
  EXPECT_EQ(Findings(diags), std::vector<std::string>{"CLF808 line 6"})
      << diags.ToText();
}

// --- CLF806 ---------------------------------------------------------------

TEST(SrclintBounds, EveryAccessOnALineIsBounded) {
  // The read acc[(i + 1)] passes the end at i = 3, though the write on
  // its line stays in bounds.
  analysis::DiagnosticEngine diags;
  ASSERT_TRUE(LintSource(std::string(kInitKernelHead) +
                             "  for (int i = 0; i < 4; ++i) {\n"
                             "    acc[i] = 0.0f;\n"
                             "  }\n"
                             "  for (int i = 0; i < 4; ++i) {\n"
                             "    acc[i] = acc[(i + 1)];\n"
                             "  }\n"
                             "  out[0] = acc[0];\n"
                             "}\n",
                         diags)
                  .has_value());
  EXPECT_EQ(Findings(diags), std::vector<std::string>{"CLF806 line 7"})
      << diags.ToText();
}

TEST(SrclintBounds, PartialRankAccessBoundsItsLeadingDimensions) {
  // t[i] names row i of a 4-row array; row 4 does not exist.
  analysis::DiagnosticEngine diags;
  ASSERT_TRUE(LintSource("__kernel void k_rows(__global float* restrict out) {\n"
                         "  float t[4][2];\n"
                         "  for (int i = 0; i < 5; ++i) {\n"
                         "    t[i] = 0.0f;\n"
                         "  }\n"
                         "  out[0] = t[0][0];\n"
                         "}\n",
                         diags)
                  .has_value());
  EXPECT_EQ(Findings(diags), std::vector<std::string>{"CLF806 line 4"})
      << diags.ToText();
}

// --- Injected defects: every CLF8xx code fires ------------------------------

class SrclintInjection : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(77);
    graph::Graph net = nets::BuildLeNet5(rng);
    core::DeployOptions o;
    o.mode = core::ExecutionMode::kPipelined;
    o.recipe = core::PipelineTvmAutorun();
    o.board = fpga::Stratix10SX();
    deployment_ = new core::Deployment(core::Deployment::Compile(net, o));
    source_ = new std::string(deployment_->GeneratedSource());
  }
  static void TearDownTestSuite() {
    delete deployment_;
    delete source_;
    deployment_ = nullptr;
    source_ = nullptr;
  }

  static std::vector<const ir::Kernel*> Planned() {
    std::vector<const ir::Kernel*> kernels;
    for (const auto& pk : deployment_->kernels()) {
      kernels.push_back(&pk.built.kernel);
    }
    return kernels;
  }

  /// Corrupts the real emission with `mode`, lints it against the plan,
  /// and returns the diagnostics.
  static analysis::DiagnosticEngine LintCorrupted(const std::string& mode) {
    analysis::DiagnosticEngine diags;
    auto corrupted = InjectDefect(mode, *source_);
    EXPECT_TRUE(corrupted.has_value()) << "no anchor for mode " << mode;
    LintProgram(*corrupted, Planned(), diags);
    return diags;
  }

  static core::Deployment* deployment_;
  static std::string* source_;
};

core::Deployment* SrclintInjection::deployment_ = nullptr;
std::string* SrclintInjection::source_ = nullptr;

TEST_F(SrclintInjection, CleanEmissionHasZeroFindings) {
  analysis::DiagnosticEngine diags;
  EXPECT_TRUE(LintProgram(*source_, Planned(), diags));
  EXPECT_EQ(diags.error_count(), 0) << diags.ToText();
  EXPECT_EQ(diags.warning_count(), 0) << diags.ToText();
}

TEST_F(SrclintInjection, ParseFailureFiresCLF800) {
  const auto diags = LintCorrupted("parse");
  EXPECT_TRUE(Codes(diags).count("CLF800"));
  EXPECT_GT(diags.error_count(), 0);
}

TEST_F(SrclintInjection, RenamedKernelFiresCLF801) {
  const auto diags = LintCorrupted("sig");
  EXPECT_TRUE(Codes(diags).count("CLF801"));
  EXPECT_GT(diags.error_count(), 0);
}

TEST_F(SrclintInjection, DroppedChannelWriteFiresCLF802) {
  const auto diags = LintCorrupted("chan-endpoint");
  EXPECT_TRUE(Codes(diags).count("CLF802"));
  EXPECT_GT(diags.error_count(), 0);
}

TEST_F(SrclintInjection, DroppedUnrollPragmaFiresCLF803) {
  const auto diags = LintCorrupted("unroll");
  EXPECT_TRUE(Codes(diags).count("CLF803"));
  EXPECT_GT(diags.error_count(), 0);
}

TEST_F(SrclintInjection, RetypedChannelFiresCLF804) {
  const auto diags = LintCorrupted("chan-type");
  EXPECT_TRUE(Codes(diags).count("CLF804"));
  EXPECT_GT(diags.error_count(), 0);
}

TEST_F(SrclintInjection, StrippedRestrictFiresCLF807AsWarning) {
  const auto diags = LintCorrupted("restrict");
  EXPECT_TRUE(Codes(diags).count("CLF807"));
  EXPECT_EQ(diags.error_count(), 0);
  EXPECT_GT(diags.warning_count(), 0);
}

/// The plan-free codes fire on the built-in defective kernels (the same
/// snippets `flow_inspector lint --src --inject` lints).
struct SnippetCase {
  const char* mode;
  const char* code;
  bool is_error;
};

// A stable print keeps the ctest case names free of pointer bytes.
void PrintTo(const SnippetCase& c, std::ostream* os) { *os << c.mode; }

class SrclintSnippet : public ::testing::TestWithParam<SnippetCase> {};

TEST_P(SrclintSnippet, FiresExactlyItsCode) {
  const SnippetCase& c = GetParam();
  const char* snippet = SyntheticDefectSnippet(c.mode);
  ASSERT_NE(snippet, nullptr);
  analysis::DiagnosticEngine diags;
  LintSource(snippet, diags);
  EXPECT_TRUE(Codes(diags).count(c.code)) << diags.ToText();
  EXPECT_EQ(diags.error_count() > 0, c.is_error) << diags.ToText();
}

INSTANTIATE_TEST_SUITE_P(
    AllPlanFreeCodes, SrclintSnippet,
    ::testing::Values(SnippetCase{"loop-dep", "CLF805", true},
                      SnippetCase{"oob", "CLF806", true},
                      SnippetCase{"dead-store", "CLF808", false},
                      SnippetCase{"uninit", "CLF809", false}),
    [](const ::testing::TestParamInfo<SnippetCase>& info) {
      return std::string(info.param.code);
    });

// --- The compile gate rejects a corrupted emission --------------------------

TEST(SrclintGate, CorruptedEmissionAbortsCompile) {
  Rng rng(77);
  graph::Graph net = nets::BuildLeNet5(rng);
  core::DeployOptions o;
  o.mode = core::ExecutionMode::kPipelined;
  o.recipe = core::PipelineTvmAutorun();
  o.board = fpga::Stratix10SX();
  o.analysis.srclint_inject = "chan-type";
  try {
    auto d = core::Deployment::Compile(net, o);
    FAIL() << "gate accepted a retyped channel declaration";
  } catch (const VerifyError& e) {
    EXPECT_NE(std::string(e.what()).find("CLF804"), std::string::npos)
        << e.what();
  }
}

TEST(SrclintGate, DisablingTheGateLetsTheSameDefectThrough) {
  Rng rng(77);
  graph::Graph net = nets::BuildLeNet5(rng);
  core::DeployOptions o;
  o.mode = core::ExecutionMode::kPipelined;
  o.recipe = core::PipelineTvmAutorun();
  o.board = fpga::Stratix10SX();
  o.analysis.srclint_inject = "chan-type";
  o.analysis.lint_source = false;
  auto d = core::Deployment::Compile(net, o);
  EXPECT_TRUE(d.ok());
}

// --- Clean over every shipped pipelined recipe ------------------------------

TEST(SrclintClean, EveryPipelineLadderRungLintsClean) {
  Rng rng(77);
  graph::Graph net = nets::BuildLeNet5(rng);
  for (const auto& recipe : core::PipelineLadder()) {
    core::DeployOptions o;
    o.mode = core::ExecutionMode::kPipelined;
    o.recipe = recipe;
    o.board = fpga::Stratix10SX();
    auto d = core::Deployment::Compile(net, o);
    std::vector<const ir::Kernel*> kernels;
    for (const auto& pk : d.kernels()) kernels.push_back(&pk.built.kernel);
    analysis::DiagnosticEngine diags;
    EXPECT_TRUE(LintProgram(d.GeneratedSource(), kernels, diags));
    EXPECT_EQ(diags.error_count(), 0) << recipe.name << "\n" << diags.ToText();
    EXPECT_EQ(diags.warning_count(), 0)
        << recipe.name << "\n" << diags.ToText();
  }
}

TEST(SrclintClean, FoldedMobileNetLintsClean) {
  Rng rng(77);
  graph::Graph net = nets::BuildMobileNetV1(rng);
  core::DeployOptions o;
  o.mode = core::ExecutionMode::kFolded;
  o.recipe = core::FoldedMobileNet(fpga::Stratix10SX().key);
  o.board = fpga::Stratix10SX();
  auto d = core::Deployment::Compile(net, o);
  std::vector<const ir::Kernel*> kernels;
  for (const auto& pk : d.kernels()) kernels.push_back(&pk.built.kernel);
  analysis::DiagnosticEngine diags;
  EXPECT_TRUE(LintProgram(d.GeneratedSource(), kernels, diags));
  EXPECT_EQ(diags.error_count(), 0) << diags.ToText();
  EXPECT_EQ(diags.warning_count(), 0) << diags.ToText();
}

// --- The channel-dtype emitter bug, re-detected from source -----------------

/// Builds the minimal int-channel producer/consumer pair: the emitter
/// once printed `channel float` for this regardless of dtype.
std::pair<ir::Kernel, ir::Kernel> IntChannelPair(const ir::BufferPtr& ch) {
  auto in = ir::MakeBuffer("in_data", {ir::IntImm(16)}, ir::MemScope::kGlobal,
                           /*is_arg=*/true, ir::ScalarType::kInt32);
  auto out = ir::MakeBuffer("out_data", {ir::IntImm(16)},
                            ir::MemScope::kGlobal,
                            /*is_arg=*/true, ir::ScalarType::kInt32);
  auto i = ir::MakeVar("i");
  ir::Kernel producer;
  producer.name = "k_int_producer";
  producer.buffer_args = {in};
  producer.channels_written = {ch};
  producer.body =
      ir::For(i, ir::IntImm(0), ir::IntImm(16),
              ir::WriteChannel(ch, ir::Load(in, {ir::VarRef(i)})));
  auto j = ir::MakeVar("j");
  ir::Kernel consumer;
  consumer.name = "k_int_consumer";
  consumer.buffer_args = {out};
  consumer.channels_read = {ch};
  consumer.body = ir::For(j, ir::IntImm(0), ir::IntImm(16),
                          ir::Store(out, {ir::VarRef(j)}, ir::ReadChannel(ch)));
  return {std::move(producer), std::move(consumer)};
}

TEST(SrclintChannelDtype, FixedEmitterLintsCleanAndRevertedBugIsCaught) {
  auto ch = ir::MakeBuffer("ch_int", {}, ir::MemScope::kChannel,
                           /*is_arg=*/false, ir::ScalarType::kInt32);
  ch->channel_depth = 4;
  auto [producer, consumer] = IntChannelPair(ch);
  const std::vector<const ir::Kernel*> kernels = {&producer, &consumer};
  const std::string good = codegen::EmitProgram(kernels);
  ASSERT_NE(good.find("channel int "), std::string::npos) << good;

  analysis::DiagnosticEngine clean;
  EXPECT_TRUE(LintProgram(good, kernels, clean));
  EXPECT_EQ(clean.error_count(), 0) << clean.ToText();

  // Revert the fix textually: the old emitter printed `channel float`
  // for every channel. The validator must reject that emission.
  std::string reverted = good;
  const auto pos = reverted.find("channel int ");
  reverted.replace(pos, std::string("channel int ").size(), "channel float ");
  analysis::DiagnosticEngine diags;
  EXPECT_FALSE(LintProgram(reverted, kernels, diags));
  EXPECT_TRUE(Codes(diags).count("CLF804")) << diags.ToText();
}

}  // namespace
}  // namespace clflow::srclint
