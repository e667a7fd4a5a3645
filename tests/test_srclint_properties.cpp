// Property tests for the srclint parser against the emitter: every source
// the emitter can produce -- across the pipelined ladder, the shipped
// folded recipes, and a DSE candidate sweep -- must (1) parse back to
// exactly the tree codegen::BuildProgram built, every field including
// `line`, `text` and `float_value`, (2) reprint to the emitted bytes, and
// (3) still validate cleanly against its plan. The compile gate lints the
// built tree without parsing, so this agreement is what keeps
// `lint --src` (which parses) and the gate (which does not) equivalent.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "codegen/opencl_codegen.hpp"
#include "core/deployment.hpp"
#include "core/dse.hpp"
#include "nets/nets.hpp"
#include "srclint/parser.hpp"
#include "srclint/srclint.hpp"

namespace clflow::srclint {
namespace {

std::vector<const ir::Kernel*> Planned(const core::Deployment& d) {
  std::vector<const ir::Kernel*> kernels;
  for (const auto& pk : d.kernels()) kernels.push_back(&pk.built.kernel);
  return kernels;
}

/// Field-by-field comparison of two source trees. `first` names the first
/// field that differs (empty when the trees are equal).
struct TreeDiff {
  std::string first;

  template <typename T>
  void Field(const std::string& path, const char* field, const T& a,
             const T& b) {
    if (first.empty() && !(a == b)) first = path + field;
  }

  template <typename T, typename Each>
  void List(const std::string& path, const std::vector<T>& a,
            const std::vector<T>& b, Each each) {
    Field(path, ".size", a.size(), b.size());
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      each(path + "[" + std::to_string(i) + "]", a[i], b[i]);
    }
  }

  void Expr(const std::string& path, const SrcExprPtr& a,
            const SrcExprPtr& b) {
    Field(path, " (null)", a == nullptr, b == nullptr);
    if (!a || !b) return;
    Field(path, ".kind", a->kind, b->kind);
    Field(path, ".int_value", a->int_value, b->int_value);
    Field(path, ".float_value", a->float_value, b->float_value);
    Field(path, ".text", a->text, b->text);
    Field(path, ".name", a->name, b->name);
    Field(path, ".op", a->op, b->op);
    Field(path, ".line", a->line, b->line);
    Exprs(path + ".args", a->args, b->args);
  }

  void Exprs(const std::string& path, const std::vector<SrcExprPtr>& a,
             const std::vector<SrcExprPtr>& b) {
    List(path, a, b, [this](const std::string& p, const auto& x,
                            const auto& y) { Expr(p, x, y); });
  }

  void Stmts(const std::string& path, const std::vector<SrcStmtPtr>& a,
             const std::vector<SrcStmtPtr>& b) {
    List(path, a, b, [this](const std::string& p, const auto& x,
                            const auto& y) { Stmt(p, *x, *y); });
  }

  void Stmt(const std::string& path, const SrcStmt& a, const SrcStmt& b) {
    Field(path, ".kind", a.kind, b.kind);
    Field(path, ".loop_var", a.loop_var, b.loop_var);
    Expr(path + ".init", a.init, b.init);
    Expr(path + ".bound", a.bound, b.bound);
    Field(path, ".unroll", a.unroll, b.unroll);
    Stmts(path + ".body", a.body, b.body);
    Expr(path + ".target", a.target, b.target);
    Expr(path + ".value", a.value, b.value);
    Expr(path + ".cond", a.cond, b.cond);
    Stmts(path + ".then", a.then_body, b.then_body);
    Stmts(path + ".else", a.else_body, b.else_body);
    Expr(path + ".call", a.call, b.call);
    Field(path, ".line", a.line, b.line);
  }

  void Kernel(const std::string& path, const SrcKernel& a,
              const SrcKernel& b) {
    Field(path, ".name", a.name, b.name);
    Field(path, ".attr_autorun", a.attr_autorun, b.attr_autorun);
    Field(path, ".attr_max_global_work_dim0", a.attr_max_global_work_dim0,
          b.attr_max_global_work_dim0);
    Field(path, ".line", a.line, b.line);
    List(path + ".params", a.params, b.params,
         [this](const std::string& p, const SrcParam& x, const SrcParam& y) {
           Field(p, ".is_pointer", x.is_pointer, y.is_pointer);
           Field(p, ".constant_space", x.constant_space, y.constant_space);
           Field(p, ".is_const", x.is_const, y.is_const);
           Field(p, ".is_restrict", x.is_restrict, y.is_restrict);
           Field(p, ".type", x.type, y.type);
           Field(p, ".name", x.name, y.name);
           Field(p, ".line", x.line, y.line);
         });
    List(path + ".locals", a.locals, b.locals,
         [this](const std::string& p, const SrcLocalDecl& x,
                const SrcLocalDecl& y) {
           Field(p, ".local", x.local, y.local);
           Field(p, ".type", x.type, y.type);
           Field(p, ".name", x.name, y.name);
           Field(p, ".line", x.line, y.line);
           Exprs(p + ".dims", x.dims, y.dims);
         });
    Stmts(path + ".body", a.body, b.body);
  }

  void Program(const SrcProgram& a, const SrcProgram& b) {
    Field("program", ".channels_extension", a.channels_extension,
          b.channels_extension);
    List("channels", a.channels, b.channels,
         [this](const std::string& p, const SrcChannelDecl& x,
                const SrcChannelDecl& y) {
           Field(p, ".type", x.type, y.type);
           Field(p, ".name", x.name, y.name);
           Field(p, ".depth", x.depth, y.depth);
           Field(p, ".line", x.line, y.line);
         });
    List("kernels", a.kernels, b.kernels,
         [this](const std::string& p, const SrcKernel& x, const SrcKernel& y) {
           Kernel(p, x, y);
         });
  }
};

/// The round-trip property for one deployment: the emission parses back
/// to the tree the emitter built (every field) and reprints to the same
/// bytes, the reprint is a fixpoint, and it lints clean against the plan.
void ExpectRoundTrip(const core::Deployment& d, const std::string& tag) {
  const std::string emitted = d.GeneratedSource();
  SrcProgram parsed;
  ASSERT_NO_THROW(parsed = ParseProgram(emitted)) << tag;

  // Structural sanity: one parsed kernel per planned kernel, same names.
  ASSERT_EQ(parsed.kernels.size(), d.kernels().size()) << tag;
  for (std::size_t i = 0; i < parsed.kernels.size(); ++i) {
    EXPECT_EQ(parsed.kernels[i].name, d.kernels()[i].built.kernel.name)
        << tag;
  }

  const std::string printed = ToSource(parsed);
  EXPECT_EQ(printed, emitted) << tag << ": printer and parser disagree";

  SrcProgram built = codegen::BuildProgram(Planned(d));
  EXPECT_EQ(ToSourceNumbered(built), emitted) << tag;
  TreeDiff diff;
  diff.Program(built, parsed);
  EXPECT_EQ(diff.first, "") << tag << ": built and parsed trees differ";

  SrcProgram reparsed;
  ASSERT_NO_THROW(reparsed = ParseProgram(printed)) << tag;
  EXPECT_EQ(printed, ToSource(reparsed)) << tag << ": printer not a fixpoint";

  analysis::DiagnosticEngine diags;
  EXPECT_TRUE(LintProgram(printed, Planned(d), diags)) << tag;
  EXPECT_EQ(diags.error_count(), 0) << tag << "\n" << diags.ToText();
  EXPECT_EQ(diags.warning_count(), 0) << tag << "\n" << diags.ToText();
}

TEST(SrclintRoundTrip, EveryPipelineRecipeOnEveryBoard) {
  Rng rng(77);
  graph::Graph net = nets::BuildLeNet5(rng);
  for (const auto& board : fpga::EvaluationBoards()) {
    for (const auto& recipe : core::PipelineLadder()) {
      core::DeployOptions o;
      o.mode = core::ExecutionMode::kPipelined;
      o.recipe = recipe;
      o.board = board;
      auto d = core::Deployment::Compile(net, o);
      ExpectRoundTrip(d, board.key + "/" + recipe.name);
    }
  }
}

TEST(SrclintRoundTrip, ShippedFoldedRecipes) {
  Rng rng(77);
  {
    graph::Graph net = nets::BuildLeNet5(rng);
    core::DeployOptions o;
    o.mode = core::ExecutionMode::kFolded;
    o.recipe = core::FoldedBase();
    o.board = fpga::Stratix10SX();
    ExpectRoundTrip(core::Deployment::Compile(net, o), "folded/lenet");
  }
  {
    graph::Graph net = nets::BuildMobileNetV1(rng);
    core::DeployOptions o;
    o.mode = core::ExecutionMode::kFolded;
    o.recipe = core::FoldedMobileNet(fpga::Stratix10SX().key);
    o.board = fpga::Stratix10SX();
    ExpectRoundTrip(core::Deployment::Compile(net, o), "folded/mobilenet");
  }
  {
    graph::Graph net = nets::BuildResNet(18, rng);
    core::DeployOptions o;
    o.mode = core::ExecutionMode::kFolded;
    o.recipe = core::FoldedResNet();
    o.board = fpga::Stratix10SX();
    ExpectRoundTrip(core::Deployment::Compile(net, o), "folded/resnet18");
  }
}

TEST(SrclintRoundTrip, DseCandidateSweep) {
  // Every tiling the explorer ranks feasible produces a different
  // parameterized emission; all of them must round-trip. A reduced
  // factor set keeps the sweep fast while still varying all three
  // unroll dimensions.
  Rng rng(77);
  graph::Graph net = nets::BuildMobileNetV1(rng);
  core::DseOptions opts;
  opts.c1_factors = {1, 4};
  opts.w2_factors = {1, 7};
  opts.c2_factors = {1, 8, 16};
  const auto result =
      core::ExploreFoldedTilings(net, fpga::Stratix10SX(), opts);
  ASSERT_FALSE(result.ranked.empty());
  for (std::size_t i = 0; i < result.ranked.size(); ++i) {
    const auto& c = result.ranked[i];
    core::OptimizationRecipe recipe =
        core::FoldedMobileNet(fpga::Stratix10SX().key);
    recipe.conv1x1 = c.conv1x1;
    recipe.conv3x3 = c.conv3x3;
    recipe.conv_dw = c.conv_dw;
    core::DeployOptions o;
    o.mode = core::ExecutionMode::kFolded;
    o.recipe = recipe;
    o.board = fpga::Stratix10SX();
    auto d = core::Deployment::Compile(net, o);
    ExpectRoundTrip(d, "dse candidate " + std::to_string(i));
  }
}

}  // namespace
}  // namespace clflow::srclint
