// Tests for the fit-report writer, the LSU taxonomy, and the host-program
// generator.
#include <gtest/gtest.h>

#include <regex>
#include <set>

#include "core/host_codegen.hpp"
#include "fpga/report.hpp"
#include "ir/op_kernels.hpp"
#include "nets/nets.hpp"

namespace clflow {
namespace {

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

TEST(LsuTaxonomy, ClassifiesPerPaperRules) {
  // Dense input: repetitive -> cached burst-coalesced.
  auto dense = ir::BuildDenseKernel({.c1 = 64, .c2 = 16}, {}, "d");
  const auto dstats = ir::AnalyzeKernel(dense.kernel);
  bool saw_cached = false;
  for (const auto& s : dstats.accesses) {
    if (s.buffer == "in_vec") {
      EXPECT_EQ(s.lsu_type(), ir::LsuType::kBurstCoalescedCached);
      saw_cached = true;
    }
  }
  EXPECT_TRUE(saw_cached);

  // Pad loads: div/mod addressing -> non-aligned.
  auto pad = ir::BuildPadKernel({.c = 4, .h1 = 12, .w1 = 12, .pad = 1}, "p");
  const auto pstats = ir::AnalyzeKernel(pad.kernel);
  bool saw_nonaligned = false;
  for (const auto& s : pstats.accesses) {
    if (s.buffer == "in_fm" && !s.is_store) {
      EXPECT_EQ(s.lsu_type(), ir::LsuType::kBurstCoalescedNonAligned);
      saw_nonaligned = true;
    }
  }
  EXPECT_TRUE(saw_nonaligned);

  // Long flat copy reads degenerate to a streaming LSU.
  auto copy = ir::BuildCopyKernel(65536, "c");
  const auto cstats = ir::AnalyzeKernel(copy.kernel);
  for (const auto& s : cstats.accesses) {
    if (!s.is_store) {
      EXPECT_EQ(s.lsu_type(), ir::LsuType::kStreaming);
    } else {
      EXPECT_EQ(s.lsu_type(), ir::LsuType::kBurstCoalesced);
    }
  }
}

TEST(FitReport, ContainsAllSections) {
  auto bk = ir::BuildConv2dKernel(
      {.c1 = 4, .h1 = 12, .w1 = 12, .k = 4, .f = 3, .stride = 1,
       .has_bias = true},
      {.fuse_activation = true, .cached_writes = true, .unroll_filter = true},
      "report_conv");
  const auto bs = fpga::Synthesize({{&bk.kernel, {}}}, fpga::Stratix10SX());
  const std::string report = fpga::WriteFitReport(bs);
  EXPECT_TRUE(Contains(report, "clflow fit report"));
  EXPECT_TRUE(Contains(report, "Stratix 10 SX"));
  EXPECT_TRUE(Contains(report, "status: ok"));
  EXPECT_TRUE(Contains(report, "resource totals"));
  EXPECT_TRUE(Contains(report, "report_conv"));
  EXPECT_TRUE(Contains(report, "LSU inventory"));
  EXPECT_TRUE(Contains(report, "burst-coalesced"));
  EXPECT_TRUE(Contains(report, "dynamic estimates"));
}

TEST(FitReport, FailedSynthesisReportsVerdict) {
  auto bk = ir::BuildConv2dKernel(
      {.c1 = 256, .h1 = 56, .w1 = 56, .k = 256, .f = 1, .stride = 1},
      {.fuse_activation = true, .cached_writes = true, .tile_c1 = 16,
       .tile_w2 = 8, .tile_c2 = 16},
      "huge");
  const auto bs = fpga::Synthesize({{&bk.kernel, {}}}, fpga::Arria10());
  const std::string report = fpga::WriteFitReport(bs);
  EXPECT_TRUE(Contains(report, "status: fit_error"));
  // No dynamic section for a design that never routed.
  EXPECT_FALSE(Contains(report, "dynamic estimates"));
}

TEST(HostCodegen, EmitsCompleteFoldedProgram) {
  Rng rng(31);
  graph::Graph net = nets::BuildLeNet5(rng);
  core::DeployOptions o;
  o.mode = core::ExecutionMode::kFolded;
  o.recipe = core::FoldedBase();
  o.board = fpga::Stratix10SX();
  auto d = core::Deployment::Compile(net, o);
  ASSERT_TRUE(d.ok());

  const std::string src = core::EmitHostProgram(d);
  EXPECT_TRUE(Contains(src, "#include <CL/cl.h>"));
  EXPECT_TRUE(Contains(src, "clCreateContext"));
  EXPECT_TRUE(Contains(src, "clCreateCommandQueue"));
  EXPECT_TRUE(Contains(src, "CLFLOW_PROFILE"));
  EXPECT_TRUE(Contains(src, "clEnqueueWriteBuffer"));
  EXPECT_TRUE(Contains(src, "clEnqueueTask"));
  EXPECT_TRUE(Contains(src, "clEnqueueReadBuffer"));
  // Weight buffers for both convs and all three dense layers.
  EXPECT_TRUE(Contains(src, "conv1.w"));
  EXPECT_TRUE(Contains(src, "dense3.w"));
}

TEST(HostCodegen, SymbolicArgumentsAreSetPerLayer) {
  Rng rng(32);
  graph::Graph net = nets::BuildMobileNetV1(rng);
  core::DeployOptions o;
  o.mode = core::ExecutionMode::kFolded;
  o.recipe = core::FoldedMobileNet("s10sx");
  o.board = fpga::Stratix10SX();
  auto d = core::Deployment::Compile(net, o);
  ASSERT_TRUE(d.ok());

  const std::string src = core::EmitHostProgram(d);
  // Symbolic dims set as cl_int kernel args, with names annotated.
  EXPECT_TRUE(Contains(src, "// rc_dim"));
  EXPECT_TRUE(Contains(src, "// xx_dim"));
  EXPECT_TRUE(Contains(src, "// act_sel"));
  // The pointwise kernel object is created once and re-used.
  const std::string create = "clCreateKernel(program, \"k_conv1_s1_b1\"";
  const auto first = src.find(create);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(src.find(create, first + 1), std::string::npos);
}

TEST(HostCodegen, ConcurrentExecutionCreatesQueuePerKernel) {
  Rng rng(33);
  graph::Graph net = nets::BuildLeNet5(rng);
  core::DeployOptions o;
  o.mode = core::ExecutionMode::kPipelined;
  o.recipe = core::PipelineAutorun();
  o.recipe.concurrent_execution = true;
  o.board = fpga::Stratix10SX();
  auto d = core::Deployment::Compile(net, o);
  ASSERT_TRUE(d.ok());
  const std::string src = core::EmitHostProgram(d);
  EXPECT_TRUE(Contains(src, "command queue per kernel"));
  EXPECT_TRUE(Contains(src, "cl_command_queue q5"));
  EXPECT_TRUE(Contains(src, "autorun"));
}

/// Queue indices `pattern` captures across `src`.
std::set<int> QueueIds(const std::string& src, const std::regex& pattern) {
  std::set<int> ids;
  for (auto it = std::sregex_iterator(src.begin(), src.end(), pattern);
       it != std::sregex_iterator(); ++it) {
    ids.insert(std::stoi((*it)[1].str()));
  }
  return ids;
}

TEST(HostCodegen, CreatesExactlyTheQueuesItEnqueuesOn) {
  // The host program follows Deployment::AssignQueues: autorun kernels get
  // no queue, so every created queue carries at least one command.
  const std::regex created(R"(cl_command_queue q(\d+) =)");
  const std::regex used(R"(clEnqueue\w+\(q(\d+),)");
  Rng rng(34);
  graph::Graph net = nets::BuildLeNet5(rng);
  std::vector<core::DeployOptions> configs;
  for (const auto& recipe : core::PipelineLadder()) {
    core::DeployOptions o;
    o.mode = core::ExecutionMode::kPipelined;
    o.recipe = recipe;
    o.recipe.concurrent_execution = true;
    configs.push_back(o);
  }
  core::DeployOptions folded;
  folded.mode = core::ExecutionMode::kFolded;
  folded.recipe = core::FoldedBase();
  configs.push_back(folded);
  for (auto& o : configs) {
    o.board = fpga::Stratix10SX();
    auto d = core::Deployment::Compile(net, o);
    ASSERT_TRUE(d.ok()) << o.recipe.name;
    const std::string src = core::EmitHostProgram(d);
    const std::set<int> queues = QueueIds(src, created);
    EXPECT_FALSE(queues.empty()) << o.recipe.name;
    EXPECT_EQ(queues, QueueIds(src, used)) << o.recipe.name;
  }
}

}  // namespace
}  // namespace clflow
