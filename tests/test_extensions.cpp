// Tests for the auxiliary extensions: ReorderLoops / CacheRead schedule
// primitives, parameter serialization, and trace export.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/params_io.hpp"
#include "ir/analysis.hpp"
#include "ir/interp.hpp"
#include "cpu/ops.hpp"
#include "ir/op_kernels.hpp"
#include "ir/passes.hpp"
#include "nets/nets.hpp"
#include "ocl/trace.hpp"

namespace clflow {
namespace {

// --- ReorderLoops -------------------------------------------------------------

ir::Kernel TransposeKernel(const ir::BufferPtr& in, const ir::BufferPtr& out,
                           std::int64_t rows, std::int64_t cols) {
  auto i = ir::MakeVar("i");
  auto j = ir::MakeVar("j");
  ir::Kernel k;
  k.name = "transpose";
  k.buffer_args = {in, out};
  k.body = ir::For(
      i, ir::IntImm(0), ir::IntImm(rows),
      ir::For(j, ir::IntImm(0), ir::IntImm(cols),
              ir::Store(out, {ir::VarRef(j), ir::VarRef(i)},
                        ir::Load(in, {ir::VarRef(i), ir::VarRef(j)}))));
  return k;
}

TEST(ReorderLoops, InterchangePreservesSemantics) {
  constexpr std::int64_t kRows = 5, kCols = 7;
  auto in = ir::MakeBuffer("in", {ir::IntImm(kRows), ir::IntImm(kCols)},
                           ir::MemScope::kGlobal, true);
  auto out = ir::MakeBuffer("out", {ir::IntImm(kCols), ir::IntImm(kRows)},
                            ir::MemScope::kGlobal, true);
  ir::Kernel base = TransposeKernel(in, out, kRows, kCols);
  ir::Kernel swapped = TransposeKernel(in, out, kRows, kCols);
  swapped.body = ir::ReorderLoops(swapped.body, "i", "j");

  // After interchange j is outermost.
  EXPECT_EQ(swapped.body->var->name, "j");
  EXPECT_EQ(swapped.body->body->var->name, "i");

  Rng rng(3);
  Tensor src = Tensor::Random(Shape{kRows, kCols}, rng);
  for (const ir::Kernel* k : {&base, &swapped}) {
    Tensor dst(Shape{kCols, kRows});
    ir::InterpEnv env;
    Tensor s = src.Clone();
    env.BindBuffer(in, s.data());
    env.BindBuffer(out, dst.data());
    ir::RunKernel(*k, env);
    for (std::int64_t r = 0; r < kRows; ++r) {
      for (std::int64_t c = 0; c < kCols; ++c) {
        EXPECT_EQ(dst.at(c * kRows + r), src.at(r * kCols + c));
      }
    }
  }
}

TEST(ReorderLoops, RejectsImperfectNest) {
  auto buf = ir::MakeBuffer("b", {ir::IntImm(4)}, ir::MemScope::kGlobal, true);
  auto i = ir::MakeVar("i");
  auto j = ir::MakeVar("j");
  // i's body is a block: store + inner loop -> imperfect.
  auto body = ir::Block(
      {ir::Store(buf, {ir::VarRef(i)}, ir::FloatImm(0)),
       ir::For(j, ir::IntImm(0), ir::IntImm(4),
               ir::Store(buf, {ir::VarRef(j)}, ir::FloatImm(1)))});
  auto root = ir::For(i, ir::IntImm(0), ir::IntImm(4), body);
  EXPECT_THROW((void)ir::ReorderLoops(root, "i", "j"), ScheduleError);
}

// --- CacheRead ------------------------------------------------------------------

TEST(CacheRead, StagesWeightsOnChip) {
  auto bk = ir::BuildDenseKernel({.c1 = 16, .c2 = 8},
                                 {.cached_writes = true, .unroll_k = 4},
                                 "dense_cr");
  const auto before = ir::AnalyzeKernel(bk.kernel);
  ir::CacheRead(bk.kernel, "wt");
  const auto after = ir::AnalyzeKernel(bk.kernel);

  // The weight matrix now lives in BRAM...
  EXPECT_EQ(after.local_elems, before.local_elems + 16 * 8);
  // ...and global weight traffic collapses to the single fill pass.
  auto wt_traffic = [](const ir::KernelStats& s) {
    double total = 0;
    for (const auto& site : s.accesses) {
      if (site.buffer == "wt" && !site.is_store) {
        total += site.elems_per_invocation;
      }
    }
    return total;
  };
  // Dense weights were already streamed exactly once, so traffic is
  // unchanged (the cache still removes the global LSU from the compute
  // loop); convolutions, which re-read weights per output position, see a
  // real reduction below.
  EXPECT_EQ(wt_traffic(after), 16 * 8);
  EXPECT_GE(wt_traffic(before), wt_traffic(after));

  auto conv = ir::BuildConv2dKernel(
      {.c1 = 2, .h1 = 8, .w1 = 8, .k = 4, .f = 3, .stride = 1,
       .has_bias = false},
      {.fuse_activation = true, .cached_writes = true, .unroll_filter = true},
      "conv_cr2");
  const auto conv_before = ir::AnalyzeKernel(conv.kernel);
  ir::CacheRead(conv.kernel, "wt");
  const auto conv_after = ir::AnalyzeKernel(conv.kernel);
  EXPECT_GT(wt_traffic(conv_before), wt_traffic(conv_after));
  EXPECT_EQ(wt_traffic(conv_after), 4 * 2 * 3 * 3);

  // Semantics preserved.
  Rng rng(9);
  Tensor x = Tensor::Random(Shape{16}, rng);
  Tensor w = Tensor::Random(Shape{8, 16}, rng);
  Tensor bias = Tensor::Random(Shape{8}, rng);
  Tensor out(Shape{8});
  ir::InterpEnv env;
  env.BindBuffer(bk.input, x.data());
  env.BindBuffer(bk.weights, w.data());
  env.BindBuffer(bk.bias, bias.data());
  env.BindBuffer(bk.output, out.data());
  ir::RunKernel(bk.kernel, env);
  Tensor expected = clflow::cpu::Dense(x.Reshaped(Shape{1, 16}), w, bias,
                               Activation::kNone);
  EXPECT_LT(Tensor::MaxRelDiff(out.Reshaped(expected.shape()), expected),
            1e-5f);
}

TEST(CacheRead, RejectsWrittenOrSymbolicBuffers) {
  auto bk = ir::BuildConv2dKernel({.c1 = 2, .h1 = 6, .w1 = 6, .k = 2, .f = 3},
                                  {}, "conv_cr");
  // The naive scratchpad is written: not cacheable as a read.
  EXPECT_THROW(ir::CacheRead(bk.kernel, "scratchpad"), ScheduleError);
  EXPECT_THROW(ir::CacheRead(bk.kernel, "missing"), ScheduleError);

  auto sym = ir::BuildConv2dKernel(
      {.f = 3, .stride = 1},
      {.fuse_activation = true, .cached_writes = true, .symbolic = true},
      "conv_sym_cr");
  EXPECT_THROW(ir::CacheRead(sym.kernel, "wt"), ScheduleError);
}

// --- Parameter serialization -----------------------------------------------------

TEST(ParamsIo, TensorRoundTrip) {
  const std::string path = ::testing::TempDir() + "/t.clf";
  Rng rng(11);
  Tensor t = Tensor::Random(Shape{3, 4, 5}, rng);
  graph::SaveTensor(t, path);
  Tensor back = graph::LoadTensor(path);
  EXPECT_EQ(back.shape(), t.shape());
  EXPECT_EQ(Tensor::MaxAbsDiff(back, t), 0.0f);
}

TEST(ParamsIo, RejectsGarbageFiles) {
  const std::string path = ::testing::TempDir() + "/garbage.clf";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("not a tensor", f);
  std::fclose(f);
  EXPECT_THROW((void)graph::LoadTensor(path), Error);
  EXPECT_THROW((void)graph::LoadTensor("/nonexistent/x.clf"), Error);
}

TEST(ParamsIo, NetworkRoundTripPreservesInference) {
  const std::string dir = ::testing::TempDir() + "/lenet_params";
  std::filesystem::create_directories(dir);

  Rng rng_a(21), rng_b(22);
  graph::Graph trained = nets::BuildLeNet5(rng_a);
  graph::Graph fresh = nets::BuildLeNet5(rng_b);  // different weights

  const int files = graph::SaveParameters(trained, dir);
  EXPECT_EQ(files, 10);  // 5 parameterized layers x (w + b)
  graph::Graph restored = graph::LoadParameters(fresh, dir);

  Rng img_rng(23);
  Tensor image = nets::SyntheticMnistImage(img_rng);
  Tensor expected = graph::Execute(trained, image);
  Tensor before = graph::Execute(fresh, image);
  Tensor after = graph::Execute(restored, image);
  EXPECT_GT(Tensor::MaxAbsDiff(before, expected), 1e-4f);  // really differed
  EXPECT_EQ(Tensor::MaxAbsDiff(after, expected), 0.0f);    // fully restored
}

// --- Trace export ------------------------------------------------------------------

TEST(Trace, ExportsWellFormedChromeTrace) {
  ocl::EventPool events;
  events.Record("write_input", ocl::CommandKind::kWriteBuffer, 0,
                SimTime::Us(0), SimTime::Us(1), SimTime::Us(26),
                kSimTimeZero, 4096, 0, 0, 0);
  events.Record("k_conv\"1\"", ocl::CommandKind::kKernel, -1,
                SimTime::Us(26), SimTime::Us(26), SimTime::Us(80),
                kSimTimeZero, 0, 0, 0, 0);
  const std::string json = ocl::ExportChromeTrace(events, "lenet");
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"write_input\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"kernel\""), std::string::npos);
  // Quotes in labels are escaped; autorun maps to tid 0.
  EXPECT_NE(json.find("k_conv\\\"1\\\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":0"), std::string::npos);
  // Balanced braces (rough well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

}  // namespace
}  // namespace clflow
