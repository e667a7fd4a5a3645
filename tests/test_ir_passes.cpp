// Tests for the SplitLoop schedule primitive (paper SS4.2 as an IR rewrite):
// semantics preservation with the interpreter, and the loop structure it
// claims to establish.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ir/interp.hpp"
#include "ir/passes.hpp"

namespace clflow::ir {
namespace {

/// Builds the Listing 4.3 vector-matrix kernel: c[i] = sum_k x[k]*Y[i][k],
/// with a private accumulator.
struct MvKernel {
  Kernel kernel;
  BufferPtr x, y, c;
};

MvKernel MakeMv(std::int64_t rows, std::int64_t cols) {
  MvKernel mv;
  mv.x = MakeBuffer("x", {IntImm(cols)}, MemScope::kGlobal, true);
  mv.y = MakeBuffer("Y", {IntImm(rows), IntImm(cols)}, MemScope::kGlobal, true);
  mv.c = MakeBuffer("c", {IntImm(rows)}, MemScope::kGlobal, true);
  auto sum = MakeBuffer("sum", {IntImm(1)}, MemScope::kPrivate);
  auto i = MakeVar("i");
  auto k = MakeVar("k");
  mv.kernel.name = "mv";
  mv.kernel.buffer_args = {mv.x, mv.y, mv.c};
  mv.kernel.local_buffers = {sum};
  mv.kernel.body = For(
      i, IntImm(0), IntImm(rows),
      Block({Store(sum, {IntImm(0)}, FloatImm(0.0)),
             For(k, IntImm(0), IntImm(cols),
                 Store(sum, {IntImm(0)},
                       Add(Load(sum, {IntImm(0)}),
                           Mul(Load(mv.x, {VarRef(k)}),
                               Load(mv.y, {VarRef(i), VarRef(k)}))))),
             Store(mv.c, {VarRef(i)}, Load(sum, {IntImm(0)}))}));
  return mv;
}

std::vector<float> RunMv(const MvKernel& mv, std::int64_t rows,
                         [[maybe_unused]] std::int64_t cols,
                         const std::vector<float>& vx,
                         const std::vector<float>& vy) {
  std::vector<float> x = vx, y = vy, c(static_cast<std::size_t>(rows), -1.0f);
  InterpEnv env;
  env.BindBuffer(mv.x, x);
  env.BindBuffer(mv.y, y);
  env.BindBuffer(mv.c, c);
  RunKernel(mv.kernel, env);
  return c;
}

class SplitParam : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(SplitParam, PreservesSemantics) {
  const std::int64_t factor = GetParam();
  constexpr std::int64_t rows = 8, cols = 12;
  Rng rng(13);
  std::vector<float> vx(cols), vy(rows * cols);
  for (auto& v : vx) v = rng.Uniform(-1, 1);
  for (auto& v : vy) v = rng.Uniform(-1, 1);

  MvKernel base = MakeMv(rows, cols);
  const auto expected = RunMv(base, rows, cols, vx, vy);

  MvKernel split = MakeMv(rows, cols);
  split.kernel.body = SplitLoop(split.kernel.body, "k", factor);
  const auto actual = RunMv(split, rows, cols, vx, vy);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(actual[i], expected[i], 1e-5f);
  }
}

INSTANTIATE_TEST_SUITE_P(Factors, SplitParam,
                         ::testing::Values<std::int64_t>(1, 2, 3, 4, 6, 12));

TEST(SplitLoop, RejectsNonDividingFactor) {
  MvKernel mv = MakeMv(8, 12);
  EXPECT_THROW((void)SplitLoop(mv.kernel.body, "k", 5), ScheduleError);
}

TEST(SplitLoop, RejectsUnknownLoop) {
  MvKernel mv = MakeMv(8, 12);
  EXPECT_THROW((void)SplitLoop(mv.kernel.body, "zz", 2), ScheduleError);
}

TEST(SplitLoop, InnerLoopIsVectorized) {
  MvKernel mv = MakeMv(8, 12);
  auto split = SplitLoop(mv.kernel.body, "k", 4);
  const Stmt inner = FindLoop(split, "k_i");
  EXPECT_TRUE(inner->ann.vectorized);
  std::int64_t extent = 0;
  ASSERT_TRUE(IsConstInt(inner->extent, &extent));
  EXPECT_EQ(extent, 4);
  const Stmt outer = FindLoop(split, "k_o");
  ASSERT_TRUE(IsConstInt(outer->extent, &extent));
  EXPECT_EQ(extent, 3);
}

}  // namespace
}  // namespace clflow::ir
