// Tests for the OpenCL C emitter: the generated source must carry the
// Intel-specific constructs the thesis's listings show.
#include <gtest/gtest.h>

#include "codegen/opencl_codegen.hpp"
#include "common/error.hpp"
#include "ir/op_kernels.hpp"

namespace clflow::codegen {
namespace {

using ::testing::Test;

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

/// The right-hand side of `out[0] = value;` as EmitKernel prints it.
std::string EmitStored(const ir::Expr& value) {
  ir::Kernel k;
  k.name = "k";
  auto out = ir::MakeBuffer("out", {ir::IntImm(1)}, ir::MemScope::kGlobal,
                            /*is_arg=*/true, value->dtype);
  k.buffer_args = {out};
  k.body = ir::Store(out, {ir::IntImm(0)}, value);
  const std::string src = EmitKernel(k);
  const std::string lhs = "  out[0] = ";
  const auto begin = src.find(lhs);
  if (begin == std::string::npos) return src;
  const auto rhs = begin + lhs.size();
  return src.substr(rhs, src.find(";\n", rhs) - rhs);
}

TEST(EmitExpr, ArithmeticAndIntrinsics) {
  auto i = ir::MakeVar("i");
  EXPECT_EQ(EmitStored(ir::Add(ir::VarRef(i), ir::IntImm(3))), "(i + 3)");
  EXPECT_EQ(EmitStored(ir::Max(ir::FloatImm(0.0), ir::FloatImm(1.0))),
            "fmax(0.0f, 1.0f)");
  EXPECT_EQ(EmitStored(ir::Min(ir::IntImm(2), ir::IntImm(4))), "min(2, 4)");
  EXPECT_EQ(EmitStored(ir::CallIntrinsic("exp", {ir::FloatImm(1.0)})),
            "exp(1.0f)");
  // Negative literals print with their sign attached.
  EXPECT_EQ(EmitStored(ir::Mul(ir::VarRef(i), ir::IntImm(-2))), "(i * -2)");
  EXPECT_EQ(EmitStored(ir::Max(ir::FloatImm(-0.5), ir::FloatImm(1.0))),
            "fmax(-0.5f, 1.0f)");
}

TEST(EmitExpr, SelectBecomesTernary) {
  auto i = ir::MakeVar("i");
  auto e = ir::Select(ir::Binary(ir::BinOp::kGe, ir::VarRef(i), ir::IntImm(2)),
                      ir::FloatImm(1.0), ir::FloatImm(0.0));
  EXPECT_EQ(EmitStored(e), "((i >= 2) ? 1.0f : 0.0f)");
}

TEST(EmitKernel, NaiveConvLooksLikeListing51) {
  auto bk = ir::BuildConv2dKernel(
      {.c1 = 4, .h1 = 8, .w1 = 8, .k = 2, .f = 3, .stride = 1,
       .has_bias = false, .activation = Activation::kRelu},
      {}, "conv2d_base");
  const std::string src = EmitKernel(bk.kernel);
  EXPECT_TRUE(Contains(src, "__kernel void conv2d_base("));
  EXPECT_TRUE(Contains(src, "__global float* restrict scratchpad"));
  EXPECT_TRUE(Contains(src, "__global const float* restrict in_fm"));
  EXPECT_TRUE(Contains(src, "for (int ax1 = 0; ax1 < 2; ++ax1)"));
  // Global accesses are linearized to flat pointers.
  EXPECT_FALSE(Contains(src, "in_fm[rc]["));
  EXPECT_TRUE(Contains(src, "fmax("));  // relu
}

TEST(EmitKernel, UnrolledLoopsGetPragmas) {
  auto bk = ir::BuildConv2dKernel(
      {.c1 = 4, .h1 = 8, .w1 = 8, .k = 2, .f = 3, .stride = 1,
       .has_bias = false},
      {.fuse_activation = true, .cached_writes = true, .unroll_filter = true,
       .tile_c1 = 2},
      "conv2d_opt");
  const std::string src = EmitKernel(bk.kernel);
  EXPECT_TRUE(Contains(src, "#pragma unroll\n"));
  // The private accumulator is a plain array declaration.
  EXPECT_TRUE(Contains(src, "float conv2d_opt_tmp[1][1];"));
}

TEST(EmitKernel, SymbolicKernelsTakeIntArguments) {
  auto bk = ir::BuildConv2dKernel(
      {.f = 3, .stride = 1, .has_bias = false},
      {.fuse_activation = true, .cached_writes = true, .unroll_filter = true,
       .symbolic = true},
      "conv2d_sym");
  const std::string src = EmitKernel(bk.kernel);
  EXPECT_TRUE(Contains(src, "int rc_dim"));
  EXPECT_TRUE(Contains(src, "int xx_dim"));
  EXPECT_TRUE(Contains(src, "int ff_dim"));
  EXPECT_TRUE(Contains(src, "int act_sel"));
  EXPECT_TRUE(Contains(src, "int in_fm_s0"));  // symbolic strides
}

TEST(EmitKernel, StridePinningRemovesInnermostStrideArg) {
  auto bk = ir::BuildConv2dKernel(
      {.f = 3, .stride = 1, .has_bias = false},
      {.fuse_activation = true, .cached_writes = true, .unroll_filter = true,
       .symbolic = true, .pin_strides = true},
      "conv2d_pinned");
  const std::string src = EmitKernel(bk.kernel);
  EXPECT_TRUE(Contains(src, "int in_fm_s0"));
  EXPECT_TRUE(Contains(src, "int in_fm_s1"));
  EXPECT_FALSE(Contains(src, "int in_fm_s2"));  // pinned to 1 (Listing 5.11)
}

TEST(EmitProgram, DeclaresChannelsOnce) {
  auto c0 = ir::MakeBuffer("c0", {ir::IntImm(1)}, ir::MemScope::kChannel);
  c0->channel_depth = 64;
  auto producer = ir::BuildCopyKernel(16, "producer", {.input = nullptr, .output = c0});
  auto consumer = ir::BuildCopyKernel(16, "consumer", {.input = c0, .output = nullptr});
  const std::string src =
      EmitProgram({&producer.kernel, &consumer.kernel});
  EXPECT_TRUE(
      Contains(src, "#pragma OPENCL EXTENSION cl_intel_channels : enable"));
  // Declared exactly once, with its depth attribute.
  const std::string decl = "channel float c0 __attribute__((depth(64)));";
  const auto first = src.find(decl);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(src.find(decl, first + 1), std::string::npos);
  EXPECT_TRUE(Contains(src, "write_channel_intel(c0,"));
  EXPECT_TRUE(Contains(src, "read_channel_intel(c0)"));
}

TEST(EmitProgram, ChannelDeclarationUsesChannelDtype) {
  // Regression: the declaration loop once printed `channel float` for
  // every channel regardless of its dtype, silently reinterpreting
  // integer payloads. srclint re-detects this class from the source
  // (CLF804, see test_srclint.cpp); this pins the emitter itself.
  auto ci = ir::MakeBuffer("ch_i", {ir::IntImm(1)}, ir::MemScope::kChannel,
                           /*is_arg=*/false, ir::ScalarType::kInt32);
  ci->channel_depth = 4;
  auto producer =
      ir::BuildCopyKernel(16, "iprod", {.input = nullptr, .output = ci});
  auto consumer =
      ir::BuildCopyKernel(16, "icons", {.input = ci, .output = nullptr});
  const std::string src = EmitProgram({&producer.kernel, &consumer.kernel});
  EXPECT_TRUE(Contains(src, "channel int ch_i __attribute__((depth(4)));"));
  EXPECT_FALSE(Contains(src, "channel float ch_i"));
}

/// A channel endpoint: each call is a distinct object, as two kernels
/// planned (or memoized) apart hold.
ir::BufferPtr Channel(const std::string& name, std::int64_t depth,
                      ir::ScalarType dtype = ir::ScalarType::kFloat32) {
  auto c = ir::MakeBuffer(name, {ir::IntImm(1)}, ir::MemScope::kChannel,
                          /*is_arg=*/false, dtype);
  c->channel_depth = depth;
  return c;
}

TEST(EmitProgram, DeclaresChannelsByNameInFirstUseOrder) {
  // The channels are allocated in the opposite order to their use, and
  // every kernel holds its own endpoint objects. Declarations still come
  // out once per name, in the order the kernels first use them.
  const ir::BufferPtr late = Channel("ch_a", 8);
  const ir::BufferPtr early = Channel("ch_z", 4);
  auto k0 = ir::BuildCopyKernel(4, "k0", {.input = nullptr, .output = early});
  auto k1 = ir::BuildCopyKernel(
      4, "k1", {.input = Channel("ch_z", 4), .output = late});
  auto k2 = ir::BuildCopyKernel(
      4, "k2", {.input = Channel("ch_a", 8), .output = nullptr});
  const srclint::SrcProgram program =
      BuildProgram({&k0.kernel, &k1.kernel, &k2.kernel});
  ASSERT_EQ(program.channels.size(), 2u);
  EXPECT_EQ(program.channels[0].name, "ch_z");
  EXPECT_EQ(program.channels[0].depth, 4);
  EXPECT_EQ(program.channels[1].name, "ch_a");
  EXPECT_EQ(program.channels[1].depth, 8);
  EXPECT_TRUE(program.channels_extension);
}

TEST(EmitProgram, OneChannelNameWithTwoDepthsOrTypesThrows) {
  auto producer = ir::BuildCopyKernel(
      4, "producer", {.input = nullptr, .output = Channel("ch", 4)});
  auto deeper = ir::BuildCopyKernel(
      4, "deeper", {.input = Channel("ch", 8), .output = nullptr});
  EXPECT_THROW((void)BuildProgram({&producer.kernel, &deeper.kernel}),
               IrError);
  auto retyped = ir::BuildCopyKernel(
      4, "retyped",
      {.input = Channel("ch", 4, ir::ScalarType::kInt32), .output = nullptr});
  EXPECT_THROW((void)BuildProgram({&producer.kernel, &retyped.kernel}),
               IrError);
  auto same = ir::BuildCopyKernel(
      4, "same", {.input = Channel("ch", 4), .output = nullptr});
  EXPECT_EQ(ir::ProgramChannels({&producer.kernel, &same.kernel}).size(), 1u);
}

TEST(EmitProgram, AutorunAttributesEmitted) {
  auto cin = ir::MakeBuffer("ci", {ir::IntImm(1)}, ir::MemScope::kChannel);
  auto cout = ir::MakeBuffer("co", {ir::IntImm(1)}, ir::MemScope::kChannel);
  auto bk = ir::BuildCopyKernel(8, "passthrough",
                                {.input = cin, .output = cout});
  bk.kernel.autorun = true;
  const std::string src = EmitProgram({&bk.kernel});
  EXPECT_TRUE(Contains(src, "__attribute__((max_global_work_dim(0)))"));
  EXPECT_TRUE(Contains(src, "__attribute__((autorun))"));
}

TEST(EmitProgram, NoChannelsNoExtensionPragma) {
  auto bk = ir::BuildCopyKernel(8, "plain");
  const std::string src = EmitProgram({&bk.kernel});
  EXPECT_FALSE(Contains(src, "cl_intel_channels"));
}

TEST(EmitKernel, LocalBuffersDeclaredLocal) {
  auto cin = ir::MakeBuffer("ci", {ir::IntImm(1)}, ir::MemScope::kChannel);
  auto bk = ir::BuildSoftmaxKernel({.n = 16}, /*optimized=*/true, "sm",
                                   {.input = cin, .output = nullptr});
  const std::string src = EmitKernel(bk.kernel);
  EXPECT_TRUE(Contains(src, "__local float sm_xcache[16];"));
}

TEST(EmitKernel, PadUsesDivModAddressing) {
  auto bk = ir::BuildPadKernel({.c = 2, .h1 = 4, .w1 = 4, .pad = 1}, "pad");
  const std::string src = EmitKernel(bk.kernel);
  EXPECT_TRUE(Contains(src, "/"));
  EXPECT_TRUE(Contains(src, "%"));
  EXPECT_TRUE(Contains(src, "?"));  // select
}

}  // namespace
}  // namespace clflow::codegen
