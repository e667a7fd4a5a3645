// Unit tests for IR expressions, statements, and the interpreter.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "ir/interp.hpp"
#include "ir/passes.hpp"
#include "ir/stmt.hpp"

namespace clflow::ir {
namespace {

TEST(Expr, ConstFolding) {
  auto e = Simplify(Add(IntImm(2), Mul(IntImm(3), IntImm(4))));
  std::int64_t v = 0;
  ASSERT_TRUE(IsConstInt(e, &v));
  EXPECT_EQ(v, 14);
}

TEST(Expr, AlgebraicIdentities) {
  auto x = MakeVar("x");
  std::int64_t v = 0;
  // x * 1 -> x
  auto e1 = Simplify(Mul(VarRef(x), IntImm(1)));
  EXPECT_EQ(e1->kind, ExprKind::kVar);
  // x + 0 -> x
  auto e2 = Simplify(Add(VarRef(x), IntImm(0)));
  EXPECT_EQ(e2->kind, ExprKind::kVar);
  // x * 0 -> 0
  auto e3 = Simplify(Mul(VarRef(x), IntImm(0)));
  ASSERT_TRUE(IsConstInt(e3, &v));
  EXPECT_EQ(v, 0);
  // x / 1 -> x
  auto e4 = Simplify(Div(VarRef(x), IntImm(1)));
  EXPECT_EQ(e4->kind, ExprKind::kVar);
}

TEST(Expr, DivModFolding) {
  std::int64_t v = 0;
  ASSERT_TRUE(IsConstInt(Simplify(Div(IntImm(17), IntImm(5))), &v));
  EXPECT_EQ(v, 3);
  ASSERT_TRUE(IsConstInt(Simplify(Mod(IntImm(17), IntImm(5))), &v));
  EXPECT_EQ(v, 2);
}

TEST(Expr, MinMaxFolding) {
  std::int64_t v = 0;
  ASSERT_TRUE(IsConstInt(Simplify(Min(IntImm(3), IntImm(7))), &v));
  EXPECT_EQ(v, 3);
  ASSERT_TRUE(IsConstInt(Simplify(Max(IntImm(3), IntImm(7))), &v));
  EXPECT_EQ(v, 7);
}

TEST(Expr, SubstituteReplacesVariable) {
  auto x = MakeVar("x");
  auto y = MakeVar("y");
  auto e = Add(Mul(VarRef(x), IntImm(4)), VarRef(y));
  auto sub = Simplify(Substitute(e, x, IntImm(3)));
  // 3*4 + y -> 12 + y
  EXPECT_EQ(ToString(sub), "(12 + y)");
}

TEST(Expr, DtypePropagation) {
  auto f = Mul(FloatImm(2.0), FloatImm(3.0));
  EXPECT_EQ(f->dtype, ScalarType::kFloat32);
  auto i = Mul(IntImm(2), IntImm(3));
  EXPECT_EQ(i->dtype, ScalarType::kInt32);
  auto cmp = Binary(BinOp::kLt, FloatImm(1.0), FloatImm(2.0));
  EXPECT_EQ(cmp->dtype, ScalarType::kInt32);
}

TEST(Expr, LoadArityChecked) {
  auto buf = MakeBuffer("b", {IntImm(4), IntImm(4)});
  EXPECT_THROW((void)Load(buf, {IntImm(0)}), Error);
}

TEST(Stmt, StoreArityChecked) {
  auto buf = MakeBuffer("b", {IntImm(4)});
  EXPECT_THROW((void)Store(buf, {IntImm(0), IntImm(1)}, FloatImm(0)), Error);
}

TEST(Stmt, PrinterShowsAnnotations) {
  auto i = MakeVar("i");
  auto buf = MakeBuffer("b", {IntImm(8)});
  ForAnnotation ann;
  ann.unroll = -1;
  auto loop = For(i, IntImm(0), IntImm(8),
                  Store(buf, {VarRef(i)}, FloatImm(1.0)), ann);
  EXPECT_NE(ToString(loop).find("[unroll]"), std::string::npos);
}

TEST(Kernel, ValidateRejectsAutorunWithArgs) {
  Kernel k;
  k.name = "bad";
  auto buf = MakeBuffer("b", {IntImm(4)}, MemScope::kGlobal, true);
  k.buffer_args.push_back(buf);
  auto i = MakeVar("i");
  k.body = For(i, IntImm(0), IntImm(4), Store(buf, {VarRef(i)}, FloatImm(0)));
  k.autorun = true;
  EXPECT_THROW(k.Validate(), IrError);
  k.autorun = false;
  EXPECT_NO_THROW(k.Validate());
}

TEST(Kernel, ValidateRejectsUndeclaredBuffers) {
  Kernel k;
  k.name = "bad";
  auto declared = MakeBuffer("a", {IntImm(4)}, MemScope::kGlobal, true);
  auto rogue = MakeBuffer("rogue", {IntImm(4)}, MemScope::kGlobal, true);
  k.buffer_args.push_back(declared);
  auto i = MakeVar("i");
  k.body = For(i, IntImm(0), IntImm(4),
               Store(declared, {VarRef(i)}, Load(rogue, {VarRef(i)})));
  EXPECT_THROW(k.Validate(), IrError);
}

// --- Interpreter ------------------------------------------------------------

TEST(Interp, VectorAdd) {
  // Listing 4.1: c[i] = a[i] + b[i].
  auto a = MakeBuffer("a", {IntImm(8)}, MemScope::kGlobal, true);
  auto b = MakeBuffer("b", {IntImm(8)}, MemScope::kGlobal, true);
  auto c = MakeBuffer("c", {IntImm(8)}, MemScope::kGlobal, true);
  auto i = MakeVar("i");
  Kernel k;
  k.name = "vadd";
  k.buffer_args = {a, b, c};
  k.body = For(i, IntImm(0), IntImm(8),
               Store(c, {VarRef(i)},
                     Add(Load(a, {VarRef(i)}), Load(b, {VarRef(i)}))));

  std::vector<float> va{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<float> vb{10, 20, 30, 40, 50, 60, 70, 80};
  std::vector<float> vc(8, 0.0f);
  InterpEnv env;
  env.BindBuffer(a, va);
  env.BindBuffer(b, vb);
  env.BindBuffer(c, vc);
  RunKernel(k, env);
  for (int j = 0; j < 8; ++j) EXPECT_FLOAT_EQ(vc[j], 11.0f * (j + 1));
}

TEST(Interp, MatrixVectorListing43) {
  // Listing 4.3: c = Yx with 4x3 Y.
  auto x = MakeBuffer("x", {IntImm(3)}, MemScope::kGlobal, true);
  auto y = MakeBuffer("Y", {IntImm(4), IntImm(3)}, MemScope::kGlobal, true);
  auto c = MakeBuffer("c", {IntImm(4)}, MemScope::kGlobal, true);
  auto sum = MakeBuffer("sum", {IntImm(1)}, MemScope::kPrivate);
  auto i = MakeVar("i");
  auto kk = MakeVar("k");
  Kernel k;
  k.name = "mv";
  k.buffer_args = {x, y, c};
  k.local_buffers = {sum};
  k.body = For(
      i, IntImm(0), IntImm(4),
      Block({Store(sum, {IntImm(0)}, FloatImm(0.0)),
             For(kk, IntImm(0), IntImm(3),
                 Store(sum, {IntImm(0)},
                       Add(Load(sum, {IntImm(0)}),
                           Mul(Load(x, {VarRef(kk)}),
                               Load(y, {VarRef(i), VarRef(kk)}))))),
             Store(c, {VarRef(i)}, Load(sum, {IntImm(0)}))}));

  std::vector<float> vx{1, 2, 3};
  std::vector<float> vy{1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1};
  std::vector<float> vc(4, -1.0f);
  InterpEnv env;
  env.BindBuffer(x, vx);
  env.BindBuffer(y, vy);
  env.BindBuffer(c, vc);
  RunKernel(k, env);
  EXPECT_FLOAT_EQ(vc[0], 1);
  EXPECT_FLOAT_EQ(vc[1], 2);
  EXPECT_FLOAT_EQ(vc[2], 3);
  EXPECT_FLOAT_EQ(vc[3], 6);
}

TEST(Interp, ChannelsConnectKernels) {
  // Listing 4.13: A writes a[i]+1 into c0; B multiplies by 0.35 into c1;
  // C divides by -1.1 into d.
  auto a = MakeBuffer("a", {IntImm(8)}, MemScope::kGlobal, true);
  auto d = MakeBuffer("d", {IntImm(8)}, MemScope::kGlobal, true);
  auto c0 = MakeBuffer("c0", {IntImm(1)}, MemScope::kChannel);
  auto c1 = MakeBuffer("c1", {IntImm(1)}, MemScope::kChannel);
  c1->channel_depth = 8;

  auto i = MakeVar("i");
  Kernel ka;
  ka.name = "A";
  ka.buffer_args = {a};
  ka.channels_written = {c0};
  ka.body = For(i, IntImm(0), IntImm(8),
                WriteChannel(c0, Add(Load(a, {VarRef(i)}), FloatImm(1.0))));

  auto j = MakeVar("i");
  Kernel kb;
  kb.name = "B";
  kb.channels_read = {c0};
  kb.channels_written = {c1};
  kb.autorun = true;
  kb.body = For(j, IntImm(0), IntImm(8),
                WriteChannel(c1, Mul(ReadChannel(c0), FloatImm(0.35))));

  auto m = MakeVar("i");
  Kernel kc;
  kc.name = "C";
  kc.buffer_args = {d};
  kc.channels_read = {c1};
  kc.body = For(m, IntImm(0), IntImm(8),
                Store(d, {VarRef(m)},
                      Div(ReadChannel(c1), FloatImm(-1.1))));

  std::vector<float> va{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<float> vd(8, 0.0f);
  InterpEnv env;
  env.BindBuffer(a, va);
  env.BindBuffer(d, vd);
  RunKernel(ka, env);
  RunKernel(kb, env);
  RunKernel(kc, env);
  for (int t = 0; t < 8; ++t) {
    EXPECT_NEAR(vd[t], (va[t] + 1.0f) * 0.35f / -1.1f, 1e-6f);
  }
  EXPECT_EQ(env.PendingChannelElements(), 0u);
}

TEST(Interp, ChannelIsItsName) {
  // Producer and consumer hold distinct channel objects with one name, as
  // kernels memoized by different deployments do: the FIFO belongs to the
  // name, so the consumer reads what the producer wrote.
  auto a = MakeBuffer("a", {IntImm(4)}, MemScope::kGlobal, true);
  auto d = MakeBuffer("d", {IntImm(4)}, MemScope::kGlobal, true);
  auto written = MakeBuffer("c", {IntImm(1)}, MemScope::kChannel);
  auto read = MakeBuffer("c", {IntImm(1)}, MemScope::kChannel);
  ASSERT_NE(written.get(), read.get());

  auto i = MakeVar("i");
  Kernel producer;
  producer.name = "producer";
  producer.buffer_args = {a};
  producer.channels_written = {written};
  producer.body = For(i, IntImm(0), IntImm(4),
                      WriteChannel(written, Load(a, {VarRef(i)})));
  auto j = MakeVar("j");
  Kernel consumer;
  consumer.name = "consumer";
  consumer.buffer_args = {d};
  consumer.channels_read = {read};
  consumer.body = For(j, IntImm(0), IntImm(4),
                      Store(d, {VarRef(j)}, ReadChannel(read)));

  std::vector<float> va{1, 2, 3, 4};
  std::vector<float> vd(4, 0.0f);
  InterpEnv env;
  env.BindBuffer(a, va);
  env.BindBuffer(d, vd);
  RunKernel(producer, env);
  RunKernel(consumer, env);
  EXPECT_EQ(vd, va);
  EXPECT_EQ(env.PendingChannelElements(), 0u);
}

TEST(Interp, ReadFromEmptyChannelThrows) {
  auto chan = MakeBuffer("c", {IntImm(1)}, MemScope::kChannel);
  auto out = MakeBuffer("o", {IntImm(1)}, MemScope::kGlobal, true);
  Kernel k;
  k.name = "consumer";
  k.buffer_args = {out};
  k.channels_read = {chan};
  k.body = Store(out, {IntImm(0)}, ReadChannel(chan));
  std::vector<float> vo(1);
  InterpEnv env;
  env.BindBuffer(out, vo);
  EXPECT_THROW(RunKernel(k, env), IrError);
}

TEST(Interp, SymbolicShapesNeedBindings) {
  auto n = MakeVar("n", VarKind::kShapeParam);
  auto buf = MakeBuffer("b", {VarRef(n)}, MemScope::kGlobal, true);
  auto i = MakeVar("i");
  Kernel k;
  k.name = "fill";
  k.buffer_args = {buf};
  k.scalar_args = {n};
  k.body = For(i, IntImm(0), VarRef(n), Store(buf, {VarRef(i)}, FloatImm(2)));

  std::vector<float> v(5, 0.0f);
  InterpEnv env;
  env.BindBuffer(buf, v);
  EXPECT_THROW(RunKernel(k, env), IrError);  // n unbound
  env.BindVar(n, 5);
  RunKernel(k, env);
  for (float e : v) EXPECT_FLOAT_EQ(e, 2.0f);
}

TEST(Interp, SelectAndIf) {
  auto buf = MakeBuffer("b", {IntImm(4)}, MemScope::kGlobal, true);
  auto i = MakeVar("i");
  // b[i] = i >= 2 ? 1 : 0
  Kernel k;
  k.name = "sel";
  k.buffer_args = {buf};
  k.body = For(i, IntImm(0), IntImm(4),
               Store(buf, {VarRef(i)},
                     Select(Binary(BinOp::kGe, VarRef(i), IntImm(2)),
                            FloatImm(1.0), FloatImm(0.0))));
  std::vector<float> v(4);
  InterpEnv env;
  env.BindBuffer(buf, v);
  RunKernel(k, env);
  EXPECT_FLOAT_EQ(v[0], 0);
  EXPECT_FLOAT_EQ(v[1], 0);
  EXPECT_FLOAT_EQ(v[2], 1);
  EXPECT_FLOAT_EQ(v[3], 1);
}

TEST(Interp, ExpIntrinsic) {
  auto in = MakeBuffer("x", {IntImm(1)}, MemScope::kGlobal, true);
  auto out = MakeBuffer("y", {IntImm(1)}, MemScope::kGlobal, true);
  Kernel k;
  k.name = "e";
  k.buffer_args = {in, out};
  k.body = Store(out, {IntImm(0)},
                 CallIntrinsic("exp", {Load(in, {IntImm(0)})}));
  std::vector<float> vi{1.5f}, vo{0.0f};
  InterpEnv env;
  env.BindBuffer(in, vi);
  env.BindBuffer(out, vo);
  RunKernel(k, env);
  EXPECT_NEAR(vo[0], std::exp(1.5f), 1e-5f);
}

}  // namespace
}  // namespace clflow::ir
