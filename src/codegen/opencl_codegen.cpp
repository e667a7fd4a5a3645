#include "codegen/opencl_codegen.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "common/error.hpp"

namespace clflow::codegen {

namespace {

using ir::BinOp;
using ir::ExprKind;
using ir::MemScope;
using ir::ScalarType;
using ir::StmtKind;
using srclint::Args;
using srclint::SrcExprPtr;
using srclint::SrcStmt;
using srclint::SrcStmtKind;
using srclint::SrcStmtPtr;

/// The OpenCL C spelling of a scalar type, shared by parameters, locals
/// and channel declarations so every emission site agrees on it.
std::string_view ClTypeName(ScalarType t) {
  return t == ScalarType::kFloat32 ? "float" : "int";
}

/// A float literal split as the parser reads it: sign, then the unsigned
/// spelling and the value a reader of that spelling gets back.
struct FloatSpelling {
  std::string text;
  double value = 0.0;
  bool negative = false;
};

/// Formatted float literal, memoized per distinct value per thread: the
/// same constants (0.0f activation clamps, pool divisors, quant scales)
/// recur across every kernel of a sweep, and snprintf dominates the cost
/// of emitting them.
const FloatSpelling& FloatLiteral(double v) {
  thread_local std::unordered_map<std::uint64_t, FloatSpelling> memo;
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  const auto [it, fresh] = memo.try_emplace(bits);
  if (!fresh) return it->second;
  // "%.9g" matches ostringstream with precision(9) (default float
  // format), which the golden tests pin down.
  char buf[44];
  int n = std::snprintf(buf, sizeof(buf) - 4, "%.9g", v);
  const std::string_view mantissa(buf, static_cast<std::size_t>(n));
  if (mantissa.find('.') == std::string_view::npos &&
      mantissa.find('e') == std::string_view::npos) {
    buf[n++] = '.';
    buf[n++] = '0';
  }
  buf[n] = '\0';
  FloatSpelling& f = it->second;
  f.negative = buf[0] == '-';
  const char* digits = buf + (f.negative ? 1 : 0);
  f.value = std::strtod(digits, nullptr);
  f.text = std::string(digits) + 'f';
  return f;
}

/// Global buffers are flat pointers in OpenCL C: multi-dimensional
/// accesses are linearized (with explicit strides when present). Local
/// and private arrays keep their array-of-array form.
std::vector<ir::Expr> LinearizedIndices(const ir::BufferPtr& buffer,
                                        const std::vector<ir::Expr>& indices) {
  if (buffer->scope == MemScope::kLocal ||
      buffer->scope == MemScope::kPrivate) {
    return indices;
  }
  ir::Expr flat = ir::IntImm(0);
  for (std::size_t d = 0; d < indices.size(); ++d) {
    flat = buffer->strides.empty()
               ? ir::Add(ir::Mul(flat, buffer->shape[d]), indices[d])
               : ir::Add(flat, ir::Mul(indices[d], buffer->strides[d]));
  }
  return {ir::Simplify(flat)};
}

SrcExprPtr BuildExpr(const ir::Expr& e);

/// buffer[i0][i1]... as the source spells the access.
SrcExprPtr Access(const ir::BufferPtr& buffer,
                  const std::vector<ir::Expr>& indices) {
  const std::vector<ir::Expr> flat = LinearizedIndices(buffer, indices);
  std::vector<SrcExprPtr> idx;
  idx.reserve(flat.size() + 1);  // Index puts the base in front
  for (const auto& i : flat) idx.push_back(BuildExpr(i));
  return srclint::Index(srclint::Ident(buffer->name), std::move(idx));
}

SrcExprPtr BuildBinary(const ir::Expr& e) {
  const bool is_float = e->dtype == ScalarType::kFloat32;
  const char* op = nullptr;
  switch (e->op) {
    case BinOp::kMin:
    case BinOp::kMax:
      return srclint::Call(e->op == BinOp::kMin ? (is_float ? "fmin" : "min")
                                                : (is_float ? "fmax" : "max"),
                           Args(BuildExpr(e->a), BuildExpr(e->b)));
    case BinOp::kAdd: op = "+"; break;
    case BinOp::kSub: op = "-"; break;
    case BinOp::kMul: op = "*"; break;
    case BinOp::kDiv: op = "/"; break;
    case BinOp::kMod: op = "%"; break;
    case BinOp::kLt: op = "<"; break;
    case BinOp::kGe: op = ">="; break;
    case BinOp::kEq: op = "=="; break;
    case BinOp::kAnd: op = "&&"; break;
    default:
      throw IrError("codegen: bad binary op");
  }
  return srclint::Bin(op, BuildExpr(e->a), BuildExpr(e->b));
}

SrcExprPtr BuildExpr(const ir::Expr& e) {
  switch (e->kind) {
    case ExprKind::kIntImm:
      return srclint::Int(e->int_value);
    case ExprKind::kFloatImm: {
      const FloatSpelling& f = FloatLiteral(e->float_value);
      SrcExprPtr lit = srclint::Float(f.text, f.value);
      return f.negative ? srclint::Unary("-", std::move(lit)) : std::move(lit);
    }
    case ExprKind::kVar:
      return srclint::Ident(e->var->name);
    case ExprKind::kBinary:
      return BuildBinary(e);
    case ExprKind::kLoad:
      return Access(e->buffer, e->indices);
    case ExprKind::kCall: {
      if (e->callee == "read_channel") {
        return srclint::Call("read_channel_intel",
                             Args(srclint::Ident(e->buffer->name)));
      }
      std::vector<SrcExprPtr> args;
      args.reserve(e->args.size());
      for (const auto& a : e->args) args.push_back(BuildExpr(a));
      return srclint::Call(e->callee, std::move(args));
    }
    case ExprKind::kSelect:
      return srclint::Ternary(BuildExpr(e->a), BuildExpr(e->b),
                              BuildExpr(e->c));
  }
  throw IrError("codegen: bad expression");
}

/// Appends `s` to `out`; blocks flatten into the enclosing body.
void BuildStmt(const ir::Stmt& s, std::vector<SrcStmtPtr>& out) {
  if (!s) return;
  if (s->kind == StmtKind::kBlock) {
    for (const auto& child : s->stmts) BuildStmt(child, out);
    return;
  }
  auto st = std::make_unique<SrcStmt>();
  switch (s->kind) {
    case StmtKind::kFor:
      st->kind = SrcStmtKind::kFor;
      st->loop_var = s->var->name;
      st->init = BuildExpr(s->min);
      st->bound = BuildExpr(ir::Simplify(ir::Add(s->min, s->extent)));
      if (s->ann.unroll == -1 || s->ann.vectorized) {
        st->unroll = -1;
      } else if (s->ann.unroll > 1) {
        st->unroll = s->ann.unroll;
      }
      BuildStmt(s->body, st->body);
      break;
    case StmtKind::kStore:
      st->kind = SrcStmtKind::kAssign;
      st->target = Access(s->buffer, s->indices);
      st->value = BuildExpr(s->value);
      break;
    case StmtKind::kIf:
      st->kind = SrcStmtKind::kIf;
      st->cond = BuildExpr(s->cond);
      BuildStmt(s->then_body, st->then_body);
      BuildStmt(s->else_body, st->else_body);
      break;
    case StmtKind::kWriteChannel:
      st->kind = SrcStmtKind::kCallStmt;
      st->call = srclint::Call(
          "write_channel_intel",
          Args(srclint::Ident(s->buffer->name), BuildExpr(s->value)));
      break;
    case StmtKind::kBlock:  // flattened above
      return;
  }
  out.push_back(std::move(st));
}

}  // namespace

srclint::SrcKernel BuildKernel(const ir::Kernel& k) {
  k.Validate();
  // Collect buffers that are only read (for const qualification).
  std::unordered_set<const ir::BufferNode*> stored;
  ir::VisitStmts(k.body, [&](const ir::Stmt& s) {
    if (s->kind == StmtKind::kStore) stored.insert(s->buffer.get());
  });

  srclint::SrcKernel out;
  out.name = k.name;
  out.attr_autorun = k.autorun;
  out.attr_max_global_work_dim0 = k.autorun;
  out.params.reserve(k.buffer_args.size() + k.scalar_args.size());
  out.locals.reserve(k.local_buffers.size());
  for (const auto& b : k.buffer_args) {
    srclint::SrcParam& p = out.params.emplace_back();
    p.is_pointer = true;
    p.constant_space = b->scope == MemScope::kConstant;
    p.is_const = stored.find(b.get()) == stored.end();
    p.is_restrict = true;
    p.type = ClTypeName(b->dtype);
    p.name = b->name;
  }
  for (const auto& v : k.scalar_args) {
    srclint::SrcParam& p = out.params.emplace_back();
    p.type = "int";
    p.name = v->name;
  }
  for (const auto& b : k.local_buffers) {
    srclint::SrcLocalDecl& d = out.locals.emplace_back();
    d.local = b->scope == MemScope::kLocal;
    d.type = ClTypeName(b->dtype);
    d.name = b->name;
    for (const auto& dim : b->shape) d.dims.push_back(BuildExpr(dim));
  }
  BuildStmt(k.body, out.body);
  return out;
}

srclint::SrcProgram BuildProgram(
    const std::vector<const ir::Kernel*>& kernels) {
  srclint::SrcProgram program;
  const std::vector<ir::BufferPtr> channels = ir::ProgramChannels(kernels);
  program.channels_extension = !channels.empty();
  for (const auto& c : channels) {
    // The element type follows the channel buffer's dtype: a quantized
    // (int) channel declared "channel float" compiles under AOC but
    // reinterprets every payload -- exactly the emitter-trusted-blindly
    // class of bug srclint's CLF804 cross-check exists to catch.
    srclint::SrcChannelDecl& decl = program.channels.emplace_back();
    decl.type = ClTypeName(c->dtype);
    decl.name = c->name;
    decl.depth = std::max<std::int64_t>(c->channel_depth, 0);
  }
  program.kernels.reserve(kernels.size());
  for (const auto* k : kernels) program.kernels.push_back(BuildKernel(*k));
  return program;
}

std::string EmitKernel(const ir::Kernel& kernel) {
  srclint::SrcProgram program;
  program.kernels.push_back(BuildKernel(kernel));
  return srclint::ToSource(program);
}

std::string EmitProgram(const std::vector<const ir::Kernel*>& kernels) {
  return srclint::ToSource(BuildProgram(kernels));
}

}  // namespace clflow::codegen
