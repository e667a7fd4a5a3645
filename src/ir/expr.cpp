#include "ir/expr.hpp"

#include <sstream>

#include "common/arena.hpp"
#include "common/error.hpp"

namespace clflow::ir {

std::string_view ScalarTypeName(ScalarType t) {
  switch (t) {
    case ScalarType::kFloat32:
      return "float";
    case ScalarType::kInt32:
      return "int";
  }
  return "?";
}

std::string_view MemScopeName(MemScope scope) {
  switch (scope) {
    case MemScope::kGlobal:
      return "global";
    case MemScope::kConstant:
      return "constant";
    case MemScope::kLocal:
      return "local";
    case MemScope::kPrivate:
      return "private";
    case MemScope::kChannel:
      return "channel";
  }
  return "?";
}

std::string_view BinOpName(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "/";
    case BinOp::kMod: return "%";
    case BinOp::kMin: return "min";
    case BinOp::kMax: return "max";
    case BinOp::kLt: return "<";
    case BinOp::kGe: return ">=";
    case BinOp::kEq: return "==";
    case BinOp::kAnd: return "&&";
  }
  return "?";
}

VarPtr MakeVar(std::string name, VarKind kind) {
  auto v = common::MakeArenaShared<VarNode>();
  v->name = std::move(name);
  v->kind = kind;
  return v;
}

BufferPtr MakeBuffer(std::string name, std::vector<Expr> shape, MemScope scope,
                     bool is_arg, ScalarType dtype) {
  auto b = common::MakeArenaShared<BufferNode>();
  b->name = std::move(name);
  b->shape = std::move(shape);
  b->scope = scope;
  b->is_arg = is_arg;
  b->dtype = dtype;
  return b;
}

Expr IntImm(std::int64_t v) {
  auto e = common::MakeArenaShared<ExprNode>();
  e->kind = ExprKind::kIntImm;
  e->dtype = ScalarType::kInt32;
  e->int_value = v;
  return e;
}

Expr FloatImm(double v) {
  auto e = common::MakeArenaShared<ExprNode>();
  e->kind = ExprKind::kFloatImm;
  e->dtype = ScalarType::kFloat32;
  e->float_value = v;
  return e;
}

Expr VarRef(const VarPtr& var) {
  CLFLOW_CHECK(var != nullptr);
  auto e = common::MakeArenaShared<ExprNode>();
  e->kind = ExprKind::kVar;
  e->dtype = ScalarType::kInt32;
  e->var = var;
  return e;
}

Expr Binary(BinOp op, Expr a, Expr b) {
  CLFLOW_CHECK(a && b);
  auto e = common::MakeArenaShared<ExprNode>();
  e->kind = ExprKind::kBinary;
  e->op = op;
  const bool is_cmp = op == BinOp::kLt || op == BinOp::kGe ||
                      op == BinOp::kEq || op == BinOp::kAnd;
  e->dtype = is_cmp ? ScalarType::kInt32
             : (a->dtype == ScalarType::kFloat32 ||
                b->dtype == ScalarType::kFloat32)
                 ? ScalarType::kFloat32
                 : ScalarType::kInt32;
  e->a = std::move(a);
  e->b = std::move(b);
  return e;
}

Expr Load(BufferPtr buffer, std::vector<Expr> indices) {
  CLFLOW_CHECK(buffer != nullptr);
  CLFLOW_CHECK_MSG(indices.size() == buffer->shape.size(),
                   "load arity mismatch for buffer " + buffer->name);
  auto e = common::MakeArenaShared<ExprNode>();
  e->kind = ExprKind::kLoad;
  e->dtype = buffer->dtype;
  e->buffer = std::move(buffer);
  e->indices = std::move(indices);
  return e;
}

Expr CallIntrinsic(std::string callee, std::vector<Expr> args,
                   ScalarType dtype) {
  auto e = common::MakeArenaShared<ExprNode>();
  e->kind = ExprKind::kCall;
  e->dtype = dtype;
  e->callee = std::move(callee);
  e->args = std::move(args);
  return e;
}

Expr Select(Expr cond, Expr then_value, Expr else_value) {
  CLFLOW_CHECK(cond && then_value && else_value);
  auto e = common::MakeArenaShared<ExprNode>();
  e->kind = ExprKind::kSelect;
  e->dtype = then_value->dtype;
  e->a = std::move(cond);
  e->b = std::move(then_value);
  e->c = std::move(else_value);
  return e;
}

Expr Add(Expr a, Expr b) { return Binary(BinOp::kAdd, std::move(a), std::move(b)); }
Expr Sub(Expr a, Expr b) { return Binary(BinOp::kSub, std::move(a), std::move(b)); }
Expr Mul(Expr a, Expr b) { return Binary(BinOp::kMul, std::move(a), std::move(b)); }
Expr Div(Expr a, Expr b) { return Binary(BinOp::kDiv, std::move(a), std::move(b)); }
Expr Mod(Expr a, Expr b) { return Binary(BinOp::kMod, std::move(a), std::move(b)); }
Expr Min(Expr a, Expr b) { return Binary(BinOp::kMin, std::move(a), std::move(b)); }
Expr Max(Expr a, Expr b) { return Binary(BinOp::kMax, std::move(a), std::move(b)); }

Expr ReadChannel(BufferPtr channel) {
  CLFLOW_CHECK_MSG(channel->scope == MemScope::kChannel,
                   "ReadChannel on non-channel buffer");
  auto e = common::MakeArenaShared<ExprNode>();
  e->kind = ExprKind::kCall;
  e->dtype = channel->dtype;
  e->callee = "read_channel";
  e->buffer = std::move(channel);
  return e;
}

bool IsConstInt(const Expr& e, std::int64_t* value) {
  if (!e || e->kind != ExprKind::kIntImm) return false;
  if (value != nullptr) *value = e->int_value;
  return true;
}

std::string ToString(const Expr& e) {
  if (!e) return "<null>";
  std::ostringstream os;
  switch (e->kind) {
    case ExprKind::kIntImm:
      os << e->int_value;
      break;
    case ExprKind::kFloatImm:
      os << e->float_value << 'f';
      break;
    case ExprKind::kVar:
      os << e->var->name;
      break;
    case ExprKind::kBinary:
      if (e->op == BinOp::kMin || e->op == BinOp::kMax) {
        os << BinOpName(e->op) << '(' << ToString(e->a) << ", "
           << ToString(e->b) << ')';
      } else {
        os << '(' << ToString(e->a) << ' ' << BinOpName(e->op) << ' '
           << ToString(e->b) << ')';
      }
      break;
    case ExprKind::kLoad: {
      os << e->buffer->name;
      for (const auto& idx : e->indices) os << '[' << ToString(idx) << ']';
      break;
    }
    case ExprKind::kCall: {
      os << e->callee << '(';
      if (e->buffer) os << e->buffer->name;
      for (std::size_t i = 0; i < e->args.size(); ++i) {
        if (i || e->buffer) os << ", ";
        os << ToString(e->args[i]);
      }
      os << ')';
      break;
    }
    case ExprKind::kSelect:
      os << '(' << ToString(e->a) << " ? " << ToString(e->b) << " : "
         << ToString(e->c) << ')';
      break;
  }
  return os.str();
}

namespace {

template <typename Fn>
Expr MapChildren(const Expr& e, Fn&& fn) {
  auto copy = common::MakeArenaShared<ExprNode>(*e);
  if (copy->a) copy->a = fn(copy->a);
  if (copy->b) copy->b = fn(copy->b);
  if (copy->c) copy->c = fn(copy->c);
  for (auto& idx : copy->indices) idx = fn(idx);
  for (auto& arg : copy->args) arg = fn(arg);
  return copy;
}

}  // namespace

Expr Substitute(const Expr& e, const VarPtr& var, const Expr& replacement) {
  if (!e) return e;
  if (e->kind == ExprKind::kVar && e->var == var) return replacement;
  return MapChildren(
      e, [&](const Expr& child) { return Substitute(child, var, replacement); });
}

namespace {

bool IsZero(const Expr& e) {
  return (e->kind == ExprKind::kIntImm && e->int_value == 0) ||
         (e->kind == ExprKind::kFloatImm && e->float_value == 0.0);
}

bool IsOne(const Expr& e) {
  return (e->kind == ExprKind::kIntImm && e->int_value == 1) ||
         (e->kind == ExprKind::kFloatImm && e->float_value == 1.0);
}

}  // namespace

Expr Simplify(const Expr& e) {
  if (!e) return e;
  Expr s = MapChildren(e, [](const Expr& child) { return Simplify(child); });
  if (s->kind != ExprKind::kBinary) return s;

  std::int64_t av = 0, bv = 0;
  const bool ac = IsConstInt(s->a, &av);
  const bool bc = IsConstInt(s->b, &bv);
  if (ac && bc) {
    switch (s->op) {
      case BinOp::kAdd: return IntImm(av + bv);
      case BinOp::kSub: return IntImm(av - bv);
      case BinOp::kMul: return IntImm(av * bv);
      case BinOp::kDiv: return bv != 0 ? IntImm(av / bv) : s;
      case BinOp::kMod: return bv != 0 ? IntImm(av % bv) : s;
      case BinOp::kMin: return IntImm(std::min(av, bv));
      case BinOp::kMax: return IntImm(std::max(av, bv));
      case BinOp::kLt: return IntImm(av < bv ? 1 : 0);
      case BinOp::kGe: return IntImm(av >= bv ? 1 : 0);
      case BinOp::kEq: return IntImm(av == bv ? 1 : 0);
      case BinOp::kAnd: return IntImm((av != 0 && bv != 0) ? 1 : 0);
    }
  }
  switch (s->op) {
    case BinOp::kAdd:
      if (IsZero(s->a)) return s->b;
      if (IsZero(s->b)) return s->a;
      break;
    case BinOp::kSub:
      if (IsZero(s->b)) return s->a;
      break;
    case BinOp::kMul:
      if (IsOne(s->a)) return s->b;
      if (IsOne(s->b)) return s->a;
      if (IsZero(s->a) || IsZero(s->b)) {
        return s->dtype == ScalarType::kFloat32 ? FloatImm(0.0) : IntImm(0);
      }
      break;
    case BinOp::kDiv:
      if (IsOne(s->b)) return s->a;
      break;
    default:
      break;
  }
  return s;
}

}  // namespace clflow::ir
