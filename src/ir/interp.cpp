#include "ir/interp.hpp"

#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace clflow::ir {

void InterpEnv::BindBuffer(const BufferPtr& buffer, std::span<float> storage) {
  CLFLOW_CHECK(buffer != nullptr);
  buffers_[buffer.get()] = storage;
}

void InterpEnv::BindVar(const VarPtr& var, std::int64_t value) {
  CLFLOW_CHECK(var != nullptr);
  vars_[var.get()] = value;
}

std::span<float> InterpEnv::storage(const BufferNode* buffer) const {
  auto it = buffers_.find(buffer);
  if (it == buffers_.end()) {
    throw IrError("interpreter: unbound buffer " + buffer->name);
  }
  return it->second;
}

bool InterpEnv::HasBuffer(const BufferNode* buffer) const {
  return buffers_.find(buffer) != buffers_.end();
}

std::int64_t InterpEnv::var_value(const VarNode* var) const {
  auto it = vars_.find(var);
  if (it == vars_.end()) {
    throw IrError("interpreter: unbound variable " + var->name);
  }
  return it->second;
}

std::deque<float>& InterpEnv::channel(const std::string& name) {
  return channels_[name];
}

std::size_t InterpEnv::PendingChannelElements() const {
  std::size_t total = 0;
  for (const auto& [_, q] : channels_) total += q.size();
  return total;
}

namespace {

class Interp {
 public:
  explicit Interp(InterpEnv& env) : env_(env) {}

  /// Local loop-variable bindings are kept in a scoped map; shape params
  /// come from the environment.
  std::int64_t EvalInt(const Expr& e) {
    switch (e->kind) {
      case ExprKind::kIntImm:
        return e->int_value;
      case ExprKind::kFloatImm:
        return static_cast<std::int64_t>(e->float_value);
      case ExprKind::kVar: {
        auto it = locals_.find(e->var.get());
        if (it != locals_.end()) return it->second;
        return env_.var_value(e->var.get());
      }
      case ExprKind::kBinary:
        return EvalIntBinary(e);
      case ExprKind::kSelect:
        return EvalInt(e->a) != 0 ? EvalInt(e->b) : EvalInt(e->c);
      case ExprKind::kLoad:
        return static_cast<std::int64_t>(EvalFloat(e));
      case ExprKind::kCall:
        throw IrError("interpreter: integer call " + e->callee);
    }
    throw IrError("interpreter: bad expr");
  }

  float EvalFloat(const Expr& e) {
    switch (e->kind) {
      case ExprKind::kIntImm:
        return static_cast<float>(e->int_value);
      case ExprKind::kFloatImm:
        return static_cast<float>(e->float_value);
      case ExprKind::kVar:
        return static_cast<float>(EvalInt(e));
      case ExprKind::kBinary: {
        if (e->dtype == ScalarType::kInt32) {
          return static_cast<float>(EvalIntBinary(e));
        }
        const float a = EvalFloat(e->a);
        const float b = EvalFloat(e->b);
        switch (e->op) {
          case BinOp::kAdd: return a + b;
          case BinOp::kSub: return a - b;
          case BinOp::kMul: return a * b;
          case BinOp::kDiv: return a / b;
          case BinOp::kMin: return std::min(a, b);
          case BinOp::kMax: return std::max(a, b);
          default:
            throw IrError("interpreter: float op " +
                          std::string(BinOpName(e->op)));
        }
      }
      case ExprKind::kSelect:
        return EvalInt(e->a) != 0 ? EvalFloat(e->b) : EvalFloat(e->c);
      case ExprKind::kLoad: {
        const auto storage = env_.storage(e->buffer.get());
        const std::int64_t idx = FlattenIndex(e->buffer, e->indices);
        CLFLOW_CHECK_MSG(idx >= 0 &&
                             idx < static_cast<std::int64_t>(storage.size()),
                         "interpreter: load out of range on " +
                             e->buffer->name);
        return storage[static_cast<std::size_t>(idx)];
      }
      case ExprKind::kCall: {
        if (e->callee == "read_channel") {
          auto& q = env_.channel(e->buffer->name);
          if (q.empty()) {
            throw IrError("interpreter: read from empty channel " +
                          e->buffer->name);
          }
          const float v = q.front();
          q.pop_front();
          return v;
        }
        if (e->callee == "exp") return std::exp(EvalFloat(e->args.at(0)));
        throw IrError("interpreter: unknown intrinsic " + e->callee);
      }
    }
    throw IrError("interpreter: bad expr");
  }

  void Exec(const Stmt& s) {
    if (!s) return;
    switch (s->kind) {
      case StmtKind::kFor: {
        const std::int64_t min = EvalInt(s->min);
        const std::int64_t extent = EvalInt(s->extent);
        for (std::int64_t i = min; i < min + extent; ++i) {
          locals_[s->var.get()] = i;
          Exec(s->body);
        }
        locals_.erase(s->var.get());
        break;
      }
      case StmtKind::kStore: {
        const auto storage = env_.storage(s->buffer.get());
        const std::int64_t idx = FlattenIndex(s->buffer, s->indices);
        CLFLOW_CHECK_MSG(idx >= 0 &&
                             idx < static_cast<std::int64_t>(storage.size()),
                         "interpreter: store out of range on " +
                             s->buffer->name);
        storage[static_cast<std::size_t>(idx)] = EvalFloat(s->value);
        break;
      }
      case StmtKind::kBlock:
        for (const auto& child : s->stmts) Exec(child);
        break;
      case StmtKind::kIf:
        if (EvalInt(s->cond) != 0) {
          Exec(s->then_body);
        } else {
          Exec(s->else_body);
        }
        break;
      case StmtKind::kWriteChannel:
        env_.channel(s->buffer->name).push_back(EvalFloat(s->value));
        break;
    }
  }

 private:
  std::int64_t EvalIntBinary(const Expr& e) {
    // Comparisons may have floating-point operands (int result).
    if (e->a->dtype == ScalarType::kFloat32 ||
        e->b->dtype == ScalarType::kFloat32) {
      const float fa = EvalFloat(e->a);
      const float fb = EvalFloat(e->b);
      switch (e->op) {
        case BinOp::kLt: return fa < fb ? 1 : 0;
        case BinOp::kGe: return fa >= fb ? 1 : 0;
        case BinOp::kEq: return fa == fb ? 1 : 0;
        case BinOp::kAnd: return (fa != 0.0f && fb != 0.0f) ? 1 : 0;
        default:
          throw IrError("interpreter: float operands in integer op " +
                        std::string(BinOpName(e->op)));
      }
    }
    const std::int64_t a = EvalInt(e->a);
    const std::int64_t b = EvalInt(e->b);
    switch (e->op) {
      case BinOp::kAdd: return a + b;
      case BinOp::kSub: return a - b;
      case BinOp::kMul: return a * b;
      case BinOp::kDiv:
        CLFLOW_CHECK_MSG(b != 0, "interpreter: division by zero");
        return a / b;
      case BinOp::kMod:
        CLFLOW_CHECK_MSG(b != 0, "interpreter: modulo by zero");
        return a % b;
      case BinOp::kMin: return std::min(a, b);
      case BinOp::kMax: return std::max(a, b);
      case BinOp::kLt: return a < b ? 1 : 0;
      case BinOp::kGe: return a >= b ? 1 : 0;
      case BinOp::kEq: return a == b ? 1 : 0;
      case BinOp::kAnd: return (a != 0 && b != 0) ? 1 : 0;
    }
    throw IrError("interpreter: bad int op");
  }

  std::int64_t FlattenIndex(const BufferPtr& buffer,
                            const std::vector<Expr>& indices) {
    std::int64_t flat = 0;
    if (!buffer->strides.empty()) {
      for (std::size_t d = 0; d < indices.size(); ++d) {
        flat += EvalInt(indices[d]) * EvalInt(buffer->strides[d]);
      }
      return flat;
    }
    for (std::size_t d = 0; d < indices.size(); ++d) {
      const std::int64_t extent = EvalInt(buffer->shape[d]);
      flat = flat * extent + EvalInt(indices[d]);
    }
    return flat;
  }

  InterpEnv& env_;
  std::unordered_map<const VarNode*, std::int64_t> locals_;
};

}  // namespace

void RunKernel(const Kernel& kernel, InterpEnv& env) {
  kernel.Validate();
  Interp interp(env);

  // Allocate kernel-local buffers for the duration of the run.
  std::vector<std::vector<float>> local_storage;
  local_storage.reserve(kernel.local_buffers.size());
  for (const auto& b : kernel.local_buffers) {
    if (env.HasBuffer(b.get())) continue;  // caller provided (tests)
    std::int64_t elems = 1;
    for (const auto& d : b->shape) elems *= interp.EvalInt(d);
    local_storage.emplace_back(static_cast<std::size_t>(elems), 0.0f);
    env.BindBuffer(b, local_storage.back());
  }

  interp.Exec(kernel.body);
}

double EvalScalar(const Expr& e, const InterpEnv& env) {
  Interp interp(const_cast<InterpEnv&>(env));
  return interp.EvalFloat(e);
}

}  // namespace clflow::ir
