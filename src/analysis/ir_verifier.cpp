#include "analysis/ir_verifier.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "ir/analysis.hpp"

namespace clflow::analysis {

namespace {

using ir::Expr;
using ir::ExprKind;
using ir::Stmt;
using ir::StmtKind;

/// Structural expression equality (by value for immediates, by identity
/// for variables and buffers). Used to recognize the legal reduction
/// pattern: a store and a load of the very same element.
bool ExprEq(const Expr& a, const Expr& b) {
  if (a == b) return true;
  if (!a || !b) return false;
  if (a->kind != b->kind) return false;
  switch (a->kind) {
    case ExprKind::kIntImm:
      return a->int_value == b->int_value;
    case ExprKind::kFloatImm:
      return a->float_value == b->float_value;
    case ExprKind::kVar:
      return a->var == b->var;
    case ExprKind::kBinary:
      return a->op == b->op && ExprEq(a->a, b->a) && ExprEq(a->b, b->b);
    case ExprKind::kSelect:
      return ExprEq(a->a, b->a) && ExprEq(a->b, b->b) && ExprEq(a->c, b->c);
    case ExprKind::kLoad: {
      if (a->buffer != b->buffer || a->indices.size() != b->indices.size()) {
        return false;
      }
      for (std::size_t i = 0; i < a->indices.size(); ++i) {
        if (!ExprEq(a->indices[i], b->indices[i])) return false;
      }
      return true;
    }
    case ExprKind::kCall: {
      if (a->callee != b->callee || a->buffer != b->buffer ||
          a->args.size() != b->args.size()) {
        return false;
      }
      for (std::size_t i = 0; i < a->args.size(); ++i) {
        if (!ExprEq(a->args[i], b->args[i])) return false;
      }
      return true;
    }
  }
  return false;
}

/// One loop on the path from the root to the current statement.
struct ScopeLoop {
  ir::VarPtr var;
  std::optional<std::int64_t> min, max;  ///< inclusive bounds when constant
  bool unrolled = false;
};

struct AccessRec {
  ir::BufferPtr buffer;
  std::vector<Expr> indices;
};

/// Stores and loads in a subtree, indices included (loads also come from
/// store values, loop bounds, and conditions).
void CollectAccesses(const Stmt& s, std::vector<AccessRec>& stores,
                     std::vector<AccessRec>& loads) {
  ir::VisitStmts(s, [&](const Stmt& node) {
    if (node->kind == StmtKind::kStore) {
      stores.push_back({node->buffer, node->indices});
    }
  });
  ir::VisitExprs(s, [&](const Expr& e) {
    if (e->kind == ExprKind::kLoad) loads.push_back({e->buffer, e->indices});
  });
}

class StmtVerifier {
 public:
  StmtVerifier(DiagnosticEngine& engine, std::string kernel_name,
               const std::unordered_set<const ir::VarNode*>* defined_vars)
      : engine_(engine),
        kernel_(std::move(kernel_name)),
        defined_(defined_vars) {}

  int Run(const Stmt& root) {
    const int before = engine_.error_count();
    Visit(root, /*guarded=*/false);
    return engine_.error_count() - before;
  }

 private:
  void Visit(const Stmt& s, bool guarded) {
    if (!s) return;
    switch (s->kind) {
      case StmtKind::kFor: {
        VisitExpr(s->min, guarded);
        VisitExpr(s->extent, guarded);
        ScopeLoop loop;
        loop.var = s->var;
        loop.unrolled = s->ann.IsUnrolled();
        const auto min = ir::EvalConst(ir::Simplify(s->min), {});
        const auto extent = ir::EvalConst(ir::Simplify(s->extent), {});
        if (min && extent && *extent > 0) {
          loop.min = *min;
          loop.max = *min + *extent - 1;
        }
        if (s->ann.IsUnrolled() && !extent) {
          ReportOnce(kUnrollNonConst, {kernel_, s->var->name, ""},
                     "loop " + s->var->name +
                         " is annotated for unrolling but its extent is not "
                         "a compile-time constant");
        }
        if (loop.unrolled && min && extent && *extent > 1) {
          CheckUnrollDependence(s, *min, *extent);
        }
        scope_.push_back(loop);
        Visit(s->body, guarded);
        scope_.pop_back();
        break;
      }
      case StmtKind::kStore:
        CheckBounds(s->buffer, s->indices, guarded, "store");
        for (const auto& idx : s->indices) VisitExpr(idx, guarded);
        VisitExpr(s->value, guarded);
        break;
      case StmtKind::kBlock:
        for (const auto& child : s->stmts) Visit(child, guarded);
        break;
      case StmtKind::kIf:
        VisitExpr(s->cond, guarded);
        // Bodies run under the condition: bounds violations inside are
        // unprovable without path sensitivity, so they are treated as
        // guarded (the builders' padding pattern).
        Visit(s->then_body, /*guarded=*/true);
        Visit(s->else_body, /*guarded=*/true);
        break;
      case StmtKind::kWriteChannel:
        VisitExpr(s->value, guarded);
        break;
    }
  }

  void VisitExpr(const Expr& e, bool guarded) {
    if (!e) return;
    if (e->kind == ExprKind::kVar) {
      CheckDefined(e->var);
      return;
    }
    if (e->kind == ExprKind::kLoad) {
      CheckBounds(e->buffer, e->indices, guarded, "load");
      for (const auto& idx : e->indices) VisitExpr(idx, guarded);
      return;
    }
    if (e->kind == ExprKind::kSelect) {
      // Select evaluates both branches on hardware but only the chosen
      // value is meaningful; a branch guarded by an in-bounds condition
      // may compute an out-of-range address (the padding kernels do).
      VisitExpr(e->a, guarded);
      VisitExpr(e->b, /*guarded=*/true);
      VisitExpr(e->c, /*guarded=*/true);
      return;
    }
    VisitExpr(e->a, guarded);
    VisitExpr(e->b, guarded);
    VisitExpr(e->c, guarded);
    for (const auto& idx : e->indices) VisitExpr(idx, guarded);
    for (const auto& arg : e->args) VisitExpr(arg, guarded);
  }

  // --- CLF101 ---------------------------------------------------------------
  void CheckDefined(const ir::VarPtr& var) {
    if (defined_ == nullptr) return;  // bare-Stmt mode: no signature known
    if (defined_->count(var.get()) != 0) return;
    for (const auto& loop : scope_) {
      if (loop.var == var) return;
    }
    ReportOnce(kUndefinedVar, {kernel_, "", ""},
               "variable " + var->name +
                   " is used but neither bound by an enclosing loop nor "
                   "declared as a kernel argument");
  }

  // --- CLF102 ---------------------------------------------------------------
  void CheckBounds(const ir::BufferPtr& buffer,
                   const std::vector<Expr>& indices, bool guarded,
                   const char* what) {
    if (guarded) return;
    if (buffer->scope == ir::MemScope::kChannel) return;  // CLF104's job
    const std::size_t dims = std::min(indices.size(), buffer->shape.size());
    for (std::size_t d = 0; d < dims; ++d) {
      const auto dim = ir::EvalConst(ir::Simplify(buffer->shape[d]), {});
      if (!dim) continue;  // symbolic dimension: cannot bound
      Expr idx = ir::Simplify(indices[d]);
      std::int64_t lo = 0, hi = 0;
      bool have_bounds = true;
      Expr base = idx;
      for (const auto& loop : scope_) {
        const auto coeff = ir::LinearCoeff(idx, loop.var, {});
        if (!coeff) {
          have_bounds = false;  // non-affine in this var (div/mod/...)
          break;
        }
        if (*coeff == 0) continue;
        if (!loop.min) {
          have_bounds = false;  // var range unknown
          break;
        }
        lo += *coeff > 0 ? *coeff * *loop.min : *coeff * *loop.max;
        hi += *coeff > 0 ? *coeff * *loop.max : *coeff * *loop.min;
        base = ir::Substitute(base, loop.var, ir::IntImm(0));
      }
      if (!have_bounds) continue;
      const auto offset = ir::EvalConst(ir::Simplify(base), {});
      if (!offset) continue;  // residual free variables (shape params)
      lo += *offset;
      hi += *offset;
      if (lo < 0 || hi >= *dim) {
        std::ostringstream os;
        os << what << " of " << buffer->name << " dim " << d
           << " spans [" << lo << ", " << hi << "] but the declared extent "
           << "is " << *dim;
        ReportOnce(kOutOfBounds, {kernel_, InnermostLoop(), buffer->name},
                   os.str());
      }
    }
  }

  // --- CLF103 ---------------------------------------------------------------
  void CheckUnrollDependence(const Stmt& loop, std::int64_t min,
                             std::int64_t extent) {
    constexpr std::int64_t kMaxLanes = 64;
    const std::int64_t lanes = std::min(extent, kMaxLanes);
    std::vector<AccessRec> stores, loads;
    CollectAccesses(loop->body, stores, loads);
    for (const auto& st : stores) {
      for (const auto& ld : loads) {
        if (ld.buffer != st.buffer) continue;
        if (st.indices.size() != ld.indices.size()) continue;
        if (SameElement(st.indices, ld.indices)) continue;  // reduction
        if (LanesCollide(st.indices, ld.indices, loop->var, min, lanes)) {
          ReportOnce(
              kUnrollDependence,
              {kernel_, loop->var->name, st.buffer->name},
              "unrolling " + loop->var->name + " makes one lane read an "
              "element of " + st.buffer->name +
                  " that another lane writes; the lanes execute "
                  "concurrently, so the value read is undefined");
        }
      }
    }
  }

  [[nodiscard]] static bool SameElement(const std::vector<Expr>& a,
                                        const std::vector<Expr>& b) {
    for (std::size_t d = 0; d < a.size(); ++d) {
      if (!ExprEq(ir::Simplify(a[d]), ir::Simplify(b[d]))) return false;
    }
    return true;
  }

  /// Provable cross-lane collision: lanes v1 != v2 of the unrolled loop
  /// with store index (at v1) equal to load index (at v2) in every
  /// dimension. Enclosing loop variables are fixed at their minima (a
  /// sound under-approximation: a collision on that slice is a collision).
  [[nodiscard]] bool LanesCollide(const std::vector<Expr>& store_idx,
                                  const std::vector<Expr>& load_idx,
                                  const ir::VarPtr& var, std::int64_t min,
                                  std::int64_t lanes) const {
    struct DimAffine {
      std::int64_t cs, cl, os, ol;
    };
    std::vector<DimAffine> dims;
    for (std::size_t d = 0; d < store_idx.size(); ++d) {
      Expr s = ir::Simplify(store_idx[d]);
      Expr l = ir::Simplify(load_idx[d]);
      const auto cs = ir::LinearCoeff(s, var, {});
      const auto cl = ir::LinearCoeff(l, var, {});
      if (!cs || !cl) return false;  // unprovable
      for (const auto& outer : scope_) {
        if (outer.var == var) continue;
        if (!outer.min) {
          if (ir::UsesVar(s, outer.var) || ir::UsesVar(l, outer.var)) {
            return false;
          }
          continue;
        }
        s = ir::Substitute(s, outer.var, ir::IntImm(*outer.min));
        l = ir::Substitute(l, outer.var, ir::IntImm(*outer.min));
      }
      const auto os = ir::EvalConst(
          ir::Simplify(ir::Substitute(s, var, ir::IntImm(0))), {});
      const auto ol = ir::EvalConst(
          ir::Simplify(ir::Substitute(l, var, ir::IntImm(0))), {});
      if (!os || !ol) return false;
      dims.push_back({*cs, *cl, *os, *ol});
    }
    for (std::int64_t v1 = min; v1 < min + lanes; ++v1) {
      for (std::int64_t v2 = min; v2 < min + lanes; ++v2) {
        if (v1 == v2) continue;
        bool all_equal = true;
        for (const auto& d : dims) {
          if (d.cs * v1 + d.os != d.cl * v2 + d.ol) {
            all_equal = false;
            break;
          }
        }
        if (all_equal) return true;
      }
    }
    return false;
  }

  [[nodiscard]] std::string InnermostLoop() const {
    return scope_.empty() ? std::string() : scope_.back().var->name;
  }

  void ReportOnce(const CodeInfo& info, DiagLocation loc,
                  std::string message) {
    const std::string key = std::string(info.id) + '|' + loc.ToString() +
                            '|' + message;
    if (!emitted_.insert(key).second) return;
    engine_.Report(Diagnostic::Make(info, std::move(loc),
                                    std::move(message)));
  }

  DiagnosticEngine& engine_;
  std::string kernel_;
  const std::unordered_set<const ir::VarNode*>* defined_;
  std::vector<ScopeLoop> scope_;
  std::set<std::string> emitted_;
};

}  // namespace

int VerifyStmt(const ir::Stmt& root, DiagnosticEngine& engine,
               const std::string& kernel_name) {
  StmtVerifier verifier(engine, kernel_name, /*defined_vars=*/nullptr);
  return verifier.Run(root);
}

int VerifyKernel(const ir::Kernel& kernel, DiagnosticEngine& engine) {
  const int before = engine.error_count();

  // Everything Kernel::Validate rejects is a scope/structure violation.
  try {
    kernel.Validate();
  } catch (const IrError& e) {
    engine.Report(Diagnostic::Make(kScopeViolation, {kernel.name, "", ""},
                                   e.what()));
  }

  // CLF104: writes to read-only memory, indexed access to channels,
  // channel intrinsics on non-channel buffers.
  std::set<std::string> emitted;
  auto report104 = [&](const std::string& buffer, const std::string& msg) {
    if (!emitted.insert(buffer + '|' + msg).second) return;
    engine.Report(
        Diagnostic::Make(kScopeViolation, {kernel.name, "", buffer}, msg));
  };
  ir::VisitStmts(kernel.body, [&](const ir::Stmt& s) {
    if (s->kind == StmtKind::kStore) {
      if (s->buffer->scope == ir::MemScope::kConstant) {
        report104(s->buffer->name, "store to read-only constant buffer " +
                                       s->buffer->name);
      }
      if (s->buffer->scope == ir::MemScope::kChannel) {
        report104(s->buffer->name,
                  "channel " + s->buffer->name +
                      " is stored to by address; use write_channel");
      }
    }
    if (s->kind == StmtKind::kWriteChannel &&
        s->buffer->scope != ir::MemScope::kChannel) {
      report104(s->buffer->name, "write_channel on non-channel buffer " +
                                     s->buffer->name);
    }
  });
  ir::VisitExprs(kernel.body, [&](const Expr& e) {
    if (e->kind == ExprKind::kLoad &&
        e->buffer->scope == ir::MemScope::kChannel) {
      report104(e->buffer->name, "channel " + e->buffer->name +
                                     " is loaded by address; use "
                                     "read_channel");
    }
    if (e->kind == ExprKind::kCall && e->buffer &&
        e->callee == "read_channel" &&
        e->buffer->scope != ir::MemScope::kChannel) {
      report104(e->buffer->name, "read_channel on non-channel buffer " +
                                     e->buffer->name);
    }
  });

  // CLF106: on-chip buffers that are read but never written hold
  // undefined values (global arguments are host-initialized and exempt).
  for (const auto& b : kernel.local_buffers) {
    bool loaded = false, stored = false;
    ir::VisitExprs(kernel.body, [&](const Expr& e) {
      if (e->kind == ExprKind::kLoad && e->buffer == b) loaded = true;
    });
    ir::VisitStmts(kernel.body, [&](const ir::Stmt& s) {
      if (s->kind == StmtKind::kStore && s->buffer == b) stored = true;
    });
    if (loaded && !stored) {
      engine.Report(Diagnostic::Make(
          kUninitRead, {kernel.name, "", b->name},
          "on-chip buffer " + b->name +
              " is read but never written; its contents are undefined"));
    }
  }

  // CLF101 + the statement-level checks, with the signature's scalar
  // arguments as the defined set.
  std::unordered_set<const ir::VarNode*> defined;
  for (const auto& v : kernel.scalar_args) defined.insert(v.get());
  StmtVerifier verifier(engine, kernel.name, &defined);
  (void)verifier.Run(kernel.body);

  return engine.error_count() - before;
}

Diagnostic FromScheduleError(const ScheduleError& error) {
  const CodeInfo* info = FindCode(error.code());
  if (info == nullptr) info = &kScheduleStructure;
  DiagLocation loc{error.kernel(), error.loop(), ""};
  std::string message = error.what();
  const std::string prefix = error.code() + ": ";
  if (message.rfind(prefix, 0) == 0) message = message.substr(prefix.size());
  return Diagnostic::Make(*info, std::move(loc), std::move(message));
}

}  // namespace clflow::analysis
