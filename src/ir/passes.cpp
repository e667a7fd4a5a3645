#include "ir/passes.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/span.hpp"

namespace clflow::ir {

namespace {

/// Counts one successful application of a schedule primitive (and the
/// number of statements it rewrote) on the current telemetry registry.
/// Callers invoke this after validation so failed applications (which
/// throw ScheduleError) are not counted.
void RecordPass(const char* pass, double stmts_rewritten = 1) {
  obs::Registry* reg = obs::Registry::Current();
  reg->counter("ir.pass.applied", {{"pass", pass}}).Add(1);
  reg->counter("ir.pass.stmts_rewritten", {{"pass", pass}})
      .Add(stmts_rewritten);
}

/// Pre-order rewriter: `fn` may return a replacement for a node (no further
/// recursion into the replacement) or nullptr to keep rewriting children.
Stmt RewriteStmt(const Stmt& s,
                 const std::function<Stmt(const Stmt&)>& fn) {
  if (!s) return s;
  if (Stmt replaced = fn(s)) return replaced;
  auto copy = std::make_shared<StmtNode>(*s);
  switch (s->kind) {
    case StmtKind::kFor:
      copy->body = RewriteStmt(s->body, fn);
      break;
    case StmtKind::kBlock:
      for (auto& child : copy->stmts) child = RewriteStmt(child, fn);
      break;
    case StmtKind::kIf:
      copy->then_body = RewriteStmt(s->then_body, fn);
      copy->else_body = RewriteStmt(s->else_body, fn);
      break;
    default:
      return s;
  }
  return copy;
}

std::int64_t ConstExtentOrThrow(const Stmt& loop, const char* what) {
  std::int64_t extent = 0;
  if (!IsConstInt(Simplify(loop->extent), &extent)) {
    throw ScheduleError("CLF402",
                        std::string(what) + ": loop " + loop->var->name +
                            " does not have a constant extent");
  }
  return extent;
}

void RequireZeroMin(const Stmt& loop, const char* what) {
  std::int64_t min = -1;
  if (!IsConstInt(Simplify(loop->min), &min) || min != 0) {
    throw ScheduleError("CLF402", std::string(what) + ": loop " +
                                      loop->var->name + " must start at 0");
  }
}

}  // namespace

Stmt FindLoop(const Stmt& root, const std::string& var_name) {
  Stmt found;
  VisitStmts(root, [&](const Stmt& s) {
    if (s->kind == StmtKind::kFor && s->var->name == var_name) {
      if (found) {
        throw ScheduleError("CLF401",
                            "loop variable " + var_name + " is not unique");
      }
      found = s;
    }
  });
  if (!found) throw ScheduleError("CLF401", "no loop named " + var_name);
  return found;
}

Stmt SplitLoop(const Stmt& root, const std::string& var_name,
               std::int64_t factor, bool vectorize_inner) {
  obs::ScopedSpan span("pass:SplitLoop", "ir-pass");
  span.Arg("var", var_name);
  span.Arg("factor", factor);
  CLFLOW_CHECK_MSG(factor >= 1, "split factor must be >= 1");
  const Stmt target = FindLoop(root, var_name);
  const std::int64_t extent = ConstExtentOrThrow(target, "SplitLoop");
  RequireZeroMin(target, "SplitLoop");
  if (extent % factor != 0) {
    // The paper's schedules avoid epilogue loops entirely (SS4.11, req. 2).
    throw ScheduleError("CLF403",
                        "SplitLoop: extent " + std::to_string(extent) +
                            " of " + var_name + " not divisible by factor " +
                            std::to_string(factor));
  }
  RecordPass("SplitLoop");

  return RewriteStmt(root, [&](const Stmt& s) -> Stmt {
    if (s != target) return nullptr;
    VarPtr outer = MakeVar(var_name + "_o");
    VarPtr inner = MakeVar(var_name + "_i");
    const Expr fused =
        Add(Mul(VarRef(outer), IntImm(factor)), VarRef(inner));
    Stmt body = SubstituteStmt(s->body, s->var, fused);
    ForAnnotation inner_ann;
    inner_ann.vectorized = vectorize_inner;
    if (vectorize_inner) inner_ann.unroll = -1;
    Stmt inner_loop = For(inner, IntImm(0), IntImm(factor), body, inner_ann);
    return For(outer, IntImm(0), IntImm(extent / factor), inner_loop);
  });
}

void PinStrideVars(Kernel& kernel, const std::vector<std::string>& vars) {
  obs::ScopedSpan span("pass:PinStrideVars", "ir-pass");
  span.Arg("vars", static_cast<std::int64_t>(vars.size()));
  RecordPass("PinStrideVars", static_cast<double>(vars.size()));
  for (const auto& name : vars) {
    auto it = std::find_if(
        kernel.scalar_args.begin(), kernel.scalar_args.end(),
        [&](const VarPtr& v) { return v->name == name; });
    if (it == kernel.scalar_args.end()) {
      throw ScheduleError("CLF401", "PinStrideVars: kernel " + kernel.name +
                                        " has no scalar argument " + name);
    }
    kernel.body = SubstituteStmt(kernel.body, *it, IntImm(1));
    for (auto& b : kernel.buffer_args) {
      for (auto& d : b->shape) d = Substitute(d, *it, IntImm(1));
      for (auto& s : b->strides) s = Substitute(s, *it, IntImm(1));
    }
    kernel.scalar_args.erase(it);
  }
  kernel.body = SimplifyStmt(kernel.body);
}

Stmt SimplifyStmt(const Stmt& root) {
  if (!root) return root;
  auto copy = std::make_shared<StmtNode>(*root);
  switch (root->kind) {
    case StmtKind::kFor:
      copy->min = Simplify(root->min);
      copy->extent = Simplify(root->extent);
      copy->body = SimplifyStmt(root->body);
      break;
    case StmtKind::kStore:
      for (auto& idx : copy->indices) idx = Simplify(idx);
      copy->value = Simplify(root->value);
      break;
    case StmtKind::kBlock:
      for (auto& s : copy->stmts) s = SimplifyStmt(s);
      break;
    case StmtKind::kIf:
      copy->cond = Simplify(root->cond);
      copy->then_body = SimplifyStmt(root->then_body);
      copy->else_body = SimplifyStmt(root->else_body);
      break;
    case StmtKind::kWriteChannel:
      copy->value = Simplify(root->value);
      break;
  }
  return copy;
}

}  // namespace clflow::ir
