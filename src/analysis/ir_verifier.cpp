#include "analysis/ir_verifier.hpp"

#include <algorithm>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/access_model.hpp"
#include "common/error.hpp"
#include "ir/analysis.hpp"

namespace clflow::analysis {

namespace {

using ir::Expr;
using ir::ExprKind;
using ir::Stmt;
using ir::StmtKind;

/// The IR front end of the access model: walks an ir::Stmt into an
/// AccessStream (variables keyed by ir::VarNode*, arrays by buffer),
/// reporting CLF101/104/105 on the way, then words the engine's findings
/// as CLF102/103/106. `defined` (the kernel's scalar arguments) is null when
/// only the access stream is wanted, which skips the CLF101 check.
class StmtVerifier {
 public:
  StmtVerifier(DiagnosticEngine& engine, std::string kernel_name,
               const std::unordered_set<const ir::VarNode*>* defined)
      : engine_(engine), kernel_(std::move(kernel_name)), defined_(defined) {}

  void Run(const Stmt& root) {
    Visit(root);
    // CLF102: the engine's rule over parameters >= 1, reported where it
    // is proven over constant loop boxes and constant extents.
    for (std::size_t i = 0; i < stream_.events.size(); ++i) {
      const AccessEvent& e = stream_.events[i];
      for (const DimBound& b : CheckBounds(stream_, i)) {
        const MaybeAffine& extent = stream_.extents[e.array][b.dim];
        if (!extent || !extent->IsConst() || !b.lo || !b.lo->IsConst() ||
            !b.hi || !b.hi->IsConst()) {
          continue;
        }
        const std::string& buffer = stream_.arrays[e.array];
        ReportOnce(kOutOfBounds,
                   {kernel_, e.loop < 0 ? "" : LoopVar(e.loop), buffer},
                   (e.kind == AccessEvent::kWrite ? "store of " : "load of ") +
                       buffer + " dim " + std::to_string(b.dim) + " spans [" +
                       std::to_string(b.lo->constant) + ", " +
                       std::to_string(b.hi->constant) +
                       "] but the declared extent is " +
                       std::to_string(extent->constant));
      }
    }
    for (const DependencePair& p :
         Dependences(stream_, Dependence::kLaneCollision)) {
      const std::string& buffer = stream_.arrays[stream_.events[p.write].array];
      ReportOnce(kUnrollDependence, {kernel_, LoopVar(p.loop), buffer},
                 "unrolling " + LoopVar(p.loop) +
                     " makes one lane read an element of " + buffer +
                     " that another lane writes; the lanes execute "
                     "concurrently, so the value read is undefined");
    }
  }

  [[nodiscard]] const AccessStream& stream() const { return stream_; }

  /// CLF106: on-chip buffers read but never written hold undefined values
  /// (global arguments are host-initialized and exempt).
  void ReportUninit(const std::vector<ir::BufferPtr>& local_buffers) {
    const std::vector<InitState> init = CheckInit(stream_);
    for (const auto& b : local_buffers) {
      const auto it = arrays_.find(b.get());
      if (it != arrays_.end() && init[it->second].read &&
          init[it->second].first_write == InitState::kNone) {
        ReportOnce(kUninitRead, {kernel_, "", b->name},
                   "on-chip buffer " + b->name +
                       " is read but never written; its contents are "
                       "undefined");
      }
    }
  }

 private:
  void Visit(const Stmt& s) {
    if (!s) return;
    switch (s->kind) {
      case StmtKind::kFor: {
        VisitExpr(s->min);
        VisitExpr(s->extent);
        const auto min = ir::EvalConst(ir::Simplify(s->min), {});
        const auto extent = ir::EvalConst(ir::Simplify(s->extent), {});
        if (s->ann.IsUnrolled() && !extent) {
          ReportOnce(kUnrollNonConst, {kernel_, s->var->name, ""},
                     "loop " + s->var->name +
                         " is annotated for unrolling but its extent is not "
                         "a compile-time constant");
        }
        // Only constant loop boxes are bounded on the IR side.
        MaybeAffine lo, hi;
        if (min && extent && *extent > 0) {
          lo = Affine::Const(*min);
          hi = Affine::Const(*min + *extent - 1);
        }
        constexpr std::int64_t kMaxLanes = 64;
        stream_.BeginLoop(Var(s->var), lo, hi,
                          s->ann.IsUnrolled() && lo && *extent > 1
                              ? std::min(*extent, kMaxLanes)
                              : 0);
        Visit(s->body);
        stream_.EndLoop();
        break;
      }
      case StmtKind::kStore:
        for (const auto& idx : s->indices) VisitExpr(idx);
        VisitExpr(s->value);
        Access(/*write=*/true, s->buffer, s->indices);
        if (s->buffer->scope == ir::MemScope::kConstant) {
          Report104(s->buffer,
                    "store to read-only constant buffer " + s->buffer->name);
        }
        if (s->buffer->scope == ir::MemScope::kChannel) {
          Report104(s->buffer, "channel " + s->buffer->name +
                                   " is stored to by address; use "
                                   "write_channel");
        }
        break;
      case StmtKind::kBlock:
        for (const auto& child : s->stmts) Visit(child);
        break;
      case StmtKind::kIf:
        VisitExpr(s->cond);
        // The branches run under the condition: the builders' padding
        // pattern guards addresses this way.
        stream_.If();
        Visit(s->then_body);
        stream_.Else();
        Visit(s->else_body);
        stream_.EndIf();
        break;
      case StmtKind::kWriteChannel:
        VisitExpr(s->value);
        if (s->buffer->scope != ir::MemScope::kChannel) {
          Report104(s->buffer,
                    "write_channel on non-channel buffer " + s->buffer->name);
        }
        break;
    }
  }

  void VisitExpr(const Expr& e) {
    if (!e) return;
    if (e->kind == ExprKind::kVar) {
      CheckDefined(e->var);
    } else if (e->kind == ExprKind::kLoad) {
      Access(/*write=*/false, e->buffer, e->indices);
      if (e->buffer->scope == ir::MemScope::kChannel) {
        Report104(e->buffer, "channel " + e->buffer->name +
                                 " is loaded by address; use read_channel");
      }
    } else if (e->kind == ExprKind::kCall && e->buffer &&
               e->callee == "read_channel" &&
               e->buffer->scope != ir::MemScope::kChannel) {
      Report104(e->buffer,
                "read_channel on non-channel buffer " + e->buffer->name);
    }
    // Select evaluates both arms on hardware but only the chosen value is
    // meaningful; an arm guarded by an in-bounds condition may compute an
    // out-of-range address (the padding kernels do).
    VisitExpr(e->a);
    if (e->kind == ExprKind::kSelect) stream_.PushGuard();
    VisitExpr(e->b);
    VisitExpr(e->c);
    if (e->kind == ExprKind::kSelect) stream_.PopGuard();
    for (const auto& idx : e->indices) VisitExpr(idx);
    for (const auto& arg : e->args) VisitExpr(arg);
  }

  int Var(const ir::VarPtr& var) {
    const auto [it, fresh] = vars_.try_emplace(var.get(), 0);
    if (fresh) it->second = stream_.AddVar(var->name);
    return it->second;
  }

  const std::string& LoopVar(int loop) const {
    return stream_.vars[stream_.loops[loop].var];
  }

  /// Channels get no extents: indexing one is CLF104's finding.
  void Access(bool write, const ir::BufferPtr& buffer,
              const std::vector<Expr>& indices) {
    const auto [it, fresh] = arrays_.try_emplace(buffer.get(), 0);
    if (fresh) {
      std::vector<MaybeAffine> extents;
      for (std::size_t d = 0; buffer->scope != ir::MemScope::kChannel &&
                              d < buffer->shape.size();
           ++d) {
        extents.push_back(ToAffine(buffer->shape[d]));
      }
      it->second = stream_.AddArray(buffer->name, std::move(extents));
    }
    std::vector<MaybeAffine> index;
    for (const auto& idx : indices) index.push_back(ToAffine(idx));
    stream_.Access(write, it->second, std::move(index));
  }

  /// The affine form of an index expression, folding what ir::Simplify
  /// folds (constant operands, multiplication by zero).
  MaybeAffine ToAffine(const Expr& e) {
    if (e->kind == ExprKind::kIntImm) return Affine::Const(e->int_value);
    if (e->kind == ExprKind::kVar) return Affine::Var(Var(e->var));
    if (e->kind != ExprKind::kBinary) return std::nullopt;
    const MaybeAffine a = ToAffine(e->a);
    const MaybeAffine b = ToAffine(e->b);
    if (e->op == ir::BinOp::kAdd || e->op == ir::BinOp::kSub) {
      return Sum(a, b, e->op == ir::BinOp::kAdd ? 1 : -1);
    }
    if (e->op == ir::BinOp::kMul) {
      if (a == Affine::Const(0) || b == Affine::Const(0)) {
        return Affine::Const(0);
      }
      return Product(a, b);
    }
    if (!a || !b || !a->IsConst() || !b->IsConst()) return std::nullopt;
    const auto folded = ir::EvalConst(
        ir::Binary(e->op, ir::IntImm(a->constant), ir::IntImm(b->constant)),
        {});
    return folded ? MaybeAffine(Affine::Const(*folded)) : std::nullopt;
  }

  // CLF101: every variable is bound by an enclosing loop or declared as a
  // scalar argument.
  void CheckDefined(const ir::VarPtr& var) {
    const auto it = vars_.find(var.get());
    if (defined_ == nullptr || defined_->count(var.get()) != 0 ||
        (it != vars_.end() && stream_.Binder(it->second, stream_.loop()) >= 0)) {
      return;
    }
    ReportOnce(kUndefinedVar, {kernel_, "", ""},
               "variable " + var->name +
                   " is used but neither bound by an enclosing loop nor "
                   "declared as a kernel argument");
  }

  /// CLF104 (kernels only): read-only memory written, channels indexed,
  /// channel intrinsics on non-channel buffers.
  void Report104(const ir::BufferPtr& buffer, std::string message) {
    if (defined_ == nullptr) return;
    ReportOnce(kScopeViolation, {kernel_, "", buffer->name}, std::move(message));
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
  AccessStream stream_;
  std::unordered_map<const ir::VarNode*, int> vars_;
  std::unordered_map<const ir::BufferNode*, int> arrays_;
  std::set<std::string> emitted_;
};

}  // namespace

int VerifyKernel(const ir::Kernel& kernel, DiagnosticEngine& engine) {
  const int before = engine.error_count();
  // Everything Kernel::Validate rejects is a scope/structure violation.
  try {
    kernel.Validate();
  } catch (const IrError& e) {
    engine.Report(Diagnostic::Make(kScopeViolation, {kernel.name, "", ""},
                                   e.what()));
  }
  std::unordered_set<const ir::VarNode*> defined;
  for (const auto& v : kernel.scalar_args) defined.insert(v.get());
  StmtVerifier verifier(engine, kernel.name, &defined);
  verifier.Run(kernel.body);
  verifier.ReportUninit(kernel.local_buffers);
  return engine.error_count() - before;
}

AccessStream KernelAccessStream(const ir::Kernel& kernel) {
  DiagnosticEngine scratch;
  StmtVerifier verifier(scratch, kernel.name, nullptr);
  verifier.Run(kernel.body);
  return verifier.stream();
}

}  // namespace clflow::analysis
