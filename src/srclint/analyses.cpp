#include "srclint/analyses.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "analysis/access_model.hpp"

namespace clflow::srclint {

namespace {

using analysis::DiagLocation;
using analysis::Diagnostic;

std::string AtLine(int line) { return "line " + std::to_string(line) + ": "; }

// ===========================================================================
// Translation validation (CLF801-804)
// ===========================================================================

/// One channel operation in execution order: 'R' = read, 'W' = write.
using ChannelOp = std::pair<char, std::string>;

void IrChannelOps(const ir::Stmt& body, std::vector<ChannelOp>& out) {
  auto reads = [&](const ir::Expr& e) {
    ir::VisitExprsIn(e, [&](const ir::Expr& x) {
      if (x->kind == ir::ExprKind::kCall && x->callee == "read_channel") {
        out.emplace_back('R', x->buffer->name);
      }
    });
  };
  ir::VisitStmts(body, [&](const ir::Stmt& s) {
    if (s->kind == ir::StmtKind::kIf) reads(s->cond);
    if (s->kind == ir::StmtKind::kStore) reads(s->value);
    if (s->kind == ir::StmtKind::kWriteChannel) {
      reads(s->value);  // payload reads fire first
      out.emplace_back('W', s->buffer->name);
    }
  });
}

void SrcExprChannels(const SrcExpr& e, std::vector<ChannelOp>& out) {
  if (e.kind == SrcExprKind::kCall && e.name == "read_channel_intel") {
    if (!e.args.empty() && e.args[0]->kind == SrcExprKind::kIdent) {
      out.emplace_back('R', e.args[0]->name);
    }
    return;
  }
  for (const auto& a : e.args) SrcExprChannels(*a, out);
}

void SrcChannelOps(const std::vector<SrcStmtPtr>& body,
                   std::vector<ChannelOp>& out) {
  for (const auto& sp : body) {
    const SrcStmt& s = *sp;
    switch (s.kind) {
      case SrcStmtKind::kFor:
        SrcChannelOps(s.body, out);
        break;
      case SrcStmtKind::kAssign:
        SrcExprChannels(*s.value, out);
        break;
      case SrcStmtKind::kIf:
        SrcExprChannels(*s.cond, out);
        SrcChannelOps(s.then_body, out);
        SrcChannelOps(s.else_body, out);
        break;
      case SrcStmtKind::kCallStmt:
        if (s.call->kind == SrcExprKind::kCall &&
            s.call->name == "write_channel_intel" && s.call->args.size() == 2) {
          SrcExprChannels(*s.call->args[1], out);
          if (s.call->args[0]->kind == SrcExprKind::kIdent) {
            out.emplace_back('W', s.call->args[0]->name);
          }
        } else {
          SrcExprChannels(*s.call, out);
        }
        break;
    }
  }
}

std::string OpName(const ChannelOp& op) {
  return std::string(op.first == 'R' ? "read(" : "write(") + op.second + ")";
}

/// (loop var, unroll) pre-order over the loop nest; unroll uses the
/// pragma convention (0 none / -1 full / n>1 factor).
struct LoopShape {
  std::string var;
  std::int64_t unroll = 0;
  int line = 0;  // 0 for IR side
};

void IrLoops(const ir::Stmt& body, std::vector<LoopShape>& out) {
  ir::VisitStmts(body, [&](const ir::Stmt& s) {
    if (s->kind != ir::StmtKind::kFor) return;
    const std::int64_t unroll = s->ann.unroll == -1 || s->ann.vectorized
                                    ? -1
                                    : (s->ann.unroll > 1 ? s->ann.unroll : 0);
    out.push_back({s->var->name, unroll, 0});
  });
}

void SrcLoops(const std::vector<SrcStmtPtr>& body,
              std::vector<LoopShape>& out) {
  for (const auto& sp : body) {
    const SrcStmt& s = *sp;
    if (s.kind == SrcStmtKind::kFor) {
      out.push_back({s.loop_var, s.unroll, s.line});
      SrcLoops(s.body, out);
    } else if (s.kind == SrcStmtKind::kIf) {
      SrcLoops(s.then_body, out);
      SrcLoops(s.else_body, out);
    }
  }
}

std::string UnrollName(std::int64_t u) {
  if (u == 0) return "none";
  if (u == -1) return "#pragma unroll";
  return "#pragma unroll " + std::to_string(u);
}

class PlanValidator {
 public:
  PlanValidator(const SrcProgram& program,
                const std::vector<const ir::Kernel*>& kernels,
                analysis::DiagnosticEngine& diags)
      : program_(program), kernels_(kernels), diags_(diags) {}

  void Run() {
    std::map<std::string, const SrcKernel*> by_name;
    for (const auto& sk : program_.kernels) by_name[sk.name] = &sk;

    std::set<std::string> planned;
    for (const ir::Kernel* k : kernels_) {
      planned.insert(k->name);
      const auto it = by_name.find(k->name);
      if (it == by_name.end()) {
        Sig(k->name, "", "planned kernel missing from the emitted source");
        continue;
      }
      CheckKernel(*k, *it->second);
    }
    for (const auto& sk : program_.kernels) {
      if (planned.find(sk.name) == planned.end()) {
        Sig(sk.name, "",
            AtLine(sk.line) + "kernel is not part of the plan");
      }
    }
    CheckChannelDecls();
  }

 private:
  void Sig(const std::string& kernel, const std::string& buffer,
           std::string message) {
    diags_.Report(Diagnostic::Make(analysis::kSrcSignatureMismatch,
                                   DiagLocation{kernel, "", buffer},
                                   std::move(message)));
  }

  void CheckKernel(const ir::Kernel& k, const SrcKernel& sk) {
    CheckSignature(k, sk);
    CheckLocals(k, sk);
    CheckChannelSequence(k, sk);
    CheckLoops(k, sk);
  }

  void CheckSignature(const ir::Kernel& k, const SrcKernel& sk) {
    // Autorun attributes.
    if (k.autorun != (sk.attr_autorun && sk.attr_max_global_work_dim0)) {
      Sig(k.name, "",
          AtLine(sk.line) + "plan marks the kernel autorun=" +
              (k.autorun ? "true" : "false") +
              " but the source carries autorun=" +
              (sk.attr_autorun ? "true" : "false") + ", max_global_work_dim(0)=" +
              (sk.attr_max_global_work_dim0 ? "true" : "false"));
    }

    // Buffers the plan stores to (for the readonly-const expectation);
    // derived from the plan, NOT from codegen, on purpose.
    std::unordered_set<const ir::BufferNode*> stored;
    ir::VisitStmts(k.body, [&](const ir::Stmt& s) {
      if (s->kind == ir::StmtKind::kStore) stored.insert(s->buffer.get());
    });

    const std::size_t expected_count =
        k.buffer_args.size() + k.scalar_args.size();
    if (sk.params.size() != expected_count) {
      Sig(k.name, "",
          AtLine(sk.line) + "plan has " + std::to_string(expected_count) +
              " arguments, source declares " +
              std::to_string(sk.params.size()));
      return;
    }
    for (std::size_t i = 0; i < k.buffer_args.size(); ++i) {
      const ir::BufferPtr& b = k.buffer_args[i];
      const SrcParam& p = sk.params[i];
      const bool want_const = stored.find(b.get()) == stored.end();
      if (!p.is_pointer) {
        Sig(k.name, b->name,
            AtLine(p.line) + "argument " + std::to_string(i) +
                " should be a pointer to buffer '" + b->name + "'");
        continue;
      }
      if (p.name != b->name) {
        Sig(k.name, b->name,
            AtLine(p.line) + "argument " + std::to_string(i) + " is named '" +
                p.name + "', plan names it '" + b->name + "'");
      }
      if (p.type != ExpectedTypeName(b->dtype)) {
        Sig(k.name, b->name,
            AtLine(p.line) + "buffer '" + b->name + "' should be " +
                std::string(ExpectedTypeName(b->dtype)) + "*, source says " +
                p.type + "*");
      }
      const bool want_constant_space = b->scope == ir::MemScope::kConstant;
      if (p.constant_space != want_constant_space) {
        Sig(k.name, b->name,
            AtLine(p.line) + "buffer '" + b->name + "' should live in " +
                (want_constant_space ? "__constant" : "__global") +
                " address space");
      }
      if (p.is_const != want_const) {
        Sig(k.name, b->name,
            AtLine(p.line) + "buffer '" + b->name + "' should " +
                (want_const ? "" : "not ") +
                "be const-qualified (plan says it is " +
                (want_const ? "never" : "") + " stored to)");
      }
    }
    for (std::size_t i = 0; i < k.scalar_args.size(); ++i) {
      const ir::VarPtr& v = k.scalar_args[i];
      const SrcParam& p = sk.params[k.buffer_args.size() + i];
      if (p.is_pointer || p.type != "int" || p.name != v->name) {
        Sig(k.name, "",
            AtLine(p.line) + "argument " +
                std::to_string(k.buffer_args.size() + i) +
                " should be scalar 'int " + v->name + "'");
      }
    }
  }

  void CheckLocals(const ir::Kernel& k, const SrcKernel& sk) {
    if (sk.locals.size() != k.local_buffers.size()) {
      Sig(k.name, "",
          AtLine(sk.line) + "plan allocates " +
              std::to_string(k.local_buffers.size()) +
              " on-chip buffers, source declares " +
              std::to_string(sk.locals.size()));
      return;
    }
    for (std::size_t i = 0; i < k.local_buffers.size(); ++i) {
      const ir::BufferPtr& b = k.local_buffers[i];
      const SrcLocalDecl& d = sk.locals[i];
      if (d.name != b->name || d.type != ExpectedTypeName(b->dtype) ||
          d.local != (b->scope == ir::MemScope::kLocal) ||
          d.dims.size() != b->shape.size()) {
        Sig(k.name, b->name,
            AtLine(d.line) + "on-chip buffer " + std::to_string(i) +
                " should be declared '" +
                std::string(b->scope == ir::MemScope::kLocal ? "__local " : "") +
                std::string(ExpectedTypeName(b->dtype)) + " " + b->name +
                "' with " + std::to_string(b->shape.size()) + " dimension(s)");
        continue;
      }
      for (std::size_t dim = 0; dim < b->shape.size(); ++dim) {
        std::int64_t want = 0;
        if (ir::IsConstInt(b->shape[dim], &want) &&
            (d.dims[dim]->kind != SrcExprKind::kIntLit ||
             d.dims[dim]->int_value != want)) {
          Sig(k.name, b->name,
              AtLine(d.line) + "dimension " + std::to_string(dim) + " of '" +
                  b->name + "' should be " + std::to_string(want));
        }
      }
    }
  }

  void CheckChannelSequence(const ir::Kernel& k, const SrcKernel& sk) {
    std::vector<ChannelOp> want, got;
    IrChannelOps(k.body, want);
    SrcChannelOps(sk.body, got);
    if (want == got) return;
    std::string message = "channel-op sequence diverges from the plan: ";
    const std::size_t n = std::min(want.size(), got.size());
    std::size_t i = 0;
    while (i < n && want[i] == got[i]) ++i;
    if (i < want.size() && i < got.size()) {
      message += "op " + std::to_string(i) + " should be " +
                 OpName(want[i]) + ", source has " + OpName(got[i]);
    } else if (i < want.size()) {
      message += "source is missing " + OpName(want[i]) + " (op " +
                 std::to_string(i) + " of " + std::to_string(want.size()) + ")";
    } else {
      message += "source adds " + OpName(got[i]) + " beyond the plan's " +
                 std::to_string(want.size()) + " op(s)";
    }
    diags_.Report(Diagnostic::Make(
        analysis::kSrcChannelSequence,
        DiagLocation{k.name, "",
                     i < got.size() ? got[i].second
                                    : (i < want.size() ? want[i].second : "")},
        std::move(message)));
  }

  void CheckLoops(const ir::Kernel& k, const SrcKernel& sk) {
    std::vector<LoopShape> want, got;
    IrLoops(k.body, want);
    SrcLoops(sk.body, got);
    if (want.size() != got.size()) {
      diags_.Report(Diagnostic::Make(
          analysis::kSrcUnrollMismatch, DiagLocation{k.name, "", ""},
          "plan schedules " + std::to_string(want.size()) +
              " loops, source has " + std::to_string(got.size())));
      return;
    }
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (want[i].var != got[i].var) {
        diags_.Report(Diagnostic::Make(
            analysis::kSrcUnrollMismatch,
            DiagLocation{k.name, want[i].var, ""},
            AtLine(got[i].line) + "loop " + std::to_string(i) +
                " should iterate '" + want[i].var + "', source iterates '" +
                got[i].var + "'"));
      } else if (want[i].unroll != got[i].unroll) {
        diags_.Report(Diagnostic::Make(
            analysis::kSrcUnrollMismatch,
            DiagLocation{k.name, want[i].var, ""},
            AtLine(got[i].line) + "loop '" + got[i].var +
                "' should carry " + UnrollName(want[i].unroll) +
                ", source carries " + UnrollName(got[i].unroll)));
      }
    }
  }

  void CheckChannelDecls() {
    std::map<std::string, const ir::BufferNode*> want;
    for (const auto& c : ir::ProgramChannels(kernels_)) {
      want.emplace(c->name, c.get());
    }

    auto report = [&](const std::string& name, std::string message) {
      diags_.Report(Diagnostic::Make(analysis::kSrcChannelDecl,
                                     DiagLocation{"", "", name},
                                     std::move(message)));
    };

    if (!want.empty() && !program_.channels_extension) {
      report("", "cl_intel_channels extension pragma is missing");
    }
    std::set<std::string> seen;
    for (const auto& decl : program_.channels) {
      if (!seen.insert(decl.name).second) {
        report(decl.name,
               AtLine(decl.line) + "duplicate channel declaration");
        continue;
      }
      const auto it = want.find(decl.name);
      if (it == want.end()) {
        report(decl.name,
               AtLine(decl.line) + "channel is not part of the plan");
        continue;
      }
      const std::string_view type = ExpectedTypeName(it->second->dtype);
      if (decl.type != type) {
        report(decl.name, AtLine(decl.line) + "channel should carry '" +
                              std::string(type) +
                              "' elements, source declares '" + decl.type +
                              "' (payloads would be reinterpreted)");
      }
      if (decl.depth != it->second->channel_depth) {
        report(decl.name, AtLine(decl.line) + "channel depth should be " +
                              std::to_string(it->second->channel_depth) +
                              ", source declares " +
                              std::to_string(decl.depth));
      }
    }
    for (const auto& [name, _] : want) {
      if (seen.find(name) == seen.end()) {
        report(name, "planned channel is never declared in the source");
      }
    }
  }

  const SrcProgram& program_;
  const std::vector<const ir::Kernel*>& kernels_;
  analysis::DiagnosticEngine& diags_;
};

// ===========================================================================
// Plan-free lints (CLF805-809)
// ===========================================================================

/// The source front end of the access model: walks one SrcKernel (built
/// by codegen or parsed) into an AccessStream -- variables keyed by
/// identifier, arrays by local name, globals left out -- and words the
/// engine's findings as CLF805/806/808/809 next to its own CLF807.
class KernelLinter {
 public:
  KernelLinter(const SrcKernel& kernel, analysis::DiagnosticEngine& diags)
      : kernel_(kernel), diags_(diags) {
    for (const auto& l : kernel.locals) {
      std::vector<analysis::MaybeAffine> extents;
      for (const auto& dim : l.dims) extents.push_back(Decompose(*dim));
      arrays_[l.name] = stream_.AddArray(l.name, std::move(extents));
      decls_.push_back(&l);  // a repeated name resolves to its last one
    }
  }

  [[nodiscard]] const analysis::AccessStream& stream() const {
    return stream_;
  }

  void Run() {
    for (const auto& p : kernel_.params) {
      if (p.is_pointer && !p.is_restrict) {
        Report(analysis::kSrcMissingRestrict, "", p.name, p.line,
               "pointer argument '" + p.name +
                   "' is not restrict-qualified; AOC must assume aliasing");
      }
    }
    Walk(kernel_.body);
    const auto& events = stream_.events;
    const std::vector<analysis::InitState> init = analysis::CheckInit(stream_);
    // CLF808: variable-granularity liveness -- an on-chip buffer that is
    // stored to but never loaded burns BRAM/registers for nothing.
    for (const auto& l : kernel_.locals) {
      const analysis::InitState& s = init[arrays_[l.name]];
      if (s.first_write != analysis::InitState::kNone && !s.read) {
        Report(analysis::kSrcDeadStore, "", l.name,
               events[s.first_write].loc,
               "on-chip buffer '" + l.name +
                   "' is written but its value is never read");
      }
    }
    for (const auto& [name, a] : arrays_) {
      if (init[a].unreached_read == analysis::InitState::kNone) continue;
      Report(analysis::kSrcUninitSrcRead, "", name,
             events[init[a].unreached_read].loc,
             "'" + name +
                 "' is read before any store reaches it (first iteration "
                 "sees undefined data)");
    }
    for (const analysis::DependencePair& p :
         analysis::Dependences(stream_, analysis::Dependence::kCarried)) {
      const std::string& var = stream_.vars[stream_.loops[p.loop].var];
      const std::string& array = stream_.arrays[events[p.write].array];
      const SrcExpr& read = *nodes_[p.read];
      Report(analysis::kSrcLoopCarried, var, array, events[p.read].loc,
             "iteration " + var + " reads '" + array + "[" +
                 ToSource(*read.args[1]) +
                 (read.args.size() > 2 ? "]..." : "]") + "' written " +
                 std::to_string(p.distance) + " iteration(s) earlier (line " +
                 std::to_string(events[p.write].loc) + ")");
    }
    std::set<std::string> reported;  // each finding once
    for (std::size_t i = 0; i < events.size(); ++i) {
      for (const analysis::DimBound& b : analysis::CheckBounds(stream_, i)) {
        const SrcLocalDecl& decl = *decls_[events[i].array];
        std::string message =
            "dimension " + std::to_string(b.dim) + " index '" +
            ToSource(*nodes_[i]->args[b.dim + 1]) + "' reaches " +
            (b.below ? std::to_string(b.value) + " (below 0)"
                     : "extent '" + ToSource(*decl.dims[b.dim]) + "' + " +
                           std::to_string(b.value));
        if (reported.insert(decl.name + AtLine(events[i].loc) + message)
                .second) {
          Report(analysis::kSrcIndexOob, "", decl.name, events[i].loc,
                 std::move(message));
        }
      }
    }
  }

 private:
  void Report(const analysis::CodeInfo& code, const std::string& loop,
              const std::string& buffer, int line, std::string message) {
    diags_.Report(Diagnostic::Make(code, DiagLocation{kernel_.name, loop, buffer},
                                   AtLine(line) + std::move(message)));
  }

  /// The array id of a local, or -1.
  int Local(const std::string& name) const {
    const auto it = arrays_.find(name);
    return it == arrays_.end() ? -1 : it->second;
  }

  int Var(const std::string& name) {
    const auto [it, fresh] = vars_.try_emplace(name, 0);
    if (fresh) it->second = stream_.AddVar(name);
    return it->second;
  }

  /// Affine over identifiers; `/`, `%`, calls and comparisons are not.
  analysis::MaybeAffine Decompose(const SrcExpr& e) {
    if (e.kind == SrcExprKind::kIntLit) {
      return analysis::Affine::Const(e.int_value);
    }
    if (e.kind == SrcExprKind::kIdent) return analysis::Affine::Var(Var(e.name));
    if (e.kind == SrcExprKind::kUnary && e.op == "-") {
      return analysis::Scale(Decompose(*e.args[0]), -1);
    }
    if (e.kind != SrcExprKind::kBinary) return std::nullopt;
    if (e.op == "*") {
      return analysis::Product(Decompose(*e.args[0]), Decompose(*e.args[1]));
    }
    if (e.op != "+" && e.op != "-") return std::nullopt;
    return analysis::Sum(Decompose(*e.args[0]), Decompose(*e.args[1]),
                         e.op == "+" ? 1 : -1);
  }

  /// `node` is the access: a kIndex node, or a bare identifier.
  void Emit(bool write, int array, const SrcExpr& node) {
    std::vector<analysis::MaybeAffine> index;
    for (std::size_t i = 1;
         node.kind == SrcExprKind::kIndex && i < node.args.size(); ++i) {
      index.push_back(Decompose(*node.args[i]));
    }
    nodes_.resize(stream_.Access(write, array, std::move(index), node.line) + 1);
    nodes_.back() = &node;
  }

  /// The reads of locals in `e`, in pre-order.
  void Reads(const SrcExpr& e) {
    const bool indexed = e.kind == SrcExprKind::kIndex &&
                         e.args[0]->kind == SrcExprKind::kIdent;
    if (e.kind == SrcExprKind::kIdent || indexed) {
      const int a = Local(indexed ? e.args[0]->name : e.name);
      if (a >= 0) Emit(false, a, e);
      for (std::size_t i = 1; indexed && i < e.args.size(); ++i) {
        Reads(*e.args[i]);
      }
      return;
    }
    for (std::size_t i = 0; i < e.args.size(); ++i) {
      if (e.kind == SrcExprKind::kTernary && i == 1) stream_.PushGuard();
      Reads(*e.args[i]);
    }
    if (e.kind == SrcExprKind::kTernary) stream_.PopGuard();
  }

  void Walk(const std::vector<SrcStmtPtr>& body) {
    for (const auto& sp : body) {
      const SrcStmt& s = *sp;
      if (s.kind == SrcStmtKind::kAssign) {
        // Target indices and value are read before the element is written,
        // so `acc = acc + x` reads before it writes.
        const SrcExpr& target = *s.target;
        const bool indexed = target.kind == SrcExprKind::kIndex;
        for (std::size_t i = 1; indexed && i < target.args.size(); ++i) {
          Reads(*target.args[i]);
        }
        Reads(*s.value);
        const SrcExpr& base = indexed ? *target.args[0] : target;
        const int a = base.kind == SrcExprKind::kIdent ? Local(base.name) : -1;
        if (a >= 0) Emit(true, a, target);
      } else if (s.kind == SrcStmtKind::kCallStmt) {
        Reads(*s.call);
      } else if (s.kind == SrcStmtKind::kIf) {
        Reads(*s.cond);
        stream_.If();
        Walk(s.then_body);
        stream_.Else();
        Walk(s.else_body);
        stream_.EndIf();
      } else {
        // Header reads count for initialization, but the guard keeps them
        // out of CLF805/806.
        stream_.PushGuard();
        Reads(*s.init);
        Reads(*s.bound);
        stream_.PopGuard();
        if (const int a = Local(s.loop_var); a >= 0) {
          stream_.Access(true, a, {}, s.line);
        }
        // v < bound  =>  v <= bound - 1
        stream_.BeginLoop(Var(s.loop_var), Decompose(*s.init),
                          analysis::Sum(Decompose(*s.bound),
                                        analysis::Affine::Const(1), -1));
        Walk(s.body);
        stream_.EndLoop();
      }
    }
  }

  const SrcKernel& kernel_;
  analysis::DiagnosticEngine& diags_;
  analysis::AccessStream stream_;
  std::map<std::string, int> arrays_;       ///< by name: CLF809's order
  std::vector<const SrcLocalDecl*> decls_;  ///< by array id
  std::unordered_map<std::string, int> vars_;
  std::vector<const SrcExpr*> nodes_;  ///< by event: the access's node
};

}  // namespace

void ValidateAgainstPlan(const SrcProgram& program,
                         const std::vector<const ir::Kernel*>& kernels,
                         analysis::DiagnosticEngine& diags) {
  PlanValidator(program, kernels, diags).Run();
}

analysis::AccessStream KernelAccessStream(const SrcKernel& kernel) {
  analysis::DiagnosticEngine scratch;
  KernelLinter linter(kernel, scratch);
  linter.Run();
  return linter.stream();
}

void LintKernelSource(const SrcKernel& kernel,
                      analysis::DiagnosticEngine& diags) {
  KernelLinter(kernel, diags).Run();
}

}  // namespace clflow::srclint
