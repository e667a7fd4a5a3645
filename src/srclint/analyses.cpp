#include "srclint/analyses.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>
#include <utility>

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

void IrExprChannels(const ir::Expr& e, std::vector<ChannelOp>& out) {
  if (!e) return;
  if (e->kind == ir::ExprKind::kCall && e->callee == "read_channel") {
    out.emplace_back('R', e->buffer->name);
    return;
  }
  IrExprChannels(e->a, out);
  IrExprChannels(e->b, out);
  IrExprChannels(e->c, out);
  for (const auto& idx : e->indices) IrExprChannels(idx, out);
  for (const auto& arg : e->args) IrExprChannels(arg, out);
}

void IrChannelOps(const ir::Stmt& s, std::vector<ChannelOp>& out) {
  if (!s) return;
  switch (s->kind) {
    case ir::StmtKind::kFor:
      IrChannelOps(s->body, out);
      return;
    case ir::StmtKind::kStore:
      IrExprChannels(s->value, out);
      return;
    case ir::StmtKind::kBlock:
      for (const auto& child : s->stmts) IrChannelOps(child, out);
      return;
    case ir::StmtKind::kIf:
      IrExprChannels(s->cond, out);
      IrChannelOps(s->then_body, out);
      IrChannelOps(s->else_body, out);
      return;
    case ir::StmtKind::kWriteChannel:
      IrExprChannels(s->value, out);  // payload reads fire first
      out.emplace_back('W', s->buffer->name);
      return;
  }
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

void IrLoops(const ir::Stmt& s, std::vector<LoopShape>& out) {
  if (!s) return;
  if (s->kind == ir::StmtKind::kFor) {
    std::int64_t expected = 0;
    if (s->ann.unroll == -1 || s->ann.vectorized) {
      expected = -1;
    } else if (s->ann.unroll > 1) {
      expected = s->ann.unroll;
    }
    out.push_back({s->var->name, expected, 0});
    IrLoops(s->body, out);
    return;
  }
  if (s->kind == ir::StmtKind::kBlock) {
    for (const auto& child : s->stmts) IrLoops(child, out);
    return;
  }
  if (s->kind == ir::StmtKind::kIf) {
    IrLoops(s->then_body, out);
    IrLoops(s->else_body, out);
    return;
  }
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

/// Affine form over identifiers: cnst + sum(coeffs[name] * name).
/// Aggregating per identifier keeps the form exact (so `v - v` folds to 0
/// instead of widening), which is what lets CLF805/806 claim errors.
struct Affine {
  bool ok = false;
  std::int64_t cnst = 0;
  std::map<std::string, std::int64_t> coeffs;
};

Affine AffineConst(std::int64_t c) {
  Affine a;
  a.ok = true;
  a.cnst = c;
  return a;
}

Affine AffineAdd(const Affine& x, const Affine& y, std::int64_t sign) {
  Affine r;
  if (!x.ok || !y.ok) return r;
  r.ok = true;
  r.cnst = x.cnst + sign * y.cnst;
  r.coeffs = x.coeffs;
  for (const auto& [name, c] : y.coeffs) r.coeffs[name] += sign * c;
  for (auto it = r.coeffs.begin(); it != r.coeffs.end();) {
    it = it->second == 0 ? r.coeffs.erase(it) : std::next(it);
  }
  return r;
}

Affine AffineScale(const Affine& x, std::int64_t k) {
  Affine r;
  if (!x.ok) return r;
  r.ok = true;
  r.cnst = x.cnst * k;
  if (k != 0) {
    for (const auto& [name, c] : x.coeffs) r.coeffs[name] = c * k;
  }
  return r;
}

Affine Decompose(const SrcExpr& e) {
  switch (e.kind) {
    case SrcExprKind::kIntLit:
      return AffineConst(e.int_value);
    case SrcExprKind::kIdent: {
      Affine a;
      a.ok = true;
      a.coeffs[e.name] = 1;
      return a;
    }
    case SrcExprKind::kUnary:
      if (e.op == "-") return AffineScale(Decompose(*e.args[0]), -1);
      return {};
    case SrcExprKind::kBinary: {
      if (e.op == "+" || e.op == "-") {
        return AffineAdd(Decompose(*e.args[0]), Decompose(*e.args[1]),
                         e.op == "+" ? 1 : -1);
      }
      if (e.op == "*") {
        const Affine lhs = Decompose(*e.args[0]);
        const Affine rhs = Decompose(*e.args[1]);
        if (lhs.ok && lhs.coeffs.empty()) return AffineScale(rhs, lhs.cnst);
        if (rhs.ok && rhs.coeffs.empty()) return AffineScale(lhs, rhs.cnst);
      }
      return {};  // div/mod/compare: not affine
    }
    default:
      return {};
  }
}

/// Per-loop-variable iteration range, as affine forms over parameters.
struct VarRange {
  Affine lo, hi;  // inclusive
};
using Env = std::map<std::string, VarRange>;

/// Replaces loop variables in `a` by the range end that maximizes
/// (want_max) or minimizes the form; the result is affine over
/// parameters only. Exact for rectangular/affine-dependent loop nests:
/// the chosen corner is an iteration that actually occurs.
Affine ToParamBound(const Affine& a, const Env& env, bool want_max) {
  Affine r;
  if (!a.ok) return r;
  r.ok = true;
  r.cnst = a.cnst;
  for (const auto& [name, c] : a.coeffs) {
    const auto it = env.find(name);
    if (it == env.end()) {
      r.coeffs[name] += c;
      continue;
    }
    const Affine& end = (c > 0) == want_max ? it->second.hi : it->second.lo;
    const Affine scaled = AffineScale(end, c);
    if (!scaled.ok) return {};
    r = AffineAdd(r, scaled, 1);
    if (!r.ok) return {};
  }
  for (auto it = r.coeffs.begin(); it != r.coeffs.end();) {
    it = it->second == 0 ? r.coeffs.erase(it) : std::next(it);
  }
  return r;
}

/// Minimum of an affine-over-parameters form under the runtime
/// assumption that every parameter is >= 1. Unbounded below when any
/// coefficient is negative.
bool MinValueAssumingParamsGE1(const Affine& a, std::int64_t* value) {
  if (!a.ok) return false;
  std::int64_t v = a.cnst;
  for (const auto& [name, c] : a.coeffs) {
    (void)name;
    if (c < 0) return false;
    v += c;
  }
  *value = v;
  return true;
}

/// Maximum under the same assumption; unbounded above when any
/// coefficient is positive.
bool MaxValueAssumingParamsGE1(const Affine& a, std::int64_t* value) {
  if (!a.ok) return false;
  std::int64_t v = a.cnst;
  for (const auto& [name, c] : a.coeffs) {
    (void)name;
    if (c > 0) return false;
    v += c;
  }
  *value = v;
  return true;
}

struct ArrayAccess {
  const SrcExpr* index = nullptr;  ///< the kIndex node
  std::string array;
  int line = 0;
  bool is_write = false;
  bool conditional = false;  ///< under an if or a ternary arm
};

class KernelLinter {
 public:
  KernelLinter(const SrcKernel& kernel, analysis::DiagnosticEngine& diags)
      : kernel_(kernel), diags_(diags) {
    for (const auto& l : kernel.locals) locals_[l.name] = &l;
  }

  void Run() {
    CheckRestrict();
    CheckInitAndDeadStores();
    CheckLoopCarried(kernel_.body);
    Env env;
    CheckBounds(kernel_.body, env, false);
  }

 private:
  // --- CLF807 ---------------------------------------------------------------

  void CheckRestrict() {
    for (const auto& p : kernel_.params) {
      if (p.is_pointer && !p.is_restrict) {
        diags_.Report(Diagnostic::Make(
            analysis::kSrcMissingRestrict,
            DiagLocation{kernel_.name, "", p.name},
            AtLine(p.line) + "pointer argument '" + p.name +
                "' is not restrict-qualified; AOC must assume aliasing"));
      }
    }
  }

  // --- CLF808 / CLF809 (one walk in execution order) ------------------------
  //
  // `stored` is the set of locals that some path to the current point has
  // stored to. A read of a local outside it is reached by no store at all
  // (CLF809; a store on only one branch keeps the read silent). Loop
  // bodies are walked once: per variable a body either adds the store or
  // leaves the set alone, so a later iteration only sees more stores and
  // cannot produce a new finding; nor can skipping the loop, because the
  // set only grows along the body.

  void CheckInitAndDeadStores() {
    std::set<std::string> stored;
    WalkStores(kernel_.body, stored);

    // CLF808: variable-granularity liveness -- an on-chip buffer that is
    // stored to but never loaded burns BRAM/registers for nothing.
    for (const auto& l : kernel_.locals) {
      const auto first = first_store_line_.find(l.name);
      if (first != first_store_line_.end() && read_vars_.count(l.name) == 0) {
        diags_.Report(Diagnostic::Make(
            analysis::kSrcDeadStore, DiagLocation{kernel_.name, "", l.name},
            AtLine(first->second) + "on-chip buffer '" + l.name +
                "' is written but its value is never read"));
      }
    }
    for (const auto& [var, line] : uninit_line_) {
      diags_.Report(Diagnostic::Make(
          analysis::kSrcUninitSrcRead, DiagLocation{kernel_.name, "", var},
          AtLine(line) + "'" + var +
              "' is read before any store reaches it (first iteration sees "
              "undefined data)"));
    }
  }

  void ReadsOf(const SrcExpr& e, const std::set<std::string>& stored) {
    if (e.kind != SrcExprKind::kIdent) {
      for (const auto& a : e.args) ReadsOf(*a, stored);
      return;
    }
    if (locals_.find(e.name) == locals_.end()) return;
    read_vars_.insert(e.name);
    if (stored.count(e.name) != 0) return;
    const auto [it, fresh] = uninit_line_.emplace(e.name, e.line);
    if (!fresh) it->second = std::min(it->second, e.line);
  }

  void StoreTo(const std::string& var, int line,
               std::set<std::string>& stored) {
    if (locals_.find(var) == locals_.end()) return;
    stored.insert(var);
    first_store_line_.emplace(var, line);
  }

  void WalkStores(const std::vector<SrcStmtPtr>& body,
                  std::set<std::string>& stored) {
    for (const auto& sp : body) {
      const SrcStmt& s = *sp;
      switch (s.kind) {
        case SrcStmtKind::kAssign:
          // Value and target indices are evaluated before the element is
          // written, so `acc = acc + x` reads before it writes.
          ReadsOf(*s.value, stored);
          if (s.target->kind == SrcExprKind::kIndex) {
            for (std::size_t i = 1; i < s.target->args.size(); ++i) {
              ReadsOf(*s.target->args[i], stored);
            }
            StoreTo(s.target->args[0]->name, s.line, stored);
          } else {
            StoreTo(s.target->name, s.line, stored);
          }
          break;
        case SrcStmtKind::kCallStmt:
          ReadsOf(*s.call, stored);
          break;
        case SrcStmtKind::kIf: {
          ReadsOf(*s.cond, stored);
          std::set<std::string> then_stored = stored;
          WalkStores(s.then_body, then_stored);
          WalkStores(s.else_body, stored);
          stored.insert(then_stored.begin(), then_stored.end());
          break;
        }
        case SrcStmtKind::kFor:
          ReadsOf(*s.init, stored);
          ReadsOf(*s.bound, stored);
          StoreTo(s.loop_var, s.line, stored);
          WalkStores(s.body, stored);
          break;
      }
    }
  }

  // --- CLF805 ---------------------------------------------------------------

  void CollectAccesses(const SrcExpr& e, bool is_write, bool conditional,
                       std::vector<ArrayAccess>& out) {
    if (e.kind == SrcExprKind::kIndex &&
        e.args[0]->kind == SrcExprKind::kIdent &&
        locals_.find(e.args[0]->name) != locals_.end()) {
      out.push_back({&e, e.args[0]->name, e.line, is_write, conditional});
    }
    if (e.kind == SrcExprKind::kTernary) {
      CollectAccesses(*e.args[0], false, conditional, out);
      CollectAccesses(*e.args[1], false, true, out);
      CollectAccesses(*e.args[2], false, true, out);
      return;
    }
    const std::size_t first = e.kind == SrcExprKind::kIndex ? 1 : 0;
    for (std::size_t i = first; i < e.args.size(); ++i) {
      CollectAccesses(*e.args[i], false, conditional, out);
    }
  }

  void CollectAccesses(const std::vector<SrcStmtPtr>& body, bool conditional,
                       std::vector<ArrayAccess>& out) {
    for (const auto& sp : body) {
      const SrcStmt& s = *sp;
      switch (s.kind) {
        case SrcStmtKind::kAssign:
          CollectAccesses(*s.target, true, conditional, out);
          CollectAccesses(*s.value, false, conditional, out);
          break;
        case SrcStmtKind::kFor:
          CollectAccesses(s.body, conditional, out);
          break;
        case SrcStmtKind::kIf:
          CollectAccesses(*s.cond, false, conditional, out);
          CollectAccesses(s.then_body, true, out);
          CollectAccesses(s.else_body, true, out);
          break;
        case SrcStmtKind::kCallStmt:
          CollectAccesses(*s.call, false, conditional, out);
          break;
      }
    }
  }

  void CheckLoopCarried(const std::vector<SrcStmtPtr>& body) {
    for (const auto& sp : body) {
      const SrcStmt& s = *sp;
      if (s.kind == SrcStmtKind::kFor) {
        AnalyzeLoop(s);
        CheckLoopCarried(s.body);
      } else if (s.kind == SrcStmtKind::kIf) {
        CheckLoopCarried(s.then_body);
        CheckLoopCarried(s.else_body);
      }
    }
  }

  /// Reports a read-after-write dependence carried by loop `s` over an
  /// on-chip array: iteration v reads an element iteration v-d wrote
  /// (constant distance d >= 1). Same-element reductions (every index
  /// coefficient on the loop variable zero) are the expected accumulator
  /// pattern and are excluded; they are an II concern, not a correctness
  /// bug. Only unconditional accesses are claimed.
  void AnalyzeLoop(const SrcStmt& s) {
    std::vector<ArrayAccess> accesses;
    CollectAccesses(s.body, false, accesses);
    std::set<std::string> reported;
    for (const ArrayAccess& w : accesses) {
      if (!w.is_write || w.conditional) continue;
      for (const ArrayAccess& r : accesses) {
        if (r.is_write || r.conditional || r.array != w.array) continue;
        if (reported.count(w.array) != 0) continue;
        const std::size_t dims = w.index->args.size();
        if (r.index->args.size() != dims) continue;

        std::int64_t distance = 0;
        bool have_distance = false;
        bool dependent = true;
        for (std::size_t d = 1; d < dims && dependent; ++d) {
          const Affine wa = Decompose(*w.index->args[d]);
          const Affine ra = Decompose(*r.index->args[d]);
          if (!wa.ok || !ra.ok) {
            dependent = false;
            break;
          }
          // All non-loop-var structure must match exactly.
          auto wc = wa.coeffs;
          auto rc = ra.coeffs;
          const std::int64_t wv = wc.count(s.loop_var) ? wc[s.loop_var] : 0;
          const std::int64_t rv = rc.count(s.loop_var) ? rc[s.loop_var] : 0;
          wc.erase(s.loop_var);
          rc.erase(s.loop_var);
          if (wc != rc || wv != rv) {
            dependent = false;
            break;
          }
          const std::int64_t delta = wa.cnst - ra.cnst;
          if (wv == 0) {
            if (delta != 0) dependent = false;  // provably distinct elements
            continue;
          }
          if (delta % wv != 0) {
            dependent = false;  // indices never coincide across iterations
            continue;
          }
          const std::int64_t dist = delta / wv;
          if (have_distance && dist != distance) {
            dependent = false;
            continue;
          }
          distance = dist;
          have_distance = true;
        }
        if (!dependent || !have_distance || distance < 1) continue;
        reported.insert(w.array);
        diags_.Report(Diagnostic::Make(
            analysis::kSrcLoopCarried,
            DiagLocation{kernel_.name, s.loop_var, w.array},
            AtLine(r.line) + "iteration " + s.loop_var + " reads '" +
                w.array + "[" + ToSource(*r.index->args[1]) +
                (dims > 2 ? "]..." : "]") + "' written " +
                std::to_string(distance) + " iteration(s) earlier (line " +
                std::to_string(w.line) + ")"));
      }
    }
  }

  // --- CLF806 ---------------------------------------------------------------

  void CheckBoundsExpr(const SrcExpr& e, const Env& env, bool conditional) {
    if (e.kind == SrcExprKind::kTernary) {
      CheckBoundsExpr(*e.args[0], env, conditional);
      CheckBoundsExpr(*e.args[1], env, true);
      CheckBoundsExpr(*e.args[2], env, true);
      return;
    }
    if (e.kind == SrcExprKind::kIndex &&
        e.args[0]->kind == SrcExprKind::kIdent) {
      if (!conditional) CheckAccessBounds(e, env);
      for (std::size_t i = 1; i < e.args.size(); ++i) {
        CheckBoundsExpr(*e.args[i], env, conditional);
      }
      return;
    }
    for (const auto& a : e.args) CheckBoundsExpr(*a, env, conditional);
  }

  /// Proves an index escapes the declared extent for an iteration that
  /// definitely occurs (corner of the loop ranges), for every runtime
  /// parameter valuation with params >= 1. Guarded accesses (if /
  /// ternary arms) are never claimed -- boundary guards are exactly how
  /// the emitter handles padding.
  void CheckAccessBounds(const SrcExpr& e, const Env& env) {
    const auto it = locals_.find(e.args[0]->name);
    if (it == locals_.end()) return;
    const SrcLocalDecl& decl = *it->second;
    if (decl.dims.size() != e.args.size() - 1) return;
    if (!reported_oob_.insert({decl.name, e.line}).second) return;

    for (std::size_t d = 0; d + 1 < e.args.size(); ++d) {
      const Affine idx = Decompose(*e.args[d + 1]);
      if (!idx.ok) continue;
      const Affine lo = ToParamBound(idx, env, /*want_max=*/false);
      const Affine hi = ToParamBound(idx, env, /*want_max=*/true);

      std::int64_t lo_max = 0;
      if (MaxValueAssumingParamsGE1(lo, &lo_max) && lo_max < 0) {
        diags_.Report(Diagnostic::Make(
            analysis::kSrcIndexOob, DiagLocation{kernel_.name, "", decl.name},
            AtLine(e.line) + "dimension " + std::to_string(d) + " index '" +
                ToSource(*e.args[d + 1]) + "' reaches " +
                std::to_string(lo_max) + " (below 0)"));
        continue;
      }
      const Affine dim = Decompose(*decl.dims[d]);
      if (!dim.ok) continue;
      bool dim_uses_loop_var = false;
      for (const auto& [name, c] : dim.coeffs) {
        (void)c;
        if (env.find(name) != env.end()) dim_uses_loop_var = true;
      }
      if (dim_uses_loop_var) continue;
      const Affine overflow = AffineAdd(hi, dim, -1);  // hi - dim
      std::int64_t over_min = 0;
      if (MinValueAssumingParamsGE1(overflow, &over_min) && over_min >= 0) {
        diags_.Report(Diagnostic::Make(
            analysis::kSrcIndexOob, DiagLocation{kernel_.name, "", decl.name},
            AtLine(e.line) + "dimension " + std::to_string(d) + " index '" +
                ToSource(*e.args[d + 1]) + "' reaches extent '" +
                ToSource(*decl.dims[d]) + "' + " + std::to_string(over_min)));
      }
    }
  }

  void CheckBounds(const std::vector<SrcStmtPtr>& body, Env& env,
                   bool conditional) {
    for (const auto& sp : body) {
      const SrcStmt& s = *sp;
      switch (s.kind) {
        case SrcStmtKind::kAssign:
          CheckBoundsExpr(*s.target, env, conditional);
          CheckBoundsExpr(*s.value, env, conditional);
          break;
        case SrcStmtKind::kCallStmt:
          CheckBoundsExpr(*s.call, env, conditional);
          break;
        case SrcStmtKind::kIf:
          CheckBoundsExpr(*s.cond, env, conditional);
          CheckBounds(s.then_body, env, true);
          CheckBounds(s.else_body, env, true);
          break;
        case SrcStmtKind::kFor: {
          VarRange range;
          range.lo = ToParamBound(Decompose(*s.init), env, /*want_max=*/false);
          Affine hi = ToParamBound(Decompose(*s.bound), env, /*want_max=*/true);
          if (hi.ok) hi.cnst -= 1;  // v < bound  =>  v <= bound - 1
          range.hi = hi;
          const bool shadowed = env.find(s.loop_var) != env.end();
          VarRange saved;
          if (shadowed) saved = env[s.loop_var];
          env[s.loop_var] = range;
          CheckBounds(s.body, env, conditional);
          if (shadowed) {
            env[s.loop_var] = saved;
          } else {
            env.erase(s.loop_var);
          }
          break;
        }
      }
    }
  }

  const SrcKernel& kernel_;
  analysis::DiagnosticEngine& diags_;
  std::map<std::string, const SrcLocalDecl*> locals_;
  std::set<std::pair<std::string, int>> reported_oob_;
  std::set<std::string> read_vars_;
  std::map<std::string, int> first_store_line_;  // var -> first store
  std::map<std::string, int> uninit_line_;       // var -> first bad read
};

}  // namespace

void ValidateAgainstPlan(const SrcProgram& program,
                         const std::vector<const ir::Kernel*>& kernels,
                         analysis::DiagnosticEngine& diags) {
  PlanValidator validator(program, kernels, diags);
  validator.Run();
}

void LintKernelSource(const SrcKernel& kernel,
                      analysis::DiagnosticEngine& diags) {
  KernelLinter linter(kernel, diags);
  linter.Run();
}

}  // namespace clflow::srclint
