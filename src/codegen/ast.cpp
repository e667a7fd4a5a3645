#include "codegen/ast.hpp"

#include <algorithm>
#include <charconv>
#include <type_traits>

namespace clflow::srclint {

namespace {

SrcExprPtr NewExpr(SrcExprKind kind, std::vector<SrcExprPtr> args = {}) {
  auto e = std::make_unique<SrcExpr>();
  e->kind = kind;
  e->args = std::move(args);
  return e;
}

}  // namespace

SrcExprPtr Int(std::int64_t v) {
  if (v < 0) return Unary("-", Int(-v));
  auto e = NewExpr(SrcExprKind::kIntLit);
  e->int_value = v;
  return e;
}

SrcExprPtr Float(std::string text, double value) {
  auto e = NewExpr(SrcExprKind::kFloatLit);
  e->text = std::move(text);
  e->float_value = value;
  return e;
}

SrcExprPtr Ident(std::string name) {
  auto e = NewExpr(SrcExprKind::kIdent);
  e->name = std::move(name);
  return e;
}

SrcExprPtr Unary(std::string op, SrcExprPtr operand) {
  auto e = NewExpr(SrcExprKind::kUnary, Args(std::move(operand)));
  e->op = std::move(op);
  return e;
}

SrcExprPtr Bin(std::string op, SrcExprPtr a, SrcExprPtr b) {
  auto e = NewExpr(SrcExprKind::kBinary, Args(std::move(a), std::move(b)));
  e->op = std::move(op);
  return e;
}

SrcExprPtr Ternary(SrcExprPtr cond, SrcExprPtr then_arm,
                   SrcExprPtr else_arm) {
  return NewExpr(SrcExprKind::kTernary, Args(std::move(cond),
                                             std::move(then_arm),
                                             std::move(else_arm)));
}

SrcExprPtr Call(std::string name, std::vector<SrcExprPtr> args) {
  auto e = NewExpr(SrcExprKind::kCall, std::move(args));
  e->name = std::move(name);
  return e;
}

SrcExprPtr Index(SrcExprPtr base, std::vector<SrcExprPtr> indices) {
  if (indices.empty()) return base;
  indices.insert(indices.begin(), std::move(base));
  return NewExpr(SrcExprKind::kIndex, std::move(indices));
}

namespace {

/// The one printer of the dialect. With kNumber it prints a mutable tree
/// and stamps each node's `line` where the parser would put it: the line
/// of the node's first token (for a loop, the `for` after its pragma).
/// One printed construct never spans lines below statement level, so an
/// expression's line is its statement's.
template <bool kNumber>
class Printer {
  template <typename T>
  using Node = std::conditional_t<kNumber, T, const T>;

 public:
  std::string out;

  void Expr(Node<SrcExpr>& e) {
    Stamp(e);
    switch (e.kind) {
      case SrcExprKind::kIntLit: {
        char buf[24];
        const auto [end, ec] =
            std::to_chars(buf, buf + sizeof(buf), e.int_value);
        (void)ec;
        out.append(buf, end);
        return;
      }
      case SrcExprKind::kFloatLit:
        // The stored spelling, so reprint is byte-stable even for
        // literals like 3.40282306e+38f whose round-trip through double
        // could reformat.
        out += e.text;
        return;
      case SrcExprKind::kIdent:
        out += e.name;
        return;
      case SrcExprKind::kUnary:
        out += e.op;
        Expr(*e.args[0]);
        return;
      case SrcExprKind::kBinary:
        out += '(';
        Expr(*e.args[0]);
        out += ' ';
        out += e.op;
        out += ' ';
        Expr(*e.args[1]);
        out += ')';
        return;
      case SrcExprKind::kTernary:
        out += '(';
        Expr(*e.args[0]);
        out += " ? ";
        Expr(*e.args[1]);
        out += " : ";
        Expr(*e.args[2]);
        out += ')';
        return;
      case SrcExprKind::kCall:
        out += e.name;
        out += '(';
        for (std::size_t i = 0; i < e.args.size(); ++i) {
          if (i) out += ", ";
          Expr(*e.args[i]);
        }
        out += ')';
        return;
      case SrcExprKind::kIndex:
        Expr(*e.args[0]);
        for (std::size_t i = 1; i < e.args.size(); ++i) {
          out += '[';
          Expr(*e.args[i]);
          out += ']';
        }
        return;
    }
  }

  void Stmt(Node<SrcStmt>& s, int depth) {
    switch (s.kind) {
      case SrcStmtKind::kFor: {
        if (s.unroll == -1) {
          Indent(depth);
          out += "#pragma unroll\n";
        } else if (s.unroll > 1) {
          Indent(depth);
          out += "#pragma unroll " + std::to_string(s.unroll) + "\n";
        }
        Indent(depth);
        Stamp(s);
        out += "for (int ";
        out += s.loop_var;
        out += " = ";
        Expr(*s.init);
        out += "; ";
        out += s.loop_var;
        out += " < ";
        Expr(*s.bound);
        out += "; ++";
        out += s.loop_var;
        out += ") {\n";
        for (auto& child : s.body) Stmt(*child, depth + 1);
        Indent(depth);
        out += "}\n";
        return;
      }
      case SrcStmtKind::kAssign:
        Indent(depth);
        Stamp(s);
        Expr(*s.target);
        out += " = ";
        Expr(*s.value);
        out += ";\n";
        return;
      case SrcStmtKind::kIf: {
        Indent(depth);
        Stamp(s);
        out += "if (";
        Expr(*s.cond);
        out += ") {\n";
        for (auto& child : s.then_body) Stmt(*child, depth + 1);
        Indent(depth);
        out += "}";
        if (!s.else_body.empty()) {
          out += " else {\n";
          for (auto& child : s.else_body) Stmt(*child, depth + 1);
          Indent(depth);
          out += "}";
        }
        out += '\n';
        return;
      }
      case SrcStmtKind::kCallStmt:
        Indent(depth);
        Stamp(s);
        Expr(*s.call);
        out += ";\n";
        return;
    }
  }

  void Kernel(Node<SrcKernel>& k) {
    Stamp(k);
    if (k.attr_max_global_work_dim0) {
      out += "__attribute__((max_global_work_dim(0)))\n";
    }
    if (k.attr_autorun) out += "__attribute__((autorun))\n";
    out += "__kernel void ";
    out += k.name;
    out += '(';
    for (std::size_t i = 0; i < k.params.size(); ++i) {
      if (i) out += ", ";
      auto& p = k.params[i];
      Stamp(p);
      if (p.is_pointer) {
        out += p.constant_space ? "__constant " : "__global ";
        if (p.is_const) out += "const ";
      }
      out += p.type;
      if (p.is_pointer) out += p.is_restrict ? "* restrict" : "*";
      out += ' ';
      out += p.name;
    }
    out += ") {\n";
    for (auto& l : k.locals) {
      Indent(1);
      Stamp(l);
      if (l.local) out += "__local ";
      out += l.type;
      out += ' ';
      out += l.name;
      for (auto& d : l.dims) {
        out += '[';
        Expr(*d);
        out += ']';
      }
      out += ";\n";
    }
    for (auto& s : k.body) Stmt(*s, 1);
    out += "}\n";
  }

  void Program(Node<SrcProgram>& program) {
    if (program.channels_extension) {
      out += "#pragma OPENCL EXTENSION cl_intel_channels : enable\n\n";
    }
    for (auto& c : program.channels) {
      Stamp(c);
      out += "channel ";
      out += c.type;
      out += ' ';
      out += c.name;
      if (c.depth > 0) {
        out += " __attribute__((depth(" + std::to_string(c.depth) + ")))";
      }
      out += ";\n";
    }
    if (!program.channels.empty()) out += '\n';
    for (std::size_t i = 0; i < program.kernels.size(); ++i) {
      if (i) out += '\n';
      Kernel(program.kernels[i]);
    }
  }

 private:
  void Indent(int depth) {
    out.append(static_cast<std::size_t>(depth) * 2, ' ');
  }

  /// Sets node.line to the current output line (1-based), counting the
  /// newlines printed since the previous stamp.
  template <typename T>
  void Stamp([[maybe_unused]] T& node) {
    if constexpr (kNumber) {
      line_ += static_cast<int>(std::count(
          out.begin() + static_cast<std::ptrdiff_t>(scanned_), out.end(),
          '\n'));
      scanned_ = out.size();
      node.line = line_;
    }
  }

  int line_ = 1;
  std::size_t scanned_ = 0;
};

}  // namespace

std::string ToSource(const SrcExpr& e) {
  Printer<false> printer;
  printer.Expr(e);
  return std::move(printer.out);
}

std::string ToSource(const SrcProgram& program) {
  Printer<false> printer;
  printer.Program(program);
  return std::move(printer.out);
}

std::string ToSourceNumbered(SrcProgram& program) {
  Printer<true> printer;
  printer.Program(program);
  return std::move(printer.out);
}

}  // namespace clflow::srclint
