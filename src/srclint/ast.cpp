#include "srclint/ast.hpp"

#include <charconv>

namespace clflow::srclint {

namespace {

void AppendExpr(std::string& out, const SrcExpr& e) {
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
      // Preserve the original spelling so reprint is byte-stable even for
      // literals like -3.40282306e+38f whose round-trip through double
      // could reformat.
      out += e.text;
      return;
    case SrcExprKind::kIdent:
      out += e.name;
      return;
    case SrcExprKind::kUnary:
      out += e.op;
      AppendExpr(out, *e.args[0]);
      return;
    case SrcExprKind::kBinary:
      out += '(';
      AppendExpr(out, *e.args[0]);
      out += ' ';
      out += e.op;
      out += ' ';
      AppendExpr(out, *e.args[1]);
      out += ')';
      return;
    case SrcExprKind::kTernary:
      out += '(';
      AppendExpr(out, *e.args[0]);
      out += " ? ";
      AppendExpr(out, *e.args[1]);
      out += " : ";
      AppendExpr(out, *e.args[2]);
      out += ')';
      return;
    case SrcExprKind::kCall:
      out += e.name;
      out += '(';
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        if (i) out += ", ";
        AppendExpr(out, *e.args[i]);
      }
      out += ')';
      return;
    case SrcExprKind::kIndex:
      AppendExpr(out, *e.args[0]);
      for (std::size_t i = 1; i < e.args.size(); ++i) {
        out += '[';
        AppendExpr(out, *e.args[i]);
        out += ']';
      }
      return;
  }
}

void Indent(std::string& out, int depth) {
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
}

void AppendStmt(std::string& out, const SrcStmt& s, int depth) {
  switch (s.kind) {
    case SrcStmtKind::kFor: {
      if (s.unroll == -1) {
        Indent(out, depth);
        out += "#pragma unroll\n";
      } else if (s.unroll > 1) {
        Indent(out, depth);
        out += "#pragma unroll " + std::to_string(s.unroll) + "\n";
      }
      Indent(out, depth);
      out += "for (int ";
      out += s.loop_var;
      out += " = ";
      AppendExpr(out, *s.init);
      out += "; ";
      out += s.loop_var;
      out += " < ";
      AppendExpr(out, *s.bound);
      out += "; ++";
      out += s.loop_var;
      out += ") {\n";
      for (const auto& child : s.body) AppendStmt(out, *child, depth + 1);
      Indent(out, depth);
      out += "}\n";
      return;
    }
    case SrcStmtKind::kAssign:
      Indent(out, depth);
      AppendExpr(out, *s.target);
      out += " = ";
      AppendExpr(out, *s.value);
      out += ";\n";
      return;
    case SrcStmtKind::kIf: {
      Indent(out, depth);
      out += "if (";
      AppendExpr(out, *s.cond);
      out += ") {\n";
      for (const auto& child : s.then_body) AppendStmt(out, *child, depth + 1);
      Indent(out, depth);
      out += "}";
      if (!s.else_body.empty()) {
        out += " else {\n";
        for (const auto& child : s.else_body) {
          AppendStmt(out, *child, depth + 1);
        }
        Indent(out, depth);
        out += "}";
      }
      out += '\n';
      return;
    }
    case SrcStmtKind::kCallStmt:
      Indent(out, depth);
      AppendExpr(out, *s.call);
      out += ";\n";
      return;
  }
}

void AppendKernel(std::string& out, const SrcKernel& k) {
  if (k.attr_max_global_work_dim0) {
    out += "__attribute__((max_global_work_dim(0)))\n";
  }
  if (k.attr_autorun) out += "__attribute__((autorun))\n";
  out += "__kernel void ";
  out += k.name;
  out += '(';
  for (std::size_t i = 0; i < k.params.size(); ++i) {
    if (i) out += ", ";
    const SrcParam& p = k.params[i];
    if (p.is_pointer) {
      out += p.constant_space ? "__constant " : "__global ";
      if (p.is_const) out += "const ";
      out += p.type;
      out += '*';
      if (p.is_restrict) out += " restrict";
      out += ' ';
      out += p.name;
    } else {
      out += p.type;
      out += ' ';
      out += p.name;
    }
  }
  out += ") {\n";
  for (const auto& l : k.locals) {
    Indent(out, 1);
    if (l.local) out += "__local ";
    out += l.type;
    out += ' ';
    out += l.name;
    for (const auto& d : l.dims) {
      out += '[';
      AppendExpr(out, *d);
      out += ']';
    }
    out += ";\n";
  }
  for (const auto& s : k.body) AppendStmt(out, *s, 1);
  out += "}\n";
}

}  // namespace

std::string ToSource(const SrcExpr& e) {
  std::string out;
  AppendExpr(out, e);
  return out;
}

std::string ToSource(const SrcKernel& kernel) {
  std::string out;
  AppendKernel(out, kernel);
  return out;
}

std::string ToSource(const SrcProgram& program) {
  std::string out;
  if (program.channels_extension) {
    out += "#pragma OPENCL EXTENSION cl_intel_channels : enable\n\n";
  }
  for (const auto& c : program.channels) {
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
    AppendKernel(out, program.kernels[i]);
  }
  return out;
}

}  // namespace clflow::srclint
