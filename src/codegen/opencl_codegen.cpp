#include "codegen/opencl_codegen.hpp"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/arena.hpp"
#include "common/error.hpp"

namespace clflow::codegen {

namespace {

using ir::BinOp;
using ir::Expr;
using ir::ExprKind;
using ir::MemScope;
using ir::ScalarType;
using ir::Stmt;
using ir::StmtKind;

/// Single-pass emitter: every production appends into one output string
/// (no intermediate per-subexpression strings, no stream formatting on
/// the hot compile path -- ROADMAP item 4a). The DSE fingerprints
/// pipelined kernels through this code, so its cost is paid per candidate,
/// not just once per shipped .cl file.
class Emitter {
 public:
  std::string Kernel(const ir::Kernel& k) {
    k.Validate();
    out_.clear();
    out_.reserve(4096);
    AppendKernel(k);
    return std::move(out_);
  }

  std::string Expr(const ir::Expr& e) {
    out_.clear();
    AppendExpr(e);
    return std::move(out_);
  }

  void AppendKernel(const ir::Kernel& k) {
    // Collect buffers that are only read (for const qualification).
    std::unordered_set<const ir::BufferNode*> stored;
    ir::VisitStmts(k.body, [&](const Stmt& s) {
      if (s->kind == StmtKind::kStore) stored.insert(s->buffer.get());
    });

    if (k.autorun) {
      out_ += "__attribute__((max_global_work_dim(0)))\n"
              "__attribute__((autorun))\n";
    }
    out_ += "__kernel void ";
    out_ += k.name;
    out_ += '(';
    bool first = true;
    for (const auto& b : k.buffer_args) {
      if (!first) out_ += ", ";
      first = false;
      const bool readonly = stored.find(b.get()) == stored.end();
      out_ += b->scope == MemScope::kConstant ? "__constant " : "__global ";
      if (readonly) out_ += "const ";
      out_ += ClTypeName(b->dtype);
      out_ += "* restrict ";
      out_ += b->name;
    }
    for (const auto& v : k.scalar_args) {
      if (!first) out_ += ", ";
      first = false;
      out_ += "int ";
      out_ += v->name;
    }
    out_ += ") {\n";
    indent_ = 1;
    for (const auto& b : k.local_buffers) {
      Indent();
      if (b->scope == MemScope::kLocal) out_ += "__local ";
      out_ += ClTypeName(b->dtype);
      out_ += ' ';
      out_ += b->name;
      for (const auto& d : b->shape) {
        out_ += '[';
        AppendExpr(d);
        out_ += ']';
      }
      out_ += ";\n";
    }
    AppendStmt(k.body);
    out_ += "}\n";
  }

  void AppendExpr(const ir::Expr& e) {
    switch (e->kind) {
      case ExprKind::kIntImm:
        AppendInt(e->int_value);
        return;
      case ExprKind::kFloatImm:
        AppendFloat(e->float_value);
        return;
      case ExprKind::kVar:
        out_ += e->var->name;
        return;
      case ExprKind::kBinary:
        AppendBinary(e);
        return;
      case ExprKind::kLoad: {
        out_ += e->buffer->name;
        for (const auto& idx : LinearizedIndices(e->buffer, e->indices)) {
          out_ += '[';
          AppendExpr(idx);
          out_ += ']';
        }
        return;
      }
      case ExprKind::kCall: {
        if (e->callee == "read_channel") {
          out_ += "read_channel_intel(";
          out_ += e->buffer->name;
          out_ += ')';
          return;
        }
        out_ += e->callee;
        out_ += '(';
        for (std::size_t i = 0; i < e->args.size(); ++i) {
          if (i) out_ += ", ";
          AppendExpr(e->args[i]);
        }
        out_ += ')';
        return;
      }
      case ExprKind::kSelect:
        out_ += '(';
        AppendExpr(e->a);
        out_ += " ? ";
        AppendExpr(e->b);
        out_ += " : ";
        AppendExpr(e->c);
        out_ += ')';
        return;
    }
    throw IrError("codegen: bad expression");
  }

 private:
  void AppendInt(std::int64_t v) {
    char buf[24];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    (void)ec;
    out_.append(buf, end);
  }

  void AppendFloat(double v) { out_ += FloatLiteral(v); }

  /// Formatted float literal, interned per distinct value per thread: the
  /// same constants (0.0f activation clamps, pool divisors, quant scales)
  /// recur across every kernel of a sweep, and snprintf dominates the
  /// cost of emitting them.
  static std::string_view FloatLiteral(double v) {
    struct Memo {
      common::StringInterner pool{4 * 1024};
      std::unordered_map<std::uint64_t, std::string_view> by_bits;
    };
    thread_local Memo memo;
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    if (auto it = memo.by_bits.find(bits); it != memo.by_bits.end()) {
      return it->second;
    }
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
    buf[n++] = 'f';
    const std::string_view lit =
        memo.pool.Intern(std::string_view(buf, static_cast<std::size_t>(n)))
            .view;
    memo.by_bits.emplace(bits, lit);
    return lit;
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
    ir::Expr flat;
    if (!buffer->strides.empty()) {
      flat = ir::IntImm(0);
      for (std::size_t d = 0; d < indices.size(); ++d) {
        flat = ir::Add(flat, ir::Mul(indices[d], buffer->strides[d]));
      }
    } else {
      flat = ir::IntImm(0);
      for (std::size_t d = 0; d < indices.size(); ++d) {
        flat = ir::Add(ir::Mul(flat, buffer->shape[d]), indices[d]);
      }
    }
    return {ir::Simplify(flat)};
  }

  void AppendBinary(const ir::Expr& e) {
    const bool is_float = e->dtype == ScalarType::kFloat32;
    std::string_view infix;
    switch (e->op) {
      case BinOp::kMin:
      case BinOp::kMax: {
        out_ += e->op == BinOp::kMin ? (is_float ? "fmin(" : "min(")
                                     : (is_float ? "fmax(" : "max(");
        AppendExpr(e->a);
        out_ += ", ";
        AppendExpr(e->b);
        out_ += ')';
        return;
      }
      case BinOp::kAdd: infix = " + "; break;
      case BinOp::kSub: infix = " - "; break;
      case BinOp::kMul: infix = " * "; break;
      case BinOp::kDiv: infix = " / "; break;
      case BinOp::kMod: infix = " % "; break;
      case BinOp::kLt: infix = " < "; break;
      case BinOp::kGe: infix = " >= "; break;
      case BinOp::kEq: infix = " == "; break;
      case BinOp::kAnd: infix = " && "; break;
      default:
        throw IrError("codegen: bad binary op");
    }
    out_ += '(';
    AppendExpr(e->a);
    out_ += infix;
    AppendExpr(e->b);
    out_ += ')';
  }

  void Indent() { out_.append(static_cast<std::size_t>(indent_) * 2, ' '); }

  void AppendStmt(const Stmt& s) {
    if (!s) return;
    switch (s->kind) {
      case StmtKind::kFor: {
        if (s->ann.unroll == -1 || s->ann.vectorized) {
          Indent();
          out_ += "#pragma unroll\n";
        } else if (s->ann.unroll > 1) {
          Indent();
          out_ += "#pragma unroll ";
          AppendInt(s->ann.unroll);
          out_ += '\n';
        }
        Indent();
        const std::string& v = s->var->name;
        out_ += "for (int ";
        out_ += v;
        out_ += " = ";
        AppendExpr(s->min);
        out_ += "; ";
        out_ += v;
        out_ += " < ";
        AppendExpr(ir::Simplify(ir::Add(s->min, s->extent)));
        out_ += "; ++";
        out_ += v;
        out_ += ") {\n";
        ++indent_;
        AppendStmt(s->body);
        --indent_;
        Indent();
        out_ += "}\n";
        break;
      }
      case StmtKind::kStore: {
        Indent();
        out_ += s->buffer->name;
        for (const auto& idx : LinearizedIndices(s->buffer, s->indices)) {
          out_ += '[';
          AppendExpr(idx);
          out_ += ']';
        }
        out_ += " = ";
        AppendExpr(s->value);
        out_ += ";\n";
        break;
      }
      case StmtKind::kBlock:
        for (const auto& child : s->stmts) AppendStmt(child);
        break;
      case StmtKind::kIf: {
        Indent();
        out_ += "if (";
        AppendExpr(s->cond);
        out_ += ") {\n";
        ++indent_;
        AppendStmt(s->then_body);
        --indent_;
        Indent();
        out_ += "}";
        if (s->else_body) {
          out_ += " else {\n";
          ++indent_;
          AppendStmt(s->else_body);
          --indent_;
          Indent();
          out_ += "}";
        }
        out_ += '\n';
        break;
      }
      case StmtKind::kWriteChannel: {
        Indent();
        out_ += "write_channel_intel(";
        out_ += s->buffer->name;
        out_ += ", ";
        AppendExpr(s->value);
        out_ += ");\n";
        break;
      }
    }
  }

  std::string out_;
  int indent_ = 0;
};

}  // namespace

std::string_view ClTypeName(ir::ScalarType t) {
  return t == ir::ScalarType::kFloat32 ? "float" : "int";
}

std::string EmitKernel(const ir::Kernel& kernel) {
  Emitter emitter;
  return emitter.Kernel(kernel);
}

std::string EmitExpr(const ir::Expr& expr) {
  Emitter emitter;
  return emitter.Expr(expr);
}

std::string EmitProgram(const std::vector<const ir::Kernel*>& kernels) {
  std::string out;
  // Gather channels across all kernels, by pointer identity, emit once.
  std::set<const ir::BufferNode*> channels;
  for (const auto* k : kernels) {
    for (const auto& c : k->channels_read) channels.insert(c.get());
    for (const auto& c : k->channels_written) channels.insert(c.get());
  }
  const bool any_channels = !channels.empty();

  if (any_channels) {
    out += "#pragma OPENCL EXTENSION cl_intel_channels : enable\n\n";
  }
  for (const auto* c : channels) {
    // The element type follows the channel buffer's dtype: a quantized
    // (int) channel declared "channel float" compiles under AOC but
    // reinterprets every payload -- exactly the emitter-trusted-blindly
    // class of bug srclint's CLF804 cross-check exists to catch.
    out += "channel ";
    out += ClTypeName(c->dtype);
    out += ' ';
    out += c->name;
    if (c->channel_depth > 0) {
      out += " __attribute__((depth(";
      out += std::to_string(c->channel_depth);
      out += ")))";
    }
    out += ";\n";
  }
  if (any_channels) out += '\n';

  Emitter emitter;
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    if (i) out += '\n';
    out += emitter.Kernel(*kernels[i]);
  }
  return out;
}

}  // namespace clflow::codegen
