#include "ir/stmt.hpp"

#include <functional>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "common/arena.hpp"
#include "common/error.hpp"

namespace clflow::ir {

Stmt For(VarPtr var, Expr min, Expr extent, Stmt body, ForAnnotation ann) {
  CLFLOW_CHECK(var && min && extent && body);
  auto s = common::MakeArenaShared<StmtNode>();
  s->kind = StmtKind::kFor;
  s->var = std::move(var);
  s->min = std::move(min);
  s->extent = std::move(extent);
  s->body = std::move(body);
  s->ann = ann;
  return s;
}

Stmt Store(BufferPtr buffer, std::vector<Expr> indices, Expr value) {
  CLFLOW_CHECK(buffer && value);
  CLFLOW_CHECK_MSG(indices.size() == buffer->shape.size(),
                   "store arity mismatch for buffer " + buffer->name);
  auto s = common::MakeArenaShared<StmtNode>();
  s->kind = StmtKind::kStore;
  s->buffer = std::move(buffer);
  s->indices = std::move(indices);
  s->value = std::move(value);
  return s;
}

Stmt Block(std::vector<Stmt> stmts) {
  auto s = common::MakeArenaShared<StmtNode>();
  s->kind = StmtKind::kBlock;
  s->stmts = std::move(stmts);
  return s;
}

Stmt If(Expr cond, Stmt then_body, Stmt else_body) {
  CLFLOW_CHECK(cond && then_body);
  auto s = common::MakeArenaShared<StmtNode>();
  s->kind = StmtKind::kIf;
  s->cond = std::move(cond);
  s->then_body = std::move(then_body);
  s->else_body = std::move(else_body);
  return s;
}

Stmt WriteChannel(BufferPtr channel, Expr value) {
  CLFLOW_CHECK(channel && value);
  CLFLOW_CHECK_MSG(channel->scope == MemScope::kChannel,
                   "WriteChannel target is not a channel");
  auto s = common::MakeArenaShared<StmtNode>();
  s->kind = StmtKind::kWriteChannel;
  s->buffer = std::move(channel);
  s->value = std::move(value);
  return s;
}

namespace {

void Indent(std::ostringstream& os, int n) {
  for (int i = 0; i < n; ++i) os << "  ";
}

}  // namespace

std::string ToString(const Stmt& stmt, int indent) {
  if (!stmt) return "";
  std::ostringstream os;
  switch (stmt->kind) {
    case StmtKind::kFor: {
      Indent(os, indent);
      os << "for (" << stmt->var->name << " = " << ToString(stmt->min)
         << "; extent " << ToString(stmt->extent) << ")";
      if (stmt->ann.unroll == -1) os << " [unroll]";
      if (stmt->ann.unroll > 1) os << " [unroll " << stmt->ann.unroll << "]";
      if (stmt->ann.vectorized) os << " [vectorized]";
      os << " {\n" << ToString(stmt->body, indent + 1);
      Indent(os, indent);
      os << "}\n";
      break;
    }
    case StmtKind::kStore: {
      Indent(os, indent);
      os << stmt->buffer->name;
      for (const auto& idx : stmt->indices) os << '[' << ToString(idx) << ']';
      os << " = " << ToString(stmt->value) << ";\n";
      break;
    }
    case StmtKind::kBlock:
      for (const auto& s : stmt->stmts) os << ToString(s, indent);
      break;
    case StmtKind::kIf: {
      Indent(os, indent);
      os << "if (" << ToString(stmt->cond) << ") {\n"
         << ToString(stmt->then_body, indent + 1);
      Indent(os, indent);
      os << "}";
      if (stmt->else_body) {
        os << " else {\n" << ToString(stmt->else_body, indent + 1);
        Indent(os, indent);
        os << "}";
      }
      os << "\n";
      break;
    }
    case StmtKind::kWriteChannel: {
      Indent(os, indent);
      os << "write_channel(" << stmt->buffer->name << ", "
         << ToString(stmt->value) << ");\n";
      break;
    }
  }
  return os.str();
}

void VisitStmts(const Stmt& stmt, const std::function<void(const Stmt&)>& fn) {
  if (!stmt) return;
  fn(stmt);
  switch (stmt->kind) {
    case StmtKind::kFor:
      VisitStmts(stmt->body, fn);
      break;
    case StmtKind::kBlock:
      for (const auto& s : stmt->stmts) VisitStmts(s, fn);
      break;
    case StmtKind::kIf:
      VisitStmts(stmt->then_body, fn);
      VisitStmts(stmt->else_body, fn);
      break;
    default:
      break;
  }
}

void VisitExprsIn(const Expr& e, const std::function<void(const Expr&)>& fn) {
  if (!e) return;
  fn(e);
  if (e->a) VisitExprsIn(e->a, fn);
  if (e->b) VisitExprsIn(e->b, fn);
  if (e->c) VisitExprsIn(e->c, fn);
  for (const auto& idx : e->indices) VisitExprsIn(idx, fn);
  for (const auto& arg : e->args) VisitExprsIn(arg, fn);
}

void VisitExprs(const Stmt& stmt, const std::function<void(const Expr&)>& fn) {
  VisitStmts(stmt, [&fn](const Stmt& s) {
    switch (s->kind) {
      case StmtKind::kFor:
        VisitExprsIn(s->min, fn);
        VisitExprsIn(s->extent, fn);
        break;
      case StmtKind::kStore:
        for (const auto& idx : s->indices) VisitExprsIn(idx, fn);
        VisitExprsIn(s->value, fn);
        break;
      case StmtKind::kIf:
        VisitExprsIn(s->cond, fn);
        break;
      case StmtKind::kWriteChannel:
        VisitExprsIn(s->value, fn);
        break;
      case StmtKind::kBlock:
        break;
    }
  });
}

Stmt SubstituteStmt(const Stmt& stmt, const VarPtr& var,
                    const Expr& replacement) {
  if (!stmt) return stmt;
  auto copy = common::MakeArenaShared<StmtNode>(*stmt);
  switch (stmt->kind) {
    case StmtKind::kFor:
      CLFLOW_CHECK_MSG(stmt->var != var,
                       "substituting a variable into its own binder");
      copy->min = Substitute(stmt->min, var, replacement);
      copy->extent = Substitute(stmt->extent, var, replacement);
      copy->body = SubstituteStmt(stmt->body, var, replacement);
      break;
    case StmtKind::kStore:
      for (auto& idx : copy->indices) idx = Substitute(idx, var, replacement);
      copy->value = Substitute(stmt->value, var, replacement);
      break;
    case StmtKind::kBlock:
      for (auto& s : copy->stmts) s = SubstituteStmt(s, var, replacement);
      break;
    case StmtKind::kIf:
      copy->cond = Substitute(stmt->cond, var, replacement);
      copy->then_body = SubstituteStmt(stmt->then_body, var, replacement);
      copy->else_body = SubstituteStmt(stmt->else_body, var, replacement);
      break;
    case StmtKind::kWriteChannel:
      copy->value = Substitute(stmt->value, var, replacement);
      break;
  }
  return copy;
}

std::vector<BufferPtr> ProgramChannels(
    const std::vector<const Kernel*>& kernels) {
  std::vector<BufferPtr> channels;
  std::unordered_map<std::string_view, const BufferNode*> by_name;
  auto use = [&](const BufferPtr& c) {
    const auto [it, first] = by_name.try_emplace(c->name, c.get());
    if (first) {
      channels.push_back(c);
    } else if (it->second->dtype != c->dtype ||
               it->second->channel_depth != c->channel_depth) {
      auto desc = [](const BufferNode& b) {
        return std::string(ScalarTypeName(b.dtype)) + " depth " +
               std::to_string(b.channel_depth);
      };
      throw IrError("channel " + c->name + " is used as " +
                    desc(*it->second) + " and as " + desc(*c));
    }
  };
  for (const Kernel* k : kernels) {
    for (const auto& c : k->channels_read) use(c);
    for (const auto& c : k->channels_written) use(c);
  }
  return channels;
}

void Kernel::Validate() const {
  if (!body) throw IrError("kernel " + name + " has no body");
  if (autorun && (!buffer_args.empty() || !scalar_args.empty())) {
    throw IrError("autorun kernel " + name +
                  " must not take arguments (paper SS4.7)");
  }
  std::unordered_set<const BufferNode*> known;
  for (const auto& b : buffer_args) known.insert(b.get());
  for (const auto& b : local_buffers) known.insert(b.get());
  for (const auto& b : channels_read) known.insert(b.get());
  for (const auto& b : channels_written) known.insert(b.get());

  for (const auto& b : buffer_args) {
    if (b->scope != MemScope::kGlobal && b->scope != MemScope::kConstant) {
      throw IrError("kernel argument " + b->name + " must be global/constant");
    }
  }
  for (const auto& b : local_buffers) {
    if (b->scope != MemScope::kLocal && b->scope != MemScope::kPrivate) {
      throw IrError("local allocation " + b->name + " has non-local scope");
    }
  }

  VisitStmts(body, [&](const Stmt& s) {
    if ((s->kind == StmtKind::kStore || s->kind == StmtKind::kWriteChannel) &&
        known.find(s->buffer.get()) == known.end()) {
      throw IrError("kernel " + name + " stores to undeclared buffer " +
                    s->buffer->name);
    }
  });
  VisitExprs(body, [&](const Expr& e) {
    if ((e->kind == ExprKind::kLoad ||
         (e->kind == ExprKind::kCall && e->buffer)) &&
        known.find(e->buffer.get()) == known.end()) {
      throw IrError("kernel " + name + " loads from undeclared buffer " +
                    e->buffer->name);
    }
  });
}

}  // namespace clflow::ir
