// Tensor IR: statements and kernels.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ir/expr.hpp"

namespace clflow::ir {

class StmtNode;
using Stmt = std::shared_ptr<const StmtNode>;

enum class StmtKind {
  kFor,
  kStore,
  kBlock,
  kIf,
  kWriteChannel,
};

/// Loop annotations set by schedule primitives and read by the AOC model
/// and the code generator.
struct ForAnnotation {
  /// 0 = not unrolled; -1 = fully unrolled (#pragma unroll);
  /// n > 1 = partially unrolled by factor n.
  std::int64_t unroll = 0;
  /// Explicitly marked as the vectorized inner loop of a split (emitted as
  /// a fully-unrolled loop; trip count is the split factor).
  bool vectorized = false;

  [[nodiscard]] bool IsUnrolled() const { return unroll != 0 || vectorized; }
};

class StmtNode {
 public:
  StmtKind kind;

  // kFor: for (var = min; var < min+extent; ++var) body
  VarPtr var;
  Expr min, extent;
  Stmt body;
  ForAnnotation ann;

  // kStore: buffer[indices] = value
  BufferPtr buffer;
  std::vector<Expr> indices;
  Expr value;

  // kBlock
  std::vector<Stmt> stmts;

  // kIf: if (cond) then_body [else else_body]
  Expr cond;
  Stmt then_body, else_body;

  // kWriteChannel: write_channel(channel, value) -- channel in `buffer`,
  // payload in `value`.
};

[[nodiscard]] Stmt For(VarPtr var, Expr min, Expr extent, Stmt body,
                       ForAnnotation ann = {});
[[nodiscard]] Stmt Store(BufferPtr buffer, std::vector<Expr> indices,
                         Expr value);
[[nodiscard]] Stmt Block(std::vector<Stmt> stmts);
[[nodiscard]] Stmt If(Expr cond, Stmt then_body, Stmt else_body = nullptr);
[[nodiscard]] Stmt WriteChannel(BufferPtr channel, Expr value);

/// A single OpenCL kernel: signature (buffer + scalar shape arguments),
/// local allocations, body, and the Intel-specific attributes from Ch. 4.
struct Kernel {
  std::string name;
  /// Global/constant buffers in the kernel signature, in argument order.
  std::vector<BufferPtr> buffer_args;
  /// Symbolic shape parameters (int kernel arguments), §5.3.
  std::vector<VarPtr> scalar_args;
  /// Kernel-local allocations (private registers / local BRAM).
  std::vector<BufferPtr> local_buffers;
  /// Channels read from / written to (also visible in the body).
  std::vector<BufferPtr> channels_read;
  std::vector<BufferPtr> channels_written;
  Stmt body;
  /// Autorun kernels execute without host dispatch (§4.7); requires an
  /// argument-free signature.
  bool autorun = false;

  /// Throws IrError if the kernel is internally inconsistent
  /// (autorun with arguments, stores to undeclared buffers, ...).
  void Validate() const;
};

/// The program-scope channels of `kernels`, each once, in first-use order
/// (kernels in order, each kernel's reads before its writes). A channel's
/// name is its identity: kernels may hold distinct channel objects with
/// one name. Throws IrError when one name carries two element types or
/// two depths.
[[nodiscard]] std::vector<BufferPtr> ProgramChannels(
    const std::vector<const Kernel*>& kernels);

/// Pretty-prints a statement tree with indentation.
[[nodiscard]] std::string ToString(const Stmt& stmt, int indent = 0);

/// Visits every statement in the tree (pre-order).
void VisitStmts(const Stmt& stmt,
                const std::function<void(const Stmt&)>& fn);

/// Visits every expression appearing in the statement tree.
void VisitExprs(const Stmt& stmt, const std::function<void(const Expr&)>& fn);

void VisitExprsIn(const Expr& e, const std::function<void(const Expr&)>& fn);

/// Substitutes a variable throughout a statement tree.
[[nodiscard]] Stmt SubstituteStmt(const Stmt& stmt, const VarPtr& var,
                                  const Expr& replacement);

}  // namespace clflow::ir
