// Tensor IR: expressions, variables, and buffers.
//
// This is clflow's analogue of TVM's tensor IR (the "Tensor Expression" /
// tir stage of Figure 3.1 in the paper). Operator compute definitions are
// lowered to loop nests over these expressions; schedule primitives
// (ir/passes.hpp) rewrite them; the analyses (ir/analysis.hpp) and the
// OpenCL code generator (codegen/) consume them.
//
// Expressions are immutable and shared (Expr = shared_ptr<const ExprNode>).
// Variables and buffers have identity: two VarPtr/BufferPtr are the same
// variable/buffer iff they are the same object.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace clflow::ir {

enum class ScalarType { kFloat32, kInt32 };

[[nodiscard]] std::string_view ScalarTypeName(ScalarType t);

/// What a variable stands for. Loop variables are bound by For statements;
/// shape parameters are the symbolic dimensions of parameterized kernels
/// (the paper's te.var objects, §5.3), passed as kernel arguments at runtime.
enum class VarKind { kLoop, kShapeParam };

struct VarNode {
  std::string name;
  VarKind kind = VarKind::kLoop;
};
using VarPtr = std::shared_ptr<const VarNode>;

[[nodiscard]] VarPtr MakeVar(std::string name, VarKind kind = VarKind::kLoop);

/// Memory scope of a buffer, mirroring the OpenCL memory model (§2.3.3)
/// plus Intel channels (§4.6).
enum class MemScope {
  kGlobal,    ///< external memory; accessed through LSUs
  kConstant,  ///< global constant partition (weights marked const)
  kLocal,     ///< on-chip BRAM
  kPrivate,   ///< registers
  kChannel,   ///< Intel OpenCL channel (inter-kernel FIFO)
};

[[nodiscard]] std::string_view MemScopeName(MemScope scope);

class ExprNode;
using Expr = std::shared_ptr<const ExprNode>;

/// A (possibly multi-dimensional) array. Shape extents are expressions so
/// parameterized kernels can carry symbolic dimensions. `is_arg` buffers
/// appear in the kernel signature; others are kernel-local allocations.
struct BufferNode {
  std::string name;
  ScalarType dtype = ScalarType::kFloat32;
  MemScope scope = MemScope::kGlobal;
  std::vector<Expr> shape;
  /// Explicit per-dimension strides, in elements. Empty means row-major
  /// strides derived from `shape`. Parameterized kernels carry symbolic
  /// stride variables here (TVM passes buffer strides as kernel arguments
  /// for symbolic-shape kernels, §5.3), which is precisely what defeats
  /// AOC's access coalescing until PinStrideVars binds the innermost ones
  /// to 1 (Listing 5.11).
  std::vector<Expr> strides;
  bool is_arg = false;
  /// FIFO depth for kChannel buffers (paper §4.6 buffered channels).
  std::int64_t channel_depth = 0;
};
using BufferPtr = std::shared_ptr<BufferNode>;

[[nodiscard]] BufferPtr MakeBuffer(std::string name, std::vector<Expr> shape,
                                   MemScope scope = MemScope::kGlobal,
                                   bool is_arg = false,
                                   ScalarType dtype = ScalarType::kFloat32);

enum class ExprKind {
  kIntImm,
  kFloatImm,
  kVar,
  kBinary,
  kLoad,
  kCall,
  kSelect,
};

enum class BinOp {
  kAdd,
  kSub,
  kMul,
  kDiv,       ///< float division / integer truncating division
  kMod,       ///< integer modulo
  kMin,
  kMax,
  kLt,        ///< comparison; int result 0/1
  kGe,
  kEq,
  kAnd,
};

[[nodiscard]] std::string_view BinOpName(BinOp op);

class ExprNode {
 public:
  ExprKind kind;
  ScalarType dtype = ScalarType::kFloat32;

  // kIntImm / kFloatImm
  std::int64_t int_value = 0;
  double float_value = 0.0;

  // kVar
  VarPtr var;

  // kBinary: op(a, b). kSelect: cond=a ? then=b : otherwise=c.
  BinOp op = BinOp::kAdd;
  Expr a, b, c;

  // kLoad
  BufferPtr buffer;
  std::vector<Expr> indices;

  // kCall: intrinsic by name ("exp", "read_channel").
  std::string callee;
  std::vector<Expr> args;
};

// --- Constructors -----------------------------------------------------------

[[nodiscard]] Expr IntImm(std::int64_t v);
[[nodiscard]] Expr FloatImm(double v);
[[nodiscard]] Expr VarRef(const VarPtr& var);
[[nodiscard]] Expr Binary(BinOp op, Expr a, Expr b);
[[nodiscard]] Expr Load(BufferPtr buffer, std::vector<Expr> indices);
[[nodiscard]] Expr CallIntrinsic(std::string callee, std::vector<Expr> args,
                                 ScalarType dtype = ScalarType::kFloat32);
[[nodiscard]] Expr Select(Expr cond, Expr then_value, Expr else_value);

// Convenience arithmetic (int/float inferred from operands).
[[nodiscard]] Expr Add(Expr a, Expr b);
[[nodiscard]] Expr Sub(Expr a, Expr b);
[[nodiscard]] Expr Mul(Expr a, Expr b);
[[nodiscard]] Expr Div(Expr a, Expr b);
[[nodiscard]] Expr Mod(Expr a, Expr b);
[[nodiscard]] Expr Min(Expr a, Expr b);
[[nodiscard]] Expr Max(Expr a, Expr b);

/// Channel read as an expression: read_channel_intel(chan).
[[nodiscard]] Expr ReadChannel(BufferPtr channel);

// --- Queries ----------------------------------------------------------------

/// Constant value if the expression folds to an integer constant.
[[nodiscard]] bool IsConstInt(const Expr& e, std::int64_t* value = nullptr);

/// Structural expression printer (C-like).
[[nodiscard]] std::string ToString(const Expr& e);

/// Replaces every occurrence of `var` with `replacement`.
[[nodiscard]] Expr Substitute(const Expr& e, const VarPtr& var,
                              const Expr& replacement);

/// Constant folding + algebraic identities (x*1, x+0, const*const, ...).
[[nodiscard]] Expr Simplify(const Expr& e);

}  // namespace clflow::ir
