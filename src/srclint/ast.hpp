// Source-level AST for the emitted OpenCL C dialect: what the parser
// builds and the CLF8xx analyses walk.
//
// This AST deliberately mirrors the *source*, not clflow's tensor IR: the
// whole point of the translation validator is that it reconstructs the
// kernel's structure from the text alone and only then compares it
// against the plan. Nothing here holds ir:: pointers.
//
// ToSource() re-prints a program in the emitter's canonical formatting;
// Parse(ToSource(Parse(s))) == Parse(s) is a property test (srclint's
// round-trip harness fuzzes it across recipes and DSE schedules).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace clflow::srclint {

// --- Expressions ------------------------------------------------------------

enum class SrcExprKind {
  kIntLit,
  kFloatLit,
  kIdent,
  kUnary,    ///< prefix operator, operand in args[0]
  kBinary,   ///< args[0] op args[1]
  kTernary,  ///< args[0] ? args[1] : args[2]
  kCall,     ///< name(args...)
  kIndex,    ///< args[0] [ args[1] ] [ args[2] ] ... (base then indices)
};

struct SrcExpr;
using SrcExprPtr = std::unique_ptr<SrcExpr>;

struct SrcExpr {
  SrcExprKind kind = SrcExprKind::kIntLit;
  std::int64_t int_value = 0;
  double float_value = 0.0;
  std::string text;  ///< float literal spelling, verbatim from the source
  std::string name;  ///< identifier / callee
  std::string op;    ///< unary/binary operator spelling
  std::vector<SrcExprPtr> args;
  int line = 0;
};

/// Canonical printing (fully parenthesized, the emitter's formatting).
[[nodiscard]] std::string ToSource(const SrcExpr& e);

// --- Statements -------------------------------------------------------------

enum class SrcStmtKind {
  kFor,
  kAssign,
  kIf,
  kCallStmt,  ///< expression statement; only write_channel_intel is emitted
};

struct SrcStmt;
using SrcStmtPtr = std::unique_ptr<SrcStmt>;

struct SrcStmt {
  SrcStmtKind kind = SrcStmtKind::kAssign;

  // kFor: for (int var = init; var < bound; ++var) body, with an optional
  // preceding '#pragma unroll [N]' (unroll: 0 none, -1 full, N>1 factor).
  std::string loop_var;
  SrcExprPtr init, bound;
  std::int64_t unroll = 0;
  std::vector<SrcStmtPtr> body;

  // kAssign: target = value. Target is kIdent or kIndex.
  SrcExprPtr target, value;

  // kIf
  SrcExprPtr cond;
  std::vector<SrcStmtPtr> then_body, else_body;

  // kCallStmt
  SrcExprPtr call;

  int line = 0;
};

// --- Declarations -----------------------------------------------------------

/// One kernel parameter. Pointer parameters carry an address space and
/// qualifiers; scalar parameters are plain ints.
struct SrcParam {
  bool is_pointer = false;
  bool constant_space = false;  ///< __constant (vs __global) for pointers
  bool is_const = false;
  bool is_restrict = false;
  std::string type;  ///< element type for pointers, value type for scalars
  std::string name;
  int line = 0;
};

/// Kernel-local array declaration ([__local] type name[d0][d1]...;).
struct SrcLocalDecl {
  bool local = false;  ///< __local BRAM vs private registers
  std::string type;
  std::string name;
  std::vector<SrcExprPtr> dims;
  int line = 0;
};

struct SrcKernel {
  std::string name;
  bool attr_autorun = false;
  bool attr_max_global_work_dim0 = false;
  std::vector<SrcParam> params;
  std::vector<SrcLocalDecl> locals;
  std::vector<SrcStmtPtr> body;
  int line = 0;
};

/// Program-level channel declaration.
struct SrcChannelDecl {
  std::string type;
  std::string name;
  std::int64_t depth = 0;  ///< 0 = no depth attribute
  int line = 0;
};

struct SrcProgram {
  bool channels_extension = false;
  std::vector<SrcChannelDecl> channels;
  std::vector<SrcKernel> kernels;
};

/// Re-prints the whole translation unit in canonical emitter formatting.
[[nodiscard]] std::string ToSource(const SrcProgram& program);
[[nodiscard]] std::string ToSource(const SrcKernel& kernel);

}  // namespace clflow::srclint
