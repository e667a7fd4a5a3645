// Source-level AST for the emitted OpenCL C dialect: what the emitter
// builds, ToSource prints, and srclint's CLF8xx analyses walk.
//
// This AST deliberately mirrors the *source*, not clflow's tensor IR:
// nothing here holds ir:: pointers, so the translation validator checks
// it against expectations it derives from the plan on its own. srclint's
// parser rebuilds the same tree from text; a round-trip test pins
// ParseProgram(ToSource(BuildProgram(k))) to BuildProgram(k) field by
// field. The types keep srclint's namespace; codegen, which builds them,
// owns the files.
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
  std::string text;  ///< float literal spelling, 'f' suffix included
  std::string name;  ///< identifier / callee
  std::string op;    ///< unary/binary operator spelling
  std::vector<SrcExprPtr> args;
  int line = 0;
};

// Node factories, shaped as the parser reads the printed text: literals
// are non-negative (a negative one is kUnary("-") over its magnitude), and
// `line` stays 0 until ToSourceNumbered stamps it.

/// An argument list of nodes (an initializer list cannot hold them).
template <typename... T>
[[nodiscard]] std::vector<SrcExprPtr> Args(T... args) {
  std::vector<SrcExprPtr> v;
  v.reserve(sizeof...(args));
  (v.push_back(std::move(args)), ...);
  return v;
}

/// Integer literal; negative values become kUnary("-") over |v|.
[[nodiscard]] SrcExprPtr Int(std::int64_t v);
/// Float literal: `text` is the spelling ("0.5f"), `value` what a reader
/// of that spelling gets back. Both must be non-negative.
[[nodiscard]] SrcExprPtr Float(std::string text, double value);
[[nodiscard]] SrcExprPtr Ident(std::string name);
[[nodiscard]] SrcExprPtr Unary(std::string op, SrcExprPtr operand);
[[nodiscard]] SrcExprPtr Bin(std::string op, SrcExprPtr a, SrcExprPtr b);
[[nodiscard]] SrcExprPtr Ternary(SrcExprPtr cond, SrcExprPtr then_arm,
                                 SrcExprPtr else_arm);
[[nodiscard]] SrcExprPtr Call(std::string name, std::vector<SrcExprPtr> args);
/// base[i0][i1]...; with no indices the base itself.
[[nodiscard]] SrcExprPtr Index(SrcExprPtr base,
                               std::vector<SrcExprPtr> indices);

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

/// Prints the whole translation unit in canonical emitter formatting.
[[nodiscard]] std::string ToSource(const SrcProgram& program);

/// ToSource that also stamps every node's `line` with the line it is
/// printed on -- the value ParseProgram of the result assigns -- so
/// diagnostics on a built tree cite lines of the printed text.
[[nodiscard]] std::string ToSourceNumbered(SrcProgram& program);

}  // namespace clflow::srclint
