// Recursive-descent parser for the emitted OpenCL C dialect: rebuilds
// from text the tree codegen::BuildProgram builds. The compile gate
// lints the built tree directly; this parser serves `lint --src`, the
// `lint --src --inject` text corruptions and the round-trip test.
//
// Accepts exactly the shape srclint::ToSource prints:
// an optional cl_intel_channels extension pragma, channel declarations
// with optional depth attributes, then kernels whose bodies are
// canonical for-loops (`for (int v = E; v < E; ++v)`), assignments,
// if/else, and write_channel_intel calls. Expressions use normal C
// precedence so hand-edited (or corrupted) sources still parse into the
// same AST the emitter's fully-parenthesized output does.
#pragma once

#include <string>

#include "codegen/ast.hpp"
#include "srclint/lexer.hpp"

namespace clflow::srclint {

/// Parses a whole .cl translation unit. Throws SrcParseError (reported
/// upstream as CLF800) when the source leaves the emitted dialect.
[[nodiscard]] SrcProgram ParseProgram(const std::string& source);

}  // namespace clflow::srclint
