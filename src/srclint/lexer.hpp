// Lexer for the OpenCL C dialect clflow's emitter produces, the first
// stage of parsing text (see parser.hpp for who parses).
//
// The token set covers exactly the surface the printer can generate
// (srclint::ToSource, codegen/ast.cpp): identifiers and keywords, integer and
// float literals (with exponents and the 'f' suffix), the punctuation of
// fully-parenthesized expressions, '#pragma ...' lines (captured whole,
// the parser interprets them), and '__attribute__((...))' spellings.
// Anything outside that subset is a lex error -- the linter's job is to
// prove the emission matches the plan, not to accept arbitrary OpenCL.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace clflow::srclint {

/// Structured failure of the lexer or parser: the generated source left
/// the dialect the emitter is supposed to produce. Reported as CLF800.
class SrcParseError : public Error {
 public:
  SrcParseError(std::string message, int line)
      : Error("srclint: line " + std::to_string(line) + ": " +
              std::move(message)),
        line_(line) {}
  [[nodiscard]] int line() const { return line_; }

 private:
  int line_ = 0;
};

enum class TokKind {
  kIdent,    ///< identifiers and keywords (__kernel, float, channel, ...)
  kIntLit,   ///< 123, -7 is lexed as kPunct('-') + kIntLit(7)
  kFloatLit, ///< 1.0f, 3.40282306e+38f, 1e-10f
  kPragma,   ///< whole '#pragma ...' line, text after "#pragma "
  kPunct,    ///< single/multi-char punctuation, spelling in `text`
  kEof,
};

struct Token {
  TokKind kind = TokKind::kEof;
  std::string text;            ///< spelling (identifier, punct, pragma body)
  std::int64_t int_value = 0;  ///< kIntLit
  double float_value = 0.0;    ///< kFloatLit
  int line = 1;
};

/// Tokenizes `source`; throws SrcParseError on characters outside the
/// emitted dialect. The final token is always kEof.
[[nodiscard]] std::vector<Token> Lex(const std::string& source);

}  // namespace clflow::srclint
