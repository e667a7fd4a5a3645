#include "srclint/parser.hpp"

#include <cstdlib>
#include <utility>

namespace clflow::srclint {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  SrcProgram Program() {
    SrcProgram program;
    // Optional extension pragma.
    if (Is(TokKind::kPragma) &&
        Peek().text.rfind("OPENCL EXTENSION cl_intel_channels", 0) == 0) {
      program.channels_extension = true;
      Next();
    }
    while (!Is(TokKind::kEof)) {
      if (IsIdent("channel")) {
        program.channels.push_back(ChannelDecl());
      } else {
        program.kernels.push_back(Kernel());
      }
    }
    return program;
  }

 private:
  // --- token helpers --------------------------------------------------------

  const Token& Peek(std::size_t ahead = 0) const {
    const std::size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Next() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }
  bool Is(TokKind k) const { return Peek().kind == k; }
  bool IsPunct(std::string_view p) const {
    return Peek().kind == TokKind::kPunct && Peek().text == p;
  }
  bool IsIdent(std::string_view name) const {
    return Peek().kind == TokKind::kIdent && Peek().text == name;
  }
  bool AcceptPunct(std::string_view p) {
    if (!IsPunct(p)) return false;
    Next();
    return true;
  }
  bool AcceptIdent(std::string_view name) {
    if (!IsIdent(name)) return false;
    Next();
    return true;
  }
  void ExpectPunct(std::string_view p) {
    if (!AcceptPunct(p)) {
      throw SrcParseError("expected '" + std::string(p) + "', got '" +
                              Peek().text + "'",
                          Peek().line);
    }
  }
  void ExpectIdent(std::string_view name) {
    if (!AcceptIdent(name)) {
      throw SrcParseError("expected '" + std::string(name) + "', got '" +
                              Peek().text + "'",
                          Peek().line);
    }
  }
  std::string IdentText() {
    if (!Is(TokKind::kIdent)) {
      throw SrcParseError("expected identifier, got '" + Peek().text + "'",
                          Peek().line);
    }
    return Next().text;
  }
  std::int64_t IntLit() {
    if (!Is(TokKind::kIntLit)) {
      throw SrcParseError("expected integer literal, got '" + Peek().text +
                              "'",
                          Peek().line);
    }
    return Next().int_value;
  }

  // --- declarations ---------------------------------------------------------

  std::string TypeName() {
    if (IsIdent("float") || IsIdent("int")) return Next().text;
    throw SrcParseError("expected type name, got '" + Peek().text + "'",
                        Peek().line);
  }

  SrcChannelDecl ChannelDecl() {
    SrcChannelDecl decl;
    decl.line = Peek().line;
    ExpectIdent("channel");
    decl.type = TypeName();
    decl.name = IdentText();
    if (IsIdent("__attribute__")) {
      Next();
      ExpectPunct("(");
      ExpectPunct("(");
      ExpectIdent("depth");
      ExpectPunct("(");
      decl.depth = IntLit();
      ExpectPunct(")");
      ExpectPunct(")");
      ExpectPunct(")");
    }
    ExpectPunct(";");
    return decl;
  }

  SrcKernel Kernel() {
    SrcKernel k;
    k.line = Peek().line;
    while (IsIdent("__attribute__")) {
      Next();
      ExpectPunct("(");
      ExpectPunct("(");
      const std::string attr = IdentText();
      if (attr == "autorun") {
        k.attr_autorun = true;
      } else if (attr == "max_global_work_dim") {
        ExpectPunct("(");
        if (IntLit() != 0) {
          throw SrcParseError("expected max_global_work_dim(0)", Peek().line);
        }
        ExpectPunct(")");
        k.attr_max_global_work_dim0 = true;
      } else {
        throw SrcParseError("unknown kernel attribute '" + attr + "'",
                            Peek().line);
      }
      ExpectPunct(")");
      ExpectPunct(")");
    }
    ExpectIdent("__kernel");
    ExpectIdent("void");
    k.name = IdentText();
    ExpectPunct("(");
    if (!IsPunct(")")) {
      do {
        k.params.push_back(Param());
      } while (AcceptPunct(","));
    }
    ExpectPunct(")");
    ExpectPunct("{");
    // Local declarations come first: [__local] <type> name[dims...];
    while (IsIdent("__local") || ((IsIdent("float") || IsIdent("int")) &&
                                  Peek(1).kind == TokKind::kIdent)) {
      k.locals.push_back(LocalDecl());
    }
    while (!IsPunct("}")) k.body.push_back(Stmt());
    ExpectPunct("}");
    return k;
  }

  SrcParam Param() {
    SrcParam p;
    p.line = Peek().line;
    if (IsIdent("__global") || IsIdent("__constant")) {
      p.is_pointer = true;
      p.constant_space = Next().text == "__constant";
      p.is_const = AcceptIdent("const");
      p.type = TypeName();
      ExpectPunct("*");
      p.is_restrict = AcceptIdent("restrict");
      p.name = IdentText();
    } else {
      p.type = TypeName();
      p.name = IdentText();
    }
    return p;
  }

  SrcLocalDecl LocalDecl() {
    SrcLocalDecl decl;
    decl.line = Peek().line;
    decl.local = AcceptIdent("__local");
    decl.type = TypeName();
    decl.name = IdentText();
    while (AcceptPunct("[")) {
      decl.dims.push_back(Expr());
      ExpectPunct("]");
    }
    ExpectPunct(";");
    return decl;
  }

  // --- statements -----------------------------------------------------------

  SrcStmtPtr Stmt() {
    if (Is(TokKind::kPragma)) {
      const Token pragma = Next();
      const std::int64_t unroll = ParseUnrollPragma(pragma);
      if (!IsIdent("for")) {
        throw SrcParseError("'#pragma unroll' must precede a for loop",
                            pragma.line);
      }
      auto loop = ForStmt();
      loop->unroll = unroll;
      return loop;
    }
    if (IsIdent("for")) return ForStmt();
    if (IsIdent("if")) return IfStmt();

    // Assignment or expression statement (write_channel_intel).
    auto s = std::make_unique<SrcStmt>();
    s->line = Peek().line;
    auto lhs = Postfix();
    if (AcceptPunct("=")) {
      if (lhs->kind != SrcExprKind::kIdent &&
          lhs->kind != SrcExprKind::kIndex) {
        throw SrcParseError("assignment target must be a variable or element",
                            s->line);
      }
      s->kind = SrcStmtKind::kAssign;
      s->target = std::move(lhs);
      s->value = Expr();
    } else {
      if (lhs->kind != SrcExprKind::kCall) {
        throw SrcParseError("expected assignment or call statement", s->line);
      }
      s->kind = SrcStmtKind::kCallStmt;
      s->call = std::move(lhs);
    }
    ExpectPunct(";");
    return s;
  }

  std::int64_t ParseUnrollPragma(const Token& pragma) {
    // Body is everything after '#pragma ': "unroll" or "unroll N".
    const std::string& body = pragma.text;
    if (body == "unroll") return -1;
    if (body.rfind("unroll ", 0) == 0) {
      const char* digits = body.c_str() + 7;
      char* end = nullptr;
      const long long factor = std::strtoll(digits, &end, 10);
      if (end != digits && *end == '\0' && factor > 1) return factor;
    }
    throw SrcParseError("unsupported pragma '#pragma " + body + "'",
                        pragma.line);
  }

  SrcStmtPtr ForStmt() {
    auto s = std::make_unique<SrcStmt>();
    s->kind = SrcStmtKind::kFor;
    s->line = Peek().line;
    ExpectIdent("for");
    ExpectPunct("(");
    ExpectIdent("int");
    s->loop_var = IdentText();
    ExpectPunct("=");
    s->init = Expr();
    ExpectPunct(";");
    ExpectIdent(s->loop_var);
    ExpectPunct("<");
    s->bound = Expr();
    ExpectPunct(";");
    ExpectPunct("++");
    ExpectIdent(s->loop_var);
    ExpectPunct(")");
    ExpectPunct("{");
    while (!IsPunct("}")) s->body.push_back(Stmt());
    ExpectPunct("}");
    return s;
  }

  SrcStmtPtr IfStmt() {
    auto s = std::make_unique<SrcStmt>();
    s->kind = SrcStmtKind::kIf;
    s->line = Peek().line;
    ExpectIdent("if");
    ExpectPunct("(");
    s->cond = Expr();
    ExpectPunct(")");
    ExpectPunct("{");
    while (!IsPunct("}")) s->then_body.push_back(Stmt());
    ExpectPunct("}");
    if (AcceptIdent("else")) {
      ExpectPunct("{");
      while (!IsPunct("}")) s->else_body.push_back(Stmt());
      ExpectPunct("}");
    }
    return s;
  }

  // --- expressions (standard C precedence, lowest first) --------------------

  SrcExprPtr Expr() { return Ternary(); }

  SrcExprPtr Ternary() {
    auto cond = Or();
    if (!AcceptPunct("?")) return cond;
    const int line = cond->line;
    auto then_arm = Expr();
    ExpectPunct(":");
    auto e = srclint::Ternary(std::move(cond), std::move(then_arm), Expr());
    e->line = line;
    return e;
  }

  SrcExprPtr Or() { return LeftAssoc({"||"}, [this] { return And(); }); }
  SrcExprPtr And() { return LeftAssoc({"&&"}, [this] { return Equality(); }); }
  SrcExprPtr Equality() {
    return LeftAssoc({"==", "!="}, [this] { return Relational(); });
  }
  SrcExprPtr Relational() {
    return LeftAssoc({"<", ">", "<=", ">="}, [this] { return Additive(); });
  }
  SrcExprPtr Additive() {
    return LeftAssoc({"+", "-"}, [this] { return Multiplicative(); });
  }
  SrcExprPtr Multiplicative() {
    return LeftAssoc({"*", "/", "%"}, [this] { return Unary(); });
  }

  template <typename Sub>
  SrcExprPtr LeftAssoc(std::initializer_list<std::string_view> ops, Sub sub) {
    auto lhs = sub();
    for (;;) {
      bool matched = false;
      for (const auto op : ops) {
        if (IsPunct(op)) {
          const int line = Next().line;
          lhs = Bin(std::string(op), std::move(lhs), sub());
          lhs->line = line;
          matched = true;
          break;
        }
      }
      if (!matched) return lhs;
    }
  }

  SrcExprPtr Unary() {
    if (IsPunct("-") || IsPunct("!")) {
      const Token& op = Next();
      auto e = srclint::Unary(op.text, Unary());
      e->line = op.line;
      return e;
    }
    return Postfix();
  }

  SrcExprPtr Postfix() {
    auto e = Primary();
    for (;;) {
      if (IsPunct("(") && e->kind == SrcExprKind::kIdent) {
        // Call: fold the identifier into a kCall node.
        Next();
        e->kind = SrcExprKind::kCall;
        if (!IsPunct(")")) {
          do {
            e->args.push_back(Expr());
          } while (AcceptPunct(","));
        }
        ExpectPunct(")");
        continue;
      }
      if (IsPunct("[")) {
        std::vector<SrcExprPtr> indices;
        while (AcceptPunct("[")) {
          indices.push_back(Expr());
          ExpectPunct("]");
        }
        const int line = e->line;
        e = Index(std::move(e), std::move(indices));
        e->line = line;
        continue;
      }
      return e;
    }
  }

  SrcExprPtr Primary() {
    const int line = Peek().line;
    SrcExprPtr e;
    if (Is(TokKind::kIntLit)) {
      e = Int(Next().int_value);
    } else if (Is(TokKind::kFloatLit)) {
      const Token& t = Next();
      // Normalize the spelling; the emitter always suffixes.
      e = Float(t.text + 'f', t.float_value);
    } else if (Is(TokKind::kIdent)) {
      e = Ident(Next().text);
    }
    if (e) {
      e->line = line;
      return e;
    }
    if (AcceptPunct("(")) {
      auto inner = Expr();
      ExpectPunct(")");
      return inner;
    }
    throw SrcParseError("expected expression, got '" + Peek().text + "'",
                        Peek().line);
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

}  // namespace

SrcProgram ParseProgram(const std::string& source) {
  Parser parser(Lex(source));
  return parser.Program();
}

}  // namespace clflow::srclint
