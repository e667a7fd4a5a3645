#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace clflow::obs {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

namespace json {

const Value* Value::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  bool ok = true;

  void SkipWs() {
    while (pos < text.size() && std::isspace(
               static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  Value Fail() {
    ok = false;
    return {};
  }

  Value ParseString() {
    Value v;
    v.kind = Value::Kind::kString;
    // Opening quote already consumed.
    while (pos < text.size()) {
      char c = text[pos++];
      if (c == '"') return v;
      if (static_cast<unsigned char>(c) < 0x20) return Fail();
      if (c != '\\') {
        v.str += c;
        continue;
      }
      if (pos >= text.size()) return Fail();
      char esc = text[pos++];
      switch (esc) {
        case '"': v.str += '"'; break;
        case '\\': v.str += '\\'; break;
        case '/': v.str += '/'; break;
        case 'b': v.str += '\b'; break;
        case 'f': v.str += '\f'; break;
        case 'n': v.str += '\n'; break;
        case 'r': v.str += '\r'; break;
        case 't': v.str += '\t'; break;
        case 'u': {
          if (pos + 4 > text.size()) return Fail();
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Fail();
          }
          // Our exporters only emit \u for control chars; decode BMP code
          // points as UTF-8 and reject surrogates.
          if (code >= 0xD800 && code <= 0xDFFF) return Fail();
          if (code < 0x80) {
            v.str += static_cast<char>(code);
          } else if (code < 0x800) {
            v.str += static_cast<char>(0xC0 | (code >> 6));
            v.str += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            v.str += static_cast<char>(0xE0 | (code >> 12));
            v.str += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            v.str += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return Fail();
      }
    }
    return Fail();  // unterminated
  }

  Value ParseValue() {
    SkipWs();
    if (pos >= text.size()) return Fail();
    char c = text[pos];
    if (c == '{') {
      ++pos;
      Value v;
      v.kind = Value::Kind::kObject;
      SkipWs();
      if (Consume('}')) return v;
      while (ok) {
        if (!Consume('"')) return Fail();
        Value key = ParseString();
        if (!ok) return {};
        if (!Consume(':')) return Fail();
        Value member = ParseValue();
        if (!ok) return {};
        v.object.emplace_back(std::move(key.str), std::move(member));
        if (Consume(',')) continue;
        if (Consume('}')) return v;
        return Fail();
      }
      return {};
    }
    if (c == '[') {
      ++pos;
      Value v;
      v.kind = Value::Kind::kArray;
      SkipWs();
      if (Consume(']')) return v;
      while (ok) {
        Value elem = ParseValue();
        if (!ok) return {};
        v.array.push_back(std::move(elem));
        if (Consume(',')) continue;
        if (Consume(']')) return v;
        return Fail();
      }
      return {};
    }
    if (c == '"') {
      ++pos;
      return ParseString();
    }
    if (text.compare(pos, 4, "true") == 0) {
      pos += 4;
      Value v;
      v.kind = Value::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (text.compare(pos, 5, "false") == 0) {
      pos += 5;
      Value v;
      v.kind = Value::Kind::kBool;
      return v;
    }
    if (text.compare(pos, 4, "null") == 0) {
      pos += 4;
      return {};
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      // strtod needs a terminated buffer; copy the number's span.
      std::size_t end = pos;
      while (end < text.size() &&
             (std::isdigit(static_cast<unsigned char>(text[end])) ||
              text[end] == '-' || text[end] == '+' || text[end] == '.' ||
              text[end] == 'e' || text[end] == 'E')) {
        ++end;
      }
      std::string num(text.substr(pos, end - pos));
      char* parse_end = nullptr;
      const double d = std::strtod(num.c_str(), &parse_end);
      if (parse_end != num.c_str() + num.size()) return Fail();
      pos = end;
      Value v;
      v.kind = Value::Kind::kNumber;
      v.number = d;
      return v;
    }
    return Fail();
  }
};

}  // namespace

std::optional<Value> Parse(std::string_view text) {
  Parser p{text};
  Value v = p.ParseValue();
  p.SkipWs();
  if (!p.ok || p.pos != text.size()) return std::nullopt;
  return v;
}

}  // namespace json
}  // namespace clflow::obs
