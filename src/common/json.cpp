#include "common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/error.h"

namespace cosparse {

Json::Json(unsigned long v) {
  if (v <= static_cast<unsigned long>(std::numeric_limits<std::int64_t>::max()))
    v_ = static_cast<std::int64_t>(v);
  else
    v_ = static_cast<double>(v);
}

Json::Json(unsigned long long v) {
  if (v <= static_cast<unsigned long long>(
               std::numeric_limits<std::int64_t>::max()))
    v_ = static_cast<std::int64_t>(v);
  else
    v_ = static_cast<double>(v);
}

Json::Type Json::type() const {
  switch (v_.index()) {
    case 0: return Type::kNull;
    case 1: return Type::kBool;
    case 2: return Type::kInt;
    case 3: return Type::kDouble;
    case 4: return Type::kString;
    case 5: return Type::kArray;
    default: return Type::kObject;
  }
}

Json& Json::operator[](std::string_view key) {
  if (is_null()) v_ = Object{};
  COSPARSE_CHECK_MSG(is_object(), "Json::operator[] on a non-object");
  auto& obj = std::get<Object>(v_);
  for (auto& [k, v] : obj) {
    if (k == key) return v;
  }
  obj.emplace_back(std::string(key), Json());
  return obj.back().second;
}

Json& Json::push_back(Json v) {
  if (is_null()) v_ = Array{};
  COSPARSE_CHECK_MSG(is_array(), "Json::push_back on a non-array");
  auto& arr = std::get<Array>(v_);
  arr.push_back(std::move(v));
  return arr.back();
}

const Json* Json::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : std::get<Object>(v_)) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::size_t Json::size() const {
  if (is_array()) return std::get<Array>(v_).size();
  if (is_object()) return std::get<Object>(v_).size();
  return 0;
}

const Json& Json::at(std::size_t i) const {
  COSPARSE_CHECK_MSG(is_array(), "Json::at on a non-array");
  const auto& arr = std::get<Array>(v_);
  COSPARSE_CHECK_MSG(i < arr.size(), "Json::at index out of range");
  return arr[i];
}

const Json::Array& Json::items() const {
  COSPARSE_CHECK_MSG(is_array(), "Json::items on a non-array");
  return std::get<Array>(v_);
}

const Json::Object& Json::members() const {
  COSPARSE_CHECK_MSG(is_object(), "Json::members on a non-object");
  return std::get<Object>(v_);
}

bool Json::as_bool() const {
  COSPARSE_CHECK_MSG(is_bool(), "Json::as_bool on a non-bool");
  return std::get<bool>(v_);
}

std::int64_t Json::as_int() const {
  if (type() == Type::kInt) return std::get<std::int64_t>(v_);
  COSPARSE_CHECK_MSG(type() == Type::kDouble, "Json::as_int on a non-number");
  const double d = std::get<double>(v_);
  COSPARSE_CHECK_MSG(d == std::floor(d), "Json::as_int on a non-integral value");
  return static_cast<std::int64_t>(d);
}

double Json::as_double() const {
  if (type() == Type::kInt)
    return static_cast<double>(std::get<std::int64_t>(v_));
  COSPARSE_CHECK_MSG(type() == Type::kDouble,
                     "Json::as_double on a non-number");
  return std::get<double>(v_);
}

const std::string& Json::as_string() const {
  COSPARSE_CHECK_MSG(is_string(), "Json::as_string on a non-string");
  return std::get<std::string>(v_);
}

namespace {

void dump_string(const std::string& s, std::string& out) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
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
  out += '"';
}

void dump_double(double d, std::string& out) {
  // Shortest representation that round-trips; JSON has no inf/nan, clamp
  // them to null rather than emitting an unparseable token.
  if (!std::isfinite(d)) {
    out += "null";
    return;
  }
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, d);
  out.append(buf, end);
  (void)ec;
}

}  // namespace

std::string Json::dump(int indent) const {
  std::string out;
  // Recursive lambda over the tree; `depth` drives pretty-printing.
  auto rec = [&](auto&& self, const Json& j, int depth) -> void {
    const auto newline = [&](int d) {
      if (indent < 0) return;
      out += '\n';
      out.append(static_cast<std::size_t>(indent * d), ' ');
    };
    switch (j.type()) {
      case Type::kNull: out += "null"; break;
      case Type::kBool: out += j.as_bool() ? "true" : "false"; break;
      case Type::kInt: out += std::to_string(j.as_int()); break;
      case Type::kDouble: dump_double(std::get<double>(j.v_), out); break;
      case Type::kString: dump_string(j.as_string(), out); break;
      case Type::kArray: {
        const auto& arr = j.items();
        out += '[';
        for (std::size_t i = 0; i < arr.size(); ++i) {
          if (i > 0) out += ',';
          newline(depth + 1);
          self(self, arr[i], depth + 1);
        }
        if (!arr.empty()) newline(depth);
        out += ']';
        break;
      }
      case Type::kObject: {
        const auto& obj = j.members();
        out += '{';
        for (std::size_t i = 0; i < obj.size(); ++i) {
          if (i > 0) out += ',';
          newline(depth + 1);
          dump_string(obj[i].first, out);
          out += indent < 0 ? ":" : ": ";
          self(self, obj[i].second, depth + 1);
        }
        if (!obj.empty()) newline(depth);
        out += '}';
        break;
      }
    }
  };
  rec(rec, *this, 0);
  return out;
}

// ---- parser ----

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  Json parse_document() {
    Json j = parse_value();
    skip_ws();
    COSPARSE_REQUIRE(pos_ == s_.size(), "JSON: trailing characters at offset " +
                                            std::to_string(pos_));
    return j;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("JSON parse error at offset " + std::to_string(pos_) + ": " +
                what);
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth_ == Json::kMaxDepth) {
        fail("nesting deeper than " + std::to_string(Json::kMaxDepth) +
             " levels");
      }
      ++depth_;
      Json j = c == '{' ? parse_object() : parse_array();
      --depth_;
      return j;
    }
    switch (c) {
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Json();
        fail("bad literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json j = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return j;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      j[key] = parse_value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return j;
    }
  }

  Json parse_array() {
    expect('[');
    Json j = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return j;
    }
    while (true) {
      j.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return j;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad \\u escape digit");
          }
          // Encode as UTF-8 (no surrogate-pair support; the documents we
          // produce never leave the BMP).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    const std::string_view tok = s_.substr(start, pos_ - start);
    if (tok.empty()) fail("expected a value");
    // Integral tokens stay exact; anything with '.', 'e' parses as double.
    if (tok.find_first_of(".eE") == std::string_view::npos) {
      std::int64_t iv = 0;
      const auto [p, ec] =
          std::from_chars(tok.data(), tok.data() + tok.size(), iv);
      if (ec == std::errc() && p == tok.data() + tok.size()) return Json(iv);
    }
    double dv = 0;
    const auto [p, ec] =
        std::from_chars(tok.data(), tok.data() + tok.size(), dv);
    if (ec != std::errc() || p != tok.data() + tok.size())
      fail("malformed number '" + std::string(tok) + "'");
    return Json(dv);
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< open arrays/objects around the current value
};

}  // namespace

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace cosparse
