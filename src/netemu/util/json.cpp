#include "netemu/util/json.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace netemu {

namespace {

const std::string kEmptyString;
const JsonArray kEmptyArray;
const JsonObject kEmptyObject;
const Json kNullJson;

struct Parser {
  const char* p;
  const char* end;
  std::string error;

  bool fail(const std::string& msg) {
    if (error.empty()) error = msg;
    return false;
  }

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
      ++p;
    }
  }

  bool literal(const char* word) {
    const std::size_t len = std::strlen(word);
    if (static_cast<std::size_t>(end - p) < len ||
        std::memcmp(p, word, len) != 0) {
      return fail(std::string("expected '") + word + "'");
    }
    p += len;
    return true;
  }

  bool parse_hex4(unsigned& out) {
    if (end - p < 4) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = *p++;
      out <<= 4;
      if (c >= '0' && c <= '9') out |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') out |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') out |= static_cast<unsigned>(c - 'A' + 10);
      else return fail("bad hex digit in \\u escape");
    }
    return true;
  }

  void append_utf8(std::string& s, unsigned cp) {
    if (cp < 0x80) {
      s += static_cast<char>(cp);
    } else if (cp < 0x800) {
      s += static_cast<char>(0xC0 | (cp >> 6));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      s += static_cast<char>(0xE0 | (cp >> 12));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      s += static_cast<char>(0xF0 | (cp >> 18));
      s += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool parse_string(std::string& out) {
    if (p >= end || *p != '"') return fail("expected string");
    ++p;
    out.clear();
    while (p < end) {
      const char c = *p++;
      if (c == '"') return true;
      if (c == '\\') {
        if (p >= end) return fail("truncated escape");
        const char e = *p++;
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
            unsigned cp = 0;
            if (!parse_hex4(cp)) return false;
            if (cp >= 0xD800 && cp <= 0xDBFF && end - p >= 6 && p[0] == '\\' &&
                p[1] == 'u') {
              p += 2;
              unsigned lo = 0;
              if (!parse_hex4(lo)) return false;
              if (lo >= 0xDC00 && lo <= 0xDFFF) {
                cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
              } else {
                return fail("unpaired surrogate");
              }
            }
            // A surviving surrogate half (lone low, or high not followed by
            // \u) would encode to invalid UTF-8; reject it instead.
            if (cp >= 0xD800 && cp <= 0xDFFF) return fail("unpaired surrogate");
            append_utf8(out, cp);
            break;
          }
          default:
            return fail("unknown escape");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      } else {
        out += c;
      }
    }
    return fail("unterminated string");
  }

  /// JSON number grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
  /// strtod alone is far too permissive (hex, inf/nan, leading '+') so the
  /// span is validated first and strtod only converts the validated bytes.
  bool parse_number(Json& out) {
    const char* start = p;
    if (p < end && *p == '-') ++p;
    if (p >= end || *p < '0' || *p > '9') return fail("bad number");
    if (*p == '0') {
      ++p;
      if (p < end && *p >= '0' && *p <= '9') {
        return fail("bad number: leading zero");
      }
    } else {
      while (p < end && *p >= '0' && *p <= '9') ++p;
    }
    if (p < end && *p == '.') {
      ++p;
      if (p >= end || *p < '0' || *p > '9') {
        return fail("bad number: expected digit after '.'");
      }
      while (p < end && *p >= '0' && *p <= '9') ++p;
    }
    if (p < end && (*p == 'e' || *p == 'E')) {
      ++p;
      if (p < end && (*p == '+' || *p == '-')) ++p;
      if (p >= end || *p < '0' || *p > '9') {
        return fail("bad number: expected exponent digits");
      }
      while (p < end && *p >= '0' && *p <= '9') ++p;
    }
    // Copy so strtod cannot read past the validated span (it would happily
    // consume "0x10" from the underlying buffer).
    const std::string span(start, p);
    out = Json(std::strtod(span.c_str(), nullptr));
    return true;
  }

  bool parse_value(Json& out, int depth) {
    if (depth >= kJsonMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (p >= end) return fail("unexpected end of input");
    switch (*p) {
      case 'n':
        if (!literal("null")) return false;
        out = Json();
        return true;
      case 't':
        if (!literal("true")) return false;
        out = Json(true);
        return true;
      case 'f':
        if (!literal("false")) return false;
        out = Json(false);
        return true;
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = Json(std::move(s));
        return true;
      }
      case '[': {
        ++p;
        JsonArray arr;
        skip_ws();
        if (p < end && *p == ']') {
          ++p;
          out = Json(std::move(arr));
          return true;
        }
        for (;;) {
          Json elem;
          if (!parse_value(elem, depth + 1)) return false;
          arr.push_back(std::move(elem));
          skip_ws();
          if (p >= end) return fail("unterminated array");
          if (*p == ',') {
            ++p;
            continue;
          }
          if (*p == ']') {
            ++p;
            out = Json(std::move(arr));
            return true;
          }
          return fail("expected ',' or ']' in array");
        }
      }
      case '{': {
        ++p;
        JsonObject obj;
        skip_ws();
        if (p < end && *p == '}') {
          ++p;
          out = Json(std::move(obj));
          return true;
        }
        for (;;) {
          skip_ws();
          std::string key;
          if (!parse_string(key)) return false;
          skip_ws();
          if (p >= end || *p != ':') return fail("expected ':' in object");
          ++p;
          Json value;
          if (!parse_value(value, depth + 1)) return false;
          obj[std::move(key)] = std::move(value);
          skip_ws();
          if (p >= end) return fail("unterminated object");
          if (*p == ',') {
            ++p;
            continue;
          }
          if (*p == '}') {
            ++p;
            out = Json(std::move(obj));
            return true;
          }
          return fail("expected ',' or '}' in object");
        }
      }
      default: {
        if (*p == '-' || (*p >= '0' && *p <= '9')) return parse_number(out);
        return fail("unexpected character");
      }
    }
  }
};

void dump_number(double v, std::string& out) {
  if (std::isnan(v) || std::isinf(v)) {
    out += "null";  // JSON has no NaN/Inf; null keeps the document valid
    return;
  }
  char buf[32];
  // Integral values within the double-exact range print without a fraction,
  // so cache keys and seeds round-trip byte-identically.
  if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  out += buf;
}

}  // namespace

void json_escape(const std::string& in, std::string& out) {
  for (const char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

const std::string& Json::as_string() const {
  return is_string() ? str_ : kEmptyString;
}

const JsonArray& Json::items() const {
  return is_array() && arr_ ? *arr_ : kEmptyArray;
}

const JsonObject& Json::fields() const {
  return is_object() && obj_ ? *obj_ : kEmptyObject;
}

JsonArray& Json::items() {
  if (!is_array() || !arr_) {
    type_ = Type::kArray;
    arr_ = std::make_shared<JsonArray>();
  } else if (arr_.use_count() > 1) {
    arr_ = std::make_shared<JsonArray>(*arr_);  // detach before writing
  } else {
    // Sole owner, by a relaxed count: order these writes after the reads
    // of a copy that another thread has just dropped.
    std::atomic_thread_fence(std::memory_order_acquire);
  }
  return *arr_;
}

JsonObject& Json::fields() {
  if (!is_object() || !obj_) {
    type_ = Type::kObject;
    obj_ = std::make_shared<JsonObject>();
  } else if (obj_.use_count() > 1) {
    obj_ = std::make_shared<JsonObject>(*obj_);  // detach before writing
  } else {
    // Sole owner, by a relaxed count: order these writes after the reads
    // of a copy that another thread has just dropped.
    std::atomic_thread_fence(std::memory_order_acquire);
  }
  return *obj_;
}

const Json& Json::operator[](const std::string& key) const {
  if (is_object() && obj_) {
    const auto it = obj_->find(key);
    if (it != obj_->end()) return it->second;
  }
  return kNullJson;
}

Json& Json::operator[](const std::string& key) { return fields()[key]; }

bool Json::contains(const std::string& key) const {
  return is_object() && obj_ && obj_->count(key) > 0;
}

void Json::dump_to(std::string& out) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      dump_number(num_, out);
      break;
    case Type::kString:
      out += '"';
      json_escape(str_, out);
      out += '"';
      break;
    case Type::kArray: {
      out += '[';
      bool first = true;
      for (const Json& elem : items()) {
        if (!first) out += ',';
        first = false;
        elem.dump_to(out);
      }
      out += ']';
      break;
    }
    case Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, value] : fields()) {
        if (!first) out += ',';
        first = false;
        out += '"';
        json_escape(key, out);
        out += "\":";
        value.dump_to(out);
      }
      out += '}';
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

Json Json::parse(const std::string& text, std::string* error) {
  Parser parser{text.data(), text.data() + text.size(), {}};
  Json out;
  if (!parser.parse_value(out, 0)) {
    if (error) *error = parser.error;
    return Json();
  }
  parser.skip_ws();
  if (parser.p != parser.end) {
    if (error) *error = "trailing garbage after document";
    return Json();
  }
  if (error) error->clear();
  return out;
}

}  // namespace netemu
