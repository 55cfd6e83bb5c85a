#pragma once
// Minimal hand-rolled JSON — parser, value model, and serializer — for the
// planner service's wire protocol and cache file.  No external dependency.
//
// Deliberate simplifications that are fine for this protocol:
//  * objects are std::map, so keys are stored (and serialized) sorted —
//    which is exactly what the content-addressed cache key needs: two
//    requests differing only in field order dump to identical bytes;
//  * numbers are doubles (the protocol's integers — sizes, seeds, ports —
//    all fit in 2^53), serialized without a trailing ".0" when integral;
//  * \uXXXX escapes decode to UTF-8, surrogate pairs included.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace netemu {

class Json;
using JsonArray = std::vector<Json>;
using JsonObject = std::map<std::string, Json>;

/// Maximum container nesting depth parse() accepts.  Deeper documents are
/// rejected with an error instead of recursing toward a stack overflow —
/// the wire protocol and cache file never legitimately nest past a handful
/// of levels.
inline constexpr int kJsonMaxDepth = 64;

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;                      // null
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double d) : type_(Type::kNumber), num_(d) {}
  Json(int i) : type_(Type::kNumber), num_(i) {}
  Json(unsigned u) : type_(Type::kNumber), num_(u) {}
  Json(long i) : type_(Type::kNumber), num_(static_cast<double>(i)) {}
  Json(unsigned long u) : type_(Type::kNumber), num_(static_cast<double>(u)) {}
  Json(long long i) : type_(Type::kNumber), num_(static_cast<double>(i)) {}
  Json(unsigned long long u)
      : type_(Type::kNumber), num_(static_cast<double>(u)) {}
  Json(const char* s) : type_(Type::kString), str_(s) {}
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}
  Json(JsonArray a)
      : type_(Type::kArray), arr_(std::make_shared<JsonArray>(std::move(a))) {}
  Json(JsonObject o)
      : type_(Type::kObject),
        obj_(std::make_shared<JsonObject>(std::move(o))) {}

  static Json array() { return Json(JsonArray{}); }
  static Json object() { return Json(JsonObject{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool(bool def = false) const { return is_bool() ? bool_ : def; }
  double as_number(double def = 0.0) const { return is_number() ? num_ : def; }
  std::int64_t as_int(std::int64_t def = 0) const {
    return is_number() ? static_cast<std::int64_t>(num_) : def;
  }
  std::uint64_t as_uint(std::uint64_t def = 0) const {
    return is_number() ? static_cast<std::uint64_t>(num_) : def;
  }
  const std::string& as_string() const;  // empty string when not a string

  const JsonArray& items() const;    // empty when not an array
  const JsonObject& fields() const;  // empty when not an object
  /// Mutable access converts to an array / object if needed, and first
  /// detaches one that other copies share (copy-on-write).
  JsonArray& items();
  JsonObject& fields();

  /// Object field lookup; returns a null Json when absent or not an object.
  const Json& operator[](const std::string& key) const;
  /// Mutable object field access (fields()[key]: converts, detaches, and
  /// inserts a null field when absent).
  Json& operator[](const std::string& key);

  bool contains(const std::string& key) const;

  /// Compact single-line serialization (sorted object keys).
  std::string dump() const;
  void dump_to(std::string& out) const;

  /// Parse one JSON document; trailing whitespace allowed, trailing garbage
  /// is an error.  Returns null and sets *error on failure.  Malformed
  /// input never yields a partial document: strict number grammar (no hex,
  /// inf/nan, leading '+', or bare '.5'), unpaired \uXXXX surrogates are
  /// rejected, and nesting beyond kJsonMaxDepth is an error.
  static Json parse(const std::string& text, std::string* error = nullptr);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  // Copies share their array / object until one of them writes: the
  // mutable accessors detach first, so mutating a copy never changes the
  // original or another copy, on any thread.  Concurrent use of ONE Json
  // object still needs a lock, and a reference taken through a mutable
  // accessor must not be written through once the Json has been copied.
  std::shared_ptr<JsonArray> arr_;
  std::shared_ptr<JsonObject> obj_;
};

/// Escape a string into a JSON string literal (without quotes).
void json_escape(const std::string& in, std::string& out);

}  // namespace netemu
