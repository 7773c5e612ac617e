#ifndef HBOLD_COMMON_JSON_H_
#define HBOLD_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace hbold {

/// A JSON value: null, bool, number (double), string, array, or object.
///
/// This is the document representation used by the embedded document store
/// (our MongoDB substitute) and by the export layer. Objects keep their
/// members in one flat vector sorted by key (byte order, as std::map
/// orders std::string keys), so serialization is deterministic and a
/// lookup is a binary search.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  /// Members sorted by key, keys unique.
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() : type_(Type::kNull) {}
  Json(std::nullptr_t) : type_(Type::kNull) {}  // NOLINT(runtime/explicit)
  Json(bool b) : type_(Type::kBool), bool_(b) {}  // NOLINT
  Json(double d) : type_(Type::kNumber), num_(d) {}  // NOLINT
  Json(int i) : type_(Type::kNumber), num_(i) {}  // NOLINT
  Json(int64_t i)  // NOLINT
      : type_(Type::kNumber), num_(static_cast<double>(i)) {}
  Json(uint64_t i)  // NOLINT
      : type_(Type::kNumber), num_(static_cast<double>(i)) {}
  Json(const char* s) : type_(Type::kString), str_(s) {}  // NOLINT
  Json(std::string s)  // NOLINT
      : type_(Type::kString), str_(std::move(s)) {}
  Json(std::string_view s)  // NOLINT
      : type_(Type::kString), str_(s) {}
  Json(Array a) : type_(Type::kArray), arr_(std::move(a)) {}  // NOLINT
  /// Sorts `o` by key; of duplicate keys the last one wins.
  Json(Object o);  // NOLINT

  static Json MakeArray() { return Json(Array{}); }
  static Json MakeObject() { return Json(Object{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Accessors; preconditions checked with assert in debug builds. Use the
  /// typed Get* helpers for checked access.
  bool as_bool() const { return bool_; }
  double as_number() const { return num_; }
  /// Truncates toward zero; only defined when fits_int64().
  int64_t as_int() const { return static_cast<int64_t>(num_); }
  /// A finite number inside int64's range, so as_int() is defined.
  /// Stored documents are external input: check before converting.
  bool fits_int64() const {
    return is_number() && num_ >= -9223372036854775808.0 &&
           num_ < 9223372036854775808.0;
  }
  const std::string& as_string() const { return str_; }
  const Array& as_array() const { return arr_; }
  Array& as_array() { return arr_; }
  /// Read-only: members change through Set, which keeps them sorted.
  const Object& as_object() const { return obj_; }

  /// Object field access. Returns nullptr if not an object or key missing.
  const Json* Find(std::string_view key) const;

  /// Object field access with defaults (convenience for store documents).
  std::string GetString(std::string_view key,
                        std::string default_value = "") const;
  double GetNumber(std::string_view key, double default_value = 0) const;
  /// `default_value` also when the number does not fit an int64.
  int64_t GetInt(std::string_view key, int64_t default_value = 0) const;
  bool GetBool(std::string_view key, bool default_value = false) const;

  /// Sets a field on an object (value must be an object). Appends when
  /// `key` sorts after every present key, inserts in place otherwise.
  Json& Set(std::string key, Json value);

  /// Appends to an array (value must be an array).
  Json& Append(Json value);

  /// Serializes to compact JSON. `indent` > 0 pretty-prints.
  std::string Dump(int indent = 0) const;

  /// Parses a JSON document. Supports the full JSON grammar with
  /// \uXXXX escapes (BMP only; surrogate pairs combined).
  static Result<Json> Parse(std::string_view text);

  /// Deep structural equality.
  friend bool operator==(const Json& a, const Json& b);
  friend bool operator!=(const Json& a, const Json& b) { return !(a == b); }

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  Array arr_;
  Object obj_;
};

}  // namespace hbold

#endif  // HBOLD_COMMON_JSON_H_
