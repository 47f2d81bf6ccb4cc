// Minimal JSON emission and parsing, shared by the bench binaries
// (BENCH_*.json documents) and the serving protocol (src/service).
//
// The writer replaces the hand-rolled printf JSON that used to live in
// bench/bench_*.cpp: it tracks nesting and comma placement so emitting
// a document is a linear sequence of begin/key/value calls that cannot
// produce malformed output. Reading has one lexer, JsonReader: a pull
// tokenizer covering the JSON subset the protocol uses (objects,
// arrays, strings, numbers, booleans, null). json_parse builds the
// JsonValue DOM on it, and hot readers (the service's request parser)
// walk it directly, so a document is lexed once and never copied into a
// tree. Numbers keep their source text so 64-bit identifiers round-trip
// without double-precision loss.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bfdn {

/// Escapes and quotes a string for JSON output.
std::string json_quote(std::string_view text);
/// Appends json_quote(text) to `out`.
void json_append_quoted(std::string& out, std::string_view text);

/// Streaming JSON document builder. Compact by default (single line,
/// protocol framing); pretty mode emits two-space indentation for the
/// committed BENCH files.
class JsonWriter {
 public:
  explicit JsonWriter(bool pretty = false);

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object member name; must be followed by a value or container.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text);
  JsonWriter& value(std::int64_t number);
  JsonWriter& value(std::int32_t number);
  JsonWriter& value(std::uint64_t number);
  /// decimals < 0 formats with %.6g; otherwise fixed-point %.*f.
  JsonWriter& value(double number, int decimals = -1);
  JsonWriter& value(bool flag);
  JsonWriter& value_null();
  /// Splices pre-serialized JSON verbatim (e.g. a cached result object).
  JsonWriter& raw(std::string_view json);

  /// key() + value() in one call.
  template <typename T>
  JsonWriter& kv(std::string_view name, T&& v) {
    key(name);
    return value(std::forward<T>(v));
  }
  JsonWriter& kv(std::string_view name, double number, int decimals) {
    key(name);
    return value(number, decimals);
  }

  /// The document so far. Valid once every container is closed.
  const std::string& str() const { return out_; }

 private:
  void before_value();
  void newline_indent();

  bool pretty_ = false;
  std::string out_;
  // One entry per open container: '{' or '['; value_count of the top.
  std::vector<std::pair<char, std::int32_t>> stack_;
  bool key_pending_ = false;
};

class JsonReader;

/// Parsed JSON value. Numbers keep their raw text; accessors convert on
/// demand and throw CheckError on type or range mismatch.
class JsonValue {
 public:
  enum class Type : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject,
  };

  Type type() const { return type_; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_null() const { return type_ == Type::kNull; }

  bool as_bool() const;
  std::int64_t as_int() const;
  std::uint64_t as_uint() const;
  double as_double() const;
  const std::string& as_string() const;

  // Arrays.
  std::size_t size() const;
  const JsonValue& at(std::size_t index) const;

  // Objects (member order preserved).
  bool has(std::string_view key) const;
  /// Member lookup; throws CheckError when absent.
  const JsonValue& at(std::string_view key) const;
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  // Convenience lookups with defaults, for optional protocol fields.
  std::string get_string(std::string_view key,
                         const std::string& fallback) const;
  std::int64_t get_int(std::string_view key, std::int64_t fallback) const;
  std::uint64_t get_uint(std::string_view key,
                         std::uint64_t fallback) const;
  double get_double(std::string_view key, double fallback) const;
  bool get_bool(std::string_view key, bool fallback) const;

 private:
  friend void json_read_value(JsonReader& reader, JsonValue& out);

  Type type_ = Type::kNull;
  bool bool_ = false;
  std::string text_;  // number source text or string payload
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Conversions of a JSON number's source text, shared by JsonValue's
/// accessors and by JsonReader users. Each throws CheckError naming the
/// text when it is not a number of the target type.
std::int64_t json_to_int(std::string_view number);
std::uint64_t json_to_uint(std::string_view number);
double json_to_double(std::string_view number);
/// Throws CheckError("JsonValue: not a <type>") unless actual == wanted.
void json_require_type(JsonValue::Type actual, JsonValue::Type wanted);
/// Appends the decoded form of a string's raw contents, as returned by
/// JsonReader::read_string.
void json_unescape(std::string_view raw, std::string& out);

/// Pull tokenizer over one JSON document. Values are read in document
/// order: peek_value() names the next value's type, then exactly one of
/// the read_* / skip_value calls (or a first_/next_ iteration for a
/// container) consumes it. Strings and numbers come back as views into
/// the document, so reading allocates nothing unless a member name
/// carries escapes. Syntax errors throw CheckError("json parse error at
/// offset N: ..."); nesting is limited to 64 levels.
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  /// Skips whitespace and returns the type of the value at the cursor
  /// (from its first character; the value is not consumed).
  JsonValue::Type peek_value();

  /// Object iteration: enters the object at the cursor and reads the
  /// first member's name; false for an empty object. After the member's
  /// value is consumed, next_member reads the following name; false
  /// once the object is closed. A returned name stays valid until the
  /// next name is read.
  bool first_member(std::string_view* name);
  bool next_member(std::string_view* name);

  /// Array iteration, like the member iteration without names.
  bool first_item();
  bool next_item();

  /// The raw contents between the quotes; *escaped tells whether they
  /// need json_unescape.
  std::string_view read_string(bool* escaped);
  /// The number's source text.
  std::string_view read_number();
  bool read_bool();
  void read_null();
  /// Consumes the value at the cursor, whatever its type.
  void skip_value();

  /// Requires nothing but whitespace after the document.
  void finish();

 private:
  [[noreturn]] void fail(const char* what) const;
  void require(bool ok, const char* what) const {
    if (!ok) fail(what);
  }
  void skip_ws();
  char peek();
  bool consume(char c);
  void expect(char c, const char* what) { require(consume(c), what); }
  void expect_word(const char* word);
  void read_name(std::string_view* name);

  std::string_view text_;
  std::size_t pos_ = 0;
  std::int32_t depth_ = 0;  // containers open around the cursor
  std::string name_;        // an unescaped member name
};

/// Parses one JSON document (surrounding whitespace allowed, nothing
/// else after it). Returns false and fills *error on malformed input.
bool json_parse(std::string_view text, JsonValue& out, std::string* error);

}  // namespace bfdn
