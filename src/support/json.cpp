#include "support/json.h"

#include <cctype>
#include <charconv>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "support/check.h"
#include "support/strings.h"

namespace bfdn {

std::string json_quote(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  json_append_quoted(out, text);
  return out;
}

void json_append_quoted(std::string& out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  out.push_back('"');
  std::size_t clean = 0;  // text[clean, i) needs no escaping
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(text.data() + clean, i - clean);
    clean = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out.push_back(kHex[c >> 4]);
        out.push_back(kHex[c & 0xf]);
    }
  }
  out.append(text.data() + clean, text.size() - clean);
  out.push_back('"');
}

JsonWriter::JsonWriter(bool pretty) : pretty_(pretty) {}

void JsonWriter::newline_indent() {
  out_.push_back('\n');
  out_.append(2 * stack_.size(), ' ');
}

void JsonWriter::before_value() {
  if (key_pending_) {
    key_pending_ = false;
    return;
  }
  if (stack_.empty()) {
    BFDN_REQUIRE(out_.empty(), "JsonWriter: one top-level value only");
    return;
  }
  BFDN_REQUIRE(stack_.back().first == '[',
               "JsonWriter: object member needs key()");
  if (stack_.back().second++ > 0) out_.push_back(',');
  if (pretty_) newline_indent();
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  out_.push_back('{');
  stack_.emplace_back('{', 0);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  BFDN_REQUIRE(!stack_.empty() && stack_.back().first == '{' &&
                   !key_pending_,
               "JsonWriter: mismatched end_object");
  const bool had_members = stack_.back().second > 0;
  stack_.pop_back();
  if (pretty_ && had_members) newline_indent();
  out_.push_back('}');
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  out_.push_back('[');
  stack_.emplace_back('[', 0);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  BFDN_REQUIRE(!stack_.empty() && stack_.back().first == '[',
               "JsonWriter: mismatched end_array");
  const bool had_items = stack_.back().second > 0;
  stack_.pop_back();
  if (pretty_ && had_items) newline_indent();
  out_.push_back(']');
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  BFDN_REQUIRE(!stack_.empty() && stack_.back().first == '{' &&
                   !key_pending_,
               "JsonWriter: key() outside object");
  if (stack_.back().second++ > 0) out_.push_back(',');
  if (pretty_) newline_indent();
  json_append_quoted(out_, name);
  out_.push_back(':');
  if (pretty_) out_.push_back(' ');
  key_pending_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  before_value();
  json_append_quoted(out_, text);
  return *this;
}

JsonWriter& JsonWriter::value(const char* text) {
  return value(std::string_view(text));
}

JsonWriter& JsonWriter::value(std::int64_t number) {
  before_value();
  append_int(out_, number);
  return *this;
}

JsonWriter& JsonWriter::value(std::int32_t number) {
  return value(static_cast<std::int64_t>(number));
}

JsonWriter& JsonWriter::value(std::uint64_t number) {
  before_value();
  append_uint(out_, number);
  return *this;
}

JsonWriter& JsonWriter::value(double number, int decimals) {
  before_value();
  out_ += decimals < 0 ? str_format("%.6g", number)
                       : str_format("%.*f", decimals, number);
  return *this;
}

JsonWriter& JsonWriter::value(bool flag) {
  before_value();
  out_ += flag ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value_null() {
  before_value();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  before_value();
  out_ += json;
  return *this;
}

namespace {

/// Runs `convert` on a NUL-terminated copy of `text` (the strto*
/// family needs one), on the stack when the text is short.
template <typename Convert>
auto with_c_string(std::string_view text, Convert&& convert) {
  char buf[32];
  if (text.size() < sizeof(buf)) {
    text.copy(buf, text.size());
    buf[text.size()] = '\0';
    return convert(static_cast<const char*>(buf));
  }
  const std::string copy(text);
  return convert(copy.c_str());
}

[[noreturn]] void conversion_error(const char* what, std::string_view text) {
  std::string message = "JsonValue: ";
  message += what;
  message += text;
  throw CheckError(message);
}

}  // namespace

// A plain decimal that std::from_chars reads in full has the value
// strto* would give it, and needs no NUL-terminated copy; anything else
// ('+', exponents, overflow) takes the strto* path and its errors.
std::int64_t json_to_int(std::string_view number) {
  std::int64_t value = 0;
  const char* last = number.data() + number.size();
  const auto plain = std::from_chars(number.data(), last, value);
  if (plain.ec == std::errc{} && plain.ptr == last) return value;
  return with_c_string(number, [number](const char* text) {
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(text, &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0') {
      conversion_error("not an int64: ", number);
    }
    return static_cast<std::int64_t>(v);
  });
}

std::uint64_t json_to_uint(std::string_view number) {
  if (number.empty() || number[0] == '-') {
    conversion_error("negative uint64: ", number);
  }
  std::uint64_t value = 0;
  const char* last = number.data() + number.size();
  const auto plain = std::from_chars(number.data(), last, value);
  if (plain.ec == std::errc{} && plain.ptr == last) return value;
  return with_c_string(number, [number](const char* text) {
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0') {
      conversion_error("not a uint64: ", number);
    }
    return static_cast<std::uint64_t>(v);
  });
}

double json_to_double(std::string_view number) {
  return with_c_string(number, [number](const char* text) {
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(text, &end);
    if (errno != 0 || end == nullptr || *end != '\0') {
      conversion_error("not a double: ", number);
    }
    return v;
  });
}

void json_require_type(JsonValue::Type actual, JsonValue::Type wanted) {
  if (actual == wanted) return;
  // Indexed by JsonValue::Type.
  static constexpr const char* kNames[] = {"null",   "bool",  "number",
                                           "string", "array", "object"};
  throw CheckError(std::string("JsonValue: not a ") +
                   kNames[static_cast<std::size_t>(wanted)]);
}

bool JsonValue::as_bool() const {
  json_require_type(type_, Type::kBool);
  return bool_;
}

std::int64_t JsonValue::as_int() const {
  json_require_type(type_, Type::kNumber);
  return json_to_int(text_);
}

std::uint64_t JsonValue::as_uint() const {
  json_require_type(type_, Type::kNumber);
  return json_to_uint(text_);
}

double JsonValue::as_double() const {
  json_require_type(type_, Type::kNumber);
  return json_to_double(text_);
}

const std::string& JsonValue::as_string() const {
  json_require_type(type_, Type::kString);
  return text_;
}

std::size_t JsonValue::size() const {
  BFDN_REQUIRE(type_ == Type::kArray, "JsonValue: not an array");
  return items_.size();
}

const JsonValue& JsonValue::at(std::size_t index) const {
  BFDN_REQUIRE(type_ == Type::kArray && index < items_.size(),
               "JsonValue: bad array index");
  return items_[index];
}

bool JsonValue::has(std::string_view key) const {
  if (type_ != Type::kObject) return false;
  for (const auto& [name, value] : members_) {
    if (name == key) return true;
  }
  return false;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  BFDN_REQUIRE(type_ == Type::kObject, "JsonValue: not an object");
  for (const auto& [name, value] : members_) {
    if (name == key) return value;
  }
  BFDN_REQUIRE(false, "JsonValue: missing member " + std::string(key));
  return *this;  // unreachable
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  BFDN_REQUIRE(type_ == Type::kObject, "JsonValue: not an object");
  return members_;
}

std::string JsonValue::get_string(std::string_view key,
                                  const std::string& fallback) const {
  return has(key) ? at(key).as_string() : fallback;
}

std::int64_t JsonValue::get_int(std::string_view key,
                                std::int64_t fallback) const {
  return has(key) ? at(key).as_int() : fallback;
}

std::uint64_t JsonValue::get_uint(std::string_view key,
                                  std::uint64_t fallback) const {
  return has(key) ? at(key).as_uint() : fallback;
}

double JsonValue::get_double(std::string_view key, double fallback) const {
  return has(key) ? at(key).as_double() : fallback;
}

bool JsonValue::get_bool(std::string_view key, bool fallback) const {
  return has(key) ? at(key).as_bool() : fallback;
}

void json_unescape(std::string_view raw, std::string& out) {
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] != '\\') {
      out.push_back(raw[i]);
      continue;
    }
    const char esc = raw[++i];
    switch (esc) {
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': {
        unsigned code = 0;
        for (int j = 0; j < 4; ++j) {
          const char h = raw[++i];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
          else code |= static_cast<unsigned>(h - 'A' + 10);
        }
        // Protocol strings are ASCII; encode BMP code points as UTF-8.
        if (code < 0x80) {
          out.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          out.push_back(static_cast<char>(0xC0 | (code >> 6)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          out.push_back(static_cast<char>(0xE0 | (code >> 12)));
          out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
        break;
      }
      default: out.push_back(esc); break;  // '"', '\\', '/'
    }
  }
}

void JsonReader::fail(const char* what) const {
  throw CheckError(
      str_format("json parse error at offset %zu: %s", pos_, what));
}

void JsonReader::skip_ws() {
  while (pos_ < text_.size() &&
         (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
          text_[pos_] == '\r')) {
    ++pos_;
  }
}

char JsonReader::peek() {
  require(pos_ < text_.size(), "unexpected end of input");
  return text_[pos_];
}

bool JsonReader::consume(char c) {
  if (pos_ < text_.size() && text_[pos_] == c) {
    ++pos_;
    return true;
  }
  return false;
}

void JsonReader::expect_word(const char* word) {
  for (const char* c = word; *c != '\0'; ++c) {
    require(consume(*c), "bad literal");
  }
}

JsonValue::Type JsonReader::peek_value() {
  skip_ws();
  require(depth_ < 64, "nesting too deep");
  switch (peek()) {
    case '{': return JsonValue::Type::kObject;
    case '[': return JsonValue::Type::kArray;
    case '"': return JsonValue::Type::kString;
    case 't':
    case 'f': return JsonValue::Type::kBool;
    case 'n': return JsonValue::Type::kNull;
    default: return JsonValue::Type::kNumber;
  }
}

void JsonReader::read_name(std::string_view* name) {
  skip_ws();
  bool escaped = false;
  *name = read_string(&escaped);
  if (escaped) {
    name_.clear();
    json_unescape(*name, name_);
    *name = name_;
  }
  skip_ws();
  expect(':', "expected ':'");
  skip_ws();
}

bool JsonReader::first_member(std::string_view* name) {
  expect('{', "expected object");
  skip_ws();
  if (consume('}')) return false;
  ++depth_;
  read_name(name);
  return true;
}

bool JsonReader::next_member(std::string_view* name) {
  skip_ws();
  if (consume(',')) {
    read_name(name);
    return true;
  }
  expect('}', "expected ',' or '}'");
  --depth_;
  return false;
}

bool JsonReader::first_item() {
  expect('[', "expected array");
  skip_ws();
  if (consume(']')) return false;
  ++depth_;
  skip_ws();
  return true;
}

bool JsonReader::next_item() {
  skip_ws();
  if (consume(',')) {
    skip_ws();
    return true;
  }
  expect(']', "expected ',' or ']'");
  --depth_;
  return false;
}

std::string_view JsonReader::read_string(bool* escaped) {
  expect('"', "expected string");
  const std::size_t start = pos_;
  *escaped = false;
  for (;;) {
    require(pos_ < text_.size(), "unterminated string");
    const char c = text_[pos_++];
    if (c == '"') return text_.substr(start, pos_ - 1 - start);
    if (c != '\\') continue;
    *escaped = true;
    require(pos_ < text_.size(), "unterminated escape");
    switch (text_[pos_++]) {
      case '"': case '\\': case '/': case 'b': case 'f': case 'n': case 'r':
      case 't':
        break;
      case 'u':
        require(pos_ + 4 <= text_.size(), "bad \\u escape");
        for (int i = 0; i < 4; ++i) {
          require(std::isxdigit(static_cast<unsigned char>(text_[pos_++])) !=
                      0,
                  "bad \\u escape");
        }
        break;
      default: fail("bad escape");
    }
  }
}

std::string_view JsonReader::read_number() {
  const std::size_t start = pos_;
  const bool negative = consume('-');
  while (pos_ < text_.size() &&
         (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
          text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
          text_[pos_] == '+' || text_[pos_] == '-')) {
    ++pos_;
  }
  require(pos_ > start + (negative ? 1 : 0), "bad number");
  return text_.substr(start, pos_ - start);
}

bool JsonReader::read_bool() {
  if (peek() == 't') {
    expect_word("true");
    return true;
  }
  expect_word("false");
  return false;
}

void JsonReader::read_null() { expect_word("null"); }

void JsonReader::skip_value() {
  std::string_view name;
  bool escaped = false;
  switch (peek_value()) {
    case JsonValue::Type::kObject:
      for (bool more = first_member(&name); more; more = next_member(&name)) {
        skip_value();
      }
      return;
    case JsonValue::Type::kArray:
      for (bool more = first_item(); more; more = next_item()) skip_value();
      return;
    case JsonValue::Type::kString: read_string(&escaped); return;
    case JsonValue::Type::kBool: read_bool(); return;
    case JsonValue::Type::kNull: read_null(); return;
    case JsonValue::Type::kNumber: read_number(); return;
  }
}

void JsonReader::finish() {
  skip_ws();
  require(pos_ == text_.size(), "trailing characters");
}

/// Builds the DOM of the value at the reader's cursor.
void json_read_value(JsonReader& reader, JsonValue& out) {
  out.type_ = reader.peek_value();
  switch (out.type_) {
    case JsonValue::Type::kObject: {
      std::string_view name;
      for (bool more = reader.first_member(&name); more;
           more = reader.next_member(&name)) {
        std::string key(name);
        JsonValue member;
        json_read_value(reader, member);
        out.members_.emplace_back(std::move(key), std::move(member));
      }
      return;
    }
    case JsonValue::Type::kArray:
      for (bool more = reader.first_item(); more; more = reader.next_item()) {
        json_read_value(reader, out.items_.emplace_back());
      }
      return;
    case JsonValue::Type::kString: {
      bool escaped = false;
      const std::string_view raw = reader.read_string(&escaped);
      if (escaped) {
        json_unescape(raw, out.text_);
      } else {
        out.text_ = raw;
      }
      return;
    }
    case JsonValue::Type::kNumber: out.text_ = reader.read_number(); return;
    case JsonValue::Type::kBool: out.bool_ = reader.read_bool(); return;
    case JsonValue::Type::kNull: reader.read_null(); return;
  }
}

bool json_parse(std::string_view text, JsonValue& out, std::string* error) {
  out = JsonValue();
  try {
    JsonReader reader(text);
    json_read_value(reader, out);
    reader.finish();
    return true;
  } catch (const CheckError& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
}

}  // namespace bfdn
