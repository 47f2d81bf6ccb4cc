#include "support/strings.h"

#include <array>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <sstream>

namespace bfdn {

std::string str_format(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (needed <= 0) {
    va_end(args_copy);
    return {};
  }
  std::string out(static_cast<std::size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

void append_int(std::string& out, std::int64_t value) {
  std::array<char, 24> buf;
  const auto end = std::to_chars(buf.data(), buf.data() + buf.size(), value);
  out.append(buf.data(), end.ptr);
}

void append_uint(std::string& out, std::uint64_t value) {
  std::array<char, 24> buf;
  const auto end = std::to_chars(buf.data(), buf.data() + buf.size(), value);
  out.append(buf.data(), end.ptr);
}

void append_fixed(std::string& out, double value, int decimals) {
  // The widest finite double has 309 integer digits.
  std::array<char, 320> buf;
  const auto end = std::to_chars(buf.data(), buf.data() + buf.size(), value,
                                 std::chars_format::fixed, decimals);
  if (end.ec == std::errc{}) {
    out.append(buf.data(), end.ptr);
  } else {
    out += str_format("%.*f", decimals, value);
  }
}

void append_hex16(std::string& out, std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::array<char, 16> buf;
  for (int i = 15; i >= 0; --i) {
    buf[static_cast<std::size_t>(i)] = kDigits[value & 0xf];
    value >>= 4;
  }
  out.append(buf.data(), buf.size());
}

std::string join(const std::vector<std::string>& items,
                 const std::string& sep) {
  std::ostringstream oss;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) oss << sep;
    oss << items[i];
  }
  return oss.str();
}

std::vector<std::string> split(const std::string& text, char delim) {
  std::vector<std::string> out;
  std::string field;
  std::istringstream iss(text);
  while (std::getline(iss, field, delim)) out.push_back(field);
  if (!text.empty() && text.back() == delim) out.emplace_back();
  return out;
}

}  // namespace bfdn
