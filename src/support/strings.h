// Minimal string formatting helpers (printf-style, type-checked by the
// compiler's format attribute where available).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bfdn {

/// snprintf-backed formatting into a std::string.
#if defined(__GNUC__)
__attribute__((format(printf, 1, 2)))
#endif
std::string
str_format(const char* fmt, ...);

// Append-style number formatting through std::to_chars: no temporary
// strings, so a writer that reuses its output buffer allocates nothing.
/// Appends the decimal form of `value` (printf "%lld").
void append_int(std::string& out, std::int64_t value);
/// Appends the decimal form of `value` (printf "%llu").
void append_uint(std::string& out, std::uint64_t value);
/// Appends `value` with `decimals` fixed decimals (printf "%.*f").
void append_fixed(std::string& out, double value, int decimals);
/// Appends `value` as 16 lower-case hex digits (printf "%016llx").
void append_hex16(std::string& out, std::uint64_t value);

/// Joins items with a separator.
std::string join(const std::vector<std::string>& items,
                 const std::string& sep);

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> split(const std::string& text, char delim);

}  // namespace bfdn
