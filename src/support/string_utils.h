//===- support/string_utils.h - Small string helpers ----------*- C++ -*-===//
///
/// \file
/// String helpers used by the AST printer, the C++ code generator, and the
/// command-line tools and benchmark harnesses.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_SUPPORT_STRING_UTILS_H
#define LATTE_SUPPORT_STRING_UTILS_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace latte {

/// Joins \p Parts with \p Sep between elements.
std::string join(const std::vector<std::string> &Parts,
                 const std::string &Sep);

/// printf-style formatting into a std::string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Parses all of \p Text as an integer: decimal, 0x hex or 0 octal, as
/// strtoll's base 0 reads it. Empty, partial ("12abc") or out-of-range
/// text yields nullopt.
std::optional<int64_t> parseInt(const std::string &Text);

/// Parses all of \p Text as a finite floating-point number. Empty,
/// partial ("2.5x"), out-of-range or non-finite ("nan", "inf") text
/// yields nullopt.
std::optional<double> parseNumber(const std::string &Text);

} // namespace latte

#endif // LATTE_SUPPORT_STRING_UTILS_H
