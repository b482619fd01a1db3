//===- support/string_utils.h - Small string helpers ----------*- C++ -*-===//
///
/// \file
/// String helpers used by the AST printer, the C++ code generator, and the
/// benchmark harnesses.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_SUPPORT_STRING_UTILS_H
#define LATTE_SUPPORT_STRING_UTILS_H

#include <string>
#include <vector>

namespace latte {

/// Joins \p Parts with \p Sep between elements.
std::string join(const std::vector<std::string> &Parts,
                 const std::string &Sep);

/// printf-style formatting into a std::string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace latte

#endif // LATTE_SUPPORT_STRING_UTILS_H
