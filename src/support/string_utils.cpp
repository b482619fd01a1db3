//===- support/string_utils.cpp -------------------------------*- C++ -*-===//

#include "support/string_utils.h"

#include <cstdarg>
#include <cstdio>

using namespace latte;

std::string latte::join(const std::vector<std::string> &Parts,
                        const std::string &Sep) {
  std::string Result;
  for (size_t I = 0; I != Parts.size(); ++I) {
    if (I)
      Result += Sep;
    Result += Parts[I];
  }
  return Result;
}

std::string latte::formatString(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Size = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  if (Size < 0) {
    va_end(ArgsCopy);
    return std::string();
  }
  std::string Result(static_cast<size_t>(Size), '\0');
  std::vsnprintf(Result.data(), Result.size() + 1, Fmt, ArgsCopy);
  va_end(ArgsCopy);
  return Result;
}
