//===- support/ltd_format.h - Latte tensor data files ---------*- C++ -*-===//
///
/// \file
/// The .ltd ("Latte Tensor Data") format is the repository's stand-in for
/// the HDF5 files the paper's HDF5DataLayer reads. A file holds a sequence
/// of named float32 tensors:
///
///   magic "LTD1" | u32 count | { u32 nameLen | name bytes |
///                                u32 rank | i64 dims[rank] | f32 data[] }*
///
/// All integers are little-endian.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_SUPPORT_LTD_FORMAT_H
#define LATTE_SUPPORT_LTD_FORMAT_H

#include "support/tensor.h"

#include <string>
#include <utility>
#include <vector>

namespace latte {

/// One named tensor to write: \p Dims.numElements() floats at \p Data,
/// which must stay valid through the write. Made from a Tensor, or over a
/// buffer the caller owns (the standalone program writes its arena).
struct LtdView {
  std::string Name;
  Shape Dims;
  const float *Data;

  LtdView(std::string Name, Shape Dims, const float *Data)
      : Name(std::move(Name)), Dims(std::move(Dims)), Data(Data) {}
  LtdView(std::string Name, const Tensor &T)
      : LtdView(std::move(Name), T.shape(), T.data()) {}
  explicit LtdView(const std::pair<std::string, Tensor> &Named)
      : LtdView(Named.first, Named.second) {}
};

/// Writes \p Tensors to \p Path. Returns false (after printing a
/// diagnostic) on I/O failure.
bool writeLtdFile(const std::string &Path, const std::vector<LtdView> &Tensors);

/// Reads all tensors from \p Path. Calls reportFatalError on malformed input
/// (the paper's data layer likewise treats unreadable input as fatal).
std::vector<std::pair<std::string, Tensor>>
readLtdFile(const std::string &Path);

} // namespace latte

#endif // LATTE_SUPPORT_LTD_FORMAT_H
