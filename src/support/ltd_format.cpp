//===- support/ltd_format.cpp ---------------------------------*- C++ -*-===//

#include "support/ltd_format.h"

#include "support/error.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>

using namespace latte;

namespace {

constexpr char Magic[4] = {'L', 'T', 'D', '1'};

struct FileCloser {
  void operator()(std::FILE *F) const {
    if (F)
      std::fclose(F);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

bool writeBytes(std::FILE *F, const void *Data, size_t Size) {
  return std::fwrite(Data, 1, Size, F) == Size;
}

bool readBytes(std::FILE *F, void *Data, size_t Size) {
  return std::fread(Data, 1, Size, F) == Size;
}

} // namespace

bool latte::writeLtdFile(
    const std::string &Path,
    const std::vector<std::pair<std::string, Tensor>> &Tensors) {
  FilePtr F(std::fopen(Path.c_str(), "wb"));
  if (!F) {
    std::fprintf(stderr, "latte: cannot open %s for writing\n", Path.c_str());
    return false;
  }
  uint32_t Count = static_cast<uint32_t>(Tensors.size());
  if (!writeBytes(F.get(), Magic, 4) || !writeBytes(F.get(), &Count, 4))
    return false;
  for (const auto &[Name, T] : Tensors) {
    uint32_t NameLen = static_cast<uint32_t>(Name.size());
    uint32_t Rank = static_cast<uint32_t>(T.shape().rank());
    if (!writeBytes(F.get(), &NameLen, 4) ||
        !writeBytes(F.get(), Name.data(), NameLen) ||
        !writeBytes(F.get(), &Rank, 4))
      return false;
    for (int64_t D : T.shape().dims())
      if (!writeBytes(F.get(), &D, 8))
        return false;
    if (!writeBytes(F.get(), T.data(),
                    static_cast<size_t>(T.numElements()) * sizeof(float)))
      return false;
  }
  return true;
}

std::vector<std::pair<std::string, Tensor>>
latte::readLtdFile(const std::string &Path) {
  FilePtr F(std::fopen(Path.c_str(), "rb"));
  if (!F)
    reportFatalError("cannot open " + Path + " for reading");
  char Header[4];
  uint32_t Count = 0;
  if (!readBytes(F.get(), Header, 4) || std::memcmp(Header, Magic, 4) != 0 ||
      !readBytes(F.get(), &Count, 4))
    reportFatalError(Path + " is not a valid .ltd file. Bad header");
  // A record may not claim more payload than the file holds: it is
  // checked before the tensor is allocated.
  std::fseek(F.get(), 0, SEEK_END);
  const int64_t FileBytes = std::ftell(F.get());
  std::fseek(F.get(), 8, SEEK_SET);

  std::vector<std::pair<std::string, Tensor>> Result;
  for (uint32_t I = 0; I != Count; ++I) {
    uint32_t NameLen = 0;
    if (!readBytes(F.get(), &NameLen, 4) || NameLen > (1u << 20))
      reportFatalError(Path + ": corrupt tensor name length");
    std::string Name(NameLen, '\0');
    uint32_t Rank = 0;
    if (!readBytes(F.get(), Name.data(), NameLen) ||
        !readBytes(F.get(), &Rank, 4) || Rank > 16)
      reportFatalError(Path + ": corrupt tensor record for entry " +
                       std::to_string(I));
    std::vector<int64_t> Dims(Rank);
    int64_t N = 1;
    for (uint32_t D = 0; D != Rank; ++D) {
      if (!readBytes(F.get(), &Dims[D], 8) || Dims[D] < 0 ||
          (Dims[D] > 0 && N > INT64_MAX / 4 / Dims[D]))
        reportFatalError(Path + ": corrupt dimension in " + Name);
      N *= Dims[D];
    }
    const int64_t Left = FileBytes - std::ftell(F.get());
    if (N * 4 > Left)
      reportFatalError(Path + ": " + Name + " claims " +
                       std::to_string(N * 4) + " bytes of data but only " +
                       std::to_string(Left) + " remain");
    Tensor T((Shape(Dims)));
    if (!readBytes(F.get(), T.data(),
                   static_cast<size_t>(T.numElements()) * sizeof(float)))
      reportFatalError(Path + ": truncated data for " + Name);
    Result.emplace_back(std::move(Name), std::move(T));
  }
  return Result;
}
