//===- tests/support/misc_test.cpp ----------------------------*- C++ -*-===//
///
/// Tests for string utilities, the thread pool, and the .ltd tensor format.
///
//===----------------------------------------------------------------------===//

#include "support/ltd_format.h"
#include "support/string_utils.h"
#include "support/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>

using namespace latte;

TEST(StringUtilsTest, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"x"}, ","), "x");
}

TEST(StringUtilsTest, FormatString) {
  EXPECT_EQ(formatString("%s=%d", "x", 42), "x=42");
  EXPECT_EQ(formatString("%.2f", 3.14159), "3.14");
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool Pool(4);
  std::vector<std::atomic<int>> Hits(100);
  Pool.parallelFor(100, [&](int64_t I) { Hits[I]++; });
  for (auto &H : Hits)
    EXPECT_EQ(H.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool Pool(2);
  bool Ran = false;
  Pool.parallelFor(0, [&](int64_t) { Ran = true; });
  EXPECT_FALSE(Ran);
}

TEST(ThreadPoolTest, ParallelRunAllThreads) {
  ThreadPool Pool(3);
  std::vector<std::atomic<int>> Hits(Pool.numThreads());
  Pool.parallelRun([&](int T) { Hits[T]++; });
  for (auto &H : Hits)
    EXPECT_EQ(H.load(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossJobs) {
  ThreadPool Pool(4);
  std::atomic<int64_t> Sum{0};
  for (int Round = 0; Round < 10; ++Round)
    Pool.parallelFor(50, [&](int64_t I) { Sum += I; });
  EXPECT_EQ(Sum.load(), 10 * (49 * 50 / 2));
}

TEST(LtdFormatTest, WriteReadRoundTrip) {
  Tensor A(Shape{2, 3});
  for (int64_t I = 0; I < A.numElements(); ++I)
    A.at(I) = static_cast<float>(I) * 0.5f;
  Tensor B(Shape{4});
  B.fill(-1.25f);

  std::string Path = testing::TempDir() + "/roundtrip.ltd";
  ASSERT_TRUE(writeLtdFile(Path, {{"data", A}, {"label", B}}));

  auto Loaded = readLtdFile(Path);
  ASSERT_EQ(Loaded.size(), 2u);
  EXPECT_EQ(Loaded[0].first, "data");
  EXPECT_EQ(Loaded[0].second.shape(), Shape({2, 3}));
  EXPECT_EQ(Loaded[0].second.firstMismatch(A, 0.0f), -1);
  EXPECT_EQ(Loaded[1].first, "label");
  EXPECT_EQ(Loaded[1].second.firstMismatch(B, 0.0f), -1);
  std::remove(Path.c_str());
}

TEST(LtdFormatTest, EmptyFileOfTensors) {
  std::string Path = testing::TempDir() + "/empty.ltd";
  ASSERT_TRUE(writeLtdFile(Path, {}));
  EXPECT_TRUE(readLtdFile(Path).empty());
  std::remove(Path.c_str());
}

TEST(LtdFormatDeathTest, RejectsGarbage) {
  std::string Path = testing::TempDir() + "/garbage.ltd";
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  std::fputs("not a tensor file", F);
  std::fclose(F);
  EXPECT_DEATH({ readLtdFile(Path); }, "not a valid");
  std::remove(Path.c_str());
}

namespace {

/// Writes a one-record .ltd file named "x" whose header claims \p Dims but
/// which carries only \p PayloadFloats floats of data.
std::string writeRawLtd(const std::string &File,
                        const std::vector<int64_t> &Dims, int PayloadFloats) {
  std::string Path = testing::TempDir() + "/" + File;
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  EXPECT_NE(F, nullptr);
  const uint32_t Count = 1, NameLen = 1;
  const uint32_t Rank = static_cast<uint32_t>(Dims.size());
  std::fwrite("LTD1", 1, 4, F);
  std::fwrite(&Count, 4, 1, F);
  std::fwrite(&NameLen, 4, 1, F);
  std::fwrite("x", 1, 1, F);
  std::fwrite(&Rank, 4, 1, F);
  std::fwrite(Dims.data(), 8, Dims.size(), F);
  const std::vector<float> Payload(PayloadFloats, 1.0f);
  if (!Payload.empty())
    std::fwrite(Payload.data(), 4, Payload.size(), F);
  std::fclose(F);
  return Path;
}

} // namespace

TEST(LtdFormatDeathTest, RejectsOverflowingAndOversizedRecords) {
  // 2^32 * 2^32 * 2^32 elements wrap to 0 in int64 arithmetic: a shape
  // that claims 2^96 elements over no storage.
  const int64_t Big = int64_t{1} << 32;
  std::string Wraps = writeRawLtd("wraps.ltd", {Big, Big, Big}, 0);
  EXPECT_DEATH({ readLtdFile(Wraps); }, "corrupt dimension in x");
  // 2^20 floats declared, 2 present: rejected before the 4 MiB tensor is
  // allocated.
  std::string Short = writeRawLtd("short.ltd", {1 << 20}, 2);
  EXPECT_DEATH({ readLtdFile(Short); },
               "x claims 4194304 bytes of data but only 8 remain");
  std::remove(Wraps.c_str());
  std::remove(Short.c_str());
}
