//===- tests/support/bench_compare_test.cpp - compare gate ----*- C++ -*-===//
///
/// Classification logic behind the `bench/compare` CI gate: regression /
/// improvement thresholds, the absolute-delta noise guard, row matching by
/// label, and figure-mismatch notes.
///
//===----------------------------------------------------------------------===//

#include "support/bench_compare.h"

#include <gtest/gtest.h>

using namespace latte;

namespace {

/// Builds a minimal BENCH document with one row per (label, total) pair.
json::Value benchDoc(
    const std::vector<std::pair<std::string, double>> &Rows,
    const std::string &Figure = "fig13") {
  json::Value Doc = json::Value::object();
  Doc.set("schema", "latte-bench-v1");
  Doc.set("figure", Figure);
  json::Value Arr = json::Value::array();
  for (const auto &R : Rows) {
    json::Value Row = json::Value::object();
    Row.set("label", R.first);
    Row.set("fwd_sec", R.second * 0.4);
    Row.set("bwd_sec", R.second * 0.6);
    Row.set("total_sec", R.second);
    Arr.push(std::move(Row));
  }
  Doc.set("rows", std::move(Arr));
  return Doc;
}

TEST(BenchCompare, IdenticalFilesPass) {
  json::Value Doc = benchDoc({{"caffe", 0.010}, {"latte_full", 0.002}});
  bench::CompareResult R = bench::compareBenchJson(Doc, Doc, 1.5);
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(R.Compared.size(), 6u); // 2 rows x {fwd, bwd, total}
  EXPECT_TRUE(R.Regressions.empty());
  EXPECT_TRUE(R.Improvements.empty());
}

TEST(BenchCompare, RegressionPastThresholdFails) {
  json::Value Old = benchDoc({{"latte_full", 0.010}});
  json::Value New = benchDoc({{"latte_full", 0.016}}); // 1.6x
  bench::CompareResult R = bench::compareBenchJson(Old, New, 1.5);
  EXPECT_FALSE(R.ok());
  ASSERT_FALSE(R.Regressions.empty());
  EXPECT_EQ(R.Regressions[0].Label, "latte_full");
  EXPECT_NEAR(R.Regressions[0].ratio(), 1.6, 1e-9);
  // The same delta passes under a looser threshold.
  EXPECT_TRUE(bench::compareBenchJson(Old, New, 2.5).ok());
}

TEST(BenchCompare, JustUnderThresholdPasses) {
  json::Value Old = benchDoc({{"row", 0.010}});
  json::Value New = benchDoc({{"row", 0.0149}});
  EXPECT_TRUE(bench::compareBenchJson(Old, New, 1.5).ok());
}

TEST(BenchCompare, TinyAbsoluteDeltasAreNoise) {
  // 5x ratio but only 40 microseconds absolute — below MinDeltaSec, so
  // not a regression (smoke runs at tiny scale are jittery).
  json::Value Old = benchDoc({{"row", 0.00001}});
  json::Value New = benchDoc({{"row", 0.00005}});
  EXPECT_TRUE(bench::compareBenchJson(Old, New, 1.5).ok());
  // With the guard lowered the same data fails.
  EXPECT_FALSE(
      bench::compareBenchJson(Old, New, 1.5, /*MinDeltaSec=*/1e-7).ok());
}

TEST(BenchCompare, ImprovementsReportedNotFailed) {
  json::Value Old = benchDoc({{"row", 0.010}});
  json::Value New = benchDoc({{"row", 0.004}});
  bench::CompareResult R = bench::compareBenchJson(Old, New, 1.5);
  EXPECT_TRUE(R.ok());
  EXPECT_FALSE(R.Improvements.empty());
}

TEST(BenchCompare, RowsMatchedByLabelNotOrder) {
  json::Value Old = benchDoc({{"a", 0.010}, {"b", 0.020}});
  json::Value New = benchDoc({{"b", 0.020}, {"a", 0.010}});
  bench::CompareResult R = bench::compareBenchJson(Old, New, 1.5);
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(R.Compared.size(), 6u);
}

TEST(BenchCompare, MissingAndNewRowsAreNotes) {
  json::Value Old = benchDoc({{"a", 0.010}, {"gone", 0.020}});
  json::Value New = benchDoc({{"a", 0.010}, {"added", 0.030}});
  bench::CompareResult R = bench::compareBenchJson(Old, New, 1.5);
  EXPECT_TRUE(R.ok()); // rows appearing/disappearing never gate
  EXPECT_EQ(R.Compared.size(), 3u);
  EXPECT_FALSE(R.Notes.empty());
}

TEST(BenchCompare, NamedRowMissingFailsGate) {
  // A row named in the filter is a gate: dropping it from either file must
  // fail, not pass on the rows that happened to be compared.
  json::Value Old = benchDoc({{"a", 0.010}, {"b", 0.020}});
  json::Value New = benchDoc({{"a", 0.010}});
  std::vector<std::string> Rows = {"a", "b"};
  bench::CompareResult R =
      bench::compareBenchJson(Old, New, 1.5, 1e-4, &Rows);
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.Compared.size(), 3u); // row a is still compared
  std::string Report = bench::formatCompareReport(R, 1.5);
  EXPECT_NE(Report.find("'b'"), std::string::npos) << Report;
  EXPECT_FALSE(bench::compareBenchJson(New, Old, 1.5, 1e-4, &Rows).ok());
  // Unfiltered, the same files still pass with a note.
  EXPECT_TRUE(bench::compareBenchJson(Old, New, 1.5).ok());
}

TEST(BenchCompare, FigureMismatchNoted) {
  json::Value Old = benchDoc({{"a", 0.010}}, "fig13");
  json::Value New = benchDoc({{"a", 0.010}}, "fig14");
  bench::CompareResult R = bench::compareBenchJson(Old, New, 1.5);
  EXPECT_FALSE(R.Notes.empty());
}

TEST(BenchCompare, EmptyDocsCompareNothing) {
  json::Value Empty = json::Value::object();
  bench::CompareResult R = bench::compareBenchJson(Empty, Empty, 1.5);
  EXPECT_TRUE(R.Compared.empty());
  EXPECT_TRUE(R.ok());
}

TEST(BenchCompare, ReportMentionsRegressedRows) {
  json::Value Old = benchDoc({{"slow_row", 0.010}});
  json::Value New = benchDoc({{"slow_row", 0.030}});
  bench::CompareResult R = bench::compareBenchJson(Old, New, 1.5);
  std::string Report = bench::formatCompareReport(R, 1.5);
  EXPECT_NE(Report.find("slow_row"), std::string::npos);
  EXPECT_NE(Report.find("REGRESSED"), std::string::npos);
}

/// Builds a doc with one serve_p50 row carrying latency_norm.
json::Value p50Doc(double Norm, double Total = 0.010) {
  json::Value Doc = json::Value::object();
  Doc.set("schema", "latte-bench-v1");
  Doc.set("figure", "serve");
  json::Value Row = json::Value::object();
  Row.set("label", "serve_p50");
  Row.set("total_sec", Total);
  Row.set("latency_norm", Norm);
  json::Value Arr = json::Value::array();
  Arr.push(std::move(Row));
  Doc.set("rows", std::move(Arr));
  return Doc;
}

TEST(BenchCompare, LatencyNormGatesLowerIsBetter) {
  // 2x growth in the normalized p50 multiple regresses past a 1.3x gate
  // even though it needs no absolute-seconds noise floor.
  bench::CompareResult R =
      bench::compareBenchJson(p50Doc(20.0), p50Doc(40.0), 1.3);
  EXPECT_FALSE(R.ok());
  bool Found = false;
  for (const auto &D : R.Regressions)
    if (D.Metric == "latency_norm") {
      Found = true;
      EXPECT_NEAR(D.ratio(), 2.0, 1e-9);
    }
  EXPECT_TRUE(Found);
}

TEST(BenchCompare, LatencyNormShrinkIsImprovement) {
  bench::CompareResult R =
      bench::compareBenchJson(p50Doc(40.0), p50Doc(20.0), 1.3);
  EXPECT_TRUE(R.ok());
  bool Found = false;
  for (const auto &D : R.Improvements)
    if (D.Metric == "latency_norm")
      Found = true;
  EXPECT_TRUE(Found);
}

TEST(BenchCompare, OnlyMetricsFiltersColumns) {
  // Gate exactly latency_norm: the row's total_sec regression (3x, well
  // past threshold and the noise floor) must be invisible to this
  // invocation, while the latency_norm regression still fails it.
  json::Value Old = p50Doc(20.0);
  json::Value New = p50Doc(40.0, /*Total=*/0.030);
  std::vector<std::string> Metrics = {"latency_norm"};
  bench::CompareResult R =
      bench::compareBenchJson(Old, New, 1.3, 1e-4, nullptr, &Metrics);
  ASSERT_EQ(R.Compared.size(), 1u);
  EXPECT_EQ(R.Compared[0].Metric, "latency_norm");
  EXPECT_FALSE(R.ok());
  // The same filter with a healthy latency_norm passes despite the
  // total_sec regression still present in the document.
  bench::CompareResult R2 = bench::compareBenchJson(
      Old, Old, 1.3, 1e-4, nullptr, &Metrics);
  EXPECT_TRUE(R2.ok());
}

TEST(BenchCompare, ServeCountersCompareInformationally) {
  json::Value Old = benchDoc({{"serve_p50", 0.010}});
  json::Value New = benchDoc({{"serve_p50", 0.010}});
  json::Value SOld = json::Value::object();
  SOld.set("deadline_shed", 0.0);
  SOld.set("interp_fallbacks", 2.0);
  Old.set("serve", std::move(SOld));
  json::Value SNew = json::Value::object();
  SNew.set("deadline_shed", 50.0); // huge drift — still never gates
  SNew.set("interp_fallbacks", 2.0);
  New.set("serve", std::move(SNew));
  bench::CompareResult R = bench::compareBenchJson(Old, New, 1.5);
  EXPECT_TRUE(R.ok());
  bool Found = false;
  for (const auto &D : R.Compared)
    if (D.Label == "serve" && D.Metric == "deadline_shed") {
      Found = true;
      EXPECT_EQ(D.NewSec, 50.0);
    }
  EXPECT_TRUE(Found);
  // Counters render as integers in the markdown table.
  std::string Md = bench::formatCompareMarkdown(R, 1.5);
  EXPECT_NE(Md.find("deadline_shed"), std::string::npos);
  EXPECT_NE(Md.find("| 50 |"), std::string::npos);
}

} // namespace
