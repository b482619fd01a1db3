//===- bench/compare.cpp - BENCH json regression gate ---------*- C++ -*-===//
///
/// CLI over support/bench_compare.h: diffs two `BENCH_<fig>.json` files
/// and exits nonzero when any timing row regressed past the threshold.
/// CI's bench-smoke job runs this against the checked-in baseline
/// (bench/baselines/) with a generous threshold so only gross regressions
/// gate merges.
///
///   bench/compare old.json new.json [--threshold 1.5] [--markdown]
///                 [--rows label1,label2] [--metrics m1,m2]
///
/// `--markdown` prints a GitHub-flavored table instead of the plain
/// report — CI appends it to $GITHUB_STEP_SUMMARY. `--rows` restricts the
/// comparison to the named row labels and `--metrics` to the named metric
/// columns: the serve-smoke job hard-gates the `serve_throughput` speedup
/// row and the `serve_p50` row's machine-normalized `latency_norm` at
/// tight thresholds, then reruns without the filters (informationally)
/// for the summary table.
///
/// A row named in `--rows` must be present in both files; a missing one
/// fails the gate like a regression.
///
/// Exit codes: 0 = within threshold, 1 = regression or missing named row,
/// 2 = usage/parse error — a `--threshold` that is not wholly a finite
/// number above 1 ("2.5x", "nan", "inf") included.
///
//===----------------------------------------------------------------------===//

#include "support/bench_compare.h"
#include "support/string_utils.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

using namespace latte;

int main(int argc, char **argv) {
  std::string OldPath, NewPath;
  double Threshold = 1.5;
  bool Markdown = false;
  std::vector<std::string> Rows, Metrics;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--threshold") == 0 && I + 1 < argc) {
      std::optional<double> V = parseNumber(argv[++I]);
      if (!V) {
        std::fprintf(stderr, "--threshold expects a finite number, got '%s'\n",
                     argv[I]);
        return 2;
      }
      Threshold = *V;
    } else if (std::strcmp(argv[I], "--markdown") == 0) {
      Markdown = true;
    } else if ((std::strcmp(argv[I], "--rows") == 0 ||
                std::strcmp(argv[I], "--metrics") == 0) &&
               I + 1 < argc) {
      std::vector<std::string> &Dst =
          std::strcmp(argv[I], "--rows") == 0 ? Rows : Metrics;
      std::string List = argv[++I];
      size_t Pos = 0;
      while (Pos <= List.size()) {
        size_t Comma = List.find(',', Pos);
        if (Comma == std::string::npos)
          Comma = List.size();
        if (Comma > Pos)
          Dst.push_back(List.substr(Pos, Comma - Pos));
        Pos = Comma + 1;
      }
    } else if (std::strcmp(argv[I], "--help") == 0) {
      std::printf("usage: compare old.json new.json [--threshold R] "
                  "[--markdown] [--rows a,b] [--metrics m,n]\n");
      return 0;
    } else if (OldPath.empty()) {
      OldPath = argv[I];
    } else if (NewPath.empty()) {
      NewPath = argv[I];
    } else {
      std::fprintf(stderr, "unexpected argument '%s'\n", argv[I]);
      return 2;
    }
  }
  if (OldPath.empty() || NewPath.empty() || Threshold <= 1.0) {
    std::fprintf(stderr,
                 "usage: compare old.json new.json [--threshold R>1]\n");
    return 2;
  }

  std::string Err;
  json::Value Old = json::parseFile(OldPath, &Err);
  if (Old.isNull()) {
    std::fprintf(stderr, "error reading '%s': %s\n", OldPath.c_str(),
                 Err.c_str());
    return 2;
  }
  json::Value New = json::parseFile(NewPath, &Err);
  if (New.isNull()) {
    std::fprintf(stderr, "error reading '%s': %s\n", NewPath.c_str(),
                 Err.c_str());
    return 2;
  }

  bench::CompareResult R = bench::compareBenchJson(
      Old, New, Threshold, /*MinDeltaSec=*/1e-4,
      Rows.empty() ? nullptr : &Rows,
      Metrics.empty() ? nullptr : &Metrics);
  std::fputs(Markdown ? bench::formatCompareMarkdown(R, Threshold).c_str()
                      : bench::formatCompareReport(R, Threshold).c_str(),
             stdout);
  if (R.Compared.empty() && R.MissingRows.empty()) {
    std::fprintf(stderr, "no comparable metrics found\n");
    return 2;
  }
  return R.ok() ? 0 : 1;
}
