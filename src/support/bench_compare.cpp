//===- support/bench_compare.cpp ------------------------------*- C++ -*-===//

#include "support/bench_compare.h"

#include <cstdio>

using namespace latte;
using namespace latte::bench;

namespace {

/// Dimensionless count metrics (the serve pseudo-row).
bool isCountMetric(const std::string &Metric) {
  return Metric == "shed" || Metric == "deadline_shed" ||
         Metric == "deadline_missed" || Metric == "interp_fallbacks" ||
         Metric == "chunked_batches" || Metric == "classes_installed";
}

const json::Value *findRow(const json::Value &Doc,
                           const std::string &Label) {
  const json::Value *Rows = Doc.find("rows");
  if (!Rows || !Rows->isArray())
    return nullptr;
  for (const json::Value &Row : Rows->items())
    if (Row.stringAt("label") == Label)
      return &Row;
  return nullptr;
}

/// Whether \p Doc carries the row \p Label; the pseudo-label "serve"
/// names the serving counters object.
bool hasRow(const json::Value &Doc, const std::string &Label) {
  if (Label == "serve") {
    const json::Value *Srv = Doc.find("serve");
    return Srv && Srv->isObject();
  }
  return findRow(Doc, Label) != nullptr;
}

} // namespace

CompareResult bench::compareBenchJson(const json::Value &Old,
                                      const json::Value &New,
                                      double Threshold, double MinDeltaSec,
                                      const std::vector<std::string> *OnlyRows,
                                      const std::vector<std::string> *OnlyMetrics) {
  CompareResult R;
  auto RowSelected = [&](const std::string &Label) {
    if (!OnlyRows)
      return true;
    for (const std::string &L : *OnlyRows)
      if (L == Label)
        return true;
    return false;
  };
  auto MetricSelected = [&](const std::string &Metric) {
    if (!OnlyMetrics)
      return true;
    for (const std::string &M : *OnlyMetrics)
      if (M == Metric)
        return true;
    return false;
  };

  // A named row is a gate: if either side lacks it, the gate fails rather
  // than passing on whatever else it happened to compare.
  if (OnlyRows)
    for (const std::string &L : *OnlyRows) {
      bool InOld = hasRow(Old, L), InNew = hasRow(New, L);
      if (InOld && InNew)
        continue;
      const char *Side = InOld ? "new file" : InNew ? "old file" : "both files";
      R.MissingRows.push_back("row '" + L + "' missing from " + Side);
    }

  std::string OldFig = Old.stringAt("figure"), NewFig = New.stringAt("figure");
  if (!OldFig.empty() && !NewFig.empty() && OldFig != NewFig)
    R.Notes.push_back("figure mismatch: old is '" + OldFig + "', new is '" +
                      NewFig + "'");

  const json::Value *OldRows = Old.find("rows");
  if (!OldRows || !OldRows->isArray()) {
    R.Notes.push_back("old file has no 'rows' array — nothing compared");
    return R;
  }

  static const char *Metrics[] = {"fwd_sec", "bwd_sec", "total_sec"};
  for (const json::Value &OldRow : OldRows->items()) {
    std::string Label = OldRow.stringAt("label");
    if (!RowSelected(Label))
      continue;
    const json::Value *NewRow = findRow(New, Label);
    if (!NewRow) {
      if (!OnlyRows) // a named row is already in MissingRows
        R.Notes.push_back("row '" + Label + "' missing from new file");
      continue;
    }
    for (const char *Metric : Metrics) {
      if (!MetricSelected(Metric))
        continue;
      const json::Value *OldV = OldRow.find(Metric);
      const json::Value *NewV = NewRow->find(Metric);
      if (!OldV || !NewV || !OldV->isNumber() || !NewV->isNumber())
        continue;
      MetricDelta D;
      D.Label = Label;
      D.Metric = Metric;
      D.OldSec = OldV->asNumber();
      D.NewSec = NewV->asNumber();
      R.Compared.push_back(D);
      if (D.OldSec <= 0)
        continue;
      double Delta = D.NewSec - D.OldSec;
      if (D.NewSec > D.OldSec * Threshold && Delta > MinDeltaSec)
        R.Regressions.push_back(D);
      else if (D.NewSec < D.OldSec / Threshold && -Delta > MinDeltaSec)
        R.Improvements.push_back(D);
    }
    // Memory gate: the planned arena size is deterministic (no noise
    // floor), so any growth beyond MemThreshold is a real planner
    // regression. 5% slack absorbs alignment-padding shifts when buffer
    // sets change shape slightly.
    static const double MemThreshold = 1.05;
    const json::Value *OldMem = OldRow.find("arena_bytes");
    const json::Value *NewMem = NewRow->find("arena_bytes");
    if (MetricSelected("arena_bytes") && OldMem && NewMem &&
        OldMem->isNumber() && NewMem->isNumber()) {
      MetricDelta D;
      D.Label = Label;
      D.Metric = "arena_bytes";
      D.OldSec = OldMem->asNumber();
      D.NewSec = NewMem->asNumber();
      R.Compared.push_back(D);
      if (D.OldSec > 0 && D.NewSec > D.OldSec * MemThreshold)
        R.Regressions.push_back(D);
      else if (D.OldSec > 0 && D.NewSec < D.OldSec / MemThreshold)
        R.Improvements.push_back(D);
    }
    // Throughput-style ratio: higher is better, so the regression
    // direction flips. No noise floor — a speedup is already a
    // dimensionless ratio of two measurements from the same run.
    const json::Value *OldSp = OldRow.find("speedup");
    const json::Value *NewSp = NewRow->find("speedup");
    if (MetricSelected("speedup") && OldSp && NewSp && OldSp->isNumber() &&
        NewSp->isNumber()) {
      MetricDelta D;
      D.Label = Label;
      D.Metric = "speedup";
      D.OldSec = OldSp->asNumber();
      D.NewSec = NewSp->asNumber();
      R.Compared.push_back(D);
      if (D.OldSec > 0 && D.NewSec < D.OldSec / Threshold)
        R.Regressions.push_back(D);
      else if (D.OldSec > 0 && D.NewSec > D.OldSec * Threshold)
        R.Improvements.push_back(D);
    }
    // Normalized latency: p50 x the host's own sequential rps — a
    // dimensionless multiple of the single-request service time, so the
    // gate compares scheduling quality across machines. Lower is better;
    // like speedup it is a same-run ratio and needs no absolute noise
    // floor.
    const json::Value *OldLn = OldRow.find("latency_norm");
    const json::Value *NewLn = NewRow->find("latency_norm");
    if (MetricSelected("latency_norm") && OldLn && NewLn &&
        OldLn->isNumber() && NewLn->isNumber()) {
      MetricDelta D;
      D.Label = Label;
      D.Metric = "latency_norm";
      D.OldSec = OldLn->asNumber();
      D.NewSec = NewLn->asNumber();
      R.Compared.push_back(D);
      if (D.OldSec > 0 && D.NewSec > D.OldSec * Threshold)
        R.Regressions.push_back(D);
      else if (D.OldSec > 0 && D.NewSec < D.OldSec / Threshold)
        R.Improvements.push_back(D);
    }
    // Recompute counters are informational (the flops/bytes trade is a
    // deliberate compiler policy, not a perf signal): compared so the
    // report shows drift, never gated. Request rates ride along the
    // serving rows the same way — the gated signal there is "speedup".
    static const char *InfoMetrics[] = {"recompute_flops",
                                        "retained_bytes_saved", "rps"};
    for (const char *Metric : InfoMetrics) {
      if (!MetricSelected(Metric))
        continue;
      const json::Value *OldV = OldRow.find(Metric);
      const json::Value *NewV = NewRow->find(Metric);
      if (!OldV || !NewV || !OldV->isNumber() || !NewV->isNumber())
        continue;
      MetricDelta D;
      D.Label = Label;
      D.Metric = Metric;
      D.OldSec = OldV->asNumber();
      D.NewSec = NewV->asNumber();
      R.Compared.push_back(D);
    }
  }

  // Serving degradation counters ride along informationally whenever both
  // documents carry a "serve" object: shed/fallback drift belongs in the
  // report (and the CI step summary), but the counts are load-dependent
  // and never gate. They answer to the row filter under the pseudo-label
  // "serve", so a hard-gate invocation like `--rows serve_throughput`
  // compares exactly what it names.
  static const char *ServeCounters[] = {"shed",
                                        "deadline_shed",
                                        "deadline_missed",
                                        "interp_fallbacks",
                                        "chunked_batches",
                                        "classes_installed"};
  const json::Value *OldSrv = Old.find("serve");
  const json::Value *NewSrv = New.find("serve");
  if (OldSrv && NewSrv && OldSrv->isObject() && NewSrv->isObject() &&
      RowSelected("serve"))
    for (const char *Metric : ServeCounters) {
      if (!MetricSelected(Metric))
        continue;
      const json::Value *OldV = OldSrv->find(Metric);
      const json::Value *NewV = NewSrv->find(Metric);
      if (!OldV || !NewV || !OldV->isNumber() || !NewV->isNumber())
        continue;
      MetricDelta D;
      D.Label = "serve";
      D.Metric = Metric;
      D.OldSec = OldV->asNumber();
      D.NewSec = NewV->asNumber();
      R.Compared.push_back(D);
    }

  // Unfiltered, rows only in the new file are informational too.
  const json::Value *NewRows = New.find("rows");
  if (!OnlyRows && NewRows && NewRows->isArray())
    for (const json::Value &NewRow : NewRows->items()) {
      std::string Label = NewRow.stringAt("label");
      if (!findRow(Old, Label))
        R.Notes.push_back("row '" + Label + "' is new (no baseline)");
    }
  return R;
}

std::string bench::formatCompareReport(const CompareResult &R,
                                       double Threshold) {
  std::string Out;
  char Buf[256];
  auto Line = [&](const MetricDelta &D, const char *Tag) {
    if (D.Metric == "speedup" || D.Metric == "rps" ||
        D.Metric == "latency_norm" || isCountMetric(D.Metric))
      std::snprintf(Buf, sizeof(Buf),
                    "  %-10s %-28s %-11s %12.2f -> %12.2f  (%.2fx)\n",
                    Tag, D.Label.c_str(), D.Metric.c_str(), D.OldSec,
                    D.NewSec, D.ratio());
    else if (D.Metric == "arena_bytes")
      std::snprintf(Buf, sizeof(Buf),
                    "  %-10s %-28s %-11s %9.1f MB -> %9.1f MB  (%.2fx)\n",
                    Tag, D.Label.c_str(), D.Metric.c_str(), D.OldSec / 1e6,
                    D.NewSec / 1e6, D.ratio());
    else
      std::snprintf(Buf, sizeof(Buf),
                    "  %-10s %-28s %-9s %10.3f ms -> %10.3f ms  (%.2fx)\n",
                    Tag, D.Label.c_str(), D.Metric.c_str(), D.OldSec * 1e3,
                    D.NewSec * 1e3, D.ratio());
    Out += Buf;
  };
  std::snprintf(Buf, sizeof(Buf),
                "compared %zu metrics at threshold %.2fx: %zu regressed, "
                "%zu improved\n",
                R.Compared.size(), Threshold, R.Regressions.size(),
                R.Improvements.size());
  Out += Buf;
  for (const MetricDelta &D : R.Regressions)
    Line(D, "REGRESSED");
  for (const MetricDelta &D : R.Improvements)
    Line(D, "improved");
  for (const std::string &M : R.MissingRows)
    Out += "  MISSING    " + M + "\n";
  for (const std::string &N : R.Notes)
    Out += "  note: " + N + "\n";
  return Out;
}

std::string bench::formatCompareMarkdown(const CompareResult &R,
                                         double Threshold) {
  auto Status = [&R](const MetricDelta &D) -> const char * {
    for (const MetricDelta &Reg : R.Regressions)
      if (Reg.Label == D.Label && Reg.Metric == D.Metric)
        return ":red_circle: regressed";
    for (const MetricDelta &Imp : R.Improvements)
      if (Imp.Label == D.Label && Imp.Metric == D.Metric)
        return ":green_circle: improved";
    return "ok";
  };
  auto Cell = [](const MetricDelta &D, double V) {
    char Buf[64];
    if (D.Metric == "arena_bytes" || D.Metric == "retained_bytes_saved")
      std::snprintf(Buf, sizeof(Buf), "%.1f MB", V / 1e6);
    else if (D.Metric == "recompute_flops")
      std::snprintf(Buf, sizeof(Buf), "%.2f Mflop", V / 1e6);
    else if (D.Metric == "speedup")
      std::snprintf(Buf, sizeof(Buf), "%.2fx", V);
    else if (D.Metric == "latency_norm")
      std::snprintf(Buf, sizeof(Buf), "%.2f", V);
    else if (D.Metric == "rps")
      std::snprintf(Buf, sizeof(Buf), "%.1f req/s", V);
    else if (isCountMetric(D.Metric))
      std::snprintf(Buf, sizeof(Buf), "%.0f", V);
    else
      std::snprintf(Buf, sizeof(Buf), "%.3f ms", V * 1e3);
    return std::string(Buf);
  };
  char Buf[192];
  std::snprintf(Buf, sizeof(Buf),
                "compared %zu metrics at threshold %.2fx: %zu regressed, "
                "%zu improved\n\n",
                R.Compared.size(), Threshold, R.Regressions.size(),
                R.Improvements.size());
  std::string Out = Buf;
  Out += "| row | metric | baseline | current | ratio | status |\n";
  Out += "|---|---|---:|---:|---:|---|\n";
  for (const MetricDelta &D : R.Compared) {
    std::snprintf(Buf, sizeof(Buf), "%.2fx", D.ratio());
    Out += "| " + D.Label + " | " + D.Metric + " | " + Cell(D, D.OldSec) +
           " | " + Cell(D, D.NewSec) + " | " + Buf + " | " + Status(D) +
           " |\n";
  }
  for (const std::string &M : R.MissingRows)
    Out += "\n:red_circle: **missing:** " + M;
  for (const std::string &N : R.Notes)
    Out += "\n_note: " + N + "_";
  if (!R.MissingRows.empty() || !R.Notes.empty())
    Out += "\n";
  return Out;
}
