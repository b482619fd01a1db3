//===- tests/support/profile_test.cpp - profiling layer tests -*- C++ -*-===//
///
/// Covers the instrumentation subsystem end to end: counter aggregation
/// across ThreadPool workers, nested scoped timers (no double counting),
/// Chrome-trace export round-tripping through the JSON parser, and the
/// Profile=false contract — engine outputs bitwise identical to an
/// unprofiled run.
///
/// The profiler is a process-wide singleton, so every test starts from
/// reset() and re-disables recording on exit (tests in this binary run
/// sequentially).
///
//===----------------------------------------------------------------------===//

#include "support/profile.h"

#include "compiler/compiler.h"
#include "engine/executor.h"
#include "models/models.h"
#include "support/thread_pool.h"
#include "support/trace_json.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace latte;

namespace {

/// Enables the profiler from a clean slate and disables it on scope exit.
struct ProfilerSession {
  ProfilerSession() {
    prof::Profiler::get().reset();
    prof::Profiler::get().setEnabled(true);
  }
  ~ProfilerSession() {
    prof::Profiler::get().setEnabled(false);
    prof::Profiler::get().reset();
  }
};

TEST(Profile, DisabledByDefault) { EXPECT_FALSE(prof::enabled()); }

TEST(Profile, CountersAggregateAcrossPoolWorkers) {
  ProfilerSession S;
  {
    prof::ScopedPhase Phase("pool_test");
    ThreadPool Pool(4);
    // Every task increments from whichever worker runs it; the per-phase
    // aggregate must see the exact sum regardless of thread placement.
    Pool.parallelFor(1000, [](int64_t I) {
      prof::count(prof::Counter::Flops, 3);
      if (I % 2 == 0)
        prof::count(prof::Counter::BytesMoved, 8);
    });
    Pool.parallelRun([](int Tid) {
      (void)Tid;
      prof::count(prof::Counter::TasksExecuted, 1);
    });
    prof::Summary Sum = prof::Profiler::get().summary();
    const prof::CounterSet *C = Sum.counters("pool_test");
    ASSERT_NE(C, nullptr);
    EXPECT_EQ(C->get(prof::Counter::Flops), 3000u);
    EXPECT_EQ(C->get(prof::Counter::BytesMoved), 4000u);
    EXPECT_EQ(C->get(prof::Counter::TasksExecuted),
              static_cast<uint64_t>(Pool.numThreads()));
    EXPECT_EQ(Sum.Totals.get(prof::Counter::Flops), 3000u);
  }
}

TEST(Profile, SpansRecordPhaseAndThread) {
  ProfilerSession S;
  {
    prof::ScopedPhase Phase("p1");
    prof::ScopedTimer T("work");
  }
  std::vector<prof::Span> Spans = prof::Profiler::get().spans();
  ASSERT_EQ(Spans.size(), 1u);
  EXPECT_EQ(Spans[0].Name, "work");
  EXPECT_EQ(Spans[0].Phase, "p1");
  EXPECT_FALSE(Spans[0].SelfNested);
}

TEST(Profile, NestedSameNameTimersDontDoubleCount) {
  ProfilerSession S;
  {
    prof::ScopedTimer Outer("recurse");
    {
      prof::ScopedTimer Inner("recurse"); // same name: self-nested
      prof::ScopedTimer Other("leaf");    // different name: counted
    }
  }
  prof::Summary Sum = prof::Profiler::get().summary();
  const prof::SpanStat *R = Sum.find("", "recurse");
  ASSERT_NE(R, nullptr);
  EXPECT_EQ(R->Count, 2u); // both spans appear in the count...
  const prof::SpanStat *L = Sum.find("", "leaf");
  ASSERT_NE(L, nullptr);
  // ...but the aggregate total only includes the outer one: the sum of
  // "recurse" must not exceed the outer wall time, which itself encloses
  // "leaf". If the inner span were counted, TotalSec would be ~2x.
  std::vector<prof::Span> Spans = prof::Profiler::get().spans();
  ASSERT_EQ(Spans.size(), 3u);
  double OuterSec = 0;
  for (const prof::Span &Sp : Spans)
    if (Sp.Name == "recurse" && !Sp.SelfNested)
      OuterSec = static_cast<double>(Sp.DurNs) * 1e-9;
  EXPECT_GT(OuterSec, 0);
  EXPECT_LE(R->TotalSec, OuterSec * 1.0001);
}

TEST(Profile, ResetDiscardsDataNotRegistrations) {
  ProfilerSession S;
  prof::count(prof::Counter::GemmCalls, 5);
  { prof::ScopedTimer T("x"); }
  prof::Profiler::get().reset();
  EXPECT_TRUE(prof::Profiler::get().spans().empty());
  EXPECT_TRUE(prof::Profiler::get().summary().Totals.empty());
  // Recording still works after a reset.
  prof::count(prof::Counter::GemmCalls, 2);
  EXPECT_EQ(prof::Profiler::get().summary().Totals.get(
                prof::Counter::GemmCalls),
            2u);
}

TEST(Profile, ChromeTraceRoundTripsThroughParser) {
  ProfilerSession S;
  {
    prof::ScopedPhase Phase("compile");
    prof::ScopedTimer T1("stage:baseline");
    prof::ScopedTimer T2("synthesize");
  }
  json::Value Trace = prof::chromeTrace();
  // Serialize and parse back — the exported file must be valid JSON with
  // the trace_event shape Perfetto expects.
  std::string Err;
  json::Value Doc = json::parse(Trace.dump(2), &Err);
  ASSERT_TRUE(Doc.isObject()) << Err;
  const json::Value *Events = Doc.find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  size_t Complete = 0, Meta = 0;
  for (const json::Value &E : Events->items()) {
    ASSERT_TRUE(E.isObject());
    std::string Ph = E.stringAt("ph");
    if (Ph == "X") {
      ++Complete;
      EXPECT_FALSE(E.stringAt("name").empty());
      EXPECT_TRUE(E.find("ts") != nullptr && E.at("ts").isNumber());
      EXPECT_TRUE(E.find("dur") != nullptr && E.at("dur").isNumber());
      EXPECT_TRUE(E.find("tid") != nullptr);
      EXPECT_EQ(E.stringAt("cat"), "compile");
    } else if (Ph == "M") {
      ++Meta;
      EXPECT_EQ(E.stringAt("name"), "thread_name");
    }
  }
  EXPECT_EQ(Complete, 2u);
  EXPECT_GE(Meta, 1u);
}

TEST(Profile, SummaryJsonHasSpansAndCounters) {
  ProfilerSession S;
  {
    prof::ScopedPhase Phase("fwd");
    prof::ScopedTimer T("task");
    prof::count(prof::Counter::KernelCalls, 3);
  }
  json::Value Doc = prof::summaryJson();
  ASSERT_TRUE(Doc.isObject());
  ASSERT_TRUE(Doc.at("spans").isArray());
  EXPECT_EQ(Doc.at("spans").items().size(), 1u);
  EXPECT_EQ(Doc.at("spans").items()[0].stringAt("name"), "task");
  EXPECT_DOUBLE_EQ(Doc.at("counters").at("fwd").numberAt("kernel_calls"),
                   3.0);
  EXPECT_DOUBLE_EQ(Doc.at("totals").numberAt("kernel_calls"), 3.0);
}

TEST(Profile, DisabledRecordingIsDropped) {
  prof::Profiler::get().reset();
  ASSERT_FALSE(prof::enabled());
  prof::count(prof::Counter::Flops, 100);
  { prof::ScopedTimer T("ignored"); }
  EXPECT_TRUE(prof::Profiler::get().spans().empty());
  EXPECT_TRUE(prof::Profiler::get().summary().Totals.empty());
}

/// Runs lenet-ish forward/backward and returns the raw bytes of the
/// classifier output buffer.
std::vector<unsigned char> runOnce(bool Profile) {
  models::ModelSpec Spec = models::mlp(16, {12, 8}, 4);
  core::Net Net(/*Batch=*/3);
  models::buildLatte(Net, Spec, /*WithLoss=*/true);
  engine::ExecOptions EO;
  EO.Profile = Profile;
  engine::Executor Ex(compiler::compile(Net, {}), EO);
  Ex.initParams(1);
  Tensor In(Spec.InputDims.withPrefix(3));
  Rng R(11);
  R.fillGaussian(In, 0.0f, 1.0f);
  Ex.setInput(In);
  Tensor Labels(Shape{3, 1});
  for (int64_t I = 0; I < 3; ++I)
    Labels.at(I) = static_cast<float>(I % 4);
  Ex.setLabels(Labels);
  Ex.forward();
  Ex.backward();
  Tensor Out = Ex.readBuffer(Ex.program().ProbBuffer);
  std::vector<unsigned char> Bytes(Out.numElements() * sizeof(float));
  std::memcpy(Bytes.data(), Out.data(), Bytes.size());
  return Bytes;
}

TEST(Profile, ProfilingDoesNotPerturbEngineOutputs) {
  // Profile=false (profiler off) vs Profile=true (profiler recording) must
  // produce bitwise-identical engine outputs: instrumentation only observes.
  std::vector<unsigned char> Plain = runOnce(/*Profile=*/false);
  std::vector<unsigned char> Profiled;
  {
    ProfilerSession S;
    Profiled = runOnce(/*Profile=*/true);
    // Sanity: the profiled run actually recorded engine activity.
    prof::Summary Sum = prof::Profiler::get().summary();
    EXPECT_GT(Sum.Totals.get(prof::Counter::TasksExecuted), 0u);
    EXPECT_GT(Sum.Totals.get(prof::Counter::KernelCalls), 0u);
    EXPECT_NE(Sum.counters("forward"), nullptr);
    EXPECT_NE(Sum.counters("backward"), nullptr);
  }
  ASSERT_EQ(Plain.size(), Profiled.size());
  EXPECT_EQ(std::memcmp(Plain.data(), Profiled.data(), Plain.size()), 0);
  // And a second unprofiled run is reproducible at all (the test would be
  // vacuous if outputs differed run to run).
  std::vector<unsigned char> Plain2 = runOnce(/*Profile=*/false);
  EXPECT_EQ(Plain, Plain2);
}

} // namespace
