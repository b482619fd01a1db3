//===- tests/serve/serve_test.cpp - Serving runtime tests -----------------===//
///
/// Covers the inference serving stack end to end: the micro-batcher's
/// flush triggers, EDF ordering, deadline shedding and prompt shutdown
/// failure, pointer-level weight sharing across replicas and batch sizes,
/// tail-batch padding correctness, the shape-polymorphic compile cache
/// (including single-flight under concurrent misses), asynchronous
/// shape-class installation and the cold-cache degradation ladder, the
/// forward-only memory plan, the inference/training bitwise-identity
/// guarantee across the verification lattice, and the training-only APIs'
/// rejection of inference programs.
///
//===----------------------------------------------------------------------===//

#include "core/layers/layers.h"
#include "serve/batcher.h"
#include "serve/server.h"
#include "support/timer.h"
#include "verify/gradcheck.h"
#include "verify/lattice.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <thread>

using namespace latte;
using namespace std::chrono_literals;

namespace {

models::ModelSpec testSpec() { return models::lenet(); }

Tensor randomItem(const Shape &Dims, uint64_t Seed) {
  Tensor T(Dims);
  Rng R(Seed);
  R.fillGaussian(T, 0.0f, 1.0f);
  return T;
}

serve::Request makeRequest() {
  serve::Request R;
  R.Input = Tensor(Shape{1});
  return R;
}

bool bitwiseEqual(const Tensor &A, const Tensor &B) {
  return A.numElements() == B.numElements() &&
         std::memcmp(A.data(), B.data(),
                     sizeof(float) * static_cast<size_t>(A.numElements())) ==
             0;
}

/// Clears the ProgramCache compile observer even when a test bails on a
/// fatal assertion.
struct ObserverGuard {
  explicit ObserverGuard(std::function<void(const std::string &)> Fn) {
    serve::ProgramCache::setCompileObserverForTests(std::move(Fn));
  }
  ~ObserverGuard() { serve::ProgramCache::setCompileObserverForTests(nullptr); }
};

} // namespace

// --- MicroBatcher ----------------------------------------------------------

TEST(MicroBatcher, FlushesImmediatelyWhenBatchFull) {
  serve::MicroBatcher B(4, std::chrono::microseconds(60'000'000), 64);
  for (int I = 0; I < 4; ++I)
    ASSERT_TRUE(B.enqueue(makeRequest()));
  // Flush deadline is a minute out: only the batch-full trigger can
  // release (default request deadlines are even further).
  std::vector<serve::Request> Batch = B.popBatch();
  EXPECT_EQ(Batch.size(), 4u);
  EXPECT_EQ(B.stats().FullFlushes, 1);
  EXPECT_EQ(B.stats().DeadlineFlushes, 0);
  B.stop();
}

TEST(MicroBatcher, DeadlineReleasesPartialBatch) {
  serve::MicroBatcher B(16, std::chrono::microseconds(2000), 64);
  for (int I = 0; I < 3; ++I)
    ASSERT_TRUE(B.enqueue(makeRequest()));
  Timer Wall;
  std::vector<serve::Request> Batch = B.popBatch();
  EXPECT_EQ(Batch.size(), 3u);
  // Released by the flush bound, not instantly and not never.
  EXPECT_GE(Wall.seconds(), 0.001);
  EXPECT_EQ(B.stats().DeadlineFlushes, 1);
  EXPECT_EQ(B.stats().FullFlushes, 0);
  B.stop();
}

TEST(MicroBatcher, PopsEarliestDeadlineFirst) {
  serve::MicroBatcher B(3, std::chrono::microseconds(60'000'000), 64);
  auto Now = std::chrono::steady_clock::now();
  // Marker in the input distinguishes the requests; deadlines arrive out
  // of order. All far enough out that nothing sheds.
  auto Mk = [&](float Marker, std::chrono::milliseconds Offset,
                serve::Priority Pri) {
    serve::Request R;
    R.Input = Tensor(Shape{1});
    R.Input.data()[0] = Marker;
    R.Pri = Pri;
    R.Deadline = Now + 60s + Offset;
    return R;
  };
  ASSERT_TRUE(B.enqueue(Mk(3, 300ms, serve::Priority::Bulk)));
  ASSERT_TRUE(B.enqueue(Mk(1, 100ms, serve::Priority::Interactive)));
  ASSERT_TRUE(B.enqueue(Mk(2, 200ms, serve::Priority::Standard)));
  std::vector<serve::Request> Batch = B.popBatch(); // batch-full at 3
  ASSERT_EQ(Batch.size(), 3u);
  EXPECT_EQ(Batch[0].Input.data()[0], 1.0f);
  EXPECT_EQ(Batch[1].Input.data()[0], 2.0f);
  EXPECT_EQ(Batch[2].Input.data()[0], 3.0f);
  serve::BatcherStats St = B.stats();
  EXPECT_EQ(St.EnqueuedByClass[0], 1);
  EXPECT_EQ(St.EnqueuedByClass[1], 1);
  EXPECT_EQ(St.EnqueuedByClass[2], 1);
  B.stop();
}

TEST(MicroBatcher, HopelessRequestsFailEarlyWithDeadlineShed) {
  serve::MicroBatcher B(8, std::chrono::microseconds(1000), 64);
  // Born expired: admitted (returns true) but failed on the spot.
  serve::Request R = makeRequest();
  R.Deadline = std::chrono::steady_clock::now() - 1ms;
  std::future<serve::Response> F = R.Result.get_future();
  EXPECT_TRUE(B.enqueue(std::move(R)));
  EXPECT_EQ(F.get().St, serve::Status::DeadlineShed);
  EXPECT_EQ(B.stats().DeadlineShed, 1);

  // Expires while queued: shed at pop time, never dispatched — the fresh
  // request still comes out.
  serve::Request Doomed = makeRequest();
  Doomed.Deadline = std::chrono::steady_clock::now() + 2ms;
  std::future<serve::Response> Fd = Doomed.Result.get_future();
  ASSERT_TRUE(B.enqueue(std::move(Doomed)));
  std::this_thread::sleep_for(5ms);
  serve::Request Fresh = makeRequest();
  Fresh.Input.data()[0] = 42.0f;
  Fresh.Deadline = std::chrono::steady_clock::now() + 60s;
  ASSERT_TRUE(B.enqueue(std::move(Fresh)));
  std::vector<serve::Request> Batch = B.popBatch();
  ASSERT_EQ(Batch.size(), 1u);
  EXPECT_EQ(Batch[0].Input.data()[0], 42.0f);
  EXPECT_EQ(Fd.get().St, serve::Status::DeadlineShed);
  EXPECT_EQ(B.stats().DeadlineShed, 2);
  B.stop();
}

TEST(MicroBatcher, ShedsAtCapacityAndFailsQueuedOnStop) {
  serve::MicroBatcher B(4, std::chrono::microseconds(1000), 2);
  serve::Request R1 = makeRequest(), R2 = makeRequest();
  std::future<serve::Response> F1 = R1.Result.get_future();
  std::future<serve::Response> F2 = R2.Result.get_future();
  EXPECT_TRUE(B.enqueue(std::move(R1)));
  EXPECT_TRUE(B.enqueue(std::move(R2)));
  EXPECT_FALSE(B.enqueue(makeRequest())); // over capacity, promise untouched
  B.stop();
  EXPECT_FALSE(B.enqueue(makeRequest())); // stopped
  EXPECT_EQ(B.stats().Shed, 2);
  // stop() does NOT serve a drain batch: queued requests fail promptly
  // with Shutdown (a caller blocked on the future resolves immediately),
  // and consumers see the empty termination signal.
  EXPECT_EQ(F1.get().St, serve::Status::Shutdown);
  EXPECT_EQ(F2.get().St, serve::Status::Shutdown);
  EXPECT_EQ(B.stats().ShutdownFailed, 2);
  EXPECT_TRUE(B.popBatch().empty());
}

TEST(MicroBatcher, StopUnblocksWaitingCallerPromptly) {
  // Regression pin for the shutdown drain bug: a caller blocked on a
  // queued request's future must resolve at stop() even though no
  // consumer ever pops — previously the request sat queued forever.
  serve::MicroBatcher B(16, std::chrono::microseconds(60'000'000), 64);
  serve::Request R = makeRequest();
  std::future<serve::Response> F = R.Result.get_future();
  ASSERT_TRUE(B.enqueue(std::move(R)));
  std::thread Stopper([&] {
    std::this_thread::sleep_for(20ms);
    B.stop();
  });
  EXPECT_EQ(F.wait_for(10s), std::future_status::ready);
  EXPECT_EQ(F.get().St, serve::Status::Shutdown);
  Stopper.join();
}

TEST(MicroBatcher, BlockedConsumerWakesOnEnqueue) {
  serve::MicroBatcher B(2, std::chrono::microseconds(50'000'000), 64);
  std::atomic<int> Got{-1};
  std::thread Consumer([&] {
    Got = static_cast<int>(B.popBatch().size());
  });
  ASSERT_TRUE(B.enqueue(makeRequest()));
  ASSERT_TRUE(B.enqueue(makeRequest()));
  Consumer.join();
  EXPECT_EQ(Got, 2);
  B.stop();
}

// --- ProgramCache ----------------------------------------------------------

TEST(ProgramCache, ConcurrentMissesOnOneKeyCompileOnce) {
  serve::ProgramCache &Cache = serve::ProgramCache::instance();
  models::ModelSpec Spec = testSpec();
  Spec.Name = "LeNet-singleflight-test"; // private cold key
  compiler::CompileOptions CO;
  constexpr int N = 6;
  serve::ProgramCache::Stats S0 = Cache.stats();
  // The leader's compile is held open until all N threads have missed, so
  // the followers demonstrably coalesce instead of racing past a warm key.
  ObserverGuard Guard([&](const std::string &) {
    Timer Wall;
    while (Cache.stats().Misses - S0.Misses < N && Wall.seconds() < 10.0)
      std::this_thread::sleep_for(1ms);
  });
  std::vector<serve::ProgramCache::ProgramPtr> Got(N);
  std::vector<std::thread> Threads;
  for (int I = 0; I < N; ++I)
    Threads.emplace_back(
        [&, I] { Got[I] = Cache.getOrCompile(Spec, CO, 4); });
  for (std::thread &T : Threads)
    T.join();
  serve::ProgramCache::Stats S1 = Cache.stats();
  EXPECT_EQ(S1.Compiles - S0.Compiles, 1) << "single-flight violated";
  EXPECT_EQ(S1.Misses - S0.Misses, N);
  EXPECT_EQ(S1.Coalesced - S0.Coalesced, N - 1);
  for (int I = 0; I < N; ++I) {
    ASSERT_NE(Got[I], nullptr);
    EXPECT_EQ(Got[I].get(), Got[0].get()) << "thread " << I;
  }
}

TEST(ProgramCache, DistinctKeysCompileInParallel) {
  serve::ProgramCache &Cache = serve::ProgramCache::instance();
  models::ModelSpec Spec = testSpec();
  Spec.Name = "LeNet-parallel-compile-test";
  compiler::CompileOptions CO;
  // Each compiling thread parks in the observer until it has seen the
  // other one arrive: both can only proceed if the cache mutex is not
  // held across compilation.
  std::atomic<int> Arrived{0};
  std::atomic<bool> Overlapped{false};
  ObserverGuard Guard([&](const std::string &) {
    ++Arrived;
    Timer Wall;
    while (Arrived.load() < 2 && Wall.seconds() < 10.0)
      std::this_thread::sleep_for(1ms);
    if (Arrived.load() >= 2)
      Overlapped = true;
  });
  std::thread A([&] { Cache.getOrCompile(Spec, CO, 2); });
  std::thread B([&] { Cache.getOrCompile(Spec, CO, 3); });
  A.join();
  B.join();
  EXPECT_TRUE(Overlapped) << "distinct keys serialized their compiles";
}

TEST(ProgramCache, LookupNeverCompiles) {
  serve::ProgramCache &Cache = serve::ProgramCache::instance();
  models::ModelSpec Spec = testSpec();
  Spec.Name = "LeNet-lookup-test";
  compiler::CompileOptions CO;
  serve::ProgramCache::Stats S0 = Cache.stats();
  EXPECT_EQ(Cache.lookup(Spec, CO, 2), nullptr);
  serve::ProgramCache::Stats S1 = Cache.stats();
  EXPECT_EQ(S1.Compiles, S0.Compiles);
  serve::ProgramCache::ProgramPtr P = Cache.getOrCompile(Spec, CO, 2);
  EXPECT_EQ(Cache.lookup(Spec, CO, 2).get(), P.get());
}

// --- Server ----------------------------------------------------------------

TEST(Server, SharesWeightPointersAcrossReplicasAndBatchSizes) {
  serve::ServeOptions SO;
  SO.Replicas = 2;
  SO.BatchSizes = {1, 4};
  serve::Server Srv(testSpec(), {}, SO);
  ASSERT_TRUE(Srv.waitAllClassesReady(60s));

  const compiler::Program &Prog = Srv.weightMaster().program();
  int Params = 0;
  for (const compiler::BufferInfo &B : Prog.Buffers) {
    if (B.Role != compiler::BufferRole::Param || !B.AliasOf.empty())
      continue;
    ++Params;
    const float *MasterPtr = Srv.weightMaster().data(B.Name);
    for (int R = 0; R < 2; ++R)
      for (int64_t BS : {int64_t(1), int64_t(4)})
        EXPECT_EQ(Srv.replicaExecutor(R, BS).data(B.Name), MasterPtr)
            << "replica " << R << " batch " << BS << " buffer " << B.Name;
  }
  // LeNet: conv1/conv2/fc1/classifier weights + biases.
  EXPECT_GE(Params, 4);
}

TEST(Server, TailBatchPaddingIsBitwiseCorrect) {
  // Only batch size 4 is compiled, so 3 submissions force a padded tail
  // batch once the flush deadline trips.
  serve::ServeOptions SO;
  SO.Replicas = 1;
  SO.BatchSizes = {4};
  SO.FlushDeadlineMicros = 1000;
  SO.Exec.Deterministic = true;
  models::ModelSpec Spec = testSpec();
  serve::Server Srv(Spec, {}, SO);
  Srv.start();

  std::vector<Tensor> Items;
  std::vector<std::future<serve::Response>> Futs(3);
  for (int I = 0; I < 3; ++I)
    Items.push_back(randomItem(Spec.InputDims, 40 + I));
  for (int I = 0; I < 3; ++I)
    ASSERT_TRUE(Srv.submit(Items[I], &Futs[I]));

  // Single-item reference: a private batch-1 inference executor with the
  // same parameter seed.
  core::Net Net(1);
  models::buildLatte(Net, Spec, /*WithLoss=*/true);
  engine::ExecOptions EO;
  EO.Seed = SO.ParamSeed;
  EO.Deterministic = true;
  engine::Executor Ref(compiler::compileForward(Net), EO);

  for (int I = 0; I < 3; ++I) {
    serve::Response Resp = Futs[I].get();
    ASSERT_EQ(Resp.St, serve::Status::Ok) << "item " << I;
    Ref.setInput(Items[I]);
    Ref.forward();
    Tensor Expect = Ref.readBuffer(Ref.program().ProbBuffer);
    EXPECT_TRUE(bitwiseEqual(Resp.Output, Expect)) << "item " << I;
  }
  Srv.stop();
  serve::ServeStats St = Srv.stats();
  EXPECT_EQ(St.Completed, 3);
  EXPECT_GE(St.PaddedSlots, 1);
}

TEST(Server, LoadParamsFromTrainedExecutor) {
  models::ModelSpec Spec = testSpec();
  core::Net Net(2);
  models::buildLatte(Net, Spec, /*WithLoss=*/true);
  engine::ExecOptions EO;
  EO.Seed = 999; // deliberately different from the server's ParamSeed
  engine::Executor Trained(compiler::compile(Net), EO);

  serve::ServeOptions SO;
  SO.Replicas = 1;
  SO.BatchSizes = {1};
  serve::Server Srv(Spec, {}, SO);
  Srv.loadParamsFrom(Trained);
  Srv.start();

  Tensor Item = randomItem(Spec.InputDims, 7);
  std::future<serve::Response> Fut;
  ASSERT_TRUE(Srv.submit(Item, &Fut));
  serve::Response Resp = Fut.get();
  ASSERT_EQ(Resp.St, serve::Status::Ok);
  Srv.stop();

  core::Net RefNet(1);
  models::buildLatte(RefNet, Spec, /*WithLoss=*/true);
  engine::ExecOptions RefEO;
  RefEO.Seed = 999;
  engine::Executor Ref(compiler::compileForward(RefNet), RefEO);
  Ref.setInput(Item);
  Ref.forward();
  EXPECT_TRUE(
      bitwiseEqual(Resp.Output, Ref.readBuffer(Ref.program().ProbBuffer)));
}

TEST(Server, ColdClassesServeChunkedViaFloorUntilInstalled) {
  // The async tentpole's cold path: while the batch-8 class compiles in
  // the background (held open by the observer), a full batch is served
  // chunked through the warm batch-1 floor — requests never block on an
  // inline compile — and the class installs atomically afterwards.
  models::ModelSpec Spec = testSpec();
  Spec.Name = "LeNet-async-install-test";
  compiler::CompileOptions CO;
  compiler::CompileOptions ServerCO = CO;
  ServerCO.Inference = true; // what Server compiles under the hood
  const std::string FloorKey = serve::ProgramCache::key(Spec, ServerCO, 1);
  ObserverGuard Guard([&](const std::string &K) {
    if (K != FloorKey) // only delay the background batch-8 compile
      std::this_thread::sleep_for(300ms);
  });

  serve::ServeOptions SO;
  SO.Replicas = 1;
  SO.BatchSizes = {1, 8};
  // A generous flush deadline makes batch-full the only release trigger:
  // 8 rapid submits deterministically pop as one fill-8 batch.
  SO.FlushDeadlineMicros = 200'000;
  serve::Server Srv(Spec, CO, SO);
  EXPECT_FALSE(Srv.allClassesReady()); // batch-8 is parked in the observer
  Srv.start();

  serve::SubmitOptions SubO;
  SubO.Pri = serve::Priority::Bulk; // generous deadline for slow CI
  std::vector<Tensor> Items;
  for (int I = 0; I < 16; ++I)
    Items.push_back(randomItem(Spec.InputDims, 100 + I));
  std::vector<std::future<serve::Response>> Futs(8);
  for (int I = 0; I < 8; ++I)
    ASSERT_TRUE(Srv.submit(Items[I], &Futs[I], SubO));
  for (int I = 0; I < 8; ++I)
    EXPECT_EQ(Futs[I].get().St, serve::Status::Ok) << "item " << I;

  serve::ServeStats Cold = Srv.stats();
  EXPECT_EQ(Cold.Completed, 8);
  EXPECT_GE(Cold.ChunkedBatches, 1) << "cold batch did not use the floor";

  ASSERT_TRUE(Srv.waitAllClassesReady(60s));
  EXPECT_GT(Srv.allReadySec(), 0.0);
  EXPECT_GE(Srv.stats().ClassesInstalled, 2);
  // Warm now: a full batch runs on the batch-8 class directly.
  for (int I = 0; I < 8; ++I)
    ASSERT_TRUE(Srv.submit(Items[8 + I], &Futs[I], SubO));
  for (int I = 0; I < 8; ++I)
    EXPECT_EQ(Futs[I].get().St, serve::Status::Ok);
  serve::ServeStats Warm = Srv.stats();
  EXPECT_GE(Warm.Fill[8][8], 1) << "warm batch did not use the installed class";
  Srv.stop();
}

TEST(Server, InterpretedFallbackServesWhileJitClassCold) {
  // With Jit requested, the floor is the *interpreted* batch-1 program:
  // while the JIT'd classes are cold (held open by the observer), traffic
  // is served through interpreted dispatch instead of blocking on the .so
  // compile. (In sanitizer builds the JIT gracefully degrades to
  // interpretation, which leaves this ladder structure unchanged.)
  models::ModelSpec Spec = testSpec();
  Spec.Name = "LeNet-jit-fallback-test";
  compiler::CompileOptions CO;
  CO.Jit = true;
  compiler::CompileOptions JitCO = CO;
  JitCO.Inference = true;
  ObserverGuard Guard([&](const std::string &K) {
    // Delay exactly the JIT'd shape classes; interp variants fly.
    for (int64_t BS : {int64_t(1), int64_t(2)})
      if (K == serve::ProgramCache::key(Spec, JitCO, BS))
        std::this_thread::sleep_for(300ms);
  });

  serve::ServeOptions SO;
  SO.Replicas = 1;
  SO.BatchSizes = {1, 2};
  SO.FlushDeadlineMicros = 500;
  serve::Server Srv(Spec, CO, SO);
  EXPECT_FALSE(Srv.allClassesReady());
  Srv.start();

  serve::SubmitOptions SubO;
  SubO.Pri = serve::Priority::Bulk;
  std::future<serve::Response> Fut;
  ASSERT_TRUE(Srv.submit(randomItem(Spec.InputDims, 7), &Fut, SubO));
  EXPECT_EQ(Fut.get().St, serve::Status::Ok);
  EXPECT_GE(Srv.stats().InterpFallbacks, 1)
      << "cold JIT class did not fall back to interpreted dispatch";
  ASSERT_TRUE(Srv.waitAllClassesReady(120s));
  Srv.stop();
}

TEST(Server, DeadlineShedStatusReachesSubmitter) {
  // A request whose explicit deadline evaporates while queued is failed
  // with DeadlineShed by the batcher, never dispatched.
  serve::ServeOptions SO;
  SO.Replicas = 1;
  SO.BatchSizes = {1};
  models::ModelSpec Spec = testSpec();
  serve::Server Srv(Spec, {}, SO); // not started: the request sits queued

  serve::SubmitOptions SubO;
  SubO.DeadlineMicros = 1000; // 1ms
  std::future<serve::Response> Fut;
  ASSERT_TRUE(Srv.submit(randomItem(Spec.InputDims, 3), &Fut, SubO));
  std::this_thread::sleep_for(20ms); // let the deadline pass
  Srv.start();
  EXPECT_EQ(Fut.get().St, serve::Status::DeadlineShed);
  EXPECT_GE(Srv.stats().DeadlineShed, 1);
  Srv.stop();
}

TEST(Server, StopFailsQueuedRequestsWithShutdown) {
  serve::ServeOptions SO;
  SO.Replicas = 1;
  SO.BatchSizes = {1};
  models::ModelSpec Spec = testSpec();
  serve::Server Srv(Spec, {}, SO); // never started: nothing consumes
  std::future<serve::Response> Fut;
  ASSERT_TRUE(Srv.submit(randomItem(Spec.InputDims, 5), &Fut));
  Srv.stop();
  EXPECT_EQ(Fut.get().St, serve::Status::Shutdown);
  EXPECT_EQ(Srv.stats().ShutdownFailed, 1);
}

TEST(Server, ProgramCacheHitsOnSecondServer) {
  serve::ProgramCache &Cache = serve::ProgramCache::instance();
  serve::ServeOptions SO;
  SO.Replicas = 1;
  SO.BatchSizes = {1, 2};
  models::ModelSpec Spec = testSpec();
  Spec.Name = "LeNet-cache-test"; // private cache entries for this test

  // Waiting for every class keeps the stats deterministic: the batch-2
  // class compiles in the background.
  serve::Server A(Spec, {}, SO);
  ASSERT_TRUE(A.waitAllClassesReady(60s));
  serve::ProgramCache::Stats S1 = Cache.stats();
  serve::Server B(Spec, {}, SO);
  ASSERT_TRUE(B.waitAllClassesReady(60s));
  serve::ProgramCache::Stats S2 = Cache.stats();
  EXPECT_EQ(S2.Misses, S1.Misses);     // second server compiled nothing
  EXPECT_EQ(S2.Hits, S1.Hits + 2);     // both batch sizes reused
  EXPECT_EQ(&A.program(1), &B.program(1)); // same shared compilation

  // A different shape class or option class is a different cache key.
  compiler::CompileOptions CO;
  EXPECT_NE(serve::ProgramCache::key(Spec, CO, 1),
            serve::ProgramCache::key(Spec, CO, 2));
  compiler::CompileOptions NoFusion = CO;
  NoFusion.Fusion = false;
  EXPECT_NE(serve::ProgramCache::key(Spec, CO, 1),
            serve::ProgramCache::key(Spec, NoFusion, 1));
}

TEST(Server, ProgramCacheKeyCoversAllProgramShapingOptions) {
  // Regression pin for the fingerprint audit: every program-shaping
  // CompileOptions field must perturb the cache key. Fields were once
  // added without rekeying, so two option sets aliased one entry and the
  // server served the wrong program.
  models::ModelSpec Spec = testSpec();
  const compiler::CompileOptions Base;
  auto K = [&](const compiler::CompileOptions &CO) {
    return serve::ProgramCache::key(Spec, CO, 2);
  };
  struct FieldFlip {
    const char *Name;
    std::function<void(compiler::CompileOptions &)> Flip;
  };
  const FieldFlip Flips[] = {
      {"PatternMatchGemm", [](auto &C) { C.PatternMatchGemm ^= true; }},
      {"PatternMatchKernels", [](auto &C) { C.PatternMatchKernels ^= true; }},
      {"Tiling", [](auto &C) { C.Tiling ^= true; }},
      {"Fusion", [](auto &C) { C.Fusion ^= true; }},
      {"Parallelize", [](auto &C) { C.Parallelize ^= true; }},
      {"VectorKernels", [](auto &C) { C.VectorKernels ^= true; }},
      {"Recompute", [](auto &C) { C.Recompute ^= true; }},
      {"Jit", [](auto &C) { C.Jit ^= true; }},
      {"Inference", [](auto &C) { C.Inference ^= true; }},
      {"EvalDropout", [](auto &C) { C.EvalDropout ^= true; }},
      {"TileSize", [](auto &C) { C.TileSize += 4; }},
      {"MinRowsToTile", [](auto &C) { C.MinRowsToTile += 8; }},
  };
  for (const FieldFlip &F : Flips) {
    compiler::CompileOptions CO = Base;
    F.Flip(CO);
    EXPECT_NE(K(Base), K(CO)) << "CompileOptions::" << F.Name
                              << " does not reach the cache fingerprint";
  }
  // Graph-structure fields of the spec are program-shaping too.
  models::ModelSpec Tied = Spec;
  Tied.Layers[0].ShareWith = "conv0";
  EXPECT_NE(serve::ProgramCache::key(Spec, Base, 2),
            serve::ProgramCache::key(Tied, Base, 2));
  models::ModelSpec Edged = Spec;
  Edged.Layers[0].Inputs.push_back("data");
  EXPECT_NE(serve::ProgramCache::key(Spec, Base, 2),
            serve::ProgramCache::key(Edged, Base, 2));
  models::ModelSpec Timed = Spec;
  Timed.Layers[0].TimeIndex = 1;
  EXPECT_NE(serve::ProgramCache::key(Spec, Base, 2),
            serve::ProgramCache::key(Timed, Base, 2));
}

TEST(Server, SequenceModelsServeBitwiseLikeTraining) {
  // The graph-structured specs must flow through the whole serving stack:
  // compile cache, replica weight sharing, micro-batching, and the padded
  // tail — and still return the training-forward bits.
  for (const models::ModelSpec &Spec :
       {models::lstmClassifier(), models::attentionClassifier()}) {
    serve::ServeOptions SO;
    SO.Replicas = 1;
    SO.BatchSizes = {2};
    SO.FlushDeadlineMicros = 1000;
    SO.Exec.Deterministic = true;
    serve::Server Srv(Spec, {}, SO);
    Srv.start();
    Tensor Item = randomItem(Spec.InputDims, 77);
    std::future<serve::Response> Fut;
    ASSERT_TRUE(Srv.submit(Item, &Fut));
    serve::Response Resp = Fut.get();
    ASSERT_EQ(Resp.St, serve::Status::Ok) << Spec.Name;
    Srv.stop();

    core::Net Net(1);
    models::buildLatte(Net, Spec, /*WithLoss=*/true);
    engine::ExecOptions EO;
    EO.Seed = SO.ParamSeed;
    EO.Deterministic = true;
    engine::Executor Ref(compiler::compileForward(Net), EO);
    Ref.setInput(Item);
    Ref.forward();
    EXPECT_TRUE(
        bitwiseEqual(Resp.Output, Ref.readBuffer(Ref.program().ProbBuffer)))
        << Spec.Name;
  }
}

// --- inference compilation -------------------------------------------------

TEST(InferenceCompile, ForwardOnlyArenaIsStrictlySmaller) {
  core::Net Net(8);
  models::buildLatte(Net, testSpec(), /*WithLoss=*/true);
  compiler::Program Train = compiler::compile(Net);
  compiler::Program Infer = compiler::compileForward(Net);
  ASSERT_TRUE(Train.Plan.Valid);
  ASSERT_TRUE(Infer.Plan.Valid);
  EXPECT_LT(Infer.Plan.ArenaBytes, Train.Plan.ArenaBytes);
  EXPECT_LT(Infer.Buffers.size(), Train.Buffers.size());
  EXPECT_TRUE(Infer.Inference);
  EXPECT_EQ(Infer.Backward, nullptr);
  EXPECT_TRUE(Infer.Params.empty());
  EXPECT_TRUE(Infer.BackwardTasks.empty());
  // No gradient or solver buffers survive the strip.
  for (const compiler::BufferInfo &B : Infer.Buffers) {
    EXPECT_NE(B.Role, compiler::BufferRole::Grad) << B.Name;
    EXPECT_NE(B.Role, compiler::BufferRole::ParamGrad) << B.Name;
    EXPECT_NE(B.Role, compiler::BufferRole::GradInput) << B.Name;
  }
}

TEST(InferenceCompile, ForwardBitwiseIdenticalToTrainingAcrossLattice) {
  // The tentpole guarantee: for every lattice point of the per-PR tier,
  // the inference-compiled forward produces bit-identical buffers to the
  // training-compiled forward under the same switches. NoMemPlan keeps
  // every buffer readable; Deterministic pins the dropout RNG (vacuous for
  // LeNet, but keeps the recipe right).
  models::ModelSpec Spec = testSpec();
  core::Net Net(2);
  models::buildLatte(Net, Spec, /*WithLoss=*/true);
  Tensor Input = randomItem(Spec.InputDims.withPrefix(2), 0xDA7A);

  verify::LatticeOptions LO; // tile geometry that bites on tiny nets
  for (unsigned Mask : verify::sweepMasks()) {
    compiler::CompileOptions CO = verify::optionsForMask(Mask, LO);
    engine::ExecOptions EO;
    EO.VectorKernels = CO.VectorKernels;
    EO.Parallel = CO.Parallelize;
    EO.Deterministic = true;
    EO.NoMemPlan = true;
    EO.Seed = LO.ParamSeed;
    engine::Executor Train(compiler::compile(Net, CO), EO);
    engine::Executor Infer(compiler::compileForward(Net, CO), EO);
    Train.setInput(Input);
    Infer.setInput(Input);
    Train.forward();
    Infer.forward();

    int64_t Compared = 0;
    for (const compiler::BufferInfo &B : Infer.program().Buffers) {
      if (!B.AliasOf.empty())
        continue; // roots own the bytes; aliases would double-count
      if (!Train.program().findBuffer(B.Name))
        continue;
      Tensor Want = Train.readBuffer(B.Name);
      Tensor Got = Infer.readBuffer(B.Name);
      ASSERT_TRUE(bitwiseEqual(Got, Want))
          << "buffer " << B.Name << " diverges at mask " << Mask << " ("
          << verify::flagString(CO) << ")";
      ++Compared;
    }
    ASSERT_GE(Compared, 8) << "mask " << Mask << " compared too little";
  }
}

TEST(InferenceCompile, EvalDropoutIsOptInExpectationScaling) {
  // A dropout net served two ways. Default: inference keeps the exact
  // training-parity semantics (deterministic mask RNG), preserving the
  // bitwise train/serve contract. Opt-in EvalDropout: the mask RNG is
  // skipped and the activation is scaled by KeepProb (the expectation),
  // the conventional eval-mode dropout.
  const double Keep = 0.8;
  core::Net Net(2);
  core::Ensemble *Data = layers::DataLayer(Net, "data", Shape{6});
  core::Ensemble *Fc = layers::FullyConnectedLayer(Net, "fc", Data, 5);
  core::Ensemble *Drop = layers::DropoutLayer(Net, "drop", Fc, Keep);
  core::Ensemble *Out = layers::FullyConnectedLayer(Net, "out", Drop, 3);
  core::Ensemble *Labels = layers::LabelLayer(Net, "labels");
  layers::SoftmaxLossLayer(Net, "loss", Out, Labels);

  engine::ExecOptions EO;
  EO.Deterministic = true;
  EO.NoMemPlan = true; // keep intermediates readable
  EO.Seed = 17;
  Tensor In = randomItem(Shape{2, 6}, 23);

  engine::Executor Train(compiler::compile(Net), EO);
  engine::Executor InferDefault(compiler::compileForward(Net), EO);
  compiler::CompileOptions Eval;
  Eval.EvalDropout = true;
  engine::Executor InferEval(compiler::compileForward(Net, Eval), EO);
  for (engine::Executor *Ex : {&Train, &InferDefault, &InferEval}) {
    Ex->setInput(In);
    Ex->forward();
  }

  // Default serving path: bitwise identical to the training forward,
  // dropped units and all.
  EXPECT_TRUE(bitwiseEqual(InferDefault.readBuffer("drop_value"),
                           Train.readBuffer("drop_value")));
  EXPECT_TRUE(bitwiseEqual(InferDefault.readBuffer("out_value"),
                           Train.readBuffer("out_value")));

  // Opt-in path: every unit present, scaled by KeepProb; necessarily
  // different from the masked training activation.
  Tensor Src = InferEval.readBuffer("fc_value");
  Tensor Scaled = InferEval.readBuffer("drop_value");
  ASSERT_EQ(Scaled.numElements(), Src.numElements());
  for (int64_t I = 0; I < Src.numElements(); ++I)
    EXPECT_EQ(Scaled.at(I), Src.at(I) * static_cast<float>(Keep))
        << "element " << I;
  EXPECT_FALSE(bitwiseEqual(Scaled, Train.readBuffer("drop_value")));

  // EvalDropout without Inference is inert: training always trains.
  compiler::CompileOptions TrainEval;
  TrainEval.EvalDropout = true;
  engine::Executor Train2(compiler::compile(Net, TrainEval), EO);
  Train2.setInput(In);
  Train2.forward();
  EXPECT_TRUE(bitwiseEqual(Train2.readBuffer("drop_value"),
                           Train.readBuffer("drop_value")));
}

// --- training-only APIs reject inference programs --------------------------

TEST(InferenceCompile, BackwardIsFatalWithDiagnostic) {
  core::Net Net(2);
  models::buildLatte(Net, testSpec(), /*WithLoss=*/true);
  engine::Executor Ex(compiler::compileForward(Net));
  Ex.forward(); // forward still works
  EXPECT_DEATH(Ex.backward(), "inference-compiled");
}

TEST(InferenceCompile, GradCheckRejectsWithDiagnosticInsteadOfCrashing) {
  core::Net Net(2);
  models::buildLatte(Net, testSpec(), /*WithLoss=*/true);
  engine::ExecOptions EO;
  EO.Deterministic = true;
  engine::Executor Ex(compiler::compileForward(Net), EO);
  verify::GradCheckReport R = verify::gradCheck(Ex);
  EXPECT_FALSE(R.Passed);
  EXPECT_EQ(R.NumChecked, 0);
  EXPECT_FALSE(R.Diagnostic.empty());
  EXPECT_NE(R.summary().find("REJECTED"), std::string::npos);
}
