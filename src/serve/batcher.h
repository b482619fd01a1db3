//===- serve/batcher.h - Deadline-aware micro-batching queue ---*- C++ -*-===//
///
/// \file
/// The admission side of the serving runtime: callers enqueue single-item
/// requests carrying a priority class and an absolute service deadline;
/// executor replicas pop micro-batches in earliest-deadline-first (EDF)
/// order. A batch is released the moment either trigger fires:
///
///   * batch-full — MaxBatch requests are pending (take the MaxBatch
///                  earliest deadlines),
///   * flush      — the oldest *arrival* has waited FlushDeadline (take
///                  everything pending, which is < MaxBatch).
///
/// The flush bound caps queueing latency under sparse traffic; batch-full
/// keeps throughput under load. Degradation is explicit, never silent:
///
///   * over-capacity requests are shed at enqueue (the caller sees `false`
///     and still owns the promise),
///   * requests that can no longer make their deadline — expired, or with
///     less remaining slack than the EWMA of recent batch service times —
///     are failed early with Status::DeadlineShed instead of timing out
///     downstream after wasting a replica slot,
///   * stop() fails everything still queued with Status::Shutdown
///     promptly (it does NOT serve a drain batch), so callers blocked on
///     futures resolve immediately at shutdown.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_SERVE_BATCHER_H
#define LATTE_SERVE_BATCHER_H

#include "support/tensor.h"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <vector>

namespace latte {
namespace serve {

/// Scheduling class of a request. The class chooses the default deadline
/// budget (ServeOptions::ClassDeadlineMicros) and is recorded per class in
/// the stats; ordering itself is EDF over the resulting deadlines, so an
/// Interactive request outruns a Bulk one exactly because its deadline is
/// nearer.
enum class Priority { Interactive = 0, Standard = 1, Bulk = 2 };
constexpr int NumPriorities = 3;

/// How a request left the system.
enum class Status {
  Ok,           ///< served; Output holds the probability row
  DeadlineShed, ///< failed early: could not make its deadline
  Shutdown,     ///< failed because the server stopped while it was queued
};

/// What a request's future resolves to.
struct Response {
  Status St = Status::Ok;
  Tensor Output; ///< empty unless St == Ok
};

/// One in-flight inference request: a single item's input and the promise
/// its response is delivered through.
struct Request {
  Tensor Input;
  std::promise<Response> Result;
  Priority Pri = Priority::Standard;
  std::chrono::steady_clock::time_point Enqueued;
  std::chrono::steady_clock::time_point Deadline; ///< absolute service bound

  void fulfill(Tensor Row) { Result.set_value(Response{Status::Ok, std::move(Row)}); }
  void fail(Status S) { Result.set_value(Response{S, Tensor()}); }
};

struct BatcherStats {
  int64_t Enqueued = 0;        ///< accepted requests
  int64_t Shed = 0;            ///< rejected at capacity (or after stop)
  int64_t DeadlineShed = 0;    ///< failed early with Status::DeadlineShed
  int64_t ShutdownFailed = 0;  ///< failed with Status::Shutdown by stop()
  int64_t FullFlushes = 0;     ///< batches released at MaxBatch
  int64_t DeadlineFlushes = 0; ///< partial batches released by flush bound
  int64_t EnqueuedByClass[NumPriorities] = {0, 0, 0};
};

class MicroBatcher {
public:
  /// \p MaxBatch is the largest batch popBatch will return (the largest
  /// precompiled batch size); \p FlushDeadline the max time the oldest
  /// arrival may wait before a partial batch is released; \p Capacity the
  /// shed threshold on pending requests.
  MicroBatcher(int64_t MaxBatch, std::chrono::microseconds FlushDeadline,
               size_t Capacity);

  /// Accepts \p R unless the queue is at capacity or stopped; returns
  /// whether the request was admitted (false = shed, promise untouched —
  /// the caller still owns it). An admitted request whose deadline has
  /// already passed is failed immediately with Status::DeadlineShed (the
  /// call still returns true: the promise has been consumed).
  bool enqueue(Request &&R);

  /// Blocks until a batch is available per the two flush triggers, or
  /// until stop() — after which it returns an empty vector forever (the
  /// consumer's termination signal). Batches come out in EDF order; on the
  /// way, requests that cannot make their deadline are failed with
  /// Status::DeadlineShed and never dispatched.
  std::vector<Request> popBatch();

  /// Stops admission, promptly fails every queued request with
  /// Status::Shutdown, and wakes all consumers (whose popBatch calls then
  /// return empty). Idempotent.
  void stop();

  /// Feeds back an observed batch service time; the EWMA is the slack
  /// margin for early shedding (a request is hopeless when its remaining
  /// slack is below the expected service time).
  void noteServiceTime(double Sec);

  BatcherStats stats() const;

private:
  const int64_t MaxBatch;
  const std::chrono::microseconds FlushDeadline;
  const size_t Capacity;

  mutable std::mutex Mu;
  std::condition_variable Cv;
  /// Sorted by Deadline ascending (EDF); ties keep arrival order.
  std::deque<Request> Queue;
  bool Stopped = false;
  double ServiceEwmaSec = 0.0;
  BatcherStats Stats;

  /// Pops min(N, MaxBatch) earliest-deadline requests under the lock.
  std::vector<Request> takeLocked(size_t N);
  /// Fails every queued request that cannot make its deadline. Lock held.
  void shedHopelessLocked(std::chrono::steady_clock::time_point Now);
  /// Earliest Enqueued among queued requests. Lock held; queue non-empty.
  std::chrono::steady_clock::time_point oldestArrivalLocked() const;
};

} // namespace serve
} // namespace latte

#endif // LATTE_SERVE_BATCHER_H
