//===- serve/batcher.cpp --------------------------------------*- C++ -*-===//

#include "serve/batcher.h"

#include "support/error.h"

#include <algorithm>

using namespace latte;
using namespace latte::serve;

MicroBatcher::MicroBatcher(int64_t MaxBatch,
                           std::chrono::microseconds FlushDeadline,
                           size_t Capacity)
    : MaxBatch(MaxBatch), FlushDeadline(FlushDeadline), Capacity(Capacity) {
  if (MaxBatch <= 0)
    reportFatalError("MicroBatcher: MaxBatch must be positive");
  if (Capacity == 0)
    reportFatalError("MicroBatcher: Capacity must be positive");
}

bool MicroBatcher::enqueue(Request &&R) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Stopped || Queue.size() >= Capacity) {
      ++Stats.Shed;
      return false;
    }
    auto Now = std::chrono::steady_clock::now();
    R.Enqueued = Now;
    if (R.Deadline == std::chrono::steady_clock::time_point())
      R.Deadline = Now + FlushDeadline + std::chrono::seconds(60);
    ++Stats.Enqueued;
    ++Stats.EnqueuedByClass[static_cast<int>(R.Pri)];
    // A request born hopeless is failed on the spot: the deadline already
    // passed, so queueing it would only delay the bad news.
    if (R.Deadline <= Now) {
      ++Stats.DeadlineShed;
      R.fail(Status::DeadlineShed);
      return true;
    }
    // EDF insert: keep the queue sorted by deadline, arrival order on ties.
    auto Pos = std::upper_bound(
        Queue.begin(), Queue.end(), R.Deadline,
        [](std::chrono::steady_clock::time_point D, const Request &Q) {
          return D < Q.Deadline;
        });
    Queue.insert(Pos, std::move(R));
  }
  // All waiters, not one: the consumer whose flush timer is about to fire
  // may not be the one this enqueue completes a full batch for.
  Cv.notify_all();
  return true;
}

std::vector<Request> MicroBatcher::takeLocked(size_t N) {
  if (N > static_cast<size_t>(MaxBatch))
    N = static_cast<size_t>(MaxBatch);
  std::vector<Request> Batch;
  Batch.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    Batch.push_back(std::move(Queue.front()));
    Queue.pop_front();
  }
  return Batch;
}

void MicroBatcher::shedHopelessLocked(
    std::chrono::steady_clock::time_point Now) {
  // Remaining slack below the expected service time means the request
  // would finish late even if dispatched this instant — fail it now with
  // a distinct status instead of letting it time out downstream. The
  // queue is deadline-sorted, but the EWMA margin makes the predicate
  // non-monotone across the queue only when deadlines tie, so a front
  // scan is exact.
  auto Margin = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(ServiceEwmaSec));
  while (!Queue.empty() && Queue.front().Deadline <= Now + Margin) {
    ++Stats.DeadlineShed;
    Queue.front().fail(Status::DeadlineShed);
    Queue.pop_front();
  }
}

std::chrono::steady_clock::time_point
MicroBatcher::oldestArrivalLocked() const {
  auto Oldest = Queue.front().Enqueued;
  for (const Request &R : Queue)
    if (R.Enqueued < Oldest)
      Oldest = R.Enqueued;
  return Oldest;
}

std::vector<Request> MicroBatcher::popBatch() {
  std::unique_lock<std::mutex> Lock(Mu);
  for (;;) {
    if (Stopped)
      return {};
    auto Now = std::chrono::steady_clock::now();
    shedHopelessLocked(Now);
    if (Queue.size() >= static_cast<size_t>(MaxBatch)) {
      ++Stats.FullFlushes;
      return takeLocked(static_cast<size_t>(MaxBatch));
    }
    if (!Queue.empty()) {
      auto FlushAt = oldestArrivalLocked() + FlushDeadline;
      if (Now >= FlushAt) {
        ++Stats.DeadlineFlushes;
        return takeLocked(Queue.size());
      }
      // Wake for whichever comes first: the flush bound, or the earliest
      // deadline crossing into hopeless territory (so sheds are prompt).
      // Re-evaluates on enqueue (the batch may fill first) and on stop.
      auto Margin =
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(ServiceEwmaSec));
      Cv.wait_until(Lock, std::min(FlushAt, Queue.front().Deadline - Margin));
    } else {
      Cv.wait(Lock);
    }
  }
}

void MicroBatcher::stop() {
  std::deque<Request> Orphans;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stopped = true;
    Orphans.swap(Queue);
    Stats.ShutdownFailed += static_cast<int64_t>(Orphans.size());
  }
  // Fail outside the lock: promise continuations (a caller's .get() in
  // another thread) must never run into the batcher mutex.
  for (Request &R : Orphans)
    R.fail(Status::Shutdown);
  Cv.notify_all();
}

void MicroBatcher::noteServiceTime(double Sec) {
  if (Sec <= 0)
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  ServiceEwmaSec =
      ServiceEwmaSec <= 0 ? Sec : 0.8 * ServiceEwmaSec + 0.2 * Sec;
}

BatcherStats MicroBatcher::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Stats;
}
