#ifndef LCAKNAP_SERVE_REQUEST_QUEUE_H
#define LCAKNAP_SERVE_REQUEST_QUEUE_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>

#include "serve/request.h"

/// \file request_queue.h
/// Bounded MPMC request queue with admission control.
///
/// Admission control is the first of the engine's two load-shedding points:
/// when the queue is full, `try_push` refuses immediately and the caller
/// completes the request with `kOverloaded` — the engine never buffers
/// unbounded backlog, so a traffic spike degrades into fast rejections
/// instead of unbounded latency.  (The second shedding point is the deadline
/// check at dispatch/evaluation time; see engine.cpp.)
///
/// Any number of producers may push concurrently; any number of consumers
/// may pop, each blocking until there is work.  `close()` makes the shutdown
/// path race-free: no push is admitted afterwards, every blocked consumer
/// wakes, and consumers drain what was already accepted — the queue never
/// loses an admitted request.

namespace lcaknap::serve {

class RequestQueue {
 public:
  /// `capacity` must be >= 1 (a zero-capacity queue would reject everything).
  explicit RequestQueue(std::size_t capacity);

  RequestQueue(const RequestQueue&) = delete;
  RequestQueue& operator=(const RequestQueue&) = delete;

  /// Admits `request` unless the queue is full or closed.  Returns whether
  /// the request was admitted; on `false` the caller still owns it.
  [[nodiscard]] bool try_push(Request&& request);

  /// Waits until the queue holds a request or is closed, then appends every
  /// queued request to `out` in arrival order and returns how many were
  /// moved.  One lock acquisition takes the whole backlog, so per-request
  /// queue overhead amortizes away under load.  No timeout: returns 0 only
  /// once the queue is closed and empty.
  [[nodiscard]] std::size_t pop_all(std::deque<Request>& out);

  /// Rejects all future pushes and wakes every waiting consumer.  Already
  /// admitted requests remain poppable.  Idempotent.
  void close();

  [[nodiscard]] bool closed() const;
  [[nodiscard]] std::size_t depth() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<Request> queue_;
  bool closed_ = false;
};

}  // namespace lcaknap::serve

#endif  // LCAKNAP_SERVE_REQUEST_QUEUE_H
