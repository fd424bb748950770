#include "serve/request_queue.h"

#include <stdexcept>
#include <utility>

namespace lcaknap::serve {

RequestQueue::RequestQueue(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("RequestQueue: capacity must be >= 1");
  }
}

bool RequestQueue::try_push(Request&& request) {
  {
    const std::lock_guard lock(mutex_);
    if (closed_ || queue_.size() >= capacity_) return false;
    queue_.push_back(std::move(request));
  }
  ready_.notify_one();
  return true;
}

std::size_t RequestQueue::pop_all(std::deque<Request>& out) {
  std::unique_lock lock(mutex_);
  ready_.wait(lock, [this] { return closed_ || !queue_.empty(); });
  const std::size_t moved = queue_.size();
  if (out.empty()) {
    out.swap(queue_);
  } else {
    while (!queue_.empty()) {
      out.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
  }
  return moved;
}

void RequestQueue::close() {
  {
    const std::lock_guard lock(mutex_);
    closed_ = true;
  }
  ready_.notify_all();
}

bool RequestQueue::closed() const {
  const std::lock_guard lock(mutex_);
  return closed_;
}

std::size_t RequestQueue::depth() const {
  const std::lock_guard lock(mutex_);
  return queue_.size();
}

}  // namespace lcaknap::serve
