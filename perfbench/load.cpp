#include "load.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <thread>

namespace lcaknap::perfbench {

namespace {

/// How long after the window closes a connection may still wait for its
/// outstanding responses before they count as missing.
constexpr std::int64_t kGraceNs = 5'000'000'000;

void sleep_until_ns(std::int64_t t) {
  std::this_thread::sleep_until(
      std::chrono::steady_clock::time_point(std::chrono::nanoseconds(t)));
}

void closed_loop(Channel& channel, const std::function<std::uint64_t()>& next,
                 std::size_t window, std::int64_t end, ConnectionLog& log) {
  std::size_t outstanding = 0;
  auto send_one = [&](std::int64_t due) {
    const std::uint64_t id = log.sent;
    if (id == log.requests.size()) log.requests.emplace_back();
    Request& request = log.requests[id];
    request.item = next();
    request.due_ns = due;
    request.send_ns = now_ns();
    ++log.sent;
    channel.send(id, request.item);
    ++outstanding;
  };
  for (std::size_t w = 0; w < window; ++w) send_one(now_ns());
  while (outstanding > 0) {
    Completion completion;
    if (!channel.recv(completion, end + kGraceNs)) break;
    if (!log.record(completion, log.sent)) continue;
    --outstanding;
    // The freed slot is due the moment its response arrived.
    if (completion.done_ns < end) send_one(completion.done_ns);
  }
}

}  // namespace

WireChannel::WireChannel(std::uint16_t port, std::string tenant)
    : client_("127.0.0.1", port), tenant_(std::move(tenant)) {}

void WireChannel::send(std::uint64_t id, std::uint64_t item) {
  net::RequestFrame frame;
  frame.request_id = id;
  frame.item = item;
  frame.tenant = tenant_;
  client_.send(frame);
}

bool WireChannel::recv(Completion& out, std::int64_t /*deadline_ns*/) {
  try {
    const auto response = client_.recv();
    out.done_ns = now_ns();
    out.id = response.request_id;
    out.ok = response.status == net::WireStatus::kOk;
    out.answer = response.answer;
    out.epoch = response.epoch_id;
    return true;
  } catch (const net::ConnectionLost&) {
    return false;
  }
}

void CallbackChannel::Queue::push(const Completion& completion) {
  {
    const std::lock_guard<std::mutex> lock(mutex);
    ready.push_back(completion);
  }
  cv.notify_one();
}

bool CallbackChannel::recv(Completion& out, std::int64_t deadline_ns) {
  std::unique_lock<std::mutex> lock(queue_->mutex);
  const auto deadline =
      std::chrono::steady_clock::time_point(std::chrono::nanoseconds(deadline_ns));
  if (!queue_->cv.wait_until(lock, deadline,
                             [&] { return !queue_->ready.empty(); })) {
    return false;
  }
  out = queue_->ready.front();
  queue_->ready.pop_front();
  return true;
}

void RouterChannel::send(std::uint64_t id, std::uint64_t item) {
  net::RequestFrame frame;
  frame.request_id = id;
  frame.item = item;
  frame.tenant = tenant_;
  router_->route(frame, [queue = queue_](const net::ResponseFrame& response) {
    queue->push({response.request_id, response.status == net::WireStatus::kOk,
                 response.answer, response.epoch_id, now_ns()});
  });
}

void EngineChannel::send(std::uint64_t id, std::uint64_t item) {
  engine_->submit(static_cast<std::size_t>(item),
                  [queue = queue_, id](const serve::Response& response) {
                    queue->push({id, response.outcome == serve::Outcome::kOk,
                                 response.answer, response.epoch_id, now_ns()});
                  });
}

bool ConnectionLog::record(const Completion& completion, std::uint64_t limit) {
  if (completion.id >= limit || requests[completion.id].answered) {
    ++stray;
    return false;
  }
  Request& request = requests[completion.id];
  request.answered = true;
  request.ok = completion.ok;
  request.answer = completion.answer;
  request.epoch = completion.epoch;
  request.done_ns = completion.done_ns;
  return true;
}

std::uint64_t LoadResult::attempted() const {
  std::uint64_t sum = 0;
  for (const auto& c : connections) sum += c.sent;
  return sum;
}

std::uint64_t LoadResult::failed() const {
  std::uint64_t sum = 0;
  for (const auto& c : connections) {
    sum += c.sent;
    for (std::uint64_t id = 0; id < c.sent; ++id) sum -= c.requests[id].ok ? 1 : 0;
  }
  return sum;
}

std::uint64_t LoadResult::stray() const {
  std::uint64_t sum = 0;
  for (const auto& c : connections) sum += c.stray;
  return sum;
}

double LoadResult::Slice::rate_qps() const {
  if (arrivals_ns.size() < 2) return 0.0;
  const auto [first, last] = std::minmax_element(arrivals_ns.begin(), arrivals_ns.end());
  if (*last == *first) return 0.0;
  return static_cast<double>(arrivals_ns.size() - 1) * 1e9 /
         static_cast<double>(*last - *first);
}

std::vector<LoadResult::Slice> LoadResult::slices(std::size_t count) const {
  std::vector<Slice> out(count);
  const auto width = static_cast<double>(end_ns - start_ns) / static_cast<double>(count);
  for (const auto& c : connections) {
    for (std::uint64_t id = 0; id < c.sent; ++id) {
      const Request& r = c.requests[id];
      if (!r.ok || r.done_ns < start_ns || r.done_ns >= end_ns) continue;
      const auto k = std::min(
          count - 1,
          static_cast<std::size_t>(static_cast<double>(r.done_ns - start_ns) / width));
      out[k].arrivals_ns.push_back(r.done_ns);
      out[k].latencies_us.push_back(static_cast<double>(r.done_ns - r.due_ns) / 1e3);
    }
  }
  return out;
}

std::vector<double> LoadResult::latencies_us() const {
  std::vector<double> out;
  for (const auto& c : connections) {
    for (std::uint64_t id = 0; id < c.sent; ++id) {
      const Request& r = c.requests[id];
      if (r.ok) out.push_back(static_cast<double>(r.done_ns - r.due_ns) / 1e3);
    }
  }
  return out;
}

std::vector<double> LoadResult::spans_us() const {
  std::vector<double> out;
  for (const auto& c : connections) {
    for (std::uint64_t id = 0; id < c.sent; ++id) {
      const Request& r = c.requests[id];
      if (r.answered) out.push_back(static_cast<double>(r.done_ns - r.send_ns) / 1e3);
    }
  }
  return out;
}

std::vector<double> LoadResult::late_us() const {
  std::vector<double> out;
  for (const auto& c : connections) {
    for (std::uint64_t id = 0; id < c.sent; ++id) {
      const Request& r = c.requests[id];
      out.push_back(static_cast<double>(r.send_ns - r.due_ns) / 1e3);
    }
  }
  return out;
}

LoadResult run_load(const LoadPlan& plan, const ChannelFactory& make_channel,
                    const StreamFactory& make_stream,
                    const std::function<void()>& on_stall) {
  const bool open_loop = plan.rate_qps > 0.0;
  if (open_loop && plan.connections != 1) {
    throw std::invalid_argument("an open loop drives one connection");
  }
  LoadResult result;
  result.connections.resize(plan.connections);
  std::vector<std::unique_ptr<Channel>> channels;
  std::vector<std::function<std::uint64_t()>> streams;
  for (std::size_t c = 0; c < plan.connections; ++c) {
    channels.push_back(make_channel(c));
    streams.push_back(make_stream(c));
  }

  std::atomic<std::size_t> finished{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  auto guarded = [&](auto&& body) {
    return [&, body] {
      try {
        body();
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
      finished.fetch_add(1, std::memory_order_release);
    };
  };

  std::vector<std::thread> threads;
  const auto seconds_ns = static_cast<std::int64_t>(plan.seconds * 1e9);
  if (open_loop) {
    auto& log = result.connections[0];
    const auto count =
        static_cast<std::size_t>(plan.rate_qps * plan.seconds + 0.5);
    const double period_ns = 1e9 / plan.rate_qps;
    log.requests.resize(count);
    for (auto& request : log.requests) request.item = streams[0]();
    // One millisecond of slack so the first due time is not already past.
    result.start_ns = now_ns() + 1'000'000;
    result.end_ns = result.start_ns + seconds_ns;
    for (std::size_t k = 0; k < count; ++k) {
      log.requests[k].due_ns =
          result.start_ns + static_cast<std::int64_t>(period_ns * static_cast<double>(k));
    }
    Channel& channel = *channels[0];
    // Sender and drainer share one connection and one log.  The sender
    // writes only send_ns and `sent`, the drainer only the response fields
    // and `stray`, until both have joined.
    threads.emplace_back(guarded([&, count] {
      for (std::size_t k = 0; k < count; ++k) {
        sleep_until_ns(log.requests[k].due_ns);
        log.requests[k].send_ns = now_ns();
        log.sent = k + 1;
        channel.send(k, log.requests[k].item);
      }
    }));
    threads.emplace_back(guarded([&, count] {
      const std::int64_t give_up = result.end_ns + kGraceNs;
      std::size_t got = 0;
      while (got < count) {
        Completion completion;
        if (!channel.recv(completion, give_up)) break;
        if (log.record(completion, count)) ++got;
      }
    }));
  } else {
    const auto capacity =
        static_cast<std::size_t>(plan.log_rate_qps * plan.seconds);
    for (auto& log : result.connections) log.requests.resize(capacity);
    result.start_ns = now_ns();
    result.end_ns = result.start_ns + seconds_ns;
    for (std::size_t c = 0; c < plan.connections; ++c) {
      threads.emplace_back(guarded([&, c] {
        closed_loop(*channels[c], streams[c], plan.window, result.end_ns,
                    result.connections[c]);
      }));
    }
  }

  const std::int64_t stall_at = result.end_ns + 2 * kGraceNs;
  bool stalled = false;
  while (finished.load(std::memory_order_acquire) < threads.size()) {
    if (!stalled && now_ns() > stall_at) {
      stalled = true;
      on_stall();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (auto& t : threads) t.join();
  if (error) std::rethrow_exception(error);
  return result;
}

}  // namespace lcaknap::perfbench
