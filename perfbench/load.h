#ifndef LCAKNAP_PERFBENCH_LOAD_H
#define LCAKNAP_PERFBENCH_LOAD_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/client.h"
#include "net/session.h"
#include "serve/engine.h"

/// \file load.h
/// The load generator.  One request stream can be driven into the serving
/// stack at three boundaries — over the wire (`net::Client`), directly into
/// `TenantRouter::route`, and directly into `ServeEngine::submit` — through
/// the same `Channel` interface, so the traced run drives one stream through
/// every boundary in turn and takes per-layer differences.
///
/// Closed loop: each connection keeps `window` requests in flight and sends
/// the next one when a response arrives; a request is timed from its send.
/// Open loop: requests are due on a fixed timetable (`rate`), a sender
/// thread issues them and a drainer thread collects responses; a request is
/// timed from its *due* time, so a stall charges every request queued behind
/// it (no coordinated omission), and the sender's lateness is recorded.

namespace lcaknap::perfbench {

/// Nanoseconds on the steady clock.
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Completion {
  std::uint64_t id = 0;
  bool ok = false;      ///< kOk (anything else counts as failed)
  bool answer = false;
  std::uint64_t epoch = 0;
  std::int64_t done_ns = 0;
};

/// One request path into the stack.  `send` must not block on evaluation;
/// `recv` blocks for the next completion until `deadline_ns` and returns
/// false on timeout or a lost peer.
class Channel {
 public:
  virtual ~Channel() = default;
  virtual void send(std::uint64_t id, std::uint64_t item) = 0;
  virtual bool recv(Completion& out, std::int64_t deadline_ns) = 0;
};

/// Over loopback through `net::Client`.  `recv` ignores the deadline (the
/// socket read blocks); `run_load` unblocks a stuck read by stopping
/// the server.
class WireChannel final : public Channel {
 public:
  WireChannel(std::uint16_t port, std::string tenant);
  void send(std::uint64_t id, std::uint64_t item) override;
  bool recv(Completion& out, std::int64_t deadline_ns) override;

 private:
  net::Client client_;
  std::string tenant_;
};

/// Completions delivered by a callback from another thread.  The queue is
/// shared with the callbacks, so a late callback never outlives it.
class CallbackChannel : public Channel {
 public:
  CallbackChannel() : queue_(std::make_shared<Queue>()) {}
  bool recv(Completion& out, std::int64_t deadline_ns) override;

 protected:
  struct Queue {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Completion> ready;
    void push(const Completion& completion);
  };
  std::shared_ptr<Queue> queue_;
};

/// Directly into `TenantRouter::route` (the front door bypassed).
class RouterChannel final : public CallbackChannel {
 public:
  RouterChannel(net::TenantRouter& router, std::string tenant)
      : router_(&router), tenant_(std::move(tenant)) {}
  void send(std::uint64_t id, std::uint64_t item) override;

 private:
  net::TenantRouter* router_;
  std::string tenant_;
};

/// Directly into `ServeEngine::submit(item, cb)` (wire and router bypassed).
class EngineChannel final : public CallbackChannel {
 public:
  explicit EngineChannel(serve::ServeEngine& engine) : engine_(&engine) {}
  void send(std::uint64_t id, std::uint64_t item) override;

 private:
  serve::ServeEngine* engine_;
};

struct LoadPlan {
  std::size_t connections = 1;
  std::size_t window = 1;   ///< closed loop: requests in flight per connection
  double rate_qps = 0.0;    ///< > 0: open loop at this rate (one connection)
  double seconds = 1.0;
  /// Closed loop: requests per second per connection the logs are sized
  /// (and touched) for before the window opens, so the generator's memory
  /// does not grow with throughput below this rate.
  double log_rate_qps = 0.0;
};

/// One request of a connection, at the index of its request id.
struct Request {
  std::int64_t due_ns = 0;   ///< when it was due
  std::int64_t send_ns = 0;  ///< when it was actually sent
  std::int64_t done_ns = 0;  ///< when its response arrived
  std::uint64_t item = 0;
  std::uint64_t epoch = 0;
  bool answered = false;
  bool ok = false;  ///< kOk (anything else counts as failed)
  bool answer = false;
};

/// Everything one connection saw.
struct ConnectionLog {
  /// Indexed by request id; the first `sent` entries were sent.
  std::vector<Request> requests;
  std::uint64_t sent = 0;
  /// Responses whose request id was never sent or was already answered.
  /// They are not recorded.
  std::uint64_t stray = 0;

  /// Records `completion` against its request if the id is below `limit`
  /// and not yet answered; otherwise counts it as stray.
  bool record(const Completion& completion, std::uint64_t limit);
};

struct LoadResult {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;  ///< start + seconds
  std::vector<ConnectionLog> connections;

  [[nodiscard]] std::uint64_t attempted() const;
  /// Non-kOk responses plus missing responses.
  [[nodiscard]] std::uint64_t failed() const;
  [[nodiscard]] std::uint64_t stray() const;
  /// The timed window cut into `count` equal slices by arrival time: the
  /// arrival times of the kOk responses in each slice and their latencies
  /// (microseconds, from due time).  Later responses are in none.
  struct Slice {
    std::vector<std::int64_t> arrivals_ns;
    std::vector<double> latencies_us;
    /// kOk arrivals per second inside the slice: (arrivals - 1) over the
    /// time from its first to its last arrival; 0 with fewer than two.
    [[nodiscard]] double rate_qps() const;
  };
  [[nodiscard]] std::vector<Slice> slices(std::size_t count) const;
  /// Latency of every kOk response in microseconds, from due time.
  [[nodiscard]] std::vector<double> latencies_us() const;
  /// Service time of every answered request in microseconds, from the
  /// actual send (the span one boundary's caller observes).
  [[nodiscard]] std::vector<double> spans_us() const;
  /// How late each send was against its due time, in microseconds.
  [[nodiscard]] std::vector<double> late_us() const;
};

/// Item stream of connection `c`: called once per request, in id order.
/// A factory may hand out the same stream again, to continue it.
using StreamFactory = std::function<std::function<std::uint64_t()>(std::size_t)>;
using ChannelFactory = std::function<std::unique_ptr<Channel>(std::size_t)>;

/// Drives `plan` through the channels.  `on_stall` runs (once) if the
/// connections have not finished well after the window closed — it must
/// unblock any pending `recv` (the wire path stops the server).
[[nodiscard]] LoadResult run_load(const LoadPlan& plan,
                                  const ChannelFactory& make_channel,
                                  const StreamFactory& make_stream,
                                  const std::function<void()>& on_stall);

}  // namespace lcaknap::perfbench

#endif  // LCAKNAP_PERFBENCH_LOAD_H
