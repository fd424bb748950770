#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/lca_kp.h"
#include "fault/chaos.h"
#include "fault/plan.h"
#include "knapsack/generators.h"
#include "metrics/metrics.h"
#include "net/client.h"
#include "net/server.h"
#include "net/session.h"
#include "oracle/access.h"
#include "store/state_store.h"
#include "util/virtual_clock.h"

/// \file test_server.cpp
/// End-to-end tests of the epoll front door over real loopback sockets:
/// correctness of served answers, wire conservation under pipelining and
/// backpressure, typed teardown on malformed bytes, the accept gate, the
/// gated shutdown frame, and chaos isolation between tenants.

namespace lcaknap::net {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    instance_a_ = new knapsack::Instance(
        knapsack::make_family(knapsack::Family::kNeedle, 2'000, 17));
    instance_b_ = new knapsack::Instance(
        knapsack::make_family(knapsack::Family::kUncorrelated, 1'500, 23));
    access_a_ = new oracle::MaterializedAccess(*instance_a_);
    access_b_ = new oracle::MaterializedAccess(*instance_b_);
    core::LcaKpConfig config;
    config.eps = 0.2;
    config.seed = 0x5E;
    config.quantile_samples = 20'000;
    lca_a_ = new core::LcaKp(*access_a_, config);
    config.seed = 0x6F;
    lca_b_ = new core::LcaKp(*access_b_, config);
  }
  static void TearDownTestSuite() {
    delete lca_b_;
    delete lca_a_;
    delete access_b_;
    delete access_a_;
    delete instance_b_;
    delete instance_a_;
    lca_a_ = lca_b_ = nullptr;
    access_a_ = access_b_ = nullptr;
    instance_a_ = instance_b_ = nullptr;
  }

  static TenantConfig tenant_config(const core::LcaKp* lca) {
    TenantConfig config;
    config.lca = lca;
    config.engine.workers = 2;
    config.engine.queue_capacity = 4'096;
    config.engine.batcher.max_batch_size = 16;
    config.engine.cache.capacity = 1'024;
    config.engine.cache.shards = 4;
    return config;
  }

  static const knapsack::Instance* instance_a_;
  static const knapsack::Instance* instance_b_;
  static const oracle::MaterializedAccess* access_a_;
  static const oracle::MaterializedAccess* access_b_;
  static const core::LcaKp* lca_a_;
  static const core::LcaKp* lca_b_;
};

const knapsack::Instance* ServerTest::instance_a_ = nullptr;
const knapsack::Instance* ServerTest::instance_b_ = nullptr;
const oracle::MaterializedAccess* ServerTest::access_a_ = nullptr;
const oracle::MaterializedAccess* ServerTest::access_b_ = nullptr;
const core::LcaKp* ServerTest::lca_a_ = nullptr;
const core::LcaKp* ServerTest::lca_b_ = nullptr;

/// Everything a test server needs, with sane lifetimes (router outlives
/// server; store outlives router).
struct Stack {
  metrics::Registry registry;
  store::StateStore store;
  TenantRouter router;
  std::unique_ptr<Server> server;

  explicit Stack(const ServerConfig& config = {})
      : store({.capacity = 4}, registry), router(store, registry) {
    server_config = config;
  }
  void start() {
    server = std::make_unique<Server>(router, server_config, registry);
  }
  ~Stack() {
    if (server) server->stop();
    router.drain();
  }
  ServerConfig server_config;
};

RequestFrame frame_for(const std::string& tenant, std::uint64_t id,
                       std::uint64_t item) {
  RequestFrame frame;
  frame.request_id = id;
  frame.item = item;
  frame.tenant = tenant;
  return frame;
}

/// A raw loopback connection to `port` (-1 on failure), for tests that must
/// control exactly which bytes reach the server and when.
int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Polls server stats until quiescent (all decoded frames answered) or the
/// deadline passes; completions are asynchronous to the client's view.
void await_conservation(const Server& server) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    const auto stats = server.stats();
    if (stats.frames_in == stats.responses_to_frames()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST_F(ServerTest, ServesCorrectAnswersOverLoopback) {
  Stack stack;
  stack.router.register_tenant("a", tenant_config(lca_a_));
  stack.router.warm_all();
  stack.start();

  Client client("127.0.0.1", stack.server->port());
  const auto& run = stack.router.engine("a")->run();
  for (std::uint64_t q = 0; q < 300; ++q) {
    const auto response = client.call(frame_for("a", q, q % 500));
    EXPECT_EQ(response.request_id, q) << "request_id echoed verbatim";
    EXPECT_EQ(response.status, WireStatus::kOk);
    EXPECT_EQ(response.answer, lca_a_->answer_from(run, q % 500));
  }
  const auto stats = stack.server->stats();
  EXPECT_EQ(stats.frames_in, 300u);
  EXPECT_EQ(stats.by_status[static_cast<std::size_t>(WireStatus::kOk)], 300u);
  EXPECT_EQ(stats.decode_errors, 0u);
  EXPECT_GT(stats.bytes_in, 0u);
  EXPECT_GT(stats.bytes_out, 0u);
}

TEST_F(ServerTest, PipelinedTrafficConservesEveryFrame) {
  Stack stack;
  stack.router.register_tenant("a", tenant_config(lca_a_));
  stack.router.warm_all();
  stack.start();

  constexpr std::uint64_t kFrames = 2'000;
  Client client("127.0.0.1", stack.server->port());
  std::thread sender([&] {
    for (std::uint64_t q = 0; q < kFrames; ++q) {
      client.send(frame_for("a", q, q % 800));
    }
  });
  std::vector<bool> seen(kFrames, false);
  for (std::uint64_t q = 0; q < kFrames; ++q) {
    const auto response = client.recv();
    ASSERT_LT(response.request_id, kFrames);
    EXPECT_FALSE(seen[response.request_id]);
    seen[response.request_id] = true;
  }
  sender.join();
  await_conservation(*stack.server);
  const auto stats = stack.server->stats();
  EXPECT_EQ(stats.frames_in, kFrames);
  EXPECT_EQ(stats.responses_to_frames(), kFrames)
      << "wire conservation: every decoded frame answered, zero drops";
  // Registry counters mirror the atomic stats.
  EXPECT_EQ(stack.registry.counter_value("net_frames_total",
                                         {{"status", "ok"}}),
            stats.by_status[static_cast<std::size_t>(WireStatus::kOk)]);
}

TEST_F(ServerTest, PerConnectionInflightCapShedsOverloadedNotSilence) {
  ServerConfig config;
  config.max_inflight_per_connection = 1;
  Stack stack(config);
  stack.router.register_tenant("a", tenant_config(lca_a_));
  stack.router.warm_all();
  stack.start();

  constexpr std::uint64_t kFrames = 200;
  Client client("127.0.0.1", stack.server->port());
  std::thread sender([&] {
    for (std::uint64_t q = 0; q < kFrames; ++q) {
      client.send(frame_for("a", q, q));
    }
  });
  std::uint64_t ok = 0;
  std::uint64_t overloaded = 0;
  for (std::uint64_t q = 0; q < kFrames; ++q) {
    const auto response = client.recv();
    if (response.status == WireStatus::kOk) ++ok;
    if (response.status == WireStatus::kOverloaded) ++overloaded;
  }
  sender.join();
  // A loaded server answers every frame — some ok, the burst overflow
  // explicitly shed — and never stalls or drops.
  EXPECT_EQ(ok + overloaded, kFrames);
  EXPECT_GE(ok, 1u);
  await_conservation(*stack.server);
  const auto stats = stack.server->stats();
  EXPECT_EQ(stats.frames_in, kFrames);
  EXPECT_EQ(stats.responses_to_frames(), kFrames);
  EXPECT_EQ(stats.inflight_shed, overloaded);
}

TEST_F(ServerTest, SynchronousShedsRecordTheirRealLatency) {
  // With no in-flight room every frame is shed on the loop thread.  Each
  // shed still took time from read to response, so the frame-latency
  // histogram must hold one nonzero-summing observation per frame.
  ServerConfig config;
  config.max_inflight_per_connection = 0;
  Stack stack(config);
  stack.router.register_tenant("a", tenant_config(lca_a_));
  stack.router.warm_all();
  stack.start();

  constexpr std::uint64_t kFrames = 50;
  Client client("127.0.0.1", stack.server->port());
  for (std::uint64_t q = 0; q < kFrames; ++q) {
    EXPECT_EQ(client.call(frame_for("a", q, q)).status,
              WireStatus::kOverloaded);
  }
  EXPECT_EQ(stack.server->stats().inflight_shed, kFrames);
  const auto& latency =
      stack.registry.histogram("net_frame_latency_us", "", {});
  EXPECT_EQ(latency.count(), kFrames);
  EXPECT_GT(latency.sum(), 0.0);
}

TEST_F(ServerTest, AnsweredFramesDoNotCountAgainstTheInflightCap) {
  // Frames for an unknown tenant are answered during routing, so each
  // response sits in the completion sink while the rest of the burst is
  // decoded.  With a cap of one, every later frame of the burst finds the
  // previous response uncollected: the loop must collect it instead of
  // shedding an answered frame's successor.
  ServerConfig config;
  config.max_inflight_per_connection = 1;
  Stack stack(config);
  stack.start();

  constexpr std::uint64_t kFrames = 64;
  std::string burst;
  for (std::uint64_t q = 0; q < kFrames; ++q) {
    encode(frame_for("ghost", q, q), burst);
  }
  const int fd = connect_raw(stack.server->port());
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::send(fd, burst.data(), burst.size(), 0),
            static_cast<ssize_t>(burst.size()));

  std::string bytes;
  char chunk[4096];
  while (bytes.size() < kFrames * encoded_response_size()) {
    const auto got = ::recv(fd, chunk, sizeof(chunk), 0);
    ASSERT_GT(got, 0) << "connection closed before every frame was answered";
    bytes.append(chunk, static_cast<std::size_t>(got));
  }
  ::close(fd);
  std::size_t offset = 0;
  for (std::uint64_t q = 0; q < kFrames; ++q) {
    ResponseFrame response;
    offset += decode(std::string_view(bytes).substr(offset), response);
    EXPECT_EQ(response.status, WireStatus::kUnknownTenant) << "frame " << q;
  }
  EXPECT_EQ(stack.server->stats().inflight_shed, 0u);
}

TEST_F(ServerTest, MalformedBytesGetBadRequestThenTeardown) {
  Stack stack;
  stack.router.register_tenant("a", tenant_config(lca_a_));
  stack.router.warm_all();
  stack.start();

  // Raw socket: the Client refuses to encode malformed frames, which is
  // the point — a hostile peer does not use our encoder.
  const int fd = connect_raw(stack.server->port());
  ASSERT_GE(fd, 0);
  const std::string garbage = "\xFF\xFF\xFF\xFF never a frame";
  ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), 0),
            static_cast<ssize_t>(garbage.size()));

  // Best-effort kBadRequest response, then EOF: the stream is torn down.
  std::string bytes;
  char chunk[256];
  while (true) {
    const auto got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got <= 0) break;
    bytes.append(chunk, static_cast<std::size_t>(got));
  }
  ::close(fd);
  ResponseFrame response;
  ASSERT_EQ(decode(bytes, response), bytes.size());
  EXPECT_EQ(response.status, WireStatus::kBadRequest);
  const auto stats = stack.server->stats();
  EXPECT_EQ(stats.decode_errors, 1u);
  EXPECT_EQ(stats.frames_in, 0u);
  EXPECT_EQ(stats.responses_to_frames(), 0u)
      << "conservation accounts the decode-error response separately";
}

TEST_F(ServerTest, AcceptGateClosesConnectionsBeyondCapacity) {
  ServerConfig config;
  config.max_connections = 1;
  Stack stack(config);
  stack.router.register_tenant("a", tenant_config(lca_a_));
  stack.router.warm_all();
  stack.start();

  Client first("127.0.0.1", stack.server->port());
  // Prove the first connection is live before probing the gate.
  EXPECT_EQ(first.call(frame_for("a", 1, 1)).status, WireStatus::kOk);

  const int fd = connect_raw(stack.server->port());
  ASSERT_GE(fd, 0);
  char byte;
  // Immediate close at the gate: read hits EOF, never a response.
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (stack.server->stats().at_capacity == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(stack.server->stats().at_capacity, 1u);
  // The first connection is unaffected by the shed one.
  EXPECT_EQ(first.call(frame_for("a", 2, 2)).status, WireStatus::kOk);
}

TEST_F(ServerTest, ShutdownFrameIsGatedOff) {
  Stack stack;  // allow_shutdown defaults to false
  stack.router.register_tenant("a", tenant_config(lca_a_));
  stack.router.warm_all();
  stack.start();
  Client client("127.0.0.1", stack.server->port());
  RequestFrame frame = frame_for("a", 1, 1);
  frame.flags = RequestFrame::kFlagShutdown;
  const auto response = client.call(frame);
  EXPECT_EQ(response.status, WireStatus::kBadRequest)
      << "a production server refuses remote shutdown";
  EXPECT_FALSE(stack.server->shutdown_requested());
  // The refused frame was decoded, so conservation counts it.
  await_conservation(*stack.server);
  const auto stats = stack.server->stats();
  EXPECT_EQ(stats.frames_in, 1u);
  EXPECT_EQ(stats.responses_to_frames(), 1u);
}

TEST_F(ServerTest, ShutdownFrameHonouredWhenAllowed) {
  ServerConfig config;
  config.allow_shutdown = true;
  Stack stack(config);
  stack.router.register_tenant("a", tenant_config(lca_a_));
  stack.router.warm_all();
  stack.start();
  Client client("127.0.0.1", stack.server->port());
  RequestFrame frame = frame_for("a", 99, 0);
  frame.flags = RequestFrame::kFlagShutdown;
  const auto response = client.call(frame);
  EXPECT_EQ(response.status, WireStatus::kShuttingDown);
  EXPECT_EQ(response.request_id, 99u);
  EXPECT_TRUE(stack.server->shutdown_requested());
  stack.server->wait_shutdown();  // must not block after the frame
}

TEST_F(ServerTest, ChaosOnOneTenantNeverChangesAnotherTenantsAnswers) {
  // Tenant b's oracle is in a permanent brownout (20% failures plus
  // latency); tenant a must keep answering byte-for-byte what a clean
  // reference serves — isolation is structural (own engine, own warm
  // state), not best-effort.
  fault::ChaosAccess chaotic(*access_b_,
                             fault::parse_fault_plan("brownout:3600000:fail=0.2,lat=50..200",
                                                     0xC405),
                             util::system_clock(), /*armed=*/false);
  core::LcaKpConfig lca_config;
  lca_config.eps = 0.2;
  lca_config.seed = 0x6F;
  lca_config.quantile_samples = 20'000;
  const core::LcaKp chaotic_lca(chaotic, lca_config);

  Stack stack;
  stack.router.register_tenant("a", tenant_config(lca_a_));
  stack.router.register_tenant("b", tenant_config(&chaotic_lca));
  stack.router.warm_all();  // chaos disarmed through warm-up, like the CLI
  chaotic.arm();
  stack.start();

  const auto& run_a = stack.router.engine("a")->run();
  Client client("127.0.0.1", stack.server->port());
  std::thread storm([&] {
    // A second connection hammers the browned-out tenant the whole time.
    Client noisy("127.0.0.1", stack.server->port());
    for (std::uint64_t q = 0; q < 400; ++q) {
      (void)noisy.call(frame_for("b", q, q % 1'000));
    }
  });
  for (std::uint64_t q = 0; q < 400; ++q) {
    const auto response = client.call(frame_for("a", q, q % 500));
    ASSERT_EQ(response.status, WireStatus::kOk)
        << "tenant a must not inherit tenant b's brownout";
    ASSERT_EQ(response.answer, lca_a_->answer_from(run_a, q % 500));
  }
  storm.join();
  await_conservation(*stack.server);
  const auto stats = stack.server->stats();
  EXPECT_EQ(stats.frames_in, 800u);
  EXPECT_EQ(stats.responses_to_frames(), 800u)
      << "conservation holds even with a tenant in chaos";
}

TEST_F(ServerTest, StopIsIdempotentAndStatsSurviveIt) {
  Stack stack;
  stack.router.register_tenant("a", tenant_config(lca_a_));
  stack.router.warm_all();
  stack.start();
  {
    Client client("127.0.0.1", stack.server->port());
    EXPECT_EQ(client.call(frame_for("a", 1, 1)).status, WireStatus::kOk);
  }
  stack.server->stop();
  stack.server->stop();
  const auto stats = stack.server->stats();
  EXPECT_EQ(stats.frames_in, 1u);
  EXPECT_EQ(stats.open, 0u);
}

}  // namespace
}  // namespace lcaknap::net
