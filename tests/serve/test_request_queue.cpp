#include "serve/request_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <thread>
#include <vector>

namespace lcaknap::serve {
namespace {

using namespace std::chrono_literals;

Request make_request(std::size_t item) {
  Request r;
  r.item = item;
  r.enqueued_at = Clock::now();
  return r;
}

TEST(RequestQueue, RejectsZeroCapacity) {
  EXPECT_THROW(RequestQueue(0), std::invalid_argument);
}

TEST(RequestQueue, BoundedAdmission) {
  RequestQueue queue(2);
  EXPECT_TRUE(queue.try_push(make_request(0)));
  EXPECT_TRUE(queue.try_push(make_request(1)));
  // Full: admission control refuses, the caller keeps the request.
  Request overflow = make_request(2);
  EXPECT_FALSE(queue.try_push(std::move(overflow)));
  EXPECT_EQ(queue.depth(), 2u);
  // The rejected request is untouched and still completable.
  auto future = overflow.promise.get_future();
  overflow.promise.set_value(Response{Outcome::kOverloaded, false, false});
  EXPECT_EQ(future.get().outcome, Outcome::kOverloaded);
}

TEST(RequestQueue, PopsInFifoOrder) {
  RequestQueue queue(8);
  std::deque<Request> out;
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(queue.try_push(make_request(i)));
  }
  ASSERT_EQ(queue.pop_all(out), 3u);
  for (std::size_t i = 3; i < 5; ++i) {
    ASSERT_TRUE(queue.try_push(make_request(i)));
  }
  ASSERT_EQ(queue.pop_all(out), 2u);
  ASSERT_EQ(out.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(out[i].item, i);
  queue.close();
  EXPECT_EQ(queue.pop_all(out), 0u);  // closed and empty: no wait
}

TEST(RequestQueue, PopAllDrainsTheBacklogInOrder) {
  RequestQueue queue(8);
  for (std::size_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(queue.try_push(make_request(i)));
  }
  std::deque<Request> backlog;
  backlog.push_back(make_request(99));  // pop_all appends after existing work
  EXPECT_EQ(queue.pop_all(backlog), 5u);
  EXPECT_EQ(queue.depth(), 0u);
  ASSERT_EQ(backlog.size(), 6u);
  EXPECT_EQ(backlog[0].item, 99u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(backlog[i + 1].item, i);
  // Draining freed capacity for new pushes; once closed, an empty queue
  // moves nothing.
  EXPECT_TRUE(queue.try_push(make_request(6)));
  queue.close();
  EXPECT_EQ(queue.pop_all(backlog), 1u);
  EXPECT_EQ(queue.pop_all(backlog), 0u);
}

TEST(RequestQueue, CloseRejectsPushesButDrains) {
  RequestQueue queue(8);
  ASSERT_TRUE(queue.try_push(make_request(7)));
  queue.close();
  EXPECT_TRUE(queue.closed());
  EXPECT_FALSE(queue.try_push(make_request(8)));
  // Admitted work is still poppable after close — nothing admitted is lost.
  std::deque<Request> out;
  ASSERT_EQ(queue.pop_all(out), 1u);
  EXPECT_EQ(out.front().item, 7u);
  EXPECT_EQ(queue.pop_all(out), 0u);  // closed and empty: returns at once
}

TEST(RequestQueue, CloseWakesBlockedConsumers) {
  RequestQueue queue(4);
  std::atomic<bool> woke{false};
  std::thread consumer([&] {
    std::deque<Request> out;
    // No timeout: only close() can end this wait.
    EXPECT_EQ(queue.pop_all(out), 0u);
    woke.store(true);
  });
  std::this_thread::sleep_for(10ms);
  queue.close();
  consumer.join();
  EXPECT_TRUE(woke.load());
}

TEST(RequestQueue, ConcurrentProducersConserveRequests) {
  RequestQueue queue(1'000'000);  // large enough that nothing is rejected
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5'000;
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&queue, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(queue.try_push(make_request(static_cast<std::size_t>(t))));
      }
    });
  }
  std::atomic<int> popped{0};
  std::vector<std::thread> consumers;
  for (int t = 0; t < 2; ++t) {
    consumers.emplace_back([&] {
      // Drain until close(): a consumer that outruns the producers waits
      // instead of quitting early.
      std::deque<Request> out;
      while (queue.pop_all(out) > 0) {
        popped.fetch_add(static_cast<int>(out.size()));
        out.clear();
      }
    });
  }
  for (auto& p : producers) p.join();
  queue.close();
  for (auto& c : consumers) c.join();
  EXPECT_EQ(popped.load(), kThreads * kPerThread);
  EXPECT_EQ(queue.depth(), 0u);
}

}  // namespace
}  // namespace lcaknap::serve
