#include "serve/batcher.h"

#include <gtest/gtest.h>

#include <deque>
#include <initializer_list>

namespace lcaknap::serve {
namespace {

Request make_request(std::size_t item) {
  Request r;
  r.item = item;
  return r;
}

std::deque<Request> backlog_of(std::initializer_list<std::size_t> items) {
  std::deque<Request> backlog;
  for (const auto item : items) backlog.push_back(make_request(item));
  return backlog;
}

TEST(Batcher, ValidatesConfig) {
  BatcherConfig bad;
  bad.max_batch_size = 0;
  EXPECT_THROW(Batcher{bad}, std::invalid_argument);
}

TEST(Batcher, DuplicatesInOneBacklogBecomeOneBatch) {
  const Batcher batcher(BatcherConfig{});
  auto backlog = backlog_of({42, 42, 42, 42});
  std::vector<Batch> ready;
  batcher.group(backlog, ready);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].item, 42u);
  EXPECT_EQ(ready[0].requests.size(), 4u);
  EXPECT_TRUE(backlog.empty());
}

TEST(Batcher, ClosesBatchAtMaxSize) {
  // A backlog splits at max_batch_size: 7 duplicates at size 3 → 3 + 3 + 1.
  BatcherConfig config;
  config.max_batch_size = 3;
  const Batcher batcher(config);
  auto backlog = backlog_of({42, 42, 42, 42, 42, 42, 42});
  std::vector<Batch> ready;
  batcher.group(backlog, ready);
  ASSERT_EQ(ready.size(), 3u);
  for (const auto& batch : ready) EXPECT_EQ(batch.item, 42u);
  EXPECT_EQ(ready[0].requests.size(), 3u);
  EXPECT_EQ(ready[1].requests.size(), 3u);
  EXPECT_EQ(ready[2].requests.size(), 1u);
}

TEST(Batcher, GroupsByItemIndex) {
  const Batcher batcher(BatcherConfig{});
  auto backlog = backlog_of({1, 2, 1, 3, 2, 1});
  std::vector<Batch> ready;
  batcher.group(backlog, ready);
  ASSERT_EQ(ready.size(), 3u);
  std::size_t total = 0;
  for (const auto& batch : ready) {
    for (const auto& request : batch.requests) {
      EXPECT_EQ(request.item, batch.item);  // no batch mixes items
    }
    total += batch.requests.size();
  }
  EXPECT_EQ(total, 6u);  // every request lands in exactly one batch
}

TEST(Batcher, BatchesComeOutInFirstArrivalOrder) {
  // Batches are ordered by their first request; a split batch's remainder
  // sits where its first overflowing request arrived.
  BatcherConfig config;
  config.max_batch_size = 2;
  const Batcher batcher(config);
  auto backlog = backlog_of({7, 3, 7, 9, 7, 3});
  std::vector<Batch> ready;
  batcher.group(backlog, ready);
  ASSERT_EQ(ready.size(), 4u);
  EXPECT_EQ(ready[0].item, 7u);
  EXPECT_EQ(ready[0].requests.size(), 2u);
  EXPECT_EQ(ready[1].item, 3u);
  EXPECT_EQ(ready[1].requests.size(), 2u);
  EXPECT_EQ(ready[2].item, 9u);
  EXPECT_EQ(ready[3].item, 7u);  // the third 7 overflowed the first batch
  EXPECT_EQ(ready[3].requests.size(), 1u);
}

TEST(Batcher, EmptyBacklogYieldsNoBatch) {
  const Batcher batcher(BatcherConfig{});
  std::deque<Request> backlog;
  std::vector<Batch> ready;
  batcher.group(backlog, ready);
  EXPECT_TRUE(ready.empty());
}

TEST(Batcher, BatchSizeOneDisablesGrouping) {
  BatcherConfig config;
  config.max_batch_size = 1;
  const Batcher batcher(config);
  auto backlog = backlog_of({3, 3});
  std::vector<Batch> ready;
  batcher.group(backlog, ready);
  EXPECT_EQ(ready.size(), 2u);  // each request is its own batch
}

}  // namespace
}  // namespace lcaknap::serve
