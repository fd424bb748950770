#include "serve/batcher.h"

#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace lcaknap::serve {

Batcher::Batcher(const BatcherConfig& config) : config_(config) {
  if (config.max_batch_size == 0) {
    throw std::invalid_argument("Batcher: max_batch_size must be >= 1");
  }
}

void Batcher::group(std::deque<Request>& backlog,
                    std::vector<Batch>& ready) const {
  // item -> index in `ready` of the batch still taking that item's requests
  std::unordered_map<std::size_t, std::size_t> open;
  for (auto& request : backlog) {
    auto [slot, fresh] = open.try_emplace(request.item, ready.size());
    if (!fresh &&
        ready[slot->second].requests.size() >= config_.max_batch_size) {
      slot->second = ready.size();  // full: this request opens the next batch
      fresh = true;
    }
    if (fresh) ready.push_back(Batch{request.item, {}});
    ready[slot->second].requests.push_back(std::move(request));
  }
  backlog.clear();
}

}  // namespace lcaknap::serve
