#ifndef LCAKNAP_SERVE_BATCHER_H
#define LCAKNAP_SERVE_BATCHER_H

#include <cstddef>
#include <deque>
#include <vector>

#include "serve/request.h"

/// \file batcher.h
/// Micro-batching by item index.
///
/// Every request for the same item has, by Definition 2.3, the same answer:
/// the membership rule is a deterministic function of the shared seed.  The
/// batcher exploits that by grouping one drained backlog per item, so a
/// burst of duplicate hot-key queries that piled up while the dispatcher was
/// busy costs ONE LCA evaluation (one oracle read) regardless of fan-in.
///
/// Grouping never waits: the batcher sees only what already queued, and no
/// batch stays open past the call that formed it.  A lone request becomes a
/// batch of one and is dispatched at once; duplicates collapse exactly when
/// they arrive faster than the dispatcher drains them, which is when
/// collapsing pays.
///
/// The batcher holds only its configuration, so it needs no locking (the
/// queue in front of it is the concurrency boundary).

namespace lcaknap::serve {

struct BatcherConfig {
  /// A backlog's requests for one item split into batches of at most this
  /// many.  1 disables grouping.
  std::size_t max_batch_size = 64;
};

/// A group of same-item requests, evaluated as one unit.
struct Batch {
  std::size_t item = 0;
  std::vector<Request> requests;
};

class Batcher {
 public:
  explicit Batcher(const BatcherConfig& config);

  /// Moves every request of `backlog` into batches appended to `ready`:
  /// one per item, split at `max_batch_size`, ordered by each batch's first
  /// request.  Within a batch, requests keep their arrival order.  Leaves
  /// `backlog` empty; an empty backlog appends nothing.
  void group(std::deque<Request>& backlog, std::vector<Batch>& ready) const;

 private:
  BatcherConfig config_;
};

}  // namespace lcaknap::serve

#endif  // LCAKNAP_SERVE_BATCHER_H
