#include "knapsack/solvers/branch_bound.h"

#include <algorithm>
#include <vector>

#include "knapsack/solvers/greedy.h"

namespace lcaknap::knapsack {

namespace {

/// Explicit-stack DFS state: recursion would overflow the call stack on
/// large instances (depth = n), so the search walks a heap-allocated stack.
enum class Phase { kEnter, kAfterInclude, kAfterExclude };

struct Frame {
  std::size_t rank;
  std::int64_t value;
  std::int64_t remaining;
  Phase phase;
  bool included;  // whether this frame set taken[order[rank]]
};

}  // namespace

BranchBoundResult branch_bound(const Instance& instance, std::uint64_t node_budget) {
  const auto order = efficiency_order(instance);
  const std::size_t n = order.size();

  // Seed the incumbent with the 1/2-approximation so pruning bites early and
  // a truncated search is never worse than greedy.
  const GreedyResult greedy = greedy_half(instance);
  std::int64_t best_value = greedy.solution.value;
  std::vector<bool> best_taken(n, false);
  for (const auto i : greedy.solution.items) best_taken[i] = true;

  std::vector<bool> taken(n, false);
  std::uint64_t nodes = 0;
  bool truncated = false;

  // Prefix sums over the efficiency order: prefix_*[r] sums ranks [0, r).
  std::vector<std::int64_t> prefix_profit(n + 1, 0);
  std::vector<std::int64_t> prefix_weight(n + 1, 0);
  for (std::size_t r = 0; r < n; ++r) {
    const Item& it = instance.item(order[r]);
    prefix_profit[r + 1] = prefix_profit[r] + it.profit;
    prefix_weight[r + 1] = prefix_weight[r] + it.weight;
  }

  // Fractional completion bound for the suffix starting at `rank`: take
  // whole items in efficiency order while they fit, then a fraction of the
  // first one that does not.  The whole items are found by binary search
  // over the prefix weights and their profit is one integer sum; while
  // profit sums stay below 2^53 that equals adding the items one by one in
  // double, bit for bit.
  const auto upper_bound = [&](std::size_t rank, std::int64_t remaining) {
    const std::int64_t fits_below = prefix_weight[rank] + remaining;
    // First rank past `rank` whose prefix weight exceeds the room left.
    const auto stop = std::upper_bound(prefix_weight.begin() + rank + 1,
                                       prefix_weight.end(), fits_below);
    const auto whole = static_cast<std::size_t>(
        stop - prefix_weight.begin() - 1);  // ranks [rank, whole) fit whole
    double bound =
        static_cast<double>(prefix_profit[whole] - prefix_profit[rank]);
    if (whole < n) {
      const Item& it = instance.item(order[whole]);
      remaining = fits_below - prefix_weight[whole];
      if (remaining > 0 && it.weight > 0) {
        bound += static_cast<double>(it.profit) * static_cast<double>(remaining) /
                 static_cast<double>(it.weight);
      }
    }
    return bound;
  };

  std::vector<Frame> stack;
  stack.reserve(n + 1);
  stack.push_back({0, 0, instance.capacity(), Phase::kEnter, false});
  while (!stack.empty() && !truncated) {
    Frame& frame = stack.back();
    switch (frame.phase) {
      case Phase::kEnter: {
        if (++nodes > node_budget) {
          truncated = true;
          break;
        }
        if (frame.rank == n) {
          if (frame.value > best_value) {
            best_value = frame.value;
            best_taken = taken;
          }
          stack.pop_back();
          break;
        }
        // Prune: even the fractional completion cannot beat the incumbent.
        // (+0.5 guards against float round-off on exact ties: bounds are
        // sums of integers plus at most one fraction.)
        if (static_cast<double>(frame.value) +
                upper_bound(frame.rank, frame.remaining) <=
            static_cast<double>(best_value) + 0.5) {
          stack.pop_back();
          break;
        }
        const std::size_t idx = order[frame.rank];
        const Item& it = instance.item(idx);
        frame.phase = Phase::kAfterInclude;
        if (it.weight <= frame.remaining) {
          frame.included = true;
          taken[idx] = true;
          stack.push_back({frame.rank + 1, frame.value + it.profit,
                           frame.remaining - it.weight, Phase::kEnter, false});
        } else {
          frame.included = false;
        }
        break;
      }
      case Phase::kAfterInclude: {
        if (frame.included) taken[order[frame.rank]] = false;
        frame.phase = Phase::kAfterExclude;
        stack.push_back(
            {frame.rank + 1, frame.value, frame.remaining, Phase::kEnter, false});
        break;
      }
      case Phase::kAfterExclude: {
        stack.pop_back();
        break;
      }
    }
  }

  std::vector<std::size_t> selection;
  for (std::size_t i = 0; i < n; ++i) {
    if (best_taken[i]) selection.push_back(i);
  }
  BranchBoundResult result;
  result.solution = instance.make_solution(std::move(selection));
  result.proven_optimal = !truncated;
  result.nodes_visited = nodes;
  return result;
}

}  // namespace lcaknap::knapsack
