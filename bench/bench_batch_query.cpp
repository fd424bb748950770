// E22 — roofline of the vectorized batch answer path (core::BatchEval).
//
// The steady-state answer (Algorithm 2, lines 20-24) is two divisions and
// two compares per item once the warm state is fixed — so few flops per byte
// that the classify stage is memory-bound almost everywhere: the roofline
// says throughput is min(peak flops, bandwidth x arithmetic intensity), and
// at ~4 ops per 18 bytes the bandwidth term wins.  What vectorization buys
// is not flops but fewer instructions per lane (amortized loop control,
// branchless masks), which shows up as ns/item at batch sizes where the SoA
// columns stay cache-resident.
//
// Sections:
//   1. differential gate — every compiled+supported kernel must answer
//      byte-identically to the scalar reference (answers AND witness masks)
//      on randomized instances x ragged batch sizes; any mismatch exits 2.
//      This is the Lemma 4.9 determinism contract extended to the vector
//      unit, re-checked on the exact binary being benchmarked.
//   2. classify roofline — kernel x batch size: ns/item, Mitems/s, and the
//      effective column bandwidth (18 B/lane: two double reads, two byte
//      writes).
//   3. E22 prediction — an active SIMD kernel classifies >= 2x the scalar
//      items/s at batch >= 32.  Honestly gated (the E17 precedent): when the
//      build lacks LCAKNAP_NATIVE or the CPU lacks AVX2, the table still
//      prints but the check is SKIPPED and reported as such, never silently
//      passed.  The verdict is printed and recorded in the JSON either way;
//      the *hard* exit criterion is a 1.4x regression floor, because 2.0x
//      is the exact theoretical ceiling of a division-bound loop (the three
//      IEEE divisions per lane cannot be replaced without breaking
//      byte-equality, and x86 retires ymm divides at ~half the scalar
//      divider rate: 4 lanes x 1/2 rate = 2.0x) — a prediction sitting on
//      the roofline is refutable by overhead alone, and EXPERIMENTS.md
//      records the measured verdict rather than letting CI flap on it.
//   4. engine end-to-end — ServeEngine with batch_eval on vs off over the
//      same hotspot trace (informational: end-to-end includes gather, cache,
//      and batching, which dilute the classify-stage speedup).
//
// Flags: --smoke shrinks every budget for CI; --json PATH writes a one-object
// JSON summary (default BENCH_batch_query.json when --json has no value).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <span>
#include <iostream>
#include <string>
#include <vector>

#include "core/batch_eval.h"
#include "core/lca_kp.h"
#include "core/serving_sim.h"
#include "knapsack/generators.h"
#include "metrics/metrics.h"
#include "oracle/access.h"
#include "serve/engine.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace lcaknap;

std::vector<core::BatchKernel> available_kernels() {
  std::vector<core::BatchKernel> kernels;
  for (const auto kernel :
       {core::BatchKernel::kScalar, core::BatchKernel::kAvx2,
        core::BatchKernel::kAvx512}) {
    if (core::BatchEval::kernel_available(kernel)) kernels.push_back(kernel);
  }
  return kernels;
}

/// One warm instance + run the roofline sweeps share.
struct Substrate {
  explicit Substrate(knapsack::Family family, std::size_t n, std::uint64_t seed)
      : instance(knapsack::make_family(family, n, seed)),
        access(instance),
        lca(access, config_for(n)),
        run(lca.run_warmup(/*tape_seed=*/7, /*threads=*/1)) {}

  static core::LcaKpConfig config_for(std::size_t n) {
    core::LcaKpConfig config;
    config.eps = 0.15;
    config.seed = 0xE22;
    config.quantile_samples = n < 50'000 ? 100'000 : 400'000;
    return config;
  }

  knapsack::Instance instance;
  oracle::MaterializedAccess access;
  core::LcaKp lca;
  core::LcaKpRun run;
};

std::vector<std::size_t> random_items(std::size_t n, std::size_t count,
                                      std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::size_t> items(count);
  for (auto& item : items) item = static_cast<std::size_t>(rng.next_below(n));
  return items;
}

/// Byte-compares every available vector kernel against the scalar reference.
/// Returns the number of (kernel, batch) cells checked; exits on mismatch.
std::size_t differential_gate(const Substrate& sub, bool smoke,
                              bool& mismatch) {
  core::BatchEval eval(sub.lca, sub.run);
  const std::size_t rounds = smoke ? 4 : 16;
  std::size_t checked = 0;
  core::BatchScratch reference, candidate;
  for (const std::size_t batch : {1, 3, 8, 31, 32, 33, 256, 1'000}) {
    for (std::size_t round = 0; round < rounds; ++round) {
      const auto items = random_items(sub.instance.size(), batch,
                                      0xD1FF + 31 * batch + round);
      eval.gather(items, reference);
      eval.classify_scalar(items, reference);
      for (const auto kernel : available_kernels()) {
        if (kernel == core::BatchKernel::kScalar) continue;
        eval.set_kernel(kernel);
        eval.gather(items, candidate);
        eval.classify(items, candidate);
        ++checked;
        for (std::size_t lane = 0; lane < batch; ++lane) {
          if (candidate.answers[lane] != reference.answers[lane] ||
              candidate.large[lane] != reference.large[lane] ||
              candidate.profits[lane] != reference.profits[lane] ||
              candidate.weights[lane] != reference.weights[lane]) {
            mismatch = true;
            std::cerr << "DIFFERENTIAL MISMATCH: kernel "
                      << core::batch_kernel_name(kernel) << " batch " << batch
                      << " lane " << lane << " item " << items[lane] << "\n";
          }
        }
      }
    }
  }
  return checked;
}

struct ClassifyCell {
  double ns_per_item = 0.0;
  double mitems_per_s = 0.0;
  double gbps = 0.0;  ///< effective column traffic: 18 bytes per lane
};

/// Times the classify stage alone: gather once, then re-classify the same
/// resident SoA columns until `target_items` lanes have been processed.
/// Median of three timing passes — single-shot numbers on a busy CI box are
/// noisy enough to flip the prediction either way, which would make the
/// gate test scheduler jitter instead of the kernel.
ClassifyCell time_classify(core::BatchEval& eval,
                           std::span<const std::size_t> items,
                           core::BatchScratch& scratch,
                           std::size_t target_items) {
  eval.gather(items, scratch);
  const std::size_t reps =
      std::max<std::size_t>(1, target_items / std::max<std::size_t>(1, items.size()));
  // One untimed pass warms the columns and the large-index cache lines.
  eval.classify(items, scratch);
  std::vector<double> seconds;
  for (int pass = 0; pass < 3; ++pass) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < reps; ++r) eval.classify(items, scratch);
    seconds.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  }
  std::sort(seconds.begin(), seconds.end());
  const double lanes = static_cast<double>(reps * items.size());
  ClassifyCell cell;
  cell.ns_per_item = seconds[1] * 1e9 / lanes;
  cell.mitems_per_s = lanes / seconds[1] / 1e6;
  cell.gbps = lanes * 18.0 / seconds[1] / 1e9;
  return cell;
}

struct EngineRun {
  double qps = 0.0;
  std::uint64_t groups = 0;
};

EngineRun engine_replay(const core::LcaKp& lca,
                        const std::vector<std::size_t>& trace,
                        bool batch_eval) {
  metrics::Registry registry;
  serve::EngineConfig config;
  config.workers = 2;
  config.queue_capacity = trace.size();
  config.batcher.max_batch_size = 64;
  config.cache.capacity = 1 << 13;
  config.cache.shards = 8;
  config.batch_eval = batch_eval;
  serve::ServeEngine engine(lca, config, registry);
  constexpr std::size_t kWindow = 512;
  std::vector<std::future<serve::Response>> window;
  window.reserve(kWindow);
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto item : trace) {
    window.push_back(engine.submit(item));
    if (window.size() == kWindow) {
      for (auto& future : window) (void)future.get();
      window.clear();
    }
  }
  for (auto& future : window) (void)future.get();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  engine.drain();
  EngineRun result;
  result.qps = static_cast<double>(trace.size()) / seconds;
  result.groups = engine.stats().batch_eval_groups;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json") {
      json_path = (i + 1 < argc && argv[i + 1][0] != '-')
                      ? argv[++i]
                      : "BENCH_batch_query.json";
    } else {
      std::cerr << "usage: bench_batch_query [--smoke] [--json [PATH]]\n";
      return 1;
    }
  }

  const auto best = core::BatchEval::best_kernel();
  std::cout << "E22: batch answer path roofline"
            << (smoke ? " [smoke]" : "") << "\n"
            << "best kernel here: " << core::batch_kernel_name(best) << "\n\n";

  const std::size_t n = smoke ? 20'000 : 100'000;
  Substrate needle(knapsack::Family::kNeedle, n, 151);
  Substrate uncorrelated(knapsack::Family::kUncorrelated, n, 77);

  // 1. Differential gate on this exact binary.
  bool mismatch = false;
  std::size_t checked = 0;
  checked += differential_gate(needle, smoke, mismatch);
  checked += differential_gate(uncorrelated, smoke, mismatch);
  std::cout << "differential gate: " << checked
            << " kernel x batch cells byte-compared against scalar -> "
            << (mismatch ? "MISMATCH" : "identical") << "\n\n";
  if (mismatch) return 2;
  if (checked == 0) {
    std::cout << "(scalar-only build: the gate has no vector kernel to "
                 "compare; the scalar reference IS the semantics)\n\n";
  }

  // 2. Classify roofline: kernel x batch size.
  const std::size_t target_items = smoke ? 400'000 : 8'000'000;
  const std::vector<std::size_t> batches = {1, 8, 32, 256, 4'096};
  double scalar_b32plus = 0.0;  // best scalar Mitems/s at batch >= 32
  double vector_b32plus = 0.0;  // best vector Mitems/s at batch >= 32
  for (auto* sub : {&needle, &uncorrelated}) {
    const char* name = sub == &needle ? "needle" : "uncorrelated";
    util::Table table({"kernel", "batch", "ns/item", "Mitems/s", "GB/s"});
    core::BatchEval eval(sub->lca, sub->run);
    core::BatchScratch scratch;
    for (const auto kernel : available_kernels()) {
      eval.set_kernel(kernel);
      for (const auto batch : batches) {
        const auto items =
            random_items(sub->instance.size(), batch, 0xB00F + batch);
        const auto cell = time_classify(eval, items, scratch, target_items);
        table.row()
            .cell(core::batch_kernel_name(kernel))
            .cell(batch)
            .cell(cell.ns_per_item, 2)
            .cell(cell.mitems_per_s, 1)
            .cell(cell.gbps, 2);
        if (batch >= 32) {
          auto& slot = kernel == core::BatchKernel::kScalar ? scalar_b32plus
                                                            : vector_b32plus;
          slot = std::max(slot, cell.mitems_per_s);
        }
      }
    }
    table.print(std::cout, std::string("classify roofline, ") + name +
                               ", n = " + std::to_string(n));
  }

  // 3. The falsifiable E22 prediction, honestly gated on hardware.
  bool prediction_checked = false;
  bool prediction_pass = false;
  bool floor_pass = true;  // the hard exit criterion when a kernel is active
  double speedup = 0.0;
  if (best != core::BatchKernel::kScalar && scalar_b32plus > 0.0) {
    prediction_checked = true;
    speedup = vector_b32plus / scalar_b32plus;
    prediction_pass = speedup >= 2.0;
    floor_pass = speedup >= 1.4;
    std::cout << "\nE22 prediction (vector classify >= 2x scalar items/s at "
                 "batch >= 32): "
              << speedup << "x -> "
              << (prediction_pass
                      ? "PASS"
                      : "REFUTED (recorded honestly per the E17 precedent: "
                        "2.0x is the divider-unit ceiling, see the header)")
              << "\n"
              << "hard regression floor (>= 1.4x): "
              << (floor_pass ? "PASS" : "FAIL") << "\n";
  } else {
    std::cout << "\nE22 prediction SKIPPED: no SIMD kernel active (build "
                 "without LCAKNAP_NATIVE or CPU without AVX2) — reported "
                 "honestly, not counted as a pass.\n";
  }

  // 4. End-to-end: the serving engine with the batch path on vs off.
  core::WorkloadConfig workload;
  workload.shape = core::WorkloadConfig::Shape::kHotspot;
  workload.queries = smoke ? 5'000 : 40'000;
  const auto trace = core::generate_workload(n, workload);
  const auto off = engine_replay(needle.lca, trace, /*batch_eval=*/false);
  const auto on = engine_replay(needle.lca, trace, /*batch_eval=*/true);
  util::Table engine_table({"path", "qps", "batch-eval groups"});
  engine_table.row().cell("per-request").cell(off.qps, 0).cell(off.groups);
  engine_table.row().cell("batch eval").cell(on.qps, 0).cell(on.groups);
  engine_table.print(std::cout, "ServeEngine end-to-end, hotspot trace "
                                "(informational: gather + cache dominate)");

  const bool ok = !mismatch && floor_pass;
  if (!json_path.empty()) {
    std::ofstream os(json_path);
    os << "{\n"
       << "  \"bench\": \"batch_query\",\n"
       << "  \"experiment\": \"E22\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"best_kernel\": \"" << core::batch_kernel_name(best) << "\",\n"
       << "  \"differential_cells_checked\": " << checked << ",\n"
       << "  \"differential_identical\": " << (mismatch ? "false" : "true")
       << ",\n"
       << "  \"scalar_mitems_per_s_b32plus\": " << scalar_b32plus << ",\n"
       << "  \"vector_mitems_per_s_b32plus\": " << vector_b32plus << ",\n"
       << "  \"classify_speedup_b32plus\": " << speedup << ",\n"
       << "  \"prediction_checked\": " << (prediction_checked ? "true" : "false")
       << ",\n"
       << "  \"prediction_2x_pass\": " << (prediction_pass ? "true" : "false")
       << ",\n"
       << "  \"floor_1_4x_pass\": " << (floor_pass ? "true" : "false") << ",\n"
       << "  \"engine_qps\": {\"per_request\": " << off.qps
       << ", \"batch_eval\": " << on.qps << "},\n"
       << "  \"pass\": " << (ok ? "true" : "false") << "\n"
       << "}\n";
    std::cout << "\nwrote " << json_path << "\n";
  }
  return ok ? 0 : 2;
}
