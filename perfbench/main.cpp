// lcaknap benchmark: one workload per process, hosted end to end.
//
//   lcaknap_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--out DIR]
//
// The process builds the serving stack the way `lcaknap_cli serve --listen`
// does (MaterializedAccess under InstrumentedAccess, StateStore-hydrated
// TenantRouter, epoll Server on loopback), drives it with its own client for
// S seconds, checks every answer against an independently warmed reference,
// and prints the metrics.  `--trace 0` reports the end-to-end metrics;
// `--trace 1` drives the same request stream through each layer boundary in
// turn and reports the per-layer metrics.  The last stdout line is one JSON
// object.
// Exit codes: 0 all checks passed, 1 a check failed or the run broke,
// 2 bad usage.  README.md in this directory defines every metric.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cert/cert_log.h"
#include "cert/verifier.h"
#include "core/lca_kp.h"
#include "dyn/epoch_state.h"
#include "dyn/update.h"
#include "knapsack/generators.h"
#include "load.h"
#include "metrics/metrics.h"
#include "net/client.h"
#include "net/server.h"
#include "net/session.h"
#include "oracle/access.h"
#include "oracle/instrumented.h"
#include "probe_access.h"
#include "serve/engine.h"
#include "store/snapshot.h"
#include "store/state_store.h"
#include "util/table.h"
#include "workload.h"

namespace lcaknap::perfbench {
namespace {

namespace fs = std::filesystem;

constexpr char kTenant[] = "bench";
/// At eps = 0.2, 6*eps >= 1 makes the empty set a legal answer; 0.1 keeps
/// both answer values in play.
constexpr double kEps = 0.1;
/// Set-ups per end-to-end run; `setup_s` is their median.  Half run before
/// the timed window and half after the checks, so the median samples the
/// host at both ends of the run.
constexpr std::size_t kSetupReps = 16;
/// Advances applied to an idle server on workloads without live updates.
constexpr std::size_t kIdleAdvances = 12;
constexpr double kAdvanceIntervalS = 0.5;
/// Each answer value must make up at least this share of kOk responses.
constexpr double kMinAnswerShare = 0.10;
/// Calls per timed block in the direct classify/oracle loops.
constexpr std::size_t kLoopBlock = 20'000;
constexpr std::size_t kLoopBlocks = 10;
/// Turns each phase of the traced run takes (see `traced`).
constexpr std::size_t kTraceRounds = 5;
/// Repetitions of the direct snapshot write/hydrate timings.
constexpr std::size_t kStoreReps = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".perfbench_out";
};

class UsageError : public std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw UsageError("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") throw UsageError("--trace is 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--out") {
        options.out_dir = value;
      } else {
        throw UsageError("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      throw UsageError("bad value for " + flag + ": " + value);
    }
  }
  if (options.workload.empty()) throw UsageError("--workload is required");
  if (!(options.seconds > 0.0) || options.seconds > 120.0) {
    throw UsageError("--seconds must be in (0, 120]");
  }
  return options;
}

// --- statistics ---------------------------------------------------------------

/// Percentile of a sample: the mean of the two order statistics around p*n,
/// approached from the left so the median of an even sample is the mean of
/// its middle pair (the IQR idiom of SNIPPETS.md #1).
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double x = p * static_cast<double>(values.size());
  const double x_l = x - 0.5;
  const double x_r = x + 0.5;
  const double last = static_cast<double>(values.size() - 1);
  const auto i_l = static_cast<std::size_t>(std::clamp(std::floor(x_l), 0.0, last));
  const double r = x_r > std::floor(x_r) ? std::floor(x_r) : std::floor(x_r) - 1;
  const auto i_r = static_cast<std::size_t>(std::clamp(r, 0.0, last));
  return 0.5 * values[i_l] + 0.5 * values[i_r];
}

double median(const std::vector<double>& values) {
  return percentile(values, 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double ms_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e6;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- spans --------------------------------------------------------------------

/// Spans of the traced run, kept in memory and written out when it ends.
class SpanLog {
 public:
  std::uint64_t add(const std::string& name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t request_id = 0,
                    std::uint64_t parent = 0) {
    spans_.push_back({spans_.size() + 1, parent, request_id, name, start_ns,
                      end_ns});
    return spans_.size();
  }
  /// Sets the end of a span added before its children.
  void finish(std::uint64_t id, std::int64_t end_ns) {
    spans_[id - 1].end_ns = end_ns;
  }
  /// Adds one span per answered request of a load phase, under `parent`.
  void add_load(const std::string& name, const LoadResult& load,
                std::uint64_t parent) {
    for (std::size_t c = 0; c < load.connections.size(); ++c) {
      const auto& log = load.connections[c];
      for (std::uint64_t id = 0; id < log.sent; ++id) {
        const Request& r = log.requests[id];
        if (!r.answered) continue;
        add(name, r.send_ns, r.done_ns, (static_cast<std::uint64_t>(c) << 48) | id,
            parent);
      }
    }
  }
  void write(const std::string& path) const {
    std::ofstream os(path);
    os << "id\tparent\trequest_id\tname\tstart_ns\tend_ns\n";
    for (const auto& s : spans_) {
      os << s.id << '\t' << s.parent << '\t' << s.request_id << '\t' << s.name
         << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
    }
  }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t request_id;
    std::string name;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::vector<Span> spans_;
};

/// Times `fn` into a span (when `spans` is set) and returns its milliseconds.
template <typename Fn>
double timed(SpanLog* spans, const std::string& name, std::uint64_t parent,
             Fn&& fn) {
  const std::int64_t start = now_ns();
  fn();
  const std::int64_t end = now_ns();
  if (spans != nullptr) spans->add(name, start, end, 0, parent);
  return static_cast<double>(end - start) / 1e6;
}

// --- checks -------------------------------------------------------------------

class Checks {
 public:
  void require(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  [[nodiscard]] bool passed() const { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  std::vector<std::string> failures_;
};

// --- the serving stack ----------------------------------------------------------

core::LcaKpConfig lca_config(const Seeds& seeds) {
  core::LcaKpConfig config;
  config.eps = kEps;
  config.seed = seeds.shared;
  return config;
}

knapsack::Instance make_instance(const WorkloadSpec& spec, const Seeds& seeds) {
  return knapsack::make_family(knapsack::Family::kUncorrelated, spec.n,
                               seeds.instance);
}

/// One hosted serving process: instance, oracle stack, warm state, router,
/// listening server.  Members are declared in dependency order, so they are
/// destroyed dependents-first.
struct Stack {
  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() { shutdown(); }

  void shutdown() {
    if (server) server->stop();
    if (router) router->drain();
  }
  [[nodiscard]] serve::ServeEngine& engine() const {
    serve::ServeEngine* engine = router->engine_mut(kTenant);
    if (engine == nullptr) throw std::runtime_error("tenant is not warm");
    return *engine;
  }

  std::unique_ptr<metrics::Registry> registry;
  std::unique_ptr<knapsack::Instance> instance;
  std::unique_ptr<oracle::MaterializedAccess> storage;
  std::unique_ptr<ProbeAccess> bottom;  // traced run only
  std::unique_ptr<oracle::InstrumentedAccess> instrumented;
  std::unique_ptr<ProbeAccess> top;     // traced run only
  std::unique_ptr<core::LcaKp> lca;
  std::unique_ptr<store::StateStore> store;
  std::unique_ptr<dyn::EpochedState> epoched;
  std::unique_ptr<net::TenantRouter> router;
  std::unique_ptr<net::Server> server;

  std::string cert_dir;
  std::uint64_t frames_sent = 0;     ///< by the benchmark's own clients
  std::uint64_t served_digest = 0;   ///< engine warm state after set-up
  std::uint64_t epoched_digest = 0;  ///< EpochedState epoch 0, if any
};

/// Writes the warm-state snapshot the restart path hydrates from (before any
/// timing starts).
void prewrite_snapshot(const WorkloadSpec& spec, const Seeds& seeds,
                       const std::string& dir, Checks& checks) {
  fs::create_directories(dir);
  const auto instance = make_instance(spec, seeds);
  const oracle::MaterializedAccess access(instance);
  const core::LcaKp lca(access, lca_config(seeds));
  metrics::Registry registry;
  store::StateStore store({.capacity = 1, .snapshot_dir = dir,
                           .persist_after_warmup = true, .warmup_threads = 1},
                          registry);
  (void)store.get(kTenant, lca, seeds.tape);
  checks.require(store.stats().snapshots_saved == 1,
                 "restart path: the pre-written snapshot was not saved");
}

/// Builds one stack from an empty state up to its first servable answer.
std::unique_ptr<Stack> build_stack(const WorkloadSpec& spec, const Seeds& seeds,
                                   const std::string& rep_dir,
                                   const std::string& snapshot_dir, bool traced,
                                   SpanLog* spans, Checks& checks) {
  const std::int64_t setup_start = now_ns();
  const std::uint64_t root =
      spans != nullptr ? spans->add("setup", setup_start, setup_start) : 0;
  auto stack = std::make_unique<Stack>();
  stack->registry = std::make_unique<metrics::Registry>();
  auto& registry = *stack->registry;

  timed(spans, "setup.instance", root, [&] {
    stack->instance = std::make_unique<knapsack::Instance>(make_instance(spec, seeds));
  });
  stack->storage = std::make_unique<oracle::MaterializedAccess>(*stack->instance);
  const oracle::InstanceAccess* below = stack->storage.get();
  if (traced) {
    stack->bottom = std::make_unique<ProbeAccess>(*below);
    below = stack->bottom.get();
  }
  stack->instrumented = std::make_unique<oracle::InstrumentedAccess>(*below, registry);
  const oracle::InstanceAccess* top = stack->instrumented.get();
  if (traced) {
    stack->top = std::make_unique<ProbeAccess>(*top);
    top = stack->top.get();
  }
  stack->lca = std::make_unique<core::LcaKp>(*top, lca_config(seeds));

  store::StateStoreConfig store_config;
  store_config.warmup_threads = 1;
  if (spec.setup == SetupPath::kRestart) {
    store_config.snapshot_dir = snapshot_dir;
  } else if (spec.setup == SetupPath::kLiveWarmup) {
    store_config.snapshot_dir = rep_dir + "/snap";
    fs::create_directories(store_config.snapshot_dir);
  }
  stack->store = std::make_unique<store::StateStore>(store_config, registry);

  if (spec.setup == SetupPath::kEpoched) {
    dyn::EpochConfig epoch_config;
    epoch_config.lca = lca_config(seeds);
    epoch_config.tape_seed = seeds.tape;
    epoch_config.warmup_threads = 1;
    timed(spans, "setup.epoched_state", root, [&] {
      stack->epoched = std::make_unique<dyn::EpochedState>(
          *stack->instance, epoch_config, registry);
    });
    stack->epoched_digest = stack->epoched->current()->digest;
  }

  serve::EngineConfig engine;
  engine.workers = 2;
  engine.warmup_threads = 1;
  if (spec.certify) {
    stack->cert_dir = rep_dir + "/certs";
    fs::create_directories(stack->cert_dir);
    engine.certify = true;
    engine.cert_dir = stack->cert_dir;
  }
  net::TenantConfig tenant;
  tenant.lca = stack->lca.get();
  tenant.engine = engine;
  tenant.tape_seed = seeds.tape;
  stack->router = std::make_unique<net::TenantRouter>(*stack->store, registry);
  stack->router->register_tenant(kTenant, tenant);
  timed(spans, "setup.router.warm_all", root, [&] { stack->router->warm_all(); });
  timed(spans, "setup.server", root, [&] {
    stack->server = std::make_unique<net::Server>(*stack->router,
                                                  net::ServerConfig{}, registry);
  });
  timed(spans, "setup.first_answer", root, [&] {
    net::Client client("127.0.0.1", stack->server->port());
    net::RequestFrame frame;
    frame.request_id = 1;
    frame.tenant = kTenant;
    const auto response = client.call(frame);
    stack->frames_sent += 1;
    checks.require(response.status == net::WireStatus::kOk,
                   "set-up: the first request was not answered kOk");
  });
  if (spans != nullptr) spans->finish(root, now_ns());

  const auto store_stats = stack->store->stats();
  if (spec.setup == SetupPath::kRestart) {
    checks.require(store_stats.snapshot_hydrations == 1 &&
                       store_stats.live_warmups == 0,
                   "restart path: the tenant did not hydrate from the snapshot");
  } else {
    checks.require(store_stats.live_warmups == 1,
                   "set-up: the tenant did not warm up live");
  }
  if (spec.setup == SetupPath::kLiveWarmup) {
    checks.require(store_stats.snapshots_saved == 1,
                   "live path: the warm state was not persisted");
  }
  stack->served_digest = core::run_digest(stack->engine().run());
  return stack;
}

// --- load phases ----------------------------------------------------------------

enum class Boundary { kWire, kRouter, kEngine };

LoadResult drive(Stack& stack, const WorkloadSpec& spec,
                 const StreamFactory& make_stream, double seconds,
                 Boundary boundary) {
  LoadPlan plan;
  plan.connections = spec.connections;
  plan.window = spec.window;
  plan.rate_qps = spec.rate_qps;
  plan.seconds = seconds;
  plan.log_rate_qps = spec.log_rate_qps;
  const ChannelFactory make_channel =
      [&](std::size_t) -> std::unique_ptr<Channel> {
    switch (boundary) {
      case Boundary::kWire:
        return std::make_unique<WireChannel>(stack.server->port(), kTenant);
      case Boundary::kRouter:
        return std::make_unique<RouterChannel>(*stack.router, kTenant);
      case Boundary::kEngine:
        return std::make_unique<EngineChannel>(stack.engine());
    }
    throw std::logic_error("unreachable boundary");
  };
  // Only a socket read can block past its deadline; stopping the server
  // closes the connections and unblocks it (the missing answers then count
  // as failed).
  const auto on_stall = [&] {
    if (boundary == Boundary::kWire) stack.server->stop();
  };
  auto result = run_load(plan, make_channel, make_stream, on_stall);
  if (boundary == Boundary::kWire) stack.frames_sent += result.attempted();
  return result;
}

// --- epoch advances ---------------------------------------------------------------

/// One advance: handed to EpochedState::advance at `start`, installed by
/// ServeEngine::advance_epoch between `swap` and `end`.
struct AdvanceStamp {
  std::uint64_t epoch_id = 0;
  std::int64_t start = 0;
  std::int64_t swap = 0;
  std::int64_t end = 0;
  bool delta = false;
  std::uint64_t digest = 0;  ///< run_digest of the installed warm state
};

struct AdvanceLog {
  std::vector<AdvanceStamp> stamps;

  [[nodiscard]] std::vector<double> total_ms() const {
    std::vector<double> out;
    for (const auto& s : stamps) out.push_back(static_cast<double>(s.end - s.start) / 1e6);
    return out;
  }
  [[nodiscard]] std::vector<double> advance_ms() const {
    std::vector<double> out;
    for (const auto& s : stamps) out.push_back(static_cast<double>(s.swap - s.start) / 1e6);
    return out;
  }
  [[nodiscard]] std::vector<double> swap_us() const {
    std::vector<double> out;
    for (const auto& s : stamps) out.push_back(static_cast<double>(s.end - s.swap) / 1e3);
    return out;
  }
  [[nodiscard]] double delta_share() const {
    const auto deltas = std::count_if(stamps.begin(), stamps.end(),
                                      [](const AdvanceStamp& s) { return s.delta; });
    return ratio(static_cast<double>(deltas), static_cast<double>(stamps.size()));
  }
  void add_spans(SpanLog& spans) const {
    for (const auto& s : stamps) {
      const auto id = spans.add("dyn.advance", s.start, s.end, s.epoch_id);
      spans.add("dyn.EpochedState::advance", s.start, s.swap, s.epoch_id, id);
      spans.add("serve.advance_epoch", s.swap, s.end, s.epoch_id, id);
    }
  }
};

void apply_advance(dyn::EpochedState& state, serve::ServeEngine& engine,
                   const dyn::UpdateBatch& batch, AdvanceLog& log) {
  AdvanceStamp stamp;
  stamp.start = now_ns();
  const auto report = state.advance(batch);
  const auto epoch = state.current();
  stamp.swap = now_ns();
  engine.advance_epoch(epoch->epoch_id, *epoch->lca, epoch->run, epoch);
  stamp.end = now_ns();
  stamp.epoch_id = epoch->epoch_id;
  stamp.delta = report.delta;
  stamp.digest = report.digest;
  log.stamps.push_back(stamp);
}

/// Applies `script` on its own thread, one batch every kAdvanceIntervalS,
/// the first a quarter interval in, while the load runs.
class Applier {
 public:
  Applier(Stack& stack, const std::vector<dyn::UpdateBatch>& script)
      : thread_([this, &stack, &script] {
          try {
            const std::int64_t start = now_ns();
            const auto interval =
                static_cast<std::int64_t>(kAdvanceIntervalS * 1e9);
            for (std::size_t k = 0; k < script.size(); ++k) {
              const std::int64_t due =
                  start + interval / 4 + static_cast<std::int64_t>(k) * interval;
              std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
                  std::chrono::nanoseconds(due)));
              apply_advance(*stack.epoched, stack.engine(), script[k], log_);
            }
          } catch (...) {
            error_ = std::current_exception();
          }
        }) {}
  Applier(const Applier&) = delete;
  Applier& operator=(const Applier&) = delete;
  ~Applier() {
    if (thread_.joinable()) thread_.join();
  }

  AdvanceLog join() {
    thread_.join();
    if (error_) std::rethrow_exception(error_);
    return log_;
  }

 private:
  AdvanceLog log_;
  std::exception_ptr error_;
  std::thread thread_;  // declared last: starts after the members it uses
};

/// Number of scripted advances that fit in `seconds`: a whole number of
/// kRewarmEvery cycles, so the delta share is exactly the scripted one, and
/// at least one cycle.
std::size_t advances_for(double seconds) {
  const auto slots = static_cast<std::size_t>(seconds / kAdvanceIntervalS);
  return std::max<std::size_t>(kRewarmEvery, slots / kRewarmEvery * kRewarmEvery);
}

/// Workloads without live updates: the same script on an idle server, after
/// the timed window, so the advance cost is measured on every workload.
AdvanceLog idle_advances(Stack& stack, const WorkloadSpec& spec,
                         const Seeds& seeds) {
  dyn::EpochConfig config;
  config.lca = lca_config(seeds);
  config.tape_seed = seeds.tape;
  config.warmup_threads = 1;
  dyn::EpochedState state(*stack.instance, config, *stack.registry);
  const auto script = update_script(spec.n, kIdleAdvances, seeds.updates);
  AdvanceLog log;
  for (const auto& batch : script) {
    apply_advance(state, stack.engine(), batch, log);
  }
  // The engine retains each epoch (and its LcaKp) through the keepalive, so
  // `state` may go out of scope here.
  return log;
}

// --- the reference ------------------------------------------------------------------

/// An independently built and warmed copy of the served states: same seed,
/// same tape, bare storage, its own instance.
struct Reference {
  std::vector<std::uint64_t> digests;                // per epoch
  std::vector<std::vector<std::uint8_t>> answers;    // per epoch, base items
  store::SnapshotFingerprint fingerprint;            // of epoch 0
  core::LcaKpRun run0;
};

Reference build_reference(const WorkloadSpec& spec, const Seeds& seeds,
                          const std::vector<dyn::UpdateBatch>& script) {
  const std::size_t threads =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  Reference ref;
  auto instance = make_instance(spec, seeds);
  for (std::size_t epoch = 0; epoch <= script.size(); ++epoch) {
    if (epoch > 0) instance = dyn::apply_batch(instance, script[epoch - 1]);
    const oracle::MaterializedAccess access(instance);
    const core::LcaKp lca(access, lca_config(seeds));
    auto run = lca.run_warmup(seeds.tape, threads);
    ref.digests.push_back(core::run_digest(run));
    std::vector<std::uint8_t> answers(spec.n);
    for (std::size_t i = 0; i < spec.n; ++i) {
      answers[i] = lca.answer_from(run, i) ? 1 : 0;
    }
    ref.answers.push_back(std::move(answers));
    if (epoch == 0) {
      ref.fingerprint = store::fingerprint_of(lca, seeds.tape);
      ref.run0 = std::move(run);
    }
  }
  return ref;
}

struct AnswerTally {
  std::uint64_t checked = 0;
  std::uint64_t yes = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t bad_epoch = 0;
  std::uint64_t stray = 0;
};

void check_answers(const LoadResult& load, const Reference& ref,
                   AnswerTally& tally) {
  tally.stray += load.stray();
  for (const auto& log : load.connections) {
    for (std::uint64_t id = 0; id < log.sent; ++id) {
      const Request& r = log.requests[id];
      if (!r.ok) continue;
      ++tally.checked;
      tally.yes += r.answer ? 1 : 0;
      if (r.epoch >= ref.answers.size()) {
        ++tally.bad_epoch;
        continue;
      }
      const bool expected = ref.answers[r.epoch][r.item] != 0;
      if (expected != r.answer) ++tally.mismatches;
    }
  }
}

/// Everything checked after the load: answers per epoch, served digests,
/// both answer values, the wire/router/engine conservation laws, and the
/// certificate log.
void check_run(Stack& stack, const WorkloadSpec& spec, const Seeds& seeds,
               const std::vector<const LoadResult*>& loads,
               const std::vector<dyn::UpdateBatch>& served_script,
               const AdvanceLog& served_advances, Checks& checks) {
  stack.shutdown();  // stop the server, drain the router and engine

  const auto wire = stack.server->stats();
  checks.require(wire.frames_in == wire.responses_to_frames(),
                 "wire conservation: frames in != responses");
  checks.require(wire.decode_errors == 0, "wire: decode errors on a clean client");
  checks.require(wire.frames_in == stack.frames_sent,
                 "wire: frames in != frames the client sent");
  const auto router = stack.router->stats();
  checks.require(router.routed == router.completed,
                 "router conservation: routed != completed");
  const auto engine = stack.engine().stats();
  checks.require(engine.submitted == engine.ok + engine.overloaded +
                                         engine.deadline_exceeded +
                                         engine.degraded + engine.errors,
                 "engine conservation: submitted != sum of outcomes");
  if (stack.top != nullptr) {
    checks.require(stack.top->probes() == stack.bottom->probes() &&
                       stack.top->draws() == stack.bottom->draws(),
                   "oracle conservation: top and bottom probe counts differ");
  }

  const Reference ref = build_reference(spec, seeds, served_script);
  checks.require(stack.served_digest == ref.digests[0],
                 "digest: the served warm state differs from the reference");
  if (stack.epoched != nullptr) {
    checks.require(stack.epoched_digest == ref.digests[0],
                   "digest: EpochedState epoch 0 differs from the reference");
    checks.require(served_advances.stamps.size() == served_script.size(),
                   "dyn: not every scripted advance was applied");
    for (std::size_t e = 0; e < served_advances.stamps.size(); ++e) {
      checks.require(served_advances.stamps[e].digest == ref.digests[e + 1],
                     "digest: epoch " + std::to_string(e + 1) +
                         " differs from the reference");
    }
    checks.require(core::run_digest(stack.engine().run()) == ref.digests.back(),
                   "digest: the engine's final epoch differs from the reference");
  }

  AnswerTally tally;
  for (const auto* load : loads) check_answers(*load, ref, tally);
  checks.require(tally.checked > 0, "answers: no kOk response to check");
  checks.require(tally.mismatches == 0,
                 "answers: " + std::to_string(tally.mismatches) +
                     " differ from the reference");
  checks.require(tally.bad_epoch == 0, "answers: attributed to an unknown epoch");
  checks.require(tally.stray == 0,
                 "answers: " + std::to_string(tally.stray) +
                     " responses carried a request id that was never sent or "
                     "was already answered");
  const double yes_share = ratio(static_cast<double>(tally.yes),
                                 static_cast<double>(tally.checked));
  checks.require(yes_share >= kMinAnswerShare && yes_share <= 1 - kMinAnswerShare,
                 "answers: one answer value is under " +
                     std::to_string(kMinAnswerShare) + " of responses");
  std::cout << "answers checked " << tally.checked << ", yes share "
            << yes_share << ", mismatches " << tally.mismatches << "\n";

  if (spec.certify) {
    const cert::LogVerifier verifier(ref.fingerprint, ref.run0, {},
                                     *stack.registry);
    const auto report = verifier.verify_path(stack.cert_dir);
    checks.require(report.clean(), "certificates: the log did not verify CLEAN");
    checks.require(report.records == engine.cert_records,
                   "certificates: records on disk != records written");
    std::cout << "certificate log: " << report.records << " records, "
              << (report.clean() ? "CLEAN" : "REJECTED") << "\n";
  }
}

// --- output -----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Prints the metrics and, in the table only, the figures reported beside
/// them; then the failed checks; then the JSON result line.
void print_result(const std::string& title, const std::vector<Metric>& metrics,
                  const std::vector<Metric>& beside, const Checks& checks,
                  std::uint64_t attempted, std::uint64_t failed) {
  util::Table table({"metric", "value", "unit"});
  for (const auto& m : metrics) table.row().cell(m.name).cell(m.value, 4).cell(m.unit);
  for (const auto& m : beside) {
    table.row().cell("(" + m.name + ")").cell(m.value, 4).cell(m.unit);
  }
  table.print(std::cout, title);
  for (const auto& failure : checks.failures()) {
    std::cout << "CHECK FAILED: " << failure << "\n";
  }
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (checks.passed() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
         << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

// --- the two runs -------------------------------------------------------------------

std::vector<dyn::UpdateBatch> served_script_for(const WorkloadSpec& spec,
                                                const Seeds& seeds,
                                                double seconds) {
  if (!spec.live_updates()) return {};
  return update_script(spec.n, advances_for(seconds), seeds.updates);
}

int end_to_end(const WorkloadSpec& spec, const Options& options,
               const std::string& run_dir) {
  const Seeds seeds = derive_seeds(options.seed);
  const ItemStreams streams(spec, seeds.streams);
  Checks checks;
  const std::string snapshot_dir = run_dir + "/prewritten";
  if (spec.setup == SetupPath::kRestart) {
    prewrite_snapshot(spec, seeds, snapshot_dir, checks);
  }

  std::vector<double> setup_s;
  const auto set_up = [&] {
    const std::string rep_dir = run_dir + "/rep-" + std::to_string(setup_s.size());
    fs::create_directories(rep_dir);
    const std::int64_t start = now_ns();
    auto built = build_stack(spec, seeds, rep_dir, snapshot_dir, false, nullptr,
                             checks);
    setup_s.push_back(ms_since(start) / 1e3);
    return built;
  };
  std::unique_ptr<Stack> stack;
  while (setup_s.size() < kSetupReps / 2) {
    stack.reset();
    stack = set_up();
  }

  const auto script = served_script_for(spec, seeds, options.seconds);
  std::unique_ptr<Applier> applier;
  if (spec.live_updates()) applier = std::make_unique<Applier>(*stack, script);
  const LoadResult load =
      drive(*stack, spec, [&](std::size_t c) { return streams.stream(c); },
            options.seconds, Boundary::kWire);
  AdvanceLog advances;
  if (applier) advances = applier->join();
  // The high-water mark of the served workload: set-up, the timed window
  // and its live advances, before the idle advances and the reference.
  const double peak_rss = peak_rss_mb();
  if (!applier) advances = idle_advances(*stack, spec, seeds);
  check_run(*stack, spec, seeds, {&load}, script, advances, checks);
  stack.reset();
  while (setup_s.size() < kSetupReps) (void)set_up();

  // Throughput and latency percentiles are medians over one-second slices,
  // so a transient stall of the host moves them less than a whole-window
  // figure.
  const std::size_t slice_count =
      std::max<std::size_t>(1, static_cast<std::size_t>(options.seconds));
  std::vector<double> slice_qps;
  std::vector<double> slice_p50;
  std::vector<double> slice_p90;
  for (const auto& slice : load.slices(slice_count)) {
    slice_qps.push_back(slice.rate_qps());
    slice_p50.push_back(percentile(slice.latencies_us, 0.50));
    slice_p90.push_back(percentile(slice.latencies_us, 0.90));
  }
  const auto latencies = load.latencies_us();
  const std::vector<Metric> beside = {
      {"latency_p99_us", percentile(latencies, 0.99), "us"},
      {"latency_samples", static_cast<double>(latencies.size()), "count"},
      {"failed_ratio", ratio(static_cast<double>(load.failed()),
                             static_cast<double>(load.attempted())), "1"},
  };
  const std::vector<Metric> metrics = {
      {"setup_s", median(setup_s), "s"},
      {"throughput_qps", median(slice_qps), "1/s"},
      {"latency_p50_us", median(slice_p50), "us"},
      {"latency_p90_us", median(slice_p90), "us"},
      {"advance_p50_ms", median(advances.total_ms()), "ms"},
      {"peak_rss_mb", peak_rss, "MB"},
  };
  print_result(spec.name + " end to end (seed " + std::to_string(options.seed) +
                   ", " + std::to_string(options.seconds) + " s)",
               metrics, beside, checks, load.attempted(), load.failed());
  return checks.passed() ? 0 : 1;
}

/// What the traced wire phase (B) did, summed over its blocks.
struct WireCounts {
  double ok = 0;
  double hits = 0;
  double misses = 0;
  double batched = 0;
  double batches = 0;
  double invalidations = 0;
  double cert_records = 0;
  double cert_bytes = 0;
  double frames = 0;
  double bytes = 0;  ///< in and out
  double probes = 0;

  void add(const serve::EngineStats& before, const serve::EngineStats& after,
           const net::ServerStats& wire_before, const net::ServerStats& wire_after,
           std::uint64_t probes_delta) {
    const auto delta = [](std::uint64_t from, std::uint64_t to) {
      return static_cast<double>(to - from);
    };
    ok += delta(before.ok, after.ok);
    hits += delta(before.cache_hits, after.cache_hits);
    misses += delta(before.cache_misses, after.cache_misses);
    batched += delta(before.batched_requests, after.batched_requests);
    batches += delta(before.batches, after.batches);
    invalidations += delta(before.cache_invalidations, after.cache_invalidations);
    cert_records += delta(before.cert_records, after.cert_records);
    cert_bytes += delta(before.cert_bytes, after.cert_bytes);
    frames += delta(wire_before.frames_in, wire_after.frames_in);
    bytes += delta(wire_before.bytes_in + wire_before.bytes_out,
                   wire_after.bytes_in + wire_after.bytes_out);
    probes += static_cast<double>(probes_delta);
  }
};

/// `of` over every block of a phase, concatenated.
std::vector<double> pooled(const std::vector<LoadResult>& blocks,
                           std::vector<double> (LoadResult::*of)() const) {
  std::vector<double> out;
  for (const auto& block : blocks) {
    const auto values = (block.*of)();
    out.insert(out.end(), values.begin(), values.end());
  }
  return out;
}

/// Median ns per call of `fn(i)` over kLoopBlocks blocks of kLoopBlock calls.
template <typename Fn>
double ns_per_call(const std::vector<std::uint64_t>& items, SpanLog& spans,
                   const std::string& name, Fn&& fn) {
  std::vector<double> blocks;
  std::uint64_t sink = 0;
  for (std::size_t b = 0; b < kLoopBlocks; ++b) {
    const std::int64_t start = now_ns();
    for (std::size_t k = 0; k < kLoopBlock; ++k) {
      sink += fn(items[(b * kLoopBlock + k) % items.size()]);
    }
    const std::int64_t end = now_ns();
    spans.add(name, start, end, b);
    blocks.push_back(static_cast<double>(end - start) / kLoopBlock);
  }
  // Keep the calls observable.
  volatile std::uint64_t keep = sink;
  (void)keep;
  return median(blocks);
}

int traced(const WorkloadSpec& spec, const Options& options,
           const std::string& run_dir, const std::string& spans_path) {
  const Seeds seeds = derive_seeds(options.seed);
  const ItemStreams streams(spec, seeds.streams);
  Checks checks;
  SpanLog spans;

  const std::string snapshot_dir = run_dir + "/prewritten";
  if (spec.setup == SetupPath::kRestart) {
    prewrite_snapshot(spec, seeds, snapshot_dir, checks);
  }
  const std::string rep_dir = run_dir + "/rep-0";
  fs::create_directories(rep_dir);
  auto stack = build_stack(spec, seeds, rep_dir, snapshot_dir, true, &spans, checks);
  serve::ServeEngine& engine = stack->engine();

  // Four phases drive one item stream: B over the wire, traced (probes
  // count, a sampler polls the queue depth); A over the wire, untraced (the
  // reference for the tracing overhead); C into the router; D into the
  // engine.  After one untimed priming block they take turns in short
  // blocks, each continuing the stream where the last one stopped, so every
  // phase sees the same item mix, the cache in the same steady state and
  // the same host.  Each round starts one phase later than the one before,
  // so a periodic disturbance (open_churn's re-warm-up every fourth
  // advance) does not always land in the same phase.
  const double block_s = options.seconds / (4 * kTraceRounds);
  const auto script = served_script_for(spec, seeds, options.seconds);
  std::unique_ptr<Applier> applier;
  if (spec.live_updates()) applier = std::make_unique<Applier>(*stack, script);
  std::vector<std::function<std::uint64_t()>> live_streams;
  for (std::size_t c = 0; c < spec.connections; ++c) {
    live_streams.push_back(streams.stream(c));
  }
  const StreamFactory continue_stream = [&](std::size_t c) { return live_streams[c]; };
  const auto run_block = [&](Boundary boundary) {
    return drive(*stack, spec, continue_stream, block_s, boundary);
  };

  std::atomic<bool> sampling{false};
  std::atomic<bool> sampler_done{false};
  std::size_t queue_depth_max = 0;
  std::thread sampler([&] {
    while (!sampler_done.load(std::memory_order_relaxed)) {
      if (sampling.load(std::memory_order_relaxed)) {
        queue_depth_max = std::max(queue_depth_max, engine.queue_depth());
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  const LoadResult priming = run_block(Boundary::kWire);
  std::vector<LoadResult> phase_b;
  std::vector<LoadResult> phase_a;
  std::vector<LoadResult> phase_c;
  std::vector<LoadResult> phase_d;
  WireCounts counts_b;
  const auto run_phase = [&](std::size_t phase) {
    switch (phase) {
      case 0: {  // B
        const auto engine_before = engine.stats();
        const auto wire_before = stack->server->stats();
        const std::uint64_t probes_before = stack->top->probes();
        sampling.store(true, std::memory_order_relaxed);
        phase_b.push_back(run_block(Boundary::kWire));
        sampling.store(false, std::memory_order_relaxed);
        counts_b.add(engine_before, engine.stats(), wire_before,
                     stack->server->stats(), stack->top->probes() - probes_before);
        break;
      }
      case 1:  // A
        stack->top->set_counting(false);
        stack->bottom->set_counting(false);
        phase_a.push_back(run_block(Boundary::kWire));
        stack->top->set_counting(true);
        stack->bottom->set_counting(true);
        break;
      case 2:  // C
        phase_c.push_back(run_block(Boundary::kRouter));
        break;
      default:  // D
        phase_d.push_back(run_block(Boundary::kEngine));
    }
  };
  for (std::size_t round = 0; round < kTraceRounds; ++round) {
    for (std::size_t k = 0; k < 4; ++k) run_phase((round + k) % 4);
  }
  sampler_done.store(true, std::memory_order_relaxed);
  sampler.join();
  for (const auto& [name, blocks] :
       {std::pair{"wire", &phase_b}, std::pair{"router", &phase_c},
        std::pair{"engine", &phase_d}}) {
    for (const auto& block : *blocks) {
      spans.add_load(name, block,
                     spans.add(std::string("phase.") + name, block.start_ns,
                               block.end_ns));
    }
  }

  // Direct calls into core and oracle, over the same item stream.
  std::vector<std::uint64_t> items;
  {
    auto next = streams.stream(0);
    for (std::size_t k = 0; k < kLoopBlock * kLoopBlocks; ++k) items.push_back(next());
  }
  const oracle::MaterializedAccess bare(*stack->instance);
  const core::LcaKp bare_lca(bare, lca_config(seeds));
  const auto served_run = stack->store->get(kTenant, *stack->lca, seeds.tape);
  const double classify_ns = ns_per_call(items, spans, "core.answer_from", [&](std::uint64_t i) {
    return bare_lca.answer_from(*served_run, i) ? 1u : 0u;
  });
  const double stack_query_ns = ns_per_call(items, spans, "oracle.stack_query", [&](std::uint64_t i) {
    return static_cast<std::uint64_t>(stack->top->query(i).weight);
  });
  const double bare_query_ns = ns_per_call(items, spans, "oracle.bare_query", [&](std::uint64_t i) {
    return static_cast<std::uint64_t>(bare.query(i).weight);
  });
  util::Xoshiro256 sample_rng(seeds.tape);
  const double sample_ns = ns_per_call(items, spans, "oracle.stack_sample", [&](std::uint64_t) {
    return stack->top->weighted_sample(sample_rng).index;
  });

  const std::uint64_t draws_before = stack->top->draws();
  std::uint64_t warmup_samples = 0;
  const double warmup_ms = timed(&spans, "core.run_warmup", 0, [&] {
    warmup_samples = stack->lca->run_warmup(seeds.tape, 1).samples_used;
  });
  const std::uint64_t warmup_draws = stack->top->draws() - draws_before;

  // Snapshot write and restart hydration of this workload's warm state.
  std::vector<double> write_ms;
  std::vector<double> hydrate_ms;
  std::uint64_t snapshot_bytes = 0;
  {
    const std::string dir = run_dir + "/store";
    fs::create_directories(dir);
    metrics::Registry registry;
    const store::StateStoreConfig config{.capacity = 1, .snapshot_dir = dir,
                                         .persist_after_warmup = false,
                                         .warmup_threads = 1};
    const std::string path = store::StateStore(config, registry).snapshot_path(kTenant);
    const auto fingerprint = store::fingerprint_of(*stack->lca, seeds.tape);
    for (std::size_t r = 0; r < kStoreReps; ++r) {
      write_ms.push_back(timed(&spans, "store.write_snapshot", 0, [&] {
        store::write_snapshot(path, fingerprint, *served_run);
      }));
      store::StateStore fresh(config, registry);
      hydrate_ms.push_back(timed(&spans, "store.StateStore::get", 0, [&] {
        (void)fresh.get(kTenant, *stack->lca, seeds.tape);
      }));
      checks.require(fresh.stats().snapshot_hydrations == 1,
                     "store: the direct hydration did not read the snapshot");
    }
    snapshot_bytes = fs::file_size(path);
  }

  const AdvanceLog advances =
      applier ? applier->join() : idle_advances(*stack, spec, seeds);
  advances.add_spans(spans);
  std::vector<const LoadResult*> loads = {&priming};
  for (const auto* blocks : {&phase_b, &phase_a, &phase_c, &phase_d}) {
    for (const auto& block : *blocks) loads.push_back(&block);
  }
  check_run(*stack, spec, seeds, loads, script, advances, checks);
  const auto engine_end = stack->engine().stats();
  const auto router_end = stack->router->stats();

  // Per-layer numbers.
  const double ok_b = counts_b.ok;
  const double hits = counts_b.hits;
  const double misses = counts_b.misses;
  // After an epoch advance the engine reads the epoch's own storage, which
  // the benchmark cannot wrap; there every cache miss is one probe.
  const double probes_per_answer =
      spec.live_updates() ? ratio(misses, ok_b)
                          : ratio(counts_b.probes, ok_b);
  const double hit_ratio = ratio(hits, hits + misses);
  const double stack_self_ns = stack_query_ns - bare_query_ns;
  const double classify_us = probes_per_answer * classify_ns / 1e3;
  const double oracle_us = probes_per_answer * std::max(0.0, stack_self_ns) / 1e3;
  const double wire_us = mean(pooled(phase_b, &LoadResult::spans_us));
  const double router_us = mean(pooled(phase_c, &LoadResult::spans_us));
  const double engine_us = mean(pooled(phase_d, &LoadResult::spans_us));
  const double net_self = wire_us - router_us;
  const double router_self = router_us - engine_us;
  const double serve_self = engine_us - classify_us - oracle_us;
  const double attributed = std::max(0.0, net_self) + std::max(0.0, router_self) +
                            std::max(0.0, serve_self) + classify_us + oracle_us;
  const double p50_a = percentile(pooled(phase_a, &LoadResult::latencies_us), 0.5);
  const double p50_b = percentile(pooled(phase_b, &LoadResult::latencies_us), 0.5);
  const double delta_share = advances.delta_share();
  const std::size_t cert_segments =
      spec.certify ? cert::CertLog::list_segments(stack->cert_dir).size() : 0;

  const std::vector<Metric> metrics = {
      {"net.self_us", net_self, "us"},
      {"net.bytes_per_frame", ratio(counts_b.bytes, counts_b.frames), "B"},
      {"router.self_us", router_self, "us"},
      {"router.quota_shed", static_cast<double>(router_end.quota_shed), "count"},
      {"router.parked", static_cast<double>(router_end.parked), "count"},
      {"serve.self_us", serve_self, "us"},
      {"serve.batch_size_mean",
       ratio(counts_b.batched, counts_b.batches),
       "count"},
      {"serve.cache_hit_ratio", hit_ratio, "1"},
      {"serve.queue_depth_max", static_cast<double>(queue_depth_max), "count"},
      {"serve.shed",
       static_cast<double>(engine_end.overloaded + engine_end.deadline_exceeded),
       "count"},
      {"serve.cache_invalidations",
       counts_b.invalidations, "count"},
      {"core.classify_ns", classify_ns, "ns"},
      {"core.warmup_ms", warmup_ms, "ms"},
      {"core.warmup_samples", static_cast<double>(warmup_samples), "count"},
      {"oracle.probes_per_answer", probes_per_answer, "1"},
      {"oracle.stack_query_ns", stack_query_ns, "ns"},
      {"oracle.bare_query_ns", bare_query_ns, "ns"},
      {"oracle.stack_self_ns", stack_self_ns, "ns"},
      {"oracle.samples", static_cast<double>(warmup_draws), "count"},
      {"oracle.sample_ns", sample_ns, "ns"},
      {"cert.records_per_answer", ratio(counts_b.cert_records, ok_b), "1"},
      {"cert.bytes_per_record", ratio(counts_b.cert_bytes, counts_b.cert_records),
       "B"},
      {"cert.segments", static_cast<double>(cert_segments), "count"},
      {"store.hydrate_ms", median(hydrate_ms), "ms"},
      {"store.snapshot_write_ms", median(write_ms), "ms"},
      {"store.snapshot_bytes", static_cast<double>(snapshot_bytes), "B"},
      {"dyn.advance_ms", median(advances.advance_ms()), "ms"},
      {"dyn.swap_us", median(advances.swap_us()), "us"},
      {"dyn.delta_share", delta_share, "1"},
      {"gen.late_p99_us", percentile(pooled(phase_a, &LoadResult::late_us), 0.99),
       "us"},
      {"trace.overhead_share", ratio(p50_b - p50_a, p50_a), "1"},
      {"trace.unattributed_share", ratio(wire_us - attributed, wire_us), "1"},
  };

  // The design predictions this run checks (reported, not gated).
  std::string prediction;
  bool holds = true;
  if (spec.name == "serial_hot") {
    prediction = "cache_hit_ratio >= 0.95 and probes_per_answer <= 0.05";
    holds = hit_ratio >= 0.95 && probes_per_answer <= 0.05;
  } else if (spec.name == "pipelined_cold") {
    prediction = "cache_hit_ratio <= 0.15 and probes_per_answer >= 0.85";
    holds = hit_ratio <= 0.15 && probes_per_answer >= 0.85;
  } else {
    prediction = "delta_share == 0.75";
    holds = delta_share == 0.75;
  }
  std::cout << "prediction (" << prediction << "): "
            << (holds ? "HOLDS" : "REFUTED") << "\n";
  std::cout << "mean spans us: wire " << wire_us << ", router " << router_us
            << ", engine " << engine_us << ", classify " << classify_us
            << ", oracle " << oracle_us << "\n";

  spans.write(spans_path);
  std::cout << "wrote " << spans.size() << " spans to " << spans_path << "\n";
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const auto* load : loads) {
    attempted += load->attempted();
    failed += load->failed();
  }
  print_result(spec.name + " traced (seed " + std::to_string(options.seed) + ")",
               metrics, {}, checks, attempted, failed);
  return checks.passed() ? 0 : 1;
}

}  // namespace
}  // namespace lcaknap::perfbench

int main(int argc, char** argv) {
  using namespace lcaknap::perfbench;
  Options options;
  WorkloadSpec spec;
  try {
    options = parse_options(argc, argv);
    spec = workload_spec(options.workload);
  } catch (const std::invalid_argument& e) {
    std::cerr << "lcaknap_perfbench: " << e.what()
              << "\nusage: lcaknap_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out DIR]\n";
    return 2;
  }
  const std::string run_dir = options.out_dir + "/" + spec.name + "-" +
                              std::to_string(options.seed) +
                              (options.trace ? "-trace" : "");
  int code = 1;
  try {
    fs::remove_all(run_dir);
    fs::create_directories(run_dir);
    code = options.trace
               ? traced(spec, options, run_dir,
                        options.out_dir + "/spans-" + spec.name + ".tsv")
               : end_to_end(spec, options, run_dir);
  } catch (const std::exception& e) {
    std::cerr << "lcaknap_perfbench: run failed: " << e.what() << "\n";
    code = 1;
  }
  std::error_code ec;
  fs::remove_all(run_dir, ec);
  return code;
}
