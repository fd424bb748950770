// E20 — network front-end: closed-loop loopback serving, scaling and sheds.
//
// The claims of docs/NETWORKING.md, measured over real loopback sockets:
// the epoll front door turns concurrent connections into engine throughput,
// sheds overload with explicit kOverloaded rather than stalling, and keeps
// the wire-level conservation law — every decoded frame is answered — at
// every load point.
//
// Three tables:
//  1. closed-loop sweep: connections x window cells, each reporting achieved
//     qps and p50/p99 frame latency — prediction: qps grows with connection
//     count up to worker saturation (checked only on >= 4 hardware threads;
//     a 1-core container serializes everything and the comparison measures
//     the scheduler, not the server — E17 precedent);
//  2. overload probe: a burst against a tiny per-tenant quota must shed with
//     kOverloaded > 0, zero silent drops (hard failure otherwise);
//  3. conservation ledger: frames_in == sum(responses by status) - decode
//     errors across the whole bench (hard failure otherwise).
//
// Flags: --smoke shrinks every budget for CI; --json PATH writes a one-object
// JSON summary (default BENCH_net.json when --json has no value).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/lca_kp.h"
#include "knapsack/generators.h"
#include "metrics/metrics.h"
#include "net/client.h"
#include "net/server.h"
#include "net/session.h"
#include "oracle/access.h"
#include "store/state_store.h"
#include "util/table.h"

namespace {

using namespace lcaknap;
using Clock = std::chrono::steady_clock;

struct CellResult {
  std::size_t connections = 0;
  std::size_t window = 0;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t overloaded = 0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

/// One closed-loop cell: `connections` clients, each keeping `window` frames
/// in flight until its share of `total` is answered.
CellResult run_cell(std::uint16_t port, const std::string& tenant,
                    std::size_t connections, std::size_t window,
                    std::uint64_t total, std::uint64_t items) {
  CellResult cell;
  cell.connections = connections;
  cell.window = window;
  const std::uint64_t per_conn = (total + connections - 1) / connections;
  std::vector<std::vector<double>> latencies(connections);
  std::vector<std::uint64_t> ok(connections, 0);
  std::vector<std::uint64_t> overloaded(connections, 0);
  std::vector<std::uint64_t> sent(connections, 0);
  std::vector<std::thread> threads;
  threads.reserve(connections);
  const auto t0 = Clock::now();
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      net::Client client("127.0.0.1", port);
      std::uint64_t next_id = 1;
      std::uint64_t outstanding = 0;
      std::vector<std::pair<std::uint64_t, Clock::time_point>> inflight;
      while (sent[c] < per_conn || outstanding > 0) {
        while (outstanding < window && sent[c] < per_conn) {
          net::RequestFrame frame;
          frame.request_id = next_id++;
          frame.item = (sent[c] * 1'000'003ull + c * 7'919ull) % items;
          frame.tenant = tenant;
          inflight.emplace_back(frame.request_id, Clock::now());
          client.send(frame);
          ++sent[c];
          ++outstanding;
        }
        const auto response = client.recv();
        --outstanding;
        for (std::size_t i = 0; i < inflight.size(); ++i) {
          if (inflight[i].first == response.request_id) {
            latencies[c].push_back(std::chrono::duration<double, std::micro>(
                                       Clock::now() - inflight[i].second)
                                       .count());
            inflight.erase(inflight.begin() + static_cast<std::ptrdiff_t>(i));
            break;
          }
        }
        if (response.status == net::WireStatus::kOk) ++ok[c];
        if (response.status == net::WireStatus::kOverloaded) ++overloaded[c];
      }
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  std::vector<double> all;
  for (std::size_t c = 0; c < connections; ++c) {
    cell.sent += sent[c];
    cell.ok += ok[c];
    cell.overloaded += overloaded[c];
    all.insert(all.end(), latencies[c].begin(), latencies[c].end());
  }
  std::sort(all.begin(), all.end());
  cell.qps = elapsed_s > 0 ? static_cast<double>(cell.sent) / elapsed_s : 0.0;
  cell.p50_us = percentile(all, 0.50);
  cell.p99_us = percentile(all, 0.99);
  return cell;
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
      json_path =
          (i + 1 < argc && argv[i + 1][0] != '-') ? argv[++i] : "BENCH_net.json";
    } else {
      std::cerr << "usage: bench_net [--smoke] [--json [PATH]]\n";
      return 2;
    }
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::cout << "E20: network front-end over loopback"
            << (smoke ? " [smoke]" : "") << " (" << hw
            << " hardware threads)\n\n";

  const std::uint64_t kItems = smoke ? 5'000 : 20'000;
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated,
                                          static_cast<std::size_t>(kItems), 3);
  const oracle::MaterializedAccess access(inst);
  core::LcaKpConfig lca_config;
  lca_config.eps = 0.2;
  lca_config.seed = 0xE20;
  lca_config.quantile_samples = smoke ? 100'000 : 400'000;
  const core::LcaKp lca(access, lca_config);

  bool ok = true;

  // --- 1. Closed-loop sweep: connections x window. --------------------------
  std::vector<CellResult> cells;
  std::uint64_t sweep_frames_in = 0;
  std::uint64_t sweep_responses = 0;
  {
    metrics::Registry registry;
    store::StateStore store({.capacity = 4}, registry);
    net::TenantRouter router(store, registry);
    net::TenantConfig tenant;
    tenant.lca = &lca;
    tenant.engine.workers = 2;
    tenant.engine.queue_capacity = 8'192;
    tenant.engine.batcher.max_batch_size = 32;
    tenant.engine.cache.capacity = 4'096;
    tenant.engine.cache.shards = 4;
    router.register_tenant("bench", tenant);
    router.warm_all();
    net::Server server(router, net::ServerConfig{}, registry);

    const std::uint64_t per_cell = smoke ? 2'000 : 20'000;
    util::Table table(
        {"connections", "window", "qps", "p50 us", "p99 us", "ok", "shed"});
    for (const std::size_t connections : {1u, 2u, 4u}) {
      for (const std::size_t window : {1u, 8u}) {
        const auto cell =
            run_cell(server.port(), "bench", connections, window, per_cell,
                     kItems);
        table.row()
            .cell(cell.connections)
            .cell(cell.window)
            .cell(cell.qps, 0)
            .cell(cell.p50_us, 0)
            .cell(cell.p99_us, 0)
            .cell(cell.ok)
            .cell(cell.overloaded);
        cells.push_back(cell);
      }
    }
    table.print(std::cout, "closed-loop sweep (loopback)");
    std::cout << "\n";
    server.stop();
    router.drain();
    const auto stats = server.stats();
    sweep_frames_in = stats.frames_in;
    sweep_responses = stats.responses_to_frames();
    if (stats.decode_errors != 0) {
      std::cerr << "FAIL: decode errors on a clean client\n";
      ok = false;
    }

    // Prediction: more connections -> more throughput, until the workers
    // saturate.  On fewer than 4 hardware threads the client threads, the
    // event loop, and the workers all fight for the same core and the
    // comparison measures the scheduler, not the server (E17 precedent:
    // gate, report honestly, do not fail).
    double qps_1 = 0.0;
    double qps_4 = 0.0;
    for (const auto& cell : cells) {
      if (cell.window != 8) continue;
      if (cell.connections == 1) qps_1 = cell.qps;
      if (cell.connections == 4) qps_4 = cell.qps;
    }
    if (hw >= 4) {
      if (qps_4 <= qps_1) {
        std::cerr << "FAIL: qps did not grow with connection count ("
                  << qps_1 << " -> " << qps_4 << " at window 8)\n";
        ok = false;
      } else {
        std::cout << "scaling prediction: qps(4 conns) = " << qps_4
                  << " > qps(1 conn) = " << qps_1 << "  [checked]\n\n";
      }
    } else {
      std::cout << "scaling prediction: skipped (" << hw
                << " hardware threads < 4; sweep table reported as measured)"
                << "\n\n";
    }
  }

  // --- 2. Overload probe: tiny quota, honest sheds. -------------------------
  std::uint64_t probe_shed = 0;
  std::uint64_t probe_ok = 0;
  std::uint64_t probe_frames = 0;
  std::uint64_t probe_responses = 0;
  {
    metrics::Registry registry;
    store::StateStore store({.capacity = 4}, registry);
    net::TenantRouter router(store, registry);
    net::TenantConfig tenant;
    tenant.lca = &lca;
    tenant.engine.workers = 1;
    tenant.engine.queue_capacity = 64;
    tenant.max_inflight = 16;  // the quota the burst must overrun
    router.register_tenant("bench", tenant);
    router.warm_all();
    net::Server server(router, net::ServerConfig{}, registry);

    const auto cell = run_cell(server.port(), "bench", 4, 64,
                               smoke ? 4'000 : 20'000, kItems);
    server.stop();
    router.drain();
    const auto stats = server.stats();
    probe_shed = cell.overloaded;
    probe_ok = cell.ok;
    probe_frames = stats.frames_in;
    probe_responses = stats.responses_to_frames();
    util::Table table({"metric", "value"});
    table.row().cell("frames sent").cell(cell.sent);
    table.row().cell("ok").cell(cell.ok);
    table.row().cell("shed kOverloaded").cell(cell.overloaded);
    table.row().cell("frames in == answered").cell(
        probe_frames == probe_responses ? "yes" : "NO");
    table.print(std::cout, "overload probe: 4 conns x window 64 vs quota 16");
    std::cout << "\n";
    if (probe_shed == 0) {
      std::cerr << "FAIL: the burst never tripped the quota — overload was "
                   "not exercised\n";
      ok = false;
    }
    if (probe_ok == 0) {
      std::cerr << "FAIL: the probe starved entirely; sheds must not eat "
                   "every frame\n";
      ok = false;
    }
  }

  // --- 3. Conservation ledger. ----------------------------------------------
  {
    util::Table table({"phase", "frames in", "responses", "conserved"});
    table.row().cell("sweep").cell(sweep_frames_in).cell(sweep_responses).cell(
        sweep_frames_in == sweep_responses ? "yes" : "NO");
    table.row().cell("overload probe").cell(probe_frames).cell(probe_responses)
        .cell(probe_frames == probe_responses ? "yes" : "NO");
    table.print(std::cout,
                "wire conservation: frames_in == sum(by_status) - "
                "decode_errors");
    if (sweep_frames_in != sweep_responses ||
        probe_frames != probe_responses) {
      std::cerr << "FAIL: wire conservation violated — silent drops\n";
      ok = false;
    }
  }

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    os << "{\n"
       << "  \"bench\": \"net\",\n"
       << "  \"experiment\": \"E20\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"hardware_concurrency\": " << hw << ",\n"
       << "  \"cells\": [";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto& cell = cells[i];
      os << (i ? ",\n    " : "\n    ") << "{\"connections\": "
         << cell.connections << ", \"window\": " << cell.window
         << ", \"qps\": " << cell.qps << ", \"p50_us\": " << cell.p50_us
         << ", \"p99_us\": " << cell.p99_us << ", \"ok\": " << cell.ok
         << ", \"overloaded\": " << cell.overloaded << "}";
    }
    os << "\n  ],\n"
       << "  \"scaling_checked\": " << (hw >= 4 ? "true" : "false") << ",\n"
       << "  \"overload_shed\": " << probe_shed << ",\n"
       << "  \"overload_ok\": " << probe_ok << ",\n"
       << "  \"conserved\": "
       << (sweep_frames_in == sweep_responses && probe_frames == probe_responses
               ? "true"
               : "false")
       << ",\n"
       << "  \"pass\": " << (ok ? "true" : "false") << "\n"
       << "}\n";
    std::cout << "\nwrote " << json_path << "\n";
  }

  return ok ? 0 : 1;
}
