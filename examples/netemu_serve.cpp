// netemu_serve: the planner daemon.  Listens on localhost, answers
// line-delimited JSON queries (see docs/SERVICE.md), and memoizes every
// result in a content-addressed cache that persists across restarts.
//
//   $ netemu_serve --port 7464 --cache-file netemu_cache.json
//   $ netemu_serve --port 0            # ephemeral port, printed on stdout
//   $ netemu_serve --fault-plan 'seed=7,drop=0.02,torn=0.3'   # chaos mode
//   $ netemu_serve --no-journal        # skip the crash-recovery WAL
//   $ netemu_serve --io-threads 4      # reactor shards (0 = hw threads)
//   $ netemu_serve --guard-budget 512  # admission cost budget (docs/GUARD.md)
//
// Threads: the acceptor, the --io-threads reactor shards, the executor's
// --threads workers and its watchdog.  --offload-threads is ignored.
//
// Stop with SIGINT/SIGTERM or a client {"op":"drain"} / {"op":"shutdown"}.
// Signals and the drain op run the graceful drain (docs/LIFECYCLE.md): stop
// accepting, shed new flights, give running work up to half of --drain-ms
// to finish, cancel the stragglers cooperatively, snapshot the cache, exit
// 0 — bounded end to end by --drain-ms.  A kill -9 skips all of it, but
// with journaling (the default when a cache file is set) every computed
// result was already fsync'd to <cache-file>.wal, so the next start rejoins
// warm — the fleet router counts on this (see docs/FLEET.md).

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <iostream>
#include <memory>
#include <thread>

#include "netemu/faultline/fault_plan.hpp"
#include "netemu/faultline/injector.hpp"
#include "netemu/scope/flight_recorder.hpp"
#include "netemu/service/protocol.hpp"
#include "netemu/service/server.hpp"
#include "netemu/util/cli.hpp"

using namespace netemu;

namespace {
std::atomic<bool> g_signal_stop{false};
void on_signal(int) { g_signal_stop.store(true); }

/// Bounded graceful drain: no new connections or flights, half the budget
/// for running work to finish on its own, cooperative cancellation for the
/// rest, then a full stop.  Returns with the server stopped.
void drain_and_stop(Server& server, QueryExecutor& executor,
                    std::uint64_t budget_ms) {
  using Clock = std::chrono::steady_clock;
  const auto started = Clock::now();
  const auto deadline = started + std::chrono::milliseconds(budget_ms);
  const auto cancel_at = started + std::chrono::milliseconds(budget_ms / 2);
  server.begin_drain();
  executor.begin_drain();
  while (executor.pending() > 0 && Clock::now() < cancel_at) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (executor.pending() > 0) {
    const std::size_t fired = executor.cancel_all();
    std::cerr << "drain: cancelled " << fired << " in-flight queries\n";
    while (executor.pending() > 0 && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  server.stop();
  std::cerr << "drained in "
            << std::chrono::duration_cast<std::chrono::milliseconds>(
                   Clock::now() - started)
                   .count()
            << " ms\n";
}
}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);

  // A fatal signal dumps the scope flight recorder (recent sheds, watchdog
  // fires, injected faults — with trace ids) to stderr before re-raising.
  scope::install_crash_handler();

  QueryExecutor::Options exec_options;
  exec_options.threads = static_cast<std::size_t>(cli.get_int("threads", 0));
  exec_options.max_queue = static_cast<std::size_t>(cli.get_int("queue", 256));
  exec_options.default_deadline_ms =
      static_cast<std::uint64_t>(cli.get_int("deadline-ms", 30000));
  exec_options.cache_capacity =
      static_cast<std::size_t>(cli.get_int("cache-capacity", 4096));
  exec_options.cache_file =
      cli.has("no-persist") ? "" : cli.get("cache-file", "netemu_cache.json");
  exec_options.cache_journal =
      !exec_options.cache_file.empty() && !cli.has("no-journal");
  exec_options.hang_timeout_ms =
      static_cast<std::uint64_t>(cli.get_int("hang-timeout-ms", 60000));
  exec_options.retry_after_hint_ms =
      static_cast<std::uint64_t>(cli.get_int("retry-after-ms", 50));

  // The admission gate (docs/GUARD.md), always on: the --queue count cap,
  // cost-model admission, per-client fair share + rate limits, AIMD
  // concurrency adaptation, brownout degradation.
  exec_options.guard.cost_budget =
      static_cast<std::uint64_t>(cli.get_int("guard-budget", 0));
  exec_options.guard.rate_units_per_s =
      static_cast<double>(cli.get_int("guard-rate", 0));
  exec_options.guard.target_p95_ms =
      static_cast<std::uint64_t>(cli.get_int("guard-target-p95-ms", 250));
  exec_options.guard.client_share = cli.get_double("guard-share", 0.5);
  if (cli.has("no-guard-brownout")) exec_options.guard.brownout = false;
  if (cli.has("no-guard-adaptive")) exec_options.guard.adaptive = false;

  // Chaos mode: inject a deterministic fault plan into the daemon's own
  // sockets, workers, and cache writes (see docs/FAULTLINE.md).
  std::unique_ptr<FaultInjector> injector;
  const std::string plan_spec = cli.get("fault-plan");
  if (!plan_spec.empty()) {
    std::string plan_error;
    const auto plan = FaultPlan::parse(plan_spec, &plan_error);
    if (!plan) {
      std::cerr << "netemu_serve: bad --fault-plan: " << plan_error << "\n";
      return 1;
    }
    injector = std::make_unique<FaultInjector>(*plan);
    exec_options.faults = injector.get();
    std::cerr << "fault plan active: " << plan->spec() << "\n";
  }

  // Fail fast, before any work is accepted, when the cache path cannot be
  // written: discovering this at shutdown (or at the first WAL append)
  // would silently cost every computed result.
  if (!exec_options.cache_file.empty()) {
    std::string probe_error;
    if (!ResultCache::probe_path(exec_options.cache_file, &probe_error)) {
      std::cerr << "netemu_serve: " << probe_error
                << "\n  pass --cache-file <writable path> or --no-persist "
                   "to run memory-only\n";
      return 1;
    }
  }

  QueryExecutor executor(exec_options);
  if (!exec_options.cache_file.empty()) {
    std::cerr << "cache: " << exec_options.cache_file << " ("
              << executor.cache().size() << " entries loaded, "
              << executor.cache().wal_replayed() << " from journal"
              << (exec_options.cache_journal ? "" : ", journal off") << ")\n";
  }

  Server::Options server_options;
  server_options.port = static_cast<std::uint16_t>(cli.get_int("port", 7464));
  server_options.faults = injector.get();
  server_options.io_threads =
      static_cast<std::size_t>(cli.get_int("io-threads", 0));
  Server server(executor_line_handler(executor), server_options);
  std::string error;
  if (!server.start(&error)) {
    std::cerr << "netemu_serve: " << error << "\n";
    if (server.last_errno() == EADDRINUSE) {
      std::cerr << "  port " << server_options.port
                << " is already bound — another netemu_serve (or fleet "
                   "backend) may be running.\n  pick a different --port, or "
                   "--port 0 for an ephemeral one (printed on stdout)\n";
    } else if (server.last_errno() == EACCES) {
      std::cerr << "  binding port " << server_options.port
                << " needs more privileges; ports >= 1024 do not\n";
    }
    return 1;
  }
  std::cout << "listening on 127.0.0.1:" << server.port() << std::endl;

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  const auto drain_budget_ms =
      static_cast<std::uint64_t>(cli.get_int("drain-ms", 1000));

  // Poll: a signal handler cannot take the server's locks itself, and a
  // client {"op":"drain"} shows up as the executor entering drain mode.
  while (!g_signal_stop.load() && !executor.draining() && server.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  if (g_signal_stop.load() || executor.draining()) {
    drain_and_stop(server, executor, drain_budget_ms);
  } else {
    server.stop();  // client shutdown op: connections already done
  }

  const QueryExecutor::Stats s = executor.stats();
  std::cerr << "served " << s.requests << " requests (" << s.cache_hits
            << " cache hits, " << s.computed << " computed, "
            << s.dedup_joins << " dedup joins, " << s.rejected
            << " rejected, " << s.hung << " hung, " << s.stale_served
            << " stale, " << s.cancelled << " cancelled, " << s.browned_out
            << " browned out)\n";
  if (injector) {
    const FaultInjector::Counts c = injector->counts();
    std::cerr << "faults injected: " << c.total() << " (" << c.drops
              << " drops, " << c.shorts << " shorts, " << c.slows
              << " slows, " << c.disk_fails << " disk fails, "
              << c.torn_writes << " torn writes, " << c.stalls
              << " stalls)\n";
  }
  executor.save_cache();
  return 0;
}
