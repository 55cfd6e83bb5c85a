// netemu_query: CLI client for the planner service.
//
//   $ netemu_query bandwidth --family Butterfly --n 4096
//   $ netemu_query max_host --guest mesh2 --host hypercube --n 1048576
//   $ netemu_query estimate --family butterfly --n 64 --seed 7
//   $ netemu_query bounds --guest Tree --host mesh2 --n 65536
//   $ netemu_query ping | stats | shutdown
//   $ netemu_query estimate --family ccc --n 512 --trace   # traced query:
//     mints a trace id, prints it with the answer; retrieve the span set
//     with `netemu_query trace --id <hex>` (see docs/SCOPE.md)
//
// By default it talks to a running netemu_serve on --port (7464).  With
// --local it executes the query in-process instead — no daemon needed —
// against the same persistent cache file, so repeated local queries are
// answered from disk in O(1).
//
// Load generation: --repeat N sends the same request N times; --concurrency
// K spreads those over K workers with one connection each.  Instead of a
// response line it prints a summary: qps, p50/p99 latency, error counts.
//
//   $ netemu_query ping --repeat 10000 --concurrency 8

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <iostream>
#include <thread>
#include <vector>

#include "netemu/scope/metrics.hpp"
#include "netemu/scope/trace.hpp"
#include "netemu/service/client.hpp"
#include "netemu/service/protocol.hpp"
#include "netemu/util/cli.hpp"
#include "netemu/util/hash.hpp"

using namespace netemu;

namespace {

int usage(const std::string& program) {
  std::cerr
      << "usage: " << program
      << " [--local] [--port P] <op> [flags]\n"
         "  ops: bandwidth | estimate | max_host | bounds | ping | stats |"
         " trace | events | shutdown\n"
         "  query flags: --family/--guest F  --host F  --n N  --k K"
         "  --host_k K  --m M\n"
         "               --router default|bfs|valiant  --traffic symmetric|"
         "quasi|permutation|bitrev|transpose|hotspot\n"
         "               --arbitration farthest|fifo|random  --seed S"
         "  --trials T  --deadline-ms D\n"
         "  --trace        mint a scope trace id and send it with the query"
         " (id echoed on the response)\n"
         "  --client NAME  client identity for guard fairness (default:"
         " the server tags the connection)\n"
         "  trace op: --id <hex64>  retrieve the span set of a traced"
         " query\n"
         "  --local flags: --cache-file F (default netemu_cache.json)"
         "  --cache-capacity N\n"
         "  --attempts N   transport retries per request (default 3)\n"
         "  --repeat N     load generation: send the request N times and"
         " print a qps/latency summary\n"
         "  --concurrency K  spread --repeat over K workers, one connection"
         " each (default 1)\n"
         "  families accept a dimension suffix: mesh2, pyramid3, ...\n";
  return 2;
}

/// Load generation (--repeat / --concurrency): K workers, each with its own
/// connection, split --repeat requests between them and hammer the daemon
/// with the single-attempt raw path.  Prints a summary document (qps,
/// p50/p99 latency) instead of a response line.  Exit 0 only when every
/// request got an ok response.
int run_load(const Cli& cli, const Json& request, std::uint16_t port) {
  const long repeat = cli.get_int("repeat", 1);
  const long concurrency = cli.get_int("concurrency", 1);
  if (repeat < 1 || concurrency < 1) {
    std::cerr << cli.program()
              << ": --repeat and --concurrency must be >= 1\n";
    return 2;
  }
  const auto total = static_cast<std::size_t>(repeat);
  const auto workers =
      std::min(static_cast<std::size_t>(concurrency), total);
  const std::string request_line = request.dump();

  struct WorkerResult {
    std::vector<double> latencies_us;
    std::size_t ok = 0;
    std::size_t errors = 0;      ///< response arrived but ok:false
    std::size_t transport = 0;   ///< connection failed mid-run
    std::size_t shed = 0;        ///< ... of errors: overload sheds
    std::size_t degraded = 0;    ///< ok responses marked degraded (brownout)
    std::size_t retry_honored = 0;  ///< sheds whose retry hint we slept out
  };
  std::vector<WorkerResult> results(workers);
  std::vector<std::thread> threads;
  threads.reserve(workers);

  using Clock = std::chrono::steady_clock;
  const auto started = Clock::now();
  for (std::size_t w = 0; w < workers; ++w) {
    // Spread the remainder over the first (total % workers) workers.
    const std::size_t share = total / workers + (w < total % workers ? 1 : 0);
    threads.emplace_back([&, w, share] {
      WorkerResult& r = results[w];
      r.latencies_us.reserve(share);
      Client client;
      std::string error;
      if (!client.connect(port, &error)) {
        r.transport = share;
        return;
      }
      std::string response_line;
      for (std::size_t i = 0; i < share; ++i) {
        const auto t0 = Clock::now();
        if (!client.request_raw(request_line, response_line)) {
          ++r.transport;
          // One reconnect attempt; a daemon restart mid-run should not
          // void the rest of this worker's share.
          if (!client.connect(port, &error)) {
            r.transport += share - i - 1;
            return;
          }
          continue;
        }
        const double us = std::chrono::duration<double, std::micro>(
                              Clock::now() - t0)
                              .count();
        r.latencies_us.push_back(us);
        const Json response = Json::parse(response_line);
        if (response.is_object() && response["ok"].as_bool()) {
          ++r.ok;
          if (response["degraded"].as_bool()) ++r.degraded;
        } else {
          ++r.errors;
          if (response.is_object() && response["overloaded"].as_bool()) {
            ++r.shed;
            // Be a well-behaved client: sleep out the server's backoff
            // hint (capped — a load tool should not stall for seconds).
            const auto hint = response["retry_after_ms"].as_uint();
            if (hint > 0) {
              ++r.retry_honored;
              std::this_thread::sleep_for(std::chrono::milliseconds(
                  std::min<std::uint64_t>(hint, 1000)));
            }
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - started).count();

  std::vector<double> latencies;
  std::size_t ok = 0, errors = 0, transport = 0;
  std::size_t shed = 0, degraded = 0, retry_honored = 0;
  for (auto& r : results) {
    ok += r.ok;
    errors += r.errors;
    transport += r.transport;
    shed += r.shed;
    degraded += r.degraded;
    retry_honored += r.retry_honored;
    latencies.insert(latencies.end(), r.latencies_us.begin(),
                     r.latencies_us.end());
  }

  Json summary = Json::object();
  summary["ok"] = (ok == total);
  summary["requests"] = static_cast<double>(total);
  summary["concurrency"] = static_cast<double>(workers);
  summary["responses_ok"] = static_cast<double>(ok);
  summary["responses_error"] = static_cast<double>(errors);
  summary["responses_shed"] = static_cast<double>(shed);
  summary["responses_degraded"] = static_cast<double>(degraded);
  summary["retry_after_honored"] = static_cast<double>(retry_honored);
  summary["transport_failures"] = static_cast<double>(transport);
  summary["wall_s"] = wall_s;
  summary["qps"] = wall_s > 0.0 ? static_cast<double>(ok + errors) / wall_s
                                : 0.0;
  if (!latencies.empty()) {
    summary["p50_us"] = scope::exact_quantile(latencies, 0.50);
    summary["p99_us"] = scope::exact_quantile(latencies, 0.99);
  }
  std::cout << summary.dump() << "\n";
  return ok == total ? 0 : 1;
}

/// Copy a CLI flag into the request document verbatim (strings) or as a
/// number, only when present.
void copy_flag(const Cli& cli, const char* flag, const char* field,
               bool numeric, Json& doc) {
  if (!cli.has(flag)) return;
  if (numeric) {
    doc[field] = cli.get_double(flag, 0.0);
  } else {
    doc[field] = cli.get(flag);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  // The flag parser is greedy: in "--local estimate" the op lands as the
  // value of --local.  Accept both spellings.
  std::string op;
  if (!cli.positional().empty()) {
    op = cli.positional()[0];
  } else if (cli.has("local") && cli.get("local") != "true") {
    op = cli.get("local");
  }
  if (op.empty()) return usage(cli.program());

  Json request = Json::object();
  request["op"] = op;
  copy_flag(cli, "family", "family", false, request);
  copy_flag(cli, "guest", "guest", false, request);
  copy_flag(cli, "host", "host", false, request);
  copy_flag(cli, "n", "n", true, request);
  copy_flag(cli, "k", "k", true, request);
  copy_flag(cli, "host_k", "host_k", true, request);
  copy_flag(cli, "host-k", "host_k", true, request);
  copy_flag(cli, "m", "m", true, request);
  copy_flag(cli, "router", "router", false, request);
  copy_flag(cli, "traffic", "traffic", false, request);
  copy_flag(cli, "arbitration", "arbitration", false, request);
  copy_flag(cli, "seed", "seed", true, request);
  copy_flag(cli, "trials", "trials", true, request);
  copy_flag(cli, "deadline-ms", "deadline_ms", true, request);
  copy_flag(cli, "client", "client", false, request);
  copy_flag(cli, "id", "id", false, request);  // trace retrieval op
  if (cli.has("trace")) {
    // Client-minted trace id: the edge owns the id, every layer (fleet,
    // backend) records spans under it.
    request["trace"] = hex64(scope::mint_trace_id());
    std::cerr << "trace id: " << request["trace"].as_string() << "\n";
  }

  if (cli.has("repeat") || cli.has("concurrency")) {
    if (cli.has("local")) {
      std::cerr << cli.program()
                << ": --repeat/--concurrency need a daemon (they measure the "
                   "service, not the library); drop --local\n";
      return 2;
    }
    return run_load(
        cli, request,
        static_cast<std::uint16_t>(cli.get_int("port", 7464)));
  }

  std::string response_line;
  if (cli.has("local")) {
    QueryExecutor::Options options;
    options.cache_file = cli.get("cache-file", "netemu_cache.json");
    options.cache_capacity =
        static_cast<std::size_t>(cli.get_int("cache-capacity", 4096));
    QueryExecutor executor(options);
    response_line = handle_request_line(request.dump(), executor);
    // Executor destruction persists the (possibly grown) cache.
  } else {
    const auto port = static_cast<std::uint16_t>(cli.get_int("port", 7464));
    Client::RetryPolicy policy;
    policy.max_attempts =
        static_cast<int>(cli.get_int("attempts", policy.max_attempts));
    Client client(policy);
    client.set_target(port);
    // The retrying path: transport failures reconnect with backoff and
    // "overloaded" responses honor the server's retry_after_ms hint.
    std::string error;
    const auto response = client.request(request, &error);
    if (!response) {
      std::cerr << cli.program() << ": " << error << "\n";
      if (client.last_connect_errno() == ECONNREFUSED) {
        std::cerr << "(start netemu_serve, or pass --local)\n";
      }
      return 1;
    }
    response_line = response->dump();
  }

  std::cout << response_line << "\n";
  const Json response = Json::parse(response_line);
  return response["ok"].as_bool() ? 0 : 1;
}
