// connection_storm: the acceptance bench for the sharded epoll I/O plane
// (docs/SERVICE.md "I/O plane", docs/PERF.md).  Proves the server holds
// tens of thousands of mostly-idle connections while serving a hot
// cache-hit workload, without spending a thread on any of them.
//
// Phases, on one in-process Server:
//
//   latency — on a fresh, otherwise idle server, 64 closed-loop
//             connections time every request -> p50/p99 microseconds
//             (best of two reps; run first so the storm's aftermath
//             cannot pollute the small-fleet numbers).
//   storm   — open N connections (--connections, default 40000; raises
//             RLIMIT_NOFILE and rotates client source addresses across
//             127.0.0.1-4 to dodge the ~28k ephemeral-port ceiling per
//             source ip), verify each answers a ping, and HOLD them open.
//             The process thread count is read before and with the storm
//             parked.
//   hot     — W workers churn cache-hit bursts (fresh connection, one
//             pipelined burst, disconnect — the shape netemu_query
//             produces) for a fixed wall-clock box (--hot-seconds) while
//             the storm stays parked.  qps counts only requests that were
//             answered inside the box.
//
// Gates (smoke and full mode alike):
//   * every storm connection is sustained
//   * the hot phase is failure-free
//   * parking the storm adds no thread to the process
//
// --fleet runs the same phases against a fleet front door (FleetFrontDoor
// behind the Server, as netemu_fleet runs it) over two in-process
// backends, with the same gates.  It also reports, for the latency phase's
// concurrent requests, the threads the process added and the backend
// connections the fleet held per request in flight.
//
// Writes BENCH_service.json (schema netemu-bench-service/2) so every PR has
// a tracked serving-plane baseline next to BENCH_sim.json; --fleet writes
// BENCH_service_fleet.json.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "netemu/fleet/front_door.hpp"
#include "netemu/fleet/router.hpp"
#include "netemu/scope/metrics.hpp"
#include "netemu/service/client.hpp"
#include "netemu/service/server.hpp"
#include "netemu/util/cli.hpp"
#include "netemu/util/json.hpp"
#include "netemu/util/table.hpp"

using namespace netemu;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Minimal raw connection: the storm holds tens of thousands of these, so
/// they must cost two buffers, not a Client with its retry machinery.
class RawConn {
 public:
  /// Connect to 127.0.0.1:port.  `src_slot` rotates the client source
  /// address across 127.0.0.1-4: each source ip has its own ~28k ephemeral
  /// port space, so a 40k-connection storm to one destination needs more
  /// than one.  Loopback owns all of 127/8, no configuration required.
  bool connect_to(std::uint16_t port, std::uint32_t src_slot = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in src{};
    src.sin_family = AF_INET;
    src.sin_addr.s_addr = htonl(0x7F000001u + (src_slot % 4u));
    src.sin_port = 0;
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&src), sizeof(src)) < 0) {
      close();
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      close();
      return false;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // RST on close instead of TIME_WAIT: the bench opens tens of thousands
    // of loopback connections and would exhaust the ephemeral port range
    // long before the 60 s TIME_WAIT timers expire.  Every response is
    // fully read before close, so no data is lost to the reset.
    const linger rst{1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &rst, sizeof(rst));
    return true;
  }

  ~RawConn() { close(); }
  RawConn() = default;
  RawConn(RawConn&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  RawConn& operator=(RawConn&&) = delete;
  RawConn(const RawConn&) = delete;

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  /// Send `payload` (pre-framed request lines) in one burst and read until
  /// `expect_lines` responses arrived.  The pipelined shape is the point:
  /// the server answers a whole burst with one coalesced flush.  False on
  /// any transport failure (including the server refusing the connection).
  bool burst(const std::string& payload, std::size_t expect_lines,
             std::string* responses) {
    std::size_t off = 0;
    while (off < payload.size()) {
      const ssize_t n = ::send(fd_, payload.data() + off,
                               payload.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    responses->clear();
    std::size_t lines = 0;
    char chunk[65536];
    while (lines < expect_lines) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      for (ssize_t i = 0; i < n; ++i) {
        if (chunk[i] == '\n') ++lines;
      }
      responses->append(chunk, static_cast<std::size_t>(n));
    }
    return true;
  }

  /// Single request/response round trip (a burst of one).
  bool roundtrip(const std::string& line, std::string* response = nullptr) {
    std::string buffer;
    if (!burst(line + "\n", 1, &buffer)) return false;
    if (response) *response = buffer.substr(0, buffer.find('\n'));
    return true;
  }

 private:
  int fd_ = -1;
};

/// Raise RLIMIT_NOFILE toward `need` (server + client fds live in this one
/// process, so a storm of N costs ~2N).  Raises the hard limit too when the
/// process is privileged (the kernel allows up to fs/nr_open); otherwise
/// settles for the hard cap.  Returns the usable soft limit.
rlim_t raise_nofile(rlim_t need) {
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return 1024;
  if (rl.rlim_cur >= need) return rl.rlim_cur;
  rlimit want = rl;
  want.rlim_cur = need;
  want.rlim_max = std::max(rl.rlim_max, need);
  if (::setrlimit(RLIMIT_NOFILE, &want) != 0) {
    want.rlim_max = rl.rlim_max;
    want.rlim_cur = std::min(need, rl.rlim_max);
    ::setrlimit(RLIMIT_NOFILE, &want);
  }
  ::getrlimit(RLIMIT_NOFILE, &rl);
  return rl.rlim_cur;
}

/// The process's live thread count ("Threads:" in /proc/self/status).
long thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stol(line.substr(8));
  }
  return -1;
}

std::vector<std::string> warm_workload() {
  std::vector<std::string> lines;
  for (int i = 0; i < 8; ++i) {
    Json q = Json::object();
    q["op"] = "estimate";
    q["family"] = "Butterfly";
    q["n"] = 64 + i;
    lines.push_back(q.dump());
  }
  return lines;
}

struct StormResult {
  std::size_t storm_target = 0;
  std::size_t storm_open = 0;   ///< connections that answered a ping
  double storm_s = 0.0;         ///< open+verify wall time
  long threads_before = -1;     ///< process threads before the storm
  long threads_parked = -1;     ///< ... with the whole storm parked
  double hot_qps = 0.0;         ///< successfully answered requests / wall
  std::uint64_t hot_ok = 0;
  std::uint64_t hot_failures = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  long threads_idle = -1;          ///< threads before the latency phase
  long threads_latency_peak = -1;  ///< ... most during it
  double backend_conns_peak = 0.0; ///< fleet backend connections, most
};

/// A cheap echo compute: the bench measures the serving stack, not the
/// planner; real query math would drown the I/O plane in compute noise.
QueryExecutor::Options echo_options() {
  QueryExecutor::Options options;
  options.compute = [](const Query& q, const CancelToken&) {
    Json doc = Json::object();
    doc["n"] = q.n;
    return doc;
  };
  return options;
}

/// What the phases run against: one executor behind the server, or
/// (fleet) a front door behind it over two executor-backed backends.
struct Stack {
  bool start(bool fleet, std::string* error) {
    Server::Options options;
    options.port = 0;
    if (!fleet) {
      executors.push_back(std::make_unique<QueryExecutor>(echo_options()));
      server = std::make_unique<Server>(*executors.back(), options);
      return server->start(error);
    }
    FleetRouter::Options router_options;
    for (int i = 0; i < 2; ++i) {
      executors.push_back(std::make_unique<QueryExecutor>(echo_options()));
      backends.push_back(std::make_unique<Server>(*executors.back(), options));
      if (!backends.back()->start(error)) return false;
      router_options.backends.push_back({backends.back()->port(), ""});
    }
    router = std::make_unique<FleetRouter>(router_options);
    door = std::make_unique<FleetFrontDoor>(*router);
    server = std::make_unique<Server>(
        [door = door.get()](std::string line, const std::string& peer,
                            Reactor& reactor, Server::Reply reply) {
          door->handle(reactor, line, peer,
                       [reply](FleetFrontDoor::Answer answer) {
                         reply(std::move(answer.line), answer.shutdown);
                       });
        },
        options);
    return server->start(error);
  }

  /// Backend connections the fleet holds open (0 without a fleet).
  double backend_connections() const {
    return router ? router->metrics()
                        .gauge("netemu_fleet_backend_connections")
                        .value()
                  : 0.0;
  }

  // Destroyed in reverse: the serving front first, backends last.
  std::vector<std::unique_ptr<QueryExecutor>> executors;
  std::vector<std::unique_ptr<Server>> backends;
  std::unique_ptr<FleetRouter> router;
  std::unique_ptr<FleetFrontDoor> door;
  std::unique_ptr<Server> server;
};

StormResult run_storm(bool fleet, std::size_t storm_conns, double hot_seconds,
                      std::size_t hot_workers, std::size_t latency_conns,
                      std::uint64_t latency_requests) {
  StormResult result;
  result.storm_target = storm_conns;

  Stack stack;
  std::string error;
  if (!stack.start(fleet, &error)) {
    std::cerr << "connection_storm: " << error << "\n";
    return result;
  }
  Server& server = *stack.server;

  // Warm the cache so everything after is pure cache hits (served inline
  // on the reactor by the fast path).
  const std::vector<std::string> workload = warm_workload();
  {
    Client warm;
    std::string response;
    if (warm.connect(server.port())) {
      for (const auto& line : workload) warm.request_raw(line, response);
    }
  }

  // --- latency: closed-loop probes on the fresh, idle server.  Runs
  // before the storm so the small-fleet percentiles measure the server,
  // not the storm's aftermath.  Best of two reps: a single percentile
  // sample on a shared box is noise.  A sampler records the threads and
  // backend connections the server side holds while they are in flight.
  result.threads_idle = thread_count();
  std::atomic<bool> sampling{true};
  std::thread sampler([&] {
    while (sampling.load()) {
      result.threads_latency_peak =
          std::max(result.threads_latency_peak, thread_count());
      result.backend_conns_peak =
          std::max(result.backend_conns_peak, stack.backend_connections());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (int rep = 0; rep < 2; ++rep) {
    std::vector<std::thread> threads;
    std::vector<std::vector<double>> latencies(latency_conns);
    for (std::size_t c = 0; c < latency_conns; ++c) {
      threads.emplace_back([&, c] {
        Client client;
        if (!client.connect(server.port())) return;
        latencies[c].reserve(latency_requests);
        std::string response;
        for (std::uint64_t i = 0; i < latency_requests; ++i) {
          const std::string& line = workload[(c + i) % workload.size()];
          const auto t0 = Clock::now();
          if (!client.request_raw(line, response)) return;
          latencies[c].push_back(seconds_since(t0) * 1e6);
        }
      });
    }
    for (auto& t : threads) t.join();
    std::vector<double> all;
    for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
    if (all.empty()) continue;
    const double p99 = scope::exact_quantile(all, 0.99);
    if (result.p99_us == 0.0 || p99 < result.p99_us) {
      result.p50_us = scope::exact_quantile(all, 0.50);
      result.p99_us = p99;
    }
  }
  sampling.store(false);
  sampler.join();

  // --- storm: open and verify N connections, then hold them.  Every
  // server thread (shards, offload pool, executor workers) exists by now,
  // and the latency clients have been joined. ---
  result.threads_before = thread_count();
  std::vector<RawConn> parked;
  parked.reserve(storm_conns);
  const auto storm_start = Clock::now();
  const std::string ping = R"({"op":"ping"})";
  for (std::size_t i = 0; i < storm_conns; ++i) {
    RawConn conn;
    if (!conn.connect_to(server.port(), static_cast<std::uint32_t>(i)))
      continue;
    std::string response;
    // The ping proves the server actually serves this connection, not
    // merely that the kernel queued it in the listen backlog.
    if (!conn.roundtrip(ping, &response)) continue;
    if (response.find("\"pong\":true") == std::string::npos) continue;
    parked.push_back(std::move(conn));
  }
  result.storm_open = parked.size();
  result.storm_s = seconds_since(storm_start);
  result.threads_parked = thread_count();

  // --- hot: churning cache-hit bursts while the storm stays parked. ---
  {
    // The active-traffic shape the repo's own clients produce: a fresh
    // connection, one pipelined burst of requests, disconnect (netemu_query
    // opens a connection per CLI invocation).  Each arrival costs an O(1)
    // shard registration, reclaimed on close, while the storm holds its
    // fds open.
    constexpr std::size_t kBurst = 4;
    // A fixed wall-clock box, two reps, best kept: a single timing on a
    // shared machine is noise (same best-of discipline as micro_sim).
    for (int rep = 0; rep < 2; ++rep) {
      std::vector<std::thread> threads;
      std::vector<std::uint64_t> failures(hot_workers, 0);
      std::vector<std::uint64_t> answered(hot_workers, 0);
      const auto hot_start = Clock::now();
      const auto deadline =
          hot_start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(hot_seconds));
      const auto worker = [&](std::size_t w) {
        std::string payload;
        for (std::size_t i = 0; i < kBurst; ++i) {
          payload += workload[(w + i) % workload.size()];
          payload += '\n';
        }
        std::string responses;
        while (Clock::now() < deadline) {
          RawConn conn;
          if (conn.connect_to(server.port()) &&
              conn.burst(payload, kBurst, &responses) &&
              responses.find("\"ok\":false") == std::string::npos) {
            answered[w] += kBurst;
          } else {
            failures[w] += kBurst;
          }
        }
      };
      for (std::size_t w = 0; w < hot_workers; ++w) {
        threads.emplace_back(worker, w);
      }
      for (auto& t : threads) t.join();
      const double hot_s = seconds_since(hot_start);
      std::uint64_t total_failed = 0, total_answered = 0;
      for (std::size_t w = 0; w < hot_workers; ++w) {
        total_failed += failures[w];
        total_answered += answered[w];
      }
      result.hot_failures += total_failed;
      result.hot_ok += total_answered;
      // Only answered requests count, over the whole box: refused
      // connections must not turn fast failures into apparent throughput.
      const double qps = hot_s > 0.0
                             ? static_cast<double>(total_answered) / hot_s
                             : 0.0;
      result.hot_qps = std::max(result.hot_qps, qps);
    }
  }

  parked.clear();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const bool smoke = cli.has("smoke");
  const bool fleet = cli.has("fleet");

  // The full-mode default of 40000 sits above the ~32k threads a
  // thread-per-connection server reaches at the default-kernel
  // vm.max_map_count of 65530; the event loop's only real limit is file
  // descriptors.
  auto storm_conns = static_cast<std::size_t>(
      cli.get_int("connections", smoke ? 256 : 40000));
  const double hot_seconds = static_cast<double>(
      cli.get_int("hot-seconds", smoke ? 1 : 5));
  const auto hot_workers =
      static_cast<std::size_t>(cli.get_int("workers", 8));
  const std::size_t latency_conns = 64;
  const auto latency_requests =
      static_cast<std::uint64_t>(smoke ? 20 : 100);

  // Two fds per storm connection (client + server side share the process).
  const std::size_t requested_conns = storm_conns;
  const rlim_t limit =
      raise_nofile(static_cast<rlim_t>(2 * storm_conns + 512));
  bool fd_capped = false;
  if (limit < static_cast<rlim_t>(2 * storm_conns + 512)) {
    const auto fit = static_cast<std::size_t>((limit - 512) / 2);
    std::cerr << "connection_storm: RLIMIT_NOFILE " << limit << " caps the "
              << "storm at " << fit << " connections (wanted " << storm_conns
              << ")\n";
    storm_conns = fit;
    fd_capped = true;
  }

  Json doc = Json::object();
  doc["schema"] = "netemu-bench-service/2";
  doc["smoke"] = smoke;
  doc["fleet"] = fleet;
  doc["connections"] = static_cast<double>(storm_conns);
  // Honest scaling report: when the fd limit shrank the storm, say so in
  // the result document — a reader comparing runs must not mistake a capped
  // 12k-connection storm for the requested 40k one.
  doc["fd_capped"] = fd_capped;
  if (fd_capped) {
    doc["connections_requested"] = static_cast<double>(requested_conns);
    doc["rlimit_nofile"] = static_cast<double>(limit);
  }
  doc["hot_seconds"] = hot_seconds;

  const StormResult r = run_storm(fleet, storm_conns, hot_seconds,
                                  hot_workers, latency_conns,
                                  latency_requests);
  // Per request in flight during the latency phase: threads the process
  // added beyond the phase's own clients and the sampler, and (fleet)
  // backend connections held.
  const double inflight = static_cast<double>(latency_conns);
  const double threads_added = static_cast<double>(std::max<long>(
      0, r.threads_latency_peak - r.threads_idle -
             static_cast<long>(latency_conns) - 1));
  const double threads_per_inflight = threads_added / inflight;
  const double conns_per_inflight = r.backend_conns_peak / inflight;
  doc["storm_target"] = static_cast<double>(r.storm_target);
  doc["storm_open"] = static_cast<double>(r.storm_open);
  doc["storm_s"] = r.storm_s;
  doc["threads_before"] = static_cast<double>(r.threads_before);
  doc["threads_parked"] = static_cast<double>(r.threads_parked);
  doc["hot_qps"] = r.hot_qps;
  doc["hot_ok"] = static_cast<double>(r.hot_ok);
  doc["hot_failures"] = static_cast<double>(r.hot_failures);
  doc["p50_us"] = r.p50_us;
  doc["p99_us"] = r.p99_us;
  doc["inflight"] = inflight;
  doc["threads_added_per_inflight"] = threads_per_inflight;
  if (fleet) doc["backend_conns_per_inflight"] = conns_per_inflight;

  Table t({"storm open", "storm s", "threads", "hot qps", "fail", "p50 us",
           "p99 us"});
  t.add_row({Table::integer(static_cast<std::int64_t>(r.storm_open)) + "/" +
                 Table::integer(static_cast<std::int64_t>(r.storm_target)),
             Table::num(r.storm_s, 2),
             Table::integer(r.threads_before) + " -> " +
                 Table::integer(r.threads_parked),
             Table::num(r.hot_qps, 0),
             Table::integer(static_cast<std::int64_t>(r.hot_failures)),
             Table::num(r.p50_us, 1), Table::num(r.p99_us, 1)});
  t.print(std::cout);
  std::cout << "per request in flight (" << latency_conns
            << " concurrent): threads added " << threads_per_inflight;
  if (fleet) {
    std::cout << ", backend connections " << conns_per_inflight << " (peak "
              << r.backend_conns_peak << ")";
  }
  std::cout << "\n";

  const std::string out_path = cli.get(
      "out", fleet ? "BENCH_service_fleet.json" : "BENCH_service.json");
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "connection_storm: cannot write " << out_path << "\n";
    return 2;
  }
  out << doc.dump() << "\n";
  std::cerr << "connection_storm: wrote " << out_path << "\n";

  bench::Verdict verdict;
  verdict.check(r.storm_open == storm_conns,
                "sustained every storm connection");
  verdict.check(r.hot_failures == 0, "hot phase fully ok");
  verdict.check(r.threads_before > 0 && r.threads_parked <= r.threads_before,
                "parking the storm added no thread");
  return verdict.exit_code();
}
