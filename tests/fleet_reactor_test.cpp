// Tests for the fleet front door on the reactor: FleetFrontDoor::handle
// behind a real Server, as netemu_fleet runs it.  Answers through the
// socket equal the blocking wrapper's; a stopped backend and a backend that
// never answers both fail over while the shard keeps serving other
// connections; a drain lets races in flight land; and hedged or scattered
// bursts add no thread to the process.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "netemu/fleet/front_door.hpp"
#include "netemu/fleet/router.hpp"
#include "netemu/service/client.hpp"
#include "netemu/service/executor.hpp"
#include "netemu/service/server.hpp"
#include "netemu/util/cancel.hpp"
#include "netemu/util/json.hpp"

using namespace netemu;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// A live in-process backend: executor + server on an ephemeral port.
struct Backend {
  Backend() = default;
  explicit Backend(QueryExecutor::Options options)
      : executor(std::move(options)) {}

  std::uint16_t start() {
    Server::Options options;
    options.port = 0;
    server = std::make_unique<Server>(executor, options);
    std::string error;
    EXPECT_TRUE(server->start(&error)) << error;
    return server->port();
  }

  QueryExecutor executor;
  std::unique_ptr<Server> server;
};

/// A compute that sleeps `ms` in 1 ms steps, unwinding on cancel.
QueryExecutor::Options slow_echo(int ms, std::size_t threads) {
  QueryExecutor::Options options;
  options.threads = threads;
  options.compute = [ms](const Query& q, const CancelToken& token) -> Json {
    for (int i = 0; i < ms; ++i) {
      token.check();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Json doc = Json::object();
    doc["n"] = q.n;
    return doc;
  };
  return options;
}

QueryExecutor::Options fast_echo() {
  QueryExecutor::Options options;
  options.threads = 2;
  options.compute = [](const Query& q, const CancelToken&) {
    Json doc = Json::object();
    doc["n"] = q.n;
    return doc;
  };
  return options;
}

FleetRouter::Options router_options(std::vector<std::uint16_t> ports) {
  FleetRouter::Options options;
  for (const auto port : ports) options.backends.push_back({port, ""});
  options.health.failure_threshold = 3;
  options.health.open_cooldown_ms = 50;
  options.probe_interval_ms = 0;  // deterministic: no background probes
  options.client.max_attempts = 2;
  options.client.base_backoff_ms = 1;
  options.client.max_backoff_ms = 5;
  options.client.attempt_timeout_ms = 5000;
  return options;
}

/// A front door behind a real Server, wired as netemu_fleet wires it.
struct FleetOnServer {
  FleetOnServer(FleetRouter::Options router_options,
                FleetFrontDoor::Options door_options = {},
                std::size_t io_threads = 2)
      : router(std::move(router_options)), door(router, door_options) {
    Server::Options options;
    options.port = 0;
    options.io_threads = io_threads;
    server = std::make_unique<Server>(
        [this](std::string line, const std::string& peer, Reactor& reactor,
               Server::Reply reply) {
          door.handle(reactor, line, peer,
                      [this, reply](FleetFrontDoor::Answer answer) {
                        if (answer.drain) drain_requested = true;
                        reply(std::move(answer.line), answer.shutdown);
                      });
        },
        options);
    std::string error;
    EXPECT_TRUE(server->start(&error)) << error;
  }
  // The server stops before the door and router its shards call.
  ~FleetOnServer() { server->stop(); }

  std::uint16_t port() const { return server->port(); }

  FleetRouter router;
  FleetFrontDoor door;
  std::atomic<bool> drain_requested{false};
  std::unique_ptr<Server> server;
};

/// A connected client whose reads give up after 10 s.
std::unique_ptr<Client> connect_client(std::uint16_t port) {
  Client::RetryPolicy policy;
  policy.attempt_timeout_ms = 10000;
  auto client = std::make_unique<Client>(policy);
  std::string error;
  EXPECT_TRUE(client->connect(port, &error)) << error;
  return client;
}

/// One request line over a fresh connection; "" when no answer came.
std::string ask(std::uint16_t port, const std::string& line) {
  auto client = connect_client(port);
  std::string response;
  if (!client->request_raw(line, response)) return "";
  return response;
}

Json parse_ok(const std::string& line) {
  std::string error;
  Json doc = Json::parse(line, &error);
  EXPECT_TRUE(error.empty()) << error << " in '" << line << "'";
  EXPECT_TRUE(doc["ok"].as_bool()) << line;
  return doc;
}

/// The response with its wall-clock "micros" removed (every answer times
/// itself, so two answers to one query differ there and only there).
std::string without_micros(const std::string& line) {
  Json doc = parse_ok(line);
  doc.fields().erase("micros");
  return doc.dump();
}

Json query(const char* op, const char* family, double n) {
  Json q = Json::object();
  q["op"] = op;
  q["family"] = family;
  q["n"] = n;
  return q;
}

/// A bandwidth query whose rendezvous owner is backend `owner`.
Json owned_by(const FleetRouter& router, std::size_t owner, double from) {
  for (double n = from; n < from + 1000; ++n) {
    Json q = query("bandwidth", "Mesh2", n);
    if (router.rank_for(q)[0] == owner) return q;
  }
  ADD_FAILURE() << "no query owned by backend " << owner;
  return query("bandwidth", "Mesh2", from);
}

/// Threads of this process right now.
long thread_count() {
  long n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

/// Send `lines` at once, one connection and one thread each, and report
/// the process's thread count before the burst and its peak during it.
/// The load threads and the sampler are started (and parked) before the
/// baseline is read, so only threads the server side adds can push the
/// peak above it.
std::pair<long, long> burst_threads(std::uint16_t port,
                                    const std::vector<std::string>& lines,
                                    std::vector<std::string>& answers) {
  std::latch ready(static_cast<std::ptrdiff_t>(lines.size()) + 1);
  std::latch go(1);
  std::atomic<bool> stop{false};
  std::atomic<long> peak{0};
  std::thread sampler([&] {
    ready.count_down();
    go.wait();
    while (!stop.load()) {
      peak.store(std::max(peak.load(), thread_count()));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  answers.assign(lines.size(), std::string());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    threads.emplace_back([&, i] {
      auto client = connect_client(port);
      ready.count_down();
      go.wait();
      client->request_raw(lines[i], answers[i]);
    });
  }
  ready.wait();
  const long before = thread_count();
  go.count_down();
  for (auto& t : threads) t.join();
  stop.store(true);
  sampler.join();
  return {before, peak.load()};
}

}  // namespace

TEST(FleetOnReactor, AnswersMatchTheBlockingWrapperForEveryKindAndASweep) {
  Backend a, b;
  FleetFrontDoor::Options door_options;
  door_options.scatter.min_trials = 4;
  door_options.scatter.max_ways = 2;
  FleetOnServer fleet(router_options({a.start(), b.start()}), door_options);

  std::vector<Json> queries;
  queries.push_back(query("bandwidth", "Mesh2", 1024));
  Json estimate = query("estimate", "Ring", 16);
  estimate["trials"] = 2;  // below min_trials: routed whole
  estimate["seed"] = 11;
  queries.push_back(estimate);
  Json max_host = query("max_host", "Tree", 4096);
  max_host["host"] = "Mesh2";
  queries.push_back(max_host);
  Json bounds = query("bounds", "XTree", 256);
  bounds["host"] = "Butterfly";
  bounds["m"] = 64;
  queries.push_back(bounds);
  Json sweep = query("estimate", "Mesh2", 64);
  sweep["trials"] = 4;  // at min_trials: scattered two ways
  sweep["seed"] = 5;
  queries.push_back(sweep);

  for (const Json& q : queries) {
    const std::string line = q.dump();
    bool shutdown = false;
    const std::string warm = fleet.door.handle_line(line, &shutdown);
    parse_ok(warm);
    const std::string socket = ask(fleet.port(), line);
    const std::string direct = fleet.door.handle_line(line, &shutdown);
    EXPECT_EQ(without_micros(socket), without_micros(direct)) << line;
    const Json doc = parse_ok(socket);
    EXPECT_TRUE(doc["cache_hit"].as_bool()) << socket;
    if (q["trials"].as_uint() == 4) {
      EXPECT_EQ(doc["scattered"].as_uint(), 2u) << socket;
    } else {
      EXPECT_TRUE(doc["served_by"].is_string()) << socket;
    }
  }
}

TEST(FleetOnReactor, AStoppedBackendFailsOver) {
  Backend a, b;
  FleetOnServer fleet(router_options({a.start(), b.start()}));
  const Json q = owned_by(fleet.router, 0, 2048);

  const Json first = parse_ok(ask(fleet.port(), q.dump()));
  EXPECT_EQ(first["served_by"].as_string(),
            fleet.router.options().backends[0].id);

  a.server->stop();
  for (int i = 0; i < 3; ++i) {
    const Json again = parse_ok(ask(fleet.port(), q.dump()));
    EXPECT_EQ(again["served_by"].as_string(),
              fleet.router.options().backends[1].id);
    EXPECT_EQ(again["result"].dump(), first["result"].dump());
  }
  EXPECT_GE(fleet.router.stats().failovers, 1u);
}

TEST(FleetOnReactor, ASilentBackendTimesOutWhileTheShardKeepsServing) {
  // Backend 0 accepts connections (the kernel completes them in its
  // backlog) but never reads or answers a byte.
  const int silent = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(silent, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(silent, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(silent, 16), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(
      ::getsockname(silent, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t silent_port = ntohs(addr.sin_port);

  Backend live;
  auto options = router_options({silent_port, live.start()});
  options.client.max_attempts = 1;
  options.client.attempt_timeout_ms = 300;
  // One shard: the stuck race and the other connection share it.
  FleetOnServer fleet(options, {}, /*io_threads=*/1);
  const Json stuck = owned_by(fleet.router, 0, 3000);
  const Json quick = owned_by(fleet.router, 1, 4000);

  const auto t0 = Clock::now();
  std::string stuck_answer;
  double stuck_ms = 0.0;
  std::thread waiter([&] {
    stuck_answer = ask(fleet.port(), stuck.dump());
    stuck_ms = ms_since(t0);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  auto client = connect_client(fleet.port());
  for (int i = 0; i < 5; ++i) {
    std::string response;
    const auto asked = Clock::now();
    ASSERT_TRUE(client->request_raw(quick.dump(), response));
    EXPECT_LT(ms_since(asked), 200.0) << "the shard stalled behind the race";
    EXPECT_EQ(parse_ok(response)["served_by"].as_string(),
              fleet.router.options().backends[1].id);
  }
  const double quick_done_ms = ms_since(t0);
  waiter.join();

  // The silent backend's attempt timed out and the race failed over.
  const Json doc = parse_ok(stuck_answer);
  EXPECT_EQ(doc["served_by"].as_string(),
            fleet.router.options().backends[1].id);
  EXPECT_GE(stuck_ms, 290.0);
  EXPECT_LT(quick_done_ms, stuck_ms);
  const FleetRouter::Stats stats = fleet.router.stats();
  EXPECT_GE(stats.backends[0].transport_failures, 1u);
  EXPECT_GE(stats.failovers, 1u);
  ::close(silent);
}

TEST(FleetOnReactor, DrainLetsRacesInFlightLand) {
  Backend slow(slow_echo(250, 4));
  Backend fast(fast_echo());
  FleetOnServer fleet(router_options({slow.start(), fast.start()}));

  constexpr int kInFlight = 4;
  std::vector<std::string> answers(kInFlight);
  std::vector<std::thread> callers;
  for (int i = 0; i < kInFlight; ++i) {
    const Json q = owned_by(fleet.router, 0, 5000 + 100 * i);
    callers.emplace_back(
        [&, i, line = q.dump()] { answers[i] = ask(fleet.port(), line); });
  }
  // Once every race waits on the slow backend, ask the fleet to drain.
  const auto until = Clock::now() + std::chrono::seconds(5);
  while (fleet.router.inflight() < kInFlight && Clock::now() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(fleet.router.inflight(), static_cast<std::size_t>(kInFlight));
  const Json ack = parse_ok(ask(fleet.port(), R"({"op":"drain"})"));
  EXPECT_TRUE(ack["result"]["draining"].as_bool());
  EXPECT_TRUE(fleet.drain_requested.load());

  const std::chrono::milliseconds took = drain_front_door(
      *fleet.server, fleet.router, std::chrono::milliseconds(3000));
  for (auto& t : callers) t.join();
  EXPECT_LT(took.count(), 3000);
  for (const std::string& answer : answers) {
    EXPECT_EQ(parse_ok(answer)["served_by"].as_string(),
              fleet.router.options().backends[0].id);
  }
  EXPECT_EQ(fleet.router.inflight(), 0u);
  // The listener is gone.
  Client late;
  EXPECT_FALSE(late.connect(fleet.server->port()));
}

TEST(FleetThreads, HedgedAndScatteredBurstsAddNoThread) {
  // (a) 32 concurrent requests whose primary is a backend slower than the
  // hedge deadline: every one fires a hedge, and each winner a cancel at
  // the loser.
  Backend slow(slow_echo(60, 4));
  Backend fast(fast_echo());
  auto hedged_options = router_options({slow.start(), fast.start()});
  hedged_options.hedge = true;
  hedged_options.hedge_fixed_ms = 10;
  FleetOnServer hedged(hedged_options);

  // (b) 8 concurrent estimate sweeps at min_trials, each scattered two
  // ways over real compute.
  Backend c, d;
  FleetFrontDoor::Options door_options;
  door_options.scatter.min_trials = 4;
  door_options.scatter.max_ways = 2;
  FleetOnServer scattered(router_options({c.start(), d.start()}),
                          door_options);

  // Warm both paths once.
  parse_ok(ask(hedged.port(), owned_by(hedged.router, 0, 100).dump()));
  Json warm = query("estimate", "Mesh2", 64);
  warm["trials"] = 4;
  warm["seed"] = 1;
  parse_ok(ask(scattered.port(), warm.dump()));

  std::vector<std::string> lines, answers;
  for (int i = 0; i < 32; ++i) {
    lines.push_back(owned_by(hedged.router, 0, 1000 + 50 * i).dump());
  }
  const auto [hedged_before, hedged_peak] =
      burst_threads(hedged.port(), lines, answers);
  for (const std::string& answer : answers) parse_ok(answer);
  const FleetRouter::Stats hedge_stats = hedged.router.stats();
  EXPECT_GE(hedge_stats.hedges_fired, 16u);
  EXPECT_GE(hedge_stats.cancels_fired, 1u);
  EXPECT_LE(hedged_peak, hedged_before)
      << "hedged burst: " << hedged_before << " threads before, peak "
      << hedged_peak;

  lines.clear();
  for (int i = 0; i < 8; ++i) {
    Json sweep = query("estimate", "Mesh2", 64);
    sweep["trials"] = 4;
    sweep["seed"] = 100 + i;
    lines.push_back(sweep.dump());
  }
  const auto [scatter_before, scatter_peak] =
      burst_threads(scattered.port(), lines, answers);
  for (const std::string& answer : answers) {
    EXPECT_EQ(parse_ok(answer)["scattered"].as_uint(), 2u) << answer;
  }
  EXPECT_LE(scatter_peak, scatter_before)
      << "scattered burst: " << scatter_before << " threads before, peak "
      << scatter_peak;
}
