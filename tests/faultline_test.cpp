// Tests for netemu::faultline and the resilience it forces on the service
// stack: deterministic fault plans, channel behavior under partial I/O and
// drops, crash-safe cache persistence (torn-write sweep, checksum
// quarantine), the executor watchdog + serve-stale + shedding hints, client
// retries, the health op, and a miniature multi-seed chaos soak.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "netemu/faultline/fault_plan.hpp"
#include "netemu/faultline/injector.hpp"
#include "netemu/service/client.hpp"
#include "netemu/service/executor.hpp"
#include "netemu/service/protocol.hpp"
#include "netemu/service/query.hpp"
#include "netemu/service/result_cache.hpp"
#include "netemu/service/server.hpp"
#include "netemu/util/json.hpp"
#include "netemu/util/thread_pool.hpp"

namespace netemu {
namespace {

// ---------------------------------------------------------- fault plans --

TEST(FaultPlan, SpecRoundTrip) {
  FaultPlan plan;
  plan.seed = 42;
  plan.drop_p = 0.02;
  plan.partial_p = 0.3;
  plan.slow_p = 0.1;
  plan.slow_ms = 2;
  plan.disk_fail_p = 0.2;
  plan.torn_p = 0.25;
  plan.stall_p = 0.05;
  plan.stall_ms = 20;

  std::string error;
  const auto parsed = FaultPlan::parse(plan.spec(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->spec(), plan.spec());
  EXPECT_EQ(parsed->seed, 42u);
  EXPECT_DOUBLE_EQ(parsed->partial_p, 0.3);
  EXPECT_EQ(parsed->stall_ms, 20u);
  EXPECT_TRUE(parsed->enabled());
}

TEST(FaultPlan, DefaultsAreAllDisabled) {
  const auto plan = FaultPlan::parse("seed=7");
  ASSERT_TRUE(plan.has_value());
  EXPECT_FALSE(plan->enabled());
  EXPECT_EQ(plan->spec(), "seed=7");
}

TEST(FaultPlan, ParseRejectsMalformedSpecs) {
  std::string error;
  EXPECT_FALSE(FaultPlan::parse("drop", &error));
  EXPECT_FALSE(FaultPlan::parse("nope=0.5", &error));
  EXPECT_FALSE(FaultPlan::parse("drop=1.5", &error));   // p > 1
  EXPECT_FALSE(FaultPlan::parse("drop=-0.1", &error));  // p < 0
  EXPECT_FALSE(FaultPlan::parse("drop=abc", &error));
  EXPECT_FALSE(FaultPlan::parse("drop=0.1:5", &error));  // no duration
  EXPECT_FALSE(FaultPlan::parse("slow=0.1:x", &error));
  EXPECT_FALSE(FaultPlan::parse("seed=notanumber", &error));
  EXPECT_FALSE(error.empty());
}

TEST(FaultPlan, ForSeedIsDeterministicAndEnabled) {
  const FaultPlan a = FaultPlan::for_seed(11);
  const FaultPlan b = FaultPlan::for_seed(11);
  const FaultPlan c = FaultPlan::for_seed(12);
  EXPECT_EQ(a.spec(), b.spec());
  EXPECT_NE(a.spec(), c.spec());
  EXPECT_TRUE(a.enabled());
  EXPECT_GT(a.torn_p, 0.0);
  EXPECT_GT(a.drop_p, 0.0);
}

TEST(FaultInjector, SameSeedSameFaultSequence) {
  auto plan = FaultPlan::parse("seed=5,drop=0.1,partial=0.5");
  ASSERT_TRUE(plan.has_value());
  const auto sequence = [&] {
    FaultInjector injector(*plan);
    std::vector<std::size_t> out;
    for (int i = 0; i < 200; ++i) {
      std::size_t len = 4096;
      const auto fault = injector.on_io(len);
      out.push_back(fault == FaultInjector::IoFault::kDrop ? 0 : len);
    }
    return out;
  };
  EXPECT_EQ(sequence(), sequence());
  FaultInjector injector(*plan);
  for (int i = 0; i < 200; ++i) {
    std::size_t len = 4096;
    injector.on_io(len);
  }
  const auto counts = injector.counts();
  EXPECT_GT(counts.drops, 0u);
  EXPECT_GT(counts.shorts, 0u);
}

// -------------------------------------------------------- line channels --

struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~SocketPair() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
  void close_first() {
    ::close(fds[0]);
    fds[0] = -1;
  }
};

TEST(LineChannel, SurvivesInjectedPartialIo) {
  auto plan = FaultPlan::parse("seed=3,partial=0.9");
  ASSERT_TRUE(plan.has_value());
  FaultInjector injector(*plan);

  SocketPair pair;
  LineChannel writer(pair.fds[0]);
  LineChannel reader(pair.fds[1]);
  writer.set_fault_injector(&injector);
  reader.set_fault_injector(&injector);

  // Lines long enough that the 1..16-byte short transfers shred them into
  // many partial reads and writes.
  std::vector<std::string> lines;
  for (int i = 0; i < 20; ++i) {
    lines.push_back("line-" + std::to_string(i) + "-" +
                    std::string(200 + i * 7, 'x'));
  }
  std::thread sender([&] {
    for (const auto& line : lines) ASSERT_TRUE(writer.write_line(line));
  });
  std::string got;
  for (const auto& line : lines) {
    ASSERT_EQ(reader.read_line_status(got), LineChannel::Status::kOk);
    EXPECT_EQ(got, line);
  }
  sender.join();
  EXPECT_GT(injector.counts().shorts, 0u);
}

TEST(LineChannel, ZeroByteReadAtBoundaryIsCleanEof) {
  SocketPair pair;
  LineChannel writer(pair.fds[0]);
  LineChannel reader(pair.fds[1]);
  ASSERT_TRUE(writer.write_line("complete"));
  pair.close_first();

  std::string line;
  EXPECT_EQ(reader.read_line_status(line), LineChannel::Status::kOk);
  EXPECT_EQ(line, "complete");
  EXPECT_EQ(reader.read_line_status(line), LineChannel::Status::kEof);
}

TEST(LineChannel, EofMidLineIsAnError) {
  SocketPair pair;
  LineChannel reader(pair.fds[1]);
  ASSERT_GT(::write(pair.fds[0], "torn-request-no-newline", 23), 0);
  pair.close_first();

  std::string line;
  EXPECT_EQ(reader.read_line_status(line), LineChannel::Status::kError);
}

TEST(LineChannel, OverlongLineIsCappedAndStreamResyncs) {
  SocketPair pair;
  LineChannel writer(pair.fds[0]);
  LineChannel reader(pair.fds[1]);

  std::thread sender([&] {
    ASSERT_TRUE(writer.write_line(std::string(5000, 'a')));
    ASSERT_TRUE(writer.write_line("after"));
  });
  std::string line;
  EXPECT_EQ(reader.read_line_status(line, /*max_line=*/64),
            LineChannel::Status::kTooLong);
  // Bounded memory: the oversized payload was discarded, not buffered.
  EXPECT_TRUE(line.empty());
  EXPECT_EQ(reader.read_line_status(line, /*max_line=*/64),
            LineChannel::Status::kOk);
  EXPECT_EQ(line, "after");
  sender.join();
}

TEST(LineChannel, InjectedDropReadsAsError) {
  auto plan = FaultPlan::parse("seed=1,drop=1");
  ASSERT_TRUE(plan.has_value());
  FaultInjector injector(*plan);
  SocketPair pair;
  LineChannel writer(pair.fds[0]);
  LineChannel reader(pair.fds[1]);
  ASSERT_TRUE(writer.write_line("hello"));
  reader.set_fault_injector(&injector);
  std::string line;
  EXPECT_EQ(reader.read_line_status(line), LineChannel::Status::kError);
  EXPECT_EQ(injector.counts().drops, 1u);
}

// -------------------------------------------------- crash-safe cache --

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(ResultCacheFaults, TornWriteSweepRecoversEveryIntactEntry) {
  const std::string path = temp_path("netemu_torn_sweep.json");
  std::remove(path.c_str());

  // Varied value lengths so tears land at interesting offsets.
  std::vector<std::pair<std::uint64_t, std::string>> entries;
  for (std::uint64_t i = 1; i <= 5; ++i) {
    entries.emplace_back(
        i, R"({"beta":)" + std::to_string(i) + R"(,"pad":")" +
               std::string(10 * static_cast<std::size_t>(i), 'v') + R"("})");
  }
  {
    ResultCache cache(8, path);
    // Insert cold-to-hot so the file order (hot->cold) is 5,4,3,2,1.
    for (const auto& [key, value] : entries) cache.put(key, value);
    ASSERT_TRUE(cache.save());
  }
  const std::string file = read_file(path);
  ASSERT_FALSE(file.empty());

  // A line's entry is recoverable once all its content bytes are present
  // (the trailing '\n' itself is not required: a torn tail that happens to
  // end exactly at the line's last byte still verifies).
  std::vector<std::size_t> content_ends;  // per entry line, skip header
  std::size_t line_start = file.find('\n') + 1;
  const std::size_t header_end = line_start;
  while (line_start < file.size()) {
    std::size_t nl = file.find('\n', line_start);
    if (nl == std::string::npos) nl = file.size();
    content_ends.push_back(nl);
    line_start = nl + 1;
  }
  ASSERT_EQ(content_ends.size(), entries.size());

  const std::string truncated = temp_path("netemu_torn_sweep_cut.json");
  for (std::size_t cut = 0; cut <= file.size(); ++cut) {
    write_file(truncated, file.substr(0, cut));
    ResultCache reloaded(8, truncated);
    const bool loaded = reloaded.load();  // must never crash or throw
    std::size_t expected = 0;
    for (const std::size_t end : content_ends) expected += (end <= cut);
    if (cut < header_end - 1) {
      // Not even the header's content bytes survived.
      EXPECT_FALSE(loaded) << "cut=" << cut;
      continue;
    }
    ASSERT_TRUE(loaded) << "cut=" << cut;
    EXPECT_EQ(reloaded.size(), expected) << "cut=" << cut;
    // Whatever was recovered must be byte-identical to the original.
    for (const auto& [key, value] : entries) {
      const auto got = reloaded.get(key);
      if (got) {
        EXPECT_EQ(*got, value) << "cut=" << cut;
      }
    }
  }
  std::remove(path.c_str());
  std::remove(truncated.c_str());
}

TEST(ResultCacheFaults, CorruptedEntryIsQuarantinedOthersLoad) {
  const std::string path = temp_path("netemu_corrupt_entry.json");
  std::remove(path.c_str());
  {
    ResultCache cache(8, path);
    cache.put(0xaa, R"({"value":1})");
    cache.put(0xbb, R"({"value":2})");
    cache.put(0xcc, R"({"value":3})");
    ASSERT_TRUE(cache.save());
  }
  std::string file = read_file(path);
  // Flip one byte inside the middle entry's value.
  const std::size_t pos = file.find("\"value\\\":2");
  ASSERT_NE(pos, std::string::npos);
  file[pos + 9] = '7';
  write_file(path, file);

  ResultCache reloaded(8, path);
  EXPECT_TRUE(reloaded.load());
  EXPECT_EQ(reloaded.size(), 2u);
  EXPECT_EQ(reloaded.corrupt_entries(), 1u);
  EXPECT_TRUE(reloaded.get(0xaa).has_value());
  EXPECT_FALSE(reloaded.get(0xbb).has_value());
  EXPECT_TRUE(reloaded.get(0xcc).has_value());
  std::remove(path.c_str());
}

TEST(ResultCacheFaults, V1FormatStillLoads) {
  const std::string path = temp_path("netemu_v1_compat.json");
  write_file(path,
             R"({"entries":[{"key":"00000000000000aa","value":"{\"v\":1}"},)"
             R"({"key":"00000000000000bb","value":"{\"v\":2}"}],)"
             R"("format":"netemu-result-cache-v1"})"
             "\n");
  ResultCache cache(8, path);
  EXPECT_TRUE(cache.load());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.get(0xaa).value(), R"({"v":1})");
  std::remove(path.c_str());
}

TEST(ResultCacheFaults, InjectedDiskFailureLeavesOldFileIntact) {
  const std::string path = temp_path("netemu_disk_fail.json");
  std::remove(path.c_str());
  {
    ResultCache cache(8, path);
    cache.put(1, "stable");
    ASSERT_TRUE(cache.save());
  }
  const std::string before = read_file(path);

  auto plan = FaultPlan::parse("seed=1,disk_fail=1");
  ASSERT_TRUE(plan.has_value());
  FaultInjector injector(*plan);
  ResultCache cache(8, path);
  cache.set_fault_injector(&injector);
  cache.put(2, "newer");
  EXPECT_FALSE(cache.save());
  EXPECT_EQ(cache.save_failures(), 1u);
  EXPECT_EQ(read_file(path), before);  // clean failure: no file change
  std::remove(path.c_str());
}

TEST(ResultCacheFaults, InjectedTornWriteIsRecoverable) {
  const std::string path = temp_path("netemu_torn_inject.json");
  std::remove(path.c_str());
  auto plan = FaultPlan::parse("seed=9,torn=1");
  ASSERT_TRUE(plan.has_value());
  FaultInjector injector(*plan);
  {
    ResultCache cache(8, path);
    cache.set_fault_injector(&injector);
    for (std::uint64_t i = 1; i <= 20; ++i) {
      cache.put(i, R"({"payload":")" + std::string(50, 'p') + R"("})");
    }
    EXPECT_FALSE(cache.save());  // torn: file truncated mid-write
    EXPECT_EQ(injector.counts().torn_writes, 1u);
  }
  ResultCache reloaded(32, path);
  reloaded.load();  // must not crash; recovers the intact prefix
  EXPECT_LT(reloaded.size(), 20u);
  std::remove(path.c_str());
}

// ------------------------------------------------------ executor faults --

Query bandwidth_query(double n) {
  Query q;
  q.kind = QueryKind::kBandwidth;
  q.family = Family::kMesh;
  q.k = 2;
  q.n = n;
  return q;
}

TEST(ExecutorFaults, WatchdogCancelsHungFlightAndFreesSlot) {
  auto gate = std::make_shared<std::promise<void>>();
  auto gate_future =
      std::make_shared<std::shared_future<void>>(gate->get_future());
  auto calls = std::make_shared<std::atomic<int>>(0);
  QueryExecutor::Options options;
  options.threads = 2;
  options.max_queue = 1;
  options.hang_timeout_ms = 60;
  options.compute = [gate_future, calls](const Query& q, const CancelToken&) {
    if (calls->fetch_add(1) == 0) gate_future->wait();  // first call hangs
    Json doc = Json::object();
    doc["n"] = q.n;
    return doc;
  };
  QueryExecutor executor(std::move(options));

  Query hung = bandwidth_query(64);
  hung.deadline_ms = 5000;
  const auto start = std::chrono::steady_clock::now();
  const Response r = executor.execute(hung);
  const auto elapsed = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("hung"), std::string::npos) << r.error;
  EXPECT_LT(elapsed, 2000.0);  // the watchdog beat the 5s deadline
  EXPECT_EQ(executor.stats().hung, 1u);

  // The admission slot was freed: with max_queue=1 a new query is accepted.
  EXPECT_EQ(executor.pending(), 0u);
  const Response next = executor.execute(bandwidth_query(128));
  EXPECT_TRUE(next.ok) << next.error;

  // The stuck computation still completes and still fills the cache.
  gate->set_value();
  for (int i = 0; i < 200; ++i) {
    if (executor.cache().get(hung.cache_key())) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(executor.cache().get(hung.cache_key()).has_value());
}

TEST(ExecutorFaults, RefreshBypassesCacheAndRecomputes) {
  auto calls = std::make_shared<std::atomic<int>>(0);
  QueryExecutor::Options options;
  options.threads = 1;
  options.compute = [calls](const Query&, const CancelToken&) {
    Json doc = Json::object();
    doc["call"] = calls->fetch_add(1) + 1;
    return doc;
  };
  QueryExecutor executor(std::move(options));

  const Query q = bandwidth_query(64);
  EXPECT_TRUE(executor.execute(q).ok);
  EXPECT_TRUE(executor.execute(q).cache_hit);

  Query fresh = q;
  fresh.refresh = true;
  const Response r = executor.execute(fresh);
  EXPECT_TRUE(r.ok);
  EXPECT_FALSE(r.cache_hit);
  EXPECT_EQ(r.result, R"({"call":2})");
  EXPECT_EQ(calls->load(), 2);
  // The refreshed value replaced the cached one.
  EXPECT_EQ(executor.execute(q).result, R"({"call":2})");
}

TEST(ExecutorFaults, FailedRecomputeServesStale) {
  auto fail = std::make_shared<std::atomic<bool>>(false);
  QueryExecutor::Options options;
  options.threads = 1;
  options.compute = [fail](const Query&, const CancelToken&) -> Json {
    if (fail->load()) throw std::runtime_error("planner fault");
    Json doc = Json::object();
    doc["fresh"] = true;
    return doc;
  };
  QueryExecutor executor(std::move(options));

  const Query q = bandwidth_query(64);
  ASSERT_TRUE(executor.execute(q).ok);

  fail->store(true);
  Query refresh = q;
  refresh.refresh = true;
  const Response r = executor.execute(refresh);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.stale);
  EXPECT_EQ(r.result, R"({"fresh":true})");
  const auto s = executor.stats();
  EXPECT_EQ(s.stale_served, 1u);
  EXPECT_EQ(s.errors, 1u);

  // The stale marker survives serialization.
  const std::string line = response_to_line(r);
  EXPECT_NE(line.find(R"("stale":true)"), std::string::npos) << line;
}

TEST(ExecutorFaults, ShedResponseCarriesRetryAfterHint) {
  auto started = std::make_shared<std::promise<void>>();
  auto gate = std::make_shared<std::promise<void>>();
  auto gate_future =
      std::make_shared<std::shared_future<void>>(gate->get_future());
  QueryExecutor::Options options;
  options.threads = 1;
  options.max_queue = 1;
  options.retry_after_hint_ms = 75;
  options.compute = [started, gate_future](const Query&, const CancelToken&) {
    started->set_value();
    gate_future->wait();
    return Json::object();
  };
  QueryExecutor executor(std::move(options));

  std::thread leader([&executor] { executor.execute(bandwidth_query(64)); });
  started->get_future().wait();

  const Response shed = executor.execute(bandwidth_query(128));
  EXPECT_FALSE(shed.ok);
  EXPECT_TRUE(shed.overloaded);
  EXPECT_EQ(shed.retry_after_ms, 75u);
  const std::string line = response_to_line(shed);
  EXPECT_NE(line.find(R"("overloaded":true)"), std::string::npos) << line;
  EXPECT_NE(line.find(R"("retry_after_ms":75)"), std::string::npos) << line;

  gate->set_value();
  leader.join();
}

TEST(ExecutorFaults, InjectedWorkerStallsAreAbsorbed) {
  auto plan = FaultPlan::parse("seed=2,stall=1:1");
  ASSERT_TRUE(plan.has_value());
  FaultInjector injector(*plan);
  QueryExecutor::Options options;
  options.threads = 2;
  options.faults = &injector;
  options.compute = [](const Query& q, const CancelToken&) {
    Json doc = Json::object();
    doc["n"] = q.n;
    return doc;
  };
  QueryExecutor executor(std::move(options));
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(executor.execute(bandwidth_query(64 + i)).ok);
  }
  EXPECT_EQ(injector.counts().stalls, 10u);
}

// ------------------------------------------------------------ protocol --

TEST(Protocol, HealthReportsPoolCacheAndShedState) {
  QueryExecutor::Options options;
  options.threads = 2;
  options.max_queue = 16;
  options.retry_after_hint_ms = 33;
  options.compute = [](const Query&, const CancelToken&) { return Json::object(); };
  QueryExecutor executor(std::move(options));
  ASSERT_TRUE(executor.execute(bandwidth_query(64)).ok);

  const Json doc = Json::parse(handle_request_line(R"({"op":"health"})",
                                                   executor));
  ASSERT_TRUE(doc["ok"].as_bool());
  const Json& result = doc["result"];
  EXPECT_EQ(result["status"].as_string(), "ok");
  EXPECT_GE(result["uptime_s"].as_number(), 0.0);
  EXPECT_EQ(result["pool"]["threads"].as_int(), 2);
  EXPECT_EQ(result["pool"]["max_queue"].as_int(), 16);
  EXPECT_EQ(result["pool"]["pending"].as_int(), 0);
  EXPECT_EQ(result["cache"]["size"].as_int(), 1);
  EXPECT_EQ(result["cache"]["corrupt_entries"].as_int(), 0);
  EXPECT_FALSE(result["cache"]["persistent"].as_bool());
  EXPECT_EQ(result["shed"]["retry_after_ms"].as_int(), 33);
  EXPECT_EQ(result["flights"]["active"].as_int(), 0);
  EXPECT_EQ(result["flights"]["hung"].as_int(), 0);
}

TEST(Protocol, OverlongRequestLineGetsProtocolErrorAndConnectionSurvives) {
  QueryExecutor::Options options;
  options.compute = [](const Query&, const CancelToken&) { return Json::object(); };
  QueryExecutor executor(std::move(options));
  Server::Options server_options;
  server_options.port = 0;
  server_options.max_line = 256;
  Server server(executor_line_handler(executor), server_options);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.connect(server.port(), &error)) << error;

  std::string response;
  ASSERT_TRUE(client.request_raw(std::string(1000, 'z'), response));
  EXPECT_NE(response.find("protocol_error"), std::string::npos) << response;

  // Same connection, next request still works.
  ASSERT_TRUE(client.request_raw(R"({"op":"ping"})", response));
  EXPECT_NE(response.find(R"("pong":true)"), std::string::npos) << response;
  server.stop();
}

// ------------------------------------------------------- client retries --

TEST(ClientRetry, SurvivesServerSideConnectionDrops) {
  auto plan = FaultPlan::parse("seed=21,drop=0.15");
  ASSERT_TRUE(plan.has_value());
  FaultInjector injector(*plan);

  QueryExecutor::Options options;
  options.threads = 2;
  options.compute = [](const Query& q, const CancelToken&) {
    Json doc = Json::object();
    doc["n"] = q.n;
    return doc;
  };
  QueryExecutor executor(std::move(options));
  Server::Options server_options;
  server_options.port = 0;
  server_options.faults = &injector;
  Server server(executor_line_handler(executor), server_options);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client::RetryPolicy policy;
  policy.max_attempts = 12;
  policy.base_backoff_ms = 1;
  policy.max_backoff_ms = 20;
  policy.jitter_seed = 77;
  Client client(policy);
  ASSERT_TRUE(client.connect(server.port(), &error)) << error;

  for (int i = 0; i < 40; ++i) {
    Json q = Json::object();
    q["op"] = "bandwidth";
    q["family"] = "Mesh";
    q["k"] = 2;
    q["n"] = 1000 + i;
    const auto doc = client.request(q, &error);
    ASSERT_TRUE(doc.has_value()) << error << " at i=" << i;
    EXPECT_TRUE((*doc)["ok"].as_bool()) << (*doc)["error"].as_string();
    EXPECT_DOUBLE_EQ((*doc)["result"]["n"].as_number(), 1000 + i);
  }
  EXPECT_GT(injector.counts().drops, 0u);
  EXPECT_GT(client.retries(), 0u);
  server.stop();
}

TEST(ClientRetry, HonorsOverloadedRetryAfterHint) {
  auto started = std::make_shared<std::promise<void>>();
  auto gate = std::make_shared<std::promise<void>>();
  auto gate_future =
      std::make_shared<std::shared_future<void>>(gate->get_future());
  auto first = std::make_shared<std::atomic<bool>>(true);
  QueryExecutor::Options options;
  options.threads = 1;
  options.max_queue = 1;
  options.retry_after_hint_ms = 20;
  options.compute = [started, gate_future, first](const Query& q, const CancelToken&) {
    if (first->exchange(false)) {
      started->set_value();
      gate_future->wait();
    }
    Json doc = Json::object();
    doc["n"] = q.n;
    return doc;
  };
  QueryExecutor executor(std::move(options));
  Server::Options server_options;
  server_options.port = 0;
  Server server(executor_line_handler(executor), server_options);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Occupy the single admission slot with a gated query.
  std::thread occupier([&server] {
    Client c;
    ASSERT_TRUE(c.connect(server.port()));
    std::string response;
    ASSERT_TRUE(c.request_raw(
        R"({"op":"bandwidth","family":"Mesh","k":2,"n":64})", response));
  });
  started->get_future().wait();

  // Release the gate shortly after the retrying client's first shed.
  std::thread releaser([&gate] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    gate->set_value();
  });

  Client::RetryPolicy policy;
  policy.max_attempts = 10;
  policy.base_backoff_ms = 5;
  policy.max_backoff_ms = 50;
  policy.jitter_seed = 5;
  Client client(policy);
  ASSERT_TRUE(client.connect(server.port(), &error)) << error;
  Json q = Json::object();
  q["op"] = "bandwidth";
  q["family"] = "Mesh";
  q["k"] = 2;
  q["n"] = 128;
  const auto doc = client.request(q, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_TRUE((*doc)["ok"].as_bool()) << (*doc)["error"].as_string();
  EXPECT_GE(client.retries(), 1u);
  EXPECT_GE(executor.stats().rejected, 1u);

  occupier.join();
  releaser.join();
  server.stop();
}

// ----------------------------------------------------------- thread pool --

TEST(ThreadPoolFaults, EscapingTaskExceptionIsSwallowedAndCounted) {
  ThreadPool pool(2);
  ASSERT_TRUE(pool.submit([] { throw std::runtime_error("buggy task"); }));
  ASSERT_TRUE(pool.submit([] {}));
  pool.wait_idle();
  EXPECT_EQ(pool.dropped_exceptions(), 1u);
  EXPECT_EQ(pool.pending(), 0u);
}

// ------------------------------------------------------------ mini soak --

// A compressed `bench/soak --scenario faults`: a few seeds, every fault kind
// enabled, retrying clients, response-content verification (catches lost,
// duplicated, or cross-wired responses), and a post-crash cache reload.
TEST(ChaosSoak, MultiSeedRoundTripsLoseNothing) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    FaultPlan plan = FaultPlan::for_seed(seed);
    plan.slow_ms = 1;
    plan.stall_ms = 1;
    FaultInjector injector(plan);

    const std::string cache_path =
        temp_path("netemu_chaos_" + std::to_string(seed) + ".json");
    std::remove(cache_path.c_str());
    {
      QueryExecutor::Options options;
      options.threads = 2;
      options.max_queue = 32;
      options.hang_timeout_ms = 2000;
      options.cache_file = cache_path;
      options.faults = &injector;
      options.compute = [](const Query& q, const CancelToken&) {
        Json doc = Json::object();
        doc["n"] = q.n;
        return doc;
      };
      QueryExecutor executor(std::move(options));
      Server::Options server_options;
      server_options.port = 0;
      server_options.faults = &injector;
      Server server(executor_line_handler(executor), server_options);
      std::string error;
      ASSERT_TRUE(server.start(&error)) << error;

      constexpr int kClients = 3;
      constexpr int kRequests = 25;
      std::atomic<int> mismatches{0};
      std::atomic<int> failures{0};
      std::vector<std::thread> threads;
      for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
          Client::RetryPolicy policy;
          policy.max_attempts = 12;
          policy.base_backoff_ms = 1;
          policy.max_backoff_ms = 20;
          policy.attempt_timeout_ms = 5000;
          policy.jitter_seed = seed * 100 + static_cast<std::uint64_t>(c);
          Client client(policy);
          client.set_fault_injector(&injector);
          if (!client.connect(server.port())) {
            failures.fetch_add(kRequests);
            return;
          }
          for (int i = 0; i < kRequests; ++i) {
            const double n =
                1000 + static_cast<double>(seed) * 10000 + c * 1000 + i;
            Json q = Json::object();
            q["op"] = "bandwidth";
            q["family"] = "Mesh";
            q["k"] = 2;
            q["n"] = n;
            const auto doc = client.request(q);
            if (!doc || !(*doc)["ok"].as_bool()) {
              failures.fetch_add(1);
            } else if ((*doc)["result"]["n"].as_number() != n) {
              // A mismatched echo means a lost, duplicated, or cross-wired
              // response — the soak's core invariant.
              mismatches.fetch_add(1);
            }
          }
        });
      }
      for (auto& t : threads) t.join();
      EXPECT_EQ(mismatches.load(), 0) << "seed=" << seed;
      EXPECT_EQ(failures.load(), 0) << "seed=" << seed;
      server.stop();
    }  // executor destructor persists the cache (possibly torn by faults)

    // The post-crash reload must never fail loudly: either the save failed
    // cleanly (no file) or every surviving entry is intact JSON.
    ResultCache reloaded(4096, cache_path);
    if (reloaded.load()) {
      EXPECT_GE(reloaded.size(), 0u);
    }
    EXPECT_GT(injector.counts().total(), 0u) << "seed=" << seed;
    std::remove(cache_path.c_str());
  }
}

}  // namespace
}  // namespace netemu
