// Unit tests for the service subsystem: JSON wire format, cache-key
// canonicalization, the LRU + disk result cache, the single-flight
// executor, and a loopback server/client round trip.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <thread>
#include <vector>

#include "netemu/bandwidth/theory.hpp"
#include "netemu/emulation/host_size.hpp"
#include "netemu/scope/metrics.hpp"
#include "netemu/service/client.hpp"
#include "netemu/service/executor.hpp"
#include "netemu/service/planner.hpp"
#include "netemu/service/protocol.hpp"
#include "netemu/service/query.hpp"
#include "netemu/service/result_cache.hpp"
#include "netemu/service/server.hpp"
#include "netemu/util/hash.hpp"
#include "netemu/util/json.hpp"

namespace netemu {
namespace {

// ---------------------------------------------------------------- JSON --

TEST(Json, ParseDumpRoundTrip) {
  const std::string text =
      R"({"a":[1,2.5,"x"],"b":{"nested":true},"c":null,"d":-3})";
  std::string error;
  const Json doc = Json::parse(text, &error);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_EQ(doc.dump(), text);
  EXPECT_DOUBLE_EQ(doc["a"].items()[1].as_number(), 2.5);
  EXPECT_TRUE(doc["b"]["nested"].as_bool());
  EXPECT_TRUE(doc["c"].is_null());
  EXPECT_EQ(doc["d"].as_int(), -3);
}

TEST(Json, ObjectKeysSerializeSorted) {
  const Json doc = Json::parse(R"({"zeta":1,"alpha":2,"mid":3})");
  EXPECT_EQ(doc.dump(), R"({"alpha":2,"mid":3,"zeta":1})");
}

TEST(Json, StringEscapes) {
  std::string error;
  const Json doc = Json::parse(R"({"s":"a\"b\\c\nAé"})", &error);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_EQ(doc["s"].as_string(), "a\"b\\c\nA\xc3\xa9");
  // Escapes survive a dump/reparse cycle.
  const Json again = Json::parse(doc.dump(), &error);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_EQ(again["s"].as_string(), doc["s"].as_string());
}

TEST(Json, IntegersDumpWithoutFraction) {
  Json doc = Json::object();
  doc["n"] = 1048576;
  doc["seed"] = std::uint64_t{123456789012345ULL};
  doc["x"] = 0.5;
  EXPECT_EQ(doc.dump(), R"({"n":1048576,"seed":123456789012345,"x":0.5})");
}

TEST(Json, RejectsMalformed) {
  std::string error;
  Json::parse("{\"a\":}", &error);
  EXPECT_FALSE(error.empty());
  Json::parse("[1,2", &error);
  EXPECT_FALSE(error.empty());
  Json::parse("{} trailing", &error);
  EXPECT_FALSE(error.empty());
}

// A daemon parses attacker-adjacent bytes straight off a socket, so the
// parser must reject — never mis-read, never crash on — every malformed
// shape we can think of.  Table-driven so new cases are one line.
TEST(Json, MalformedInputTable) {
  const struct {
    const char* text;
    const char* why;
  } kCases[] = {
      {"", "empty input"},
      {"   ", "whitespace only"},
      {"{", "unterminated object"},
      {"[", "unterminated array"},
      {"\"abc", "unterminated string"},
      {"{\"a\":1,}", "trailing comma in object"},
      {"[1,2,]", "trailing comma in array"},
      {"{\"a\" 1}", "missing colon"},
      {"{1:2}", "non-string key"},
      {"tru", "truncated literal true"},
      {"nul", "truncated literal null"},
      {"01", "leading zero"},
      {"+1", "leading plus"},
      {"-", "bare minus"},
      {"1.", "fraction without digits"},
      {".5", "bare leading dot"},
      {"1e", "exponent without digits"},
      {"1e+", "signed exponent without digits"},
      {"0x10", "hex number"},
      {"inf", "infinity literal"},
      {"nan", "nan literal"},
      {"{} x", "trailing garbage"},
      {"1 2", "two documents"},
      {"\"\\ud800\"", "unpaired high surrogate"},
      {"\"\\udc00\"", "unpaired low surrogate"},
      {"\"\\ud800\\u0041\"", "high surrogate followed by non-surrogate"},
      {"\"\\q\"", "unknown escape"},
      {"\"\\u12g4\"", "non-hex in unicode escape"},
      {"\"a\tb\"", "raw control character in string"},
  };
  for (const auto& c : kCases) {
    std::string error;
    const Json doc = Json::parse(c.text, &error);
    EXPECT_FALSE(error.empty()) << c.why << ": " << c.text;
    EXPECT_TRUE(doc.is_null()) << c.why << ": " << c.text;
  }
}

TEST(Json, DepthCapRejectsDeepNestingAcceptsShallow) {
  std::string deep;
  for (int i = 0; i < kJsonMaxDepth + 1; ++i) deep += '[';
  for (int i = 0; i < kJsonMaxDepth + 1; ++i) deep += ']';
  std::string error;
  Json::parse(deep, &error);
  EXPECT_FALSE(error.empty());

  std::string shallow;
  for (int i = 0; i < kJsonMaxDepth - 1; ++i) shallow += '[';
  for (int i = 0; i < kJsonMaxDepth - 1; ++i) shallow += ']';
  const Json ok = Json::parse(shallow, &error);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_TRUE(ok.is_array());
}

TEST(Json, StrictNumbersStillAcceptValidForms) {
  const struct {
    const char* text;
    double value;
  } kCases[] = {
      {"0", 0.0},           {"-0", 0.0},       {"10", 10.0},
      {"-3", -3.0},         {"0.5", 0.5},      {"1.25e2", 125.0},
      {"2E-2", 0.02},       {"1e3", 1000.0},
  };
  for (const auto& c : kCases) {
    std::string error;
    const Json doc = Json::parse(c.text, &error);
    EXPECT_TRUE(error.empty()) << c.text << ": " << error;
    EXPECT_DOUBLE_EQ(doc.as_number(), c.value) << c.text;
  }
}

TEST(Json, MutatingACopyNeverChangesTheOriginal) {
  const Json original =
      Json::parse(R"({"a":1,"list":[1,2],"nested":{"x":true}})");
  const std::string before = original.dump();

  Json copy = original;
  copy["a"] = 2;                      // set
  copy["added"] = "yes";              // insert
  copy.fields().erase("list");        // erase
  copy["nested"]["x"] = false;        // nested set
  copy["nested"]["y"] = 3;            // nested insert
  EXPECT_EQ(original.dump(), before);
  EXPECT_EQ(copy.dump(), R"({"a":2,"added":"yes","nested":{"x":false,"y":3}})");

  Json pushed = original;
  pushed["list"].items().push_back(3);  // array push
  EXPECT_EQ(original.dump(), before);
  EXPECT_EQ(pushed["list"].dump(), "[1,2,3]");

  // A copy of a copy detaches from both.
  Json again = pushed;
  again["list"].items().clear();
  EXPECT_EQ(pushed["list"].dump(), "[1,2,3]");
  EXPECT_EQ(again["list"].dump(), "[]");
  EXPECT_EQ(original.dump(), before);
}

TEST(Json, CopiesMutateOnTheirOwnThreadsWhileTheOriginalIsDumped) {
  // Two writers each edit their own copies of one parsed document while a
  // third thread dumps the original (TSan checks the sharing in CI).
  const Json original = Json::parse(
      R"({"trace":"0000000000000001","list":[1,2,3],"nested":{"n":1}})");
  const std::string before = original.dump();
  std::atomic<bool> writing{true};
  std::atomic<int> changed{0};
  std::thread reader([&] {
    while (writing.load()) {
      if (original.dump() != before) changed.fetch_add(1);
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&original, &changed, w] {
      for (int i = 0; i < 500; ++i) {
        Json copy = original;
        copy["trace"] = std::to_string(w);
        copy["nested"]["n"] = i;
        copy["list"].items().push_back(w);
        copy.fields().erase("trace");
        if (copy["nested"]["n"].as_int() != i ||
            copy["list"].items().size() != 4) {
          changed.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  writing.store(false);
  reader.join();
  EXPECT_EQ(changed.load(), 0);
  EXPECT_EQ(original.dump(), before);
}

// ----------------------------------------------------------- cache key --

Query must_parse(const std::string& text) {
  std::string error;
  const auto q = query_from_json(Json::parse(text), &error);
  EXPECT_TRUE(q.has_value()) << error << " for " << text;
  return *q;
}

TEST(CacheKey, FieldOrderInvariant) {
  const Query a = must_parse(
      R"({"op":"estimate","family":"Butterfly","n":64,"seed":7})");
  const Query b = must_parse(
      R"({"seed":7,"n":64,"family":"Butterfly","op":"estimate"})");
  EXPECT_EQ(a.cache_key(), b.cache_key());
}

TEST(CacheKey, DefaultsExplicitOrOmittedInvariant) {
  const Query spelled = must_parse(
      R"({"op":"estimate","family":"Butterfly","n":64,"seed":1,"trials":3,)"
      R"("router":"default","traffic":"symmetric",)"
      R"("arbitration":"farthest-first"})");
  const Query terse = must_parse(
      R"({"op":"estimate","family":"butterfly","n":64})");
  EXPECT_EQ(spelled.canonical_string(), terse.canonical_string());
  EXPECT_EQ(spelled.cache_key(), terse.cache_key());
}

TEST(CacheKey, FamilyNameCaseAndSuffix) {
  const Query suffixed =
      must_parse(R"({"op":"bandwidth","family":"mesh2","n":4096})");
  const Query explicit_k =
      must_parse(R"({"op":"bandwidth","family":"Mesh","k":2,"n":4096})");
  EXPECT_EQ(suffixed.cache_key(), explicit_k.cache_key());
}

TEST(CacheKey, GuestAliasMatchesFamily) {
  const Query guest = must_parse(
      R"({"op":"max_host","guest":"DeBruijn","host":"mesh2","n":1024})");
  const Query family = must_parse(
      R"({"op":"max_host","family":"DeBruijn","host":"Mesh","host_k":2,)"
      R"("n":1024})");
  EXPECT_EQ(guest.cache_key(), family.cache_key());
}

TEST(CacheKey, IrrelevantFieldsIgnoredPerKind) {
  // Seed cannot change a closed-form bandwidth lookup.
  const Query with_seed =
      must_parse(R"({"op":"bandwidth","family":"Tree","n":1024,"seed":99})");
  const Query without =
      must_parse(R"({"op":"bandwidth","family":"Tree","n":1024})");
  EXPECT_EQ(with_seed.cache_key(), without.cache_key());
  // deadline_ms is execution control, never part of the address.
  const Query slow = must_parse(
      R"({"op":"bandwidth","family":"Tree","n":1024,"deadline_ms":5})");
  EXPECT_EQ(slow.cache_key(), without.cache_key());
}

TEST(CacheKey, RelevantFieldsChangeKey) {
  const Query base =
      must_parse(R"({"op":"estimate","family":"Butterfly","n":64})");
  const Query other_seed =
      must_parse(R"({"op":"estimate","family":"Butterfly","n":64,"seed":2})");
  const Query other_n =
      must_parse(R"({"op":"estimate","family":"Butterfly","n":128})");
  const Query other_kind =
      must_parse(R"({"op":"bandwidth","family":"Butterfly","n":64})");
  EXPECT_NE(base.cache_key(), other_seed.cache_key());
  EXPECT_NE(base.cache_key(), other_n.cache_key());
  EXPECT_NE(base.cache_key(), other_kind.cache_key());
}

TEST(CacheKey, ParseRejectsBadRequests) {
  std::string error;
  EXPECT_FALSE(query_from_json(Json::parse(R"({"op":"nope"})"), &error));
  EXPECT_FALSE(query_from_json(
      Json::parse(R"({"op":"estimate","family":"NotAFamily"})"), &error));
  EXPECT_FALSE(query_from_json(
      Json::parse(R"({"op":"max_host","family":"Tree","n":64})"), &error));
  EXPECT_NE(error.find("host"), std::string::npos);
  EXPECT_FALSE(query_from_json(
      Json::parse(R"({"op":"estimate","family":"ccc3","n":64})"), &error));
  // A dimension suffix too large for unsigned must be a parse error, not a
  // std::stoul out_of_range crash.
  EXPECT_FALSE(query_from_json(
      Json::parse(
          R"({"op":"estimate","family":"mesh99999999999999999999","n":64})"),
      &error));
  EXPECT_NE(error.find("family"), std::string::npos);
  EXPECT_FALSE(query_from_json(
      Json::parse(R"({"op":"max_host","family":"tree","n":64,
                      "host":"mesh99999999999999999999"})"),
      &error));
}

TEST(CacheKey, Hex64RoundTrip) {
  const std::uint64_t v = 0xdeadbeef01234567ULL;
  EXPECT_EQ(hex64(v), "deadbeef01234567");
  std::uint64_t back = 0;
  EXPECT_TRUE(parse_hex64("deadbeef01234567", back));
  EXPECT_EQ(back, v);
  EXPECT_FALSE(parse_hex64("not-hex", back));
  EXPECT_FALSE(parse_hex64("", back));
}

// ----------------------------------------------------------- LRU cache --

TEST(ResultCache, LruEvictionAtCapacity) {
  ResultCache cache(3);
  cache.put(1, "one");
  cache.put(2, "two");
  cache.put(3, "three");
  cache.put(4, "four");  // evicts 1
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(cache.get(1).has_value());
  EXPECT_EQ(cache.get(2).value(), "two");
}

TEST(ResultCache, GetRefreshesRecency) {
  ResultCache cache(2);
  cache.put(1, "one");
  cache.put(2, "two");
  EXPECT_TRUE(cache.get(1).has_value());  // 1 now hot, 2 cold
  cache.put(3, "three");                  // evicts 2
  EXPECT_TRUE(cache.get(1).has_value());
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_TRUE(cache.get(3).has_value());
}

TEST(ResultCache, PutOverwritesInPlace) {
  ResultCache cache(2);
  cache.put(1, "old");
  cache.put(1, "new");
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.get(1).value(), "new");
}

TEST(ResultCache, DiskRoundTrip) {
  const std::string path =
      testing::TempDir() + "netemu_cache_roundtrip.json";
  std::remove(path.c_str());
  {
    ResultCache cache(8, path);
    cache.put(0x11, R"({"beta":1})");
    cache.put(0x22, R"({"beta":2})");
    EXPECT_TRUE(cache.save());
  }
  ResultCache reloaded(8, path);
  EXPECT_TRUE(reloaded.load());
  EXPECT_EQ(reloaded.size(), 2u);
  EXPECT_EQ(reloaded.get(0x11).value(), R"({"beta":1})");
  EXPECT_EQ(reloaded.get(0x22).value(), R"({"beta":2})");
  std::remove(path.c_str());
}

TEST(ResultCache, LoadPreservesRecencyOrder) {
  const std::string path = testing::TempDir() + "netemu_cache_order.json";
  std::remove(path.c_str());
  {
    ResultCache cache(8, path);
    cache.put(1, "a");
    cache.put(2, "b");
    cache.put(3, "c");
    cache.get(1);  // order hot->cold: 1, 3, 2
    EXPECT_TRUE(cache.save());
  }
  ResultCache reloaded(2, path);  // capacity below file size: cold 2 dropped
  EXPECT_TRUE(reloaded.load());
  EXPECT_EQ(reloaded.size(), 2u);
  EXPECT_TRUE(reloaded.get(1).has_value());
  EXPECT_TRUE(reloaded.get(3).has_value());
  EXPECT_FALSE(reloaded.get(2).has_value());
  std::remove(path.c_str());
}

TEST(ResultCache, LoadedEntriesNeverDisplaceLiveOnes) {
  const std::string path = testing::TempDir() + "netemu_cache_merge.json";
  std::remove(path.c_str());
  {
    ResultCache cache(8, path);
    cache.put(10, "file-a");
    cache.put(20, "file-b");
    EXPECT_TRUE(cache.save());
  }
  ResultCache merged(2, path);
  merged.put(30, "live");
  merged.put(10, "live-overrides-file");
  EXPECT_TRUE(merged.load());
  EXPECT_EQ(merged.get(30).value(), "live");
  EXPECT_EQ(merged.get(10).value(), "live-overrides-file");
  EXPECT_FALSE(merged.get(20).has_value());  // no room, not evicted for it
  std::remove(path.c_str());
}

TEST(ResultCache, LoadMissingOrMalformedFileFails) {
  ResultCache cache(4, testing::TempDir() + "netemu_cache_missing.json");
  EXPECT_FALSE(cache.load());
  const std::string bad = testing::TempDir() + "netemu_cache_bad.json";
  {
    std::ofstream out(bad);
    out << "not json at all";
  }
  ResultCache cache2(4, bad);
  EXPECT_FALSE(cache2.load());
  std::remove(bad.c_str());
}

// ------------------------------------------------------------ executor --

Query estimate_query(double n, std::uint64_t seed = 1) {
  Query q;
  q.kind = QueryKind::kEstimate;
  q.family = Family::kButterfly;
  q.n = n;
  q.seed = seed;
  return q;
}

TEST(Executor, SingleFlightDedup) {
  auto invocations = std::make_shared<std::atomic<int>>(0);
  QueryExecutor::Options options;
  options.threads = 2;
  options.compute = [invocations](const Query&, const CancelToken&) {
    invocations->fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    Json doc = Json::object();
    doc["value"] = 42;
    return doc;
  };
  QueryExecutor executor(std::move(options));

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<Response> responses(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&executor, &responses, i] {
      responses[static_cast<std::size_t>(i)] =
          executor.execute(estimate_query(64));
    });
  }
  for (auto& t : threads) t.join();

  // However the threads interleaved, the computation ran exactly once.
  EXPECT_EQ(invocations->load(), 1);
  for (const Response& r : responses) {
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.result, R"({"value":42})");
  }
  const QueryExecutor::Stats s = executor.stats();
  EXPECT_EQ(s.computed, 1u);
  EXPECT_EQ(s.requests, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(s.dedup_joins + s.cache_hits,
            static_cast<std::uint64_t>(kThreads - 1));
}

TEST(Executor, RequestAtFlightEndHitsTheCacheNotANewCompute) {
  // A request for a key whose leader is finishing must join the flight or
  // hit the cache, never miss both and compute the key again.  The guard's
  // clock hook runs inside Guard::complete(), which the leader calls once
  // its flight has left the single-flight map: a request issued from there
  // must already find the answer in the cache.
  auto computes = std::make_shared<std::atomic<int>>(0);
  std::atomic<bool> leader_computed{false};
  std::atomic<bool> fired{false};
  QueryExecutor* exec = nullptr;
  const Query q = estimate_query(64);
  Response follower_response;
  std::thread follower;

  QueryExecutor::Options options;
  options.threads = 1;
  options.guard.adaptive = false;
  options.guard.clock_ms = [&]() -> std::uint64_t {
    if (leader_computed.load() && !fired.exchange(true)) {
      auto answered = std::make_shared<std::promise<void>>();
      std::future<void> done = answered->get_future();
      follower = std::thread([&, answered] {
        follower_response = exec->execute(q);
        answered->set_value();
      });
      // The hook runs under the executor lock and the guard lock, and a
      // miss would block on both: give up waiting after 2 s and let the
      // leader finish.
      done.wait_for(std::chrono::seconds(2));
    }
    return 0;
  };
  options.compute = [&, computes](const Query&, const CancelToken&) {
    computes->fetch_add(1);
    leader_computed.store(true);
    Json doc = Json::object();
    doc["value"] = 7;
    return doc;
  };
  QueryExecutor executor(std::move(options));
  exec = &executor;

  const Response leader = executor.execute(q);
  ASSERT_TRUE(fired.load());
  follower.join();
  EXPECT_TRUE(leader.ok) << leader.error;
  EXPECT_TRUE(follower_response.ok) << follower_response.error;
  EXPECT_TRUE(follower_response.cache_hit);
  EXPECT_EQ(computes->load(), 1);
}

TEST(Executor, DistinctQueriesComputeIndependently) {
  auto invocations = std::make_shared<std::atomic<int>>(0);
  QueryExecutor::Options options;
  options.threads = 4;
  options.compute = [invocations](const Query& q, const CancelToken&) {
    invocations->fetch_add(1);
    Json doc = Json::object();
    doc["n"] = q.n;
    return doc;
  };
  QueryExecutor executor(std::move(options));
  const Response a = executor.execute(estimate_query(64));
  const Response b = executor.execute(estimate_query(128));
  const Response a_again = executor.execute(estimate_query(64));
  EXPECT_TRUE(a.ok && b.ok && a_again.ok);
  EXPECT_EQ(invocations->load(), 2);
  EXPECT_TRUE(a_again.cache_hit);
  EXPECT_EQ(a_again.result, a.result);
}

TEST(Executor, AdmissionQueueRejectsWhenFull) {
  auto started = std::make_shared<std::promise<void>>();
  auto gate = std::make_shared<std::promise<void>>();
  auto gate_future =
      std::make_shared<std::shared_future<void>>(gate->get_future());
  QueryExecutor::Options options;
  options.threads = 1;
  options.max_queue = 1;
  options.compute = [started, gate_future](const Query&, const CancelToken&) {
    started->set_value();
    gate_future->wait();
    return Json::object();
  };
  QueryExecutor executor(std::move(options));

  std::thread leader([&executor] {
    const Response r = executor.execute(estimate_query(64));
    EXPECT_TRUE(r.ok) << r.error;
  });
  started->get_future().wait();  // the one slot is now occupied

  const Response rejected = executor.execute(estimate_query(128));
  EXPECT_FALSE(rejected.ok);
  EXPECT_NE(rejected.error.find("overloaded"), std::string::npos);
  EXPECT_EQ(executor.stats().rejected, 1u);

  gate->set_value();
  leader.join();
}

TEST(Executor, DeadlineExceededButResultStillCached) {
  auto gate = std::make_shared<std::promise<void>>();
  auto gate_future =
      std::make_shared<std::shared_future<void>>(gate->get_future());
  QueryExecutor::Options options;
  options.threads = 1;
  options.compute = [gate_future](const Query&, const CancelToken&) {
    gate_future->wait();
    Json doc = Json::object();
    doc["late"] = true;
    return doc;
  };
  QueryExecutor executor(std::move(options));

  Query q = estimate_query(64);
  q.deadline_ms = 30;
  const Response timed_out = executor.execute(q);
  EXPECT_FALSE(timed_out.ok);
  EXPECT_NE(timed_out.error.find("deadline"), std::string::npos);
  EXPECT_EQ(executor.stats().deadline_exceeded, 1u);

  gate->set_value();
  // The abandoned flight still completes and fills the cache.
  for (int i = 0; i < 200; ++i) {
    if (executor.cache().get(q.cache_key())) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const Response cached = executor.execute(q);
  EXPECT_TRUE(cached.ok) << cached.error;
  EXPECT_TRUE(cached.cache_hit);
  EXPECT_EQ(cached.result, R"({"late":true})");
}

TEST(Executor, ComputeErrorsAreReportedAndNotCached) {
  auto invocations = std::make_shared<std::atomic<int>>(0);
  QueryExecutor::Options options;
  options.threads = 1;
  options.compute = [invocations](const Query&, const CancelToken&) -> Json {
    invocations->fetch_add(1);
    throw std::runtime_error("boom");
  };
  QueryExecutor executor(std::move(options));
  const Response first = executor.execute(estimate_query(64));
  EXPECT_FALSE(first.ok);
  EXPECT_NE(first.error.find("boom"), std::string::npos);
  const Response second = executor.execute(estimate_query(64));
  EXPECT_FALSE(second.ok);
  EXPECT_EQ(invocations->load(), 2);  // errors never poison the cache
  EXPECT_EQ(executor.stats().errors, 2u);
}

TEST(Executor, PersistsCacheAcrossInstances) {
  const std::string path = testing::TempDir() + "netemu_exec_persist.json";
  std::remove(path.c_str());
  Query q = estimate_query(64);
  {
    QueryExecutor::Options options;
    options.cache_file = path;
    options.compute = [](const Query&, const CancelToken&) {
      Json doc = Json::object();
      doc["expensive"] = true;
      return doc;
    };
    QueryExecutor executor(std::move(options));
    EXPECT_TRUE(executor.execute(q).ok);
  }  // destructor saves
  {
    QueryExecutor::Options options;
    options.cache_file = path;
    options.compute = [](const Query&, const CancelToken&) -> Json {
      throw std::runtime_error("should have been served from disk");
    };
    QueryExecutor executor(std::move(options));
    const Response r = executor.execute(q);
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.cache_hit);
    EXPECT_EQ(r.result, R"({"expensive":true})");
  }
  std::remove(path.c_str());
}

// ------------------------------------------------------------- planner --

TEST(Planner, EstimateIsDeterministicInSeed) {
  Query q = estimate_query(64, 42);
  q.trials = 1;
  const std::string a = plan_estimate(q).dump();
  const std::string b = plan_estimate(q).dump();
  EXPECT_EQ(a, b);
  q.seed = 43;
  // A different seed is a different content address; the value may or may
  // not differ, but the document must still be well-formed.
  EXPECT_TRUE(plan_estimate(q).is_object());
}

TEST(Planner, EstimateExposesTrialSpread) {
  Query q = estimate_query(64, 7);
  q.trials = 4;
  const Json doc = plan_estimate(q);
  ASSERT_EQ(doc["trial_rates"].items().size(), 4u);
  double lo = 1e300, hi = -1e300;
  for (const Json& r : doc["trial_rates"].items()) {
    lo = std::min(lo, r.as_number());
    hi = std::max(hi, r.as_number());
  }
  EXPECT_DOUBLE_EQ(doc["beta_hat_min"].as_number(), lo);
  EXPECT_DOUBLE_EQ(doc["beta_hat_max"].as_number(), hi);
  EXPECT_LE(doc["beta_hat_min"].as_number(), doc["beta_hat"].as_number());
  EXPECT_GE(doc["beta_hat_max"].as_number(), doc["beta_hat"].as_number());
  EXPECT_GT(doc["simulated_ticks"].as_uint(), 0u);
}

TEST(Planner, BandwidthMatchesTheoryRegistry) {
  Query q;
  q.kind = QueryKind::kBandwidth;
  q.family = Family::kHypercube;
  q.n = 1024;
  const Json doc = plan_bandwidth(q);
  EXPECT_DOUBLE_EQ(doc["beta"]["value"].as_number(),
                   beta_theory(Family::kHypercube)(1024.0));
  EXPECT_EQ(doc["beta"]["theta"].as_string(),
            beta_theory(Family::kHypercube).theta_string());
}

TEST(Planner, MaxHostAgreesWithSolver) {
  Query q;
  q.kind = QueryKind::kMaxHost;
  q.family = Family::kDeBruijn;
  q.n = 1 << 20;
  q.host_family = Family::kMesh;
  q.host_k = 2;
  const Json doc = plan_query(q);
  const HostSizeEntry direct = max_host_size(
      Family::kDeBruijn, 2, q.n, HostSpec{Family::kMesh, 2});
  EXPECT_DOUBLE_EQ(doc["max_host_numeric"].as_number(), direct.numeric);
  EXPECT_EQ(doc["max_host_symbolic"].as_string(), direct.symbolic);
}

TEST(Planner, InfeasibleTrafficThrows) {
  Query q = estimate_query(64);
  q.family = Family::kTree;  // 2^(h+1)-1 vertices: never a power of two
  q.traffic = TrafficKind::kBitReversal;
  EXPECT_THROW(plan_estimate(q), std::runtime_error);
}

// ------------------------------------------------- protocol + loopback --

TEST(Protocol, HandlesControlOpsAndBadInput) {
  QueryExecutor::Options options;
  options.compute = [](const Query&, const CancelToken&) { return Json::object(); };
  QueryExecutor executor(std::move(options));

  const Json pong = Json::parse(handle_request_line(R"({"op":"ping"})",
                                                    executor));
  EXPECT_TRUE(pong["ok"].as_bool());
  EXPECT_TRUE(pong["result"]["pong"].as_bool());

  const Json bad = Json::parse(handle_request_line("{{{", executor));
  EXPECT_FALSE(bad["ok"].as_bool());
  EXPECT_NE(bad["error"].as_string().find("bad JSON"), std::string::npos);

  bool shutdown_requested = false;
  const Json down = Json::parse(handle_request_line(
      R"({"op":"shutdown"})", executor, &shutdown_requested));
  EXPECT_TRUE(down["ok"].as_bool());
  EXPECT_TRUE(shutdown_requested);
}

TEST(Protocol, HealthReportsComputeTimes) {
  QueryExecutor::Options options;
  options.compute = [](const Query&, const CancelToken&) { return Json::object(); };
  QueryExecutor executor(std::move(options));

  const Json before =
      Json::parse(handle_request_line(R"({"op":"health"})", executor));
  ASSERT_TRUE(before["ok"].as_bool());
  ASSERT_TRUE(before["result"]["compute"].is_object());
  EXPECT_EQ(before["result"]["compute"]["samples"].as_int(), 0);

  const Response r = executor.execute(estimate_query(64));
  ASSERT_TRUE(r.ok) << r.error;

  const Json after =
      Json::parse(handle_request_line(R"({"op":"health"})", executor));
  const Json& compute = after["result"]["compute"];
  EXPECT_EQ(compute["samples"].as_int(), 1);
  EXPECT_GE(compute["p50_us"].as_number(), 0.0);
  EXPECT_GE(compute["p95_us"].as_number(), compute["p50_us"].as_number());
  // The cumulative simulation-volume counter is process-wide and
  // monotonic; other tests may already have advanced it.
  EXPECT_GE(compute["sim_ticks_total"].as_uint(), 0u);
}

TEST(Server, LoopbackEndToEnd) {
  QueryExecutor executor;  // real planner
  Server::Options server_options;
  server_options.port = 0;  // ephemeral
  Server server(executor_line_handler(executor), server_options);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.connect(server.port(), &error)) << error;

  const auto pong = client.request(Json::parse(R"({"op":"ping"})"), &error);
  ASSERT_TRUE(pong.has_value()) << error;
  EXPECT_TRUE((*pong)["ok"].as_bool());

  const Json query = Json::parse(
      R"({"op":"bandwidth","family":"Butterfly","n":4096})");
  const auto first = client.request(query, &error);
  ASSERT_TRUE(first.has_value()) << error;
  EXPECT_TRUE((*first)["ok"].as_bool());
  EXPECT_FALSE((*first)["cache_hit"].as_bool());

  const auto second = client.request(query, &error);
  ASSERT_TRUE(second.has_value()) << error;
  EXPECT_TRUE((*second)["ok"].as_bool());
  EXPECT_TRUE((*second)["cache_hit"].as_bool());
  EXPECT_EQ((*second)["result"].dump(), (*first)["result"].dump());

  const auto stats = client.request(Json::parse(R"({"op":"stats"})"), &error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ((*stats)["result"]["computed"].as_int(), 1);

  // Client-initiated shutdown stops the daemon.
  const auto down =
      client.request(Json::parse(R"({"op":"shutdown"})"), &error);
  ASSERT_TRUE(down.has_value()) << error;
  server.wait();
  EXPECT_FALSE(server.running());
}

TEST(Server, ManyConcurrentConnections) {
  QueryExecutor::Options options;
  options.compute = [](const Query& q, const CancelToken&) {
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

  constexpr int kClients = 8;
  constexpr int kRequests = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&server, &failures, c] {
      Client client;
      if (!client.connect(server.port())) {
        failures.fetch_add(kRequests);
        return;
      }
      for (int i = 0; i < kRequests; ++i) {
        Json query = Json::object();
        query["op"] = "estimate";
        query["family"] = "Butterfly";
        query["n"] = 64 + (c + i) % 4;  // a few distinct addresses
        std::string response;
        if (!client.request_raw(query.dump(), response) ||
            response.find("\"ok\":true") == std::string::npos) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  server.stop();
  EXPECT_EQ(failures.load(), 0);
  const QueryExecutor::Stats s = executor.stats();
  EXPECT_EQ(s.requests, static_cast<std::uint64_t>(kClients * kRequests));
  // Only 4 distinct content addresses exist; everything else was served
  // from cache or joined a flight.
  EXPECT_EQ(s.computed, 4u);
}

// ----------------------------------------------- adversarial framing --
// The epoll plane frames request lines incrementally from whatever byte
// boundaries the kernel delivers; these tests drive the framer with raw
// sockets at its worst-case boundaries.

/// Raw loopback TCP connection (no LineChannel: the tests control the exact
/// bytes and boundaries on the wire).
class RawConn {
 public:
  explicit RawConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    // A receive deadline: an answer the server lost fails the test (the
    // read comes back empty) instead of hanging it.
    const timeval deadline{10, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &deadline, sizeof(deadline));
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  bool send_all(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Stop sending but keep reading (half-close).
  void shutdown_write() { ::shutdown(fd_, SHUT_WR); }

  /// Read up to the next '\n'; empty string on EOF, error or the receive
  /// deadline before one.
  std::string read_line() {
    std::string line;
    for (;;) {
      const auto nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return std::string();
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// True when a line is buffered, or bytes (or EOF) arrive within `ms`.
  bool readable_within(int ms) {
    if (buffer_.find('\n') != std::string::npos) return true;
    pollfd p{fd_, POLLIN, 0};
    return ::poll(&p, 1, std::max(ms, 0)) > 0;
  }

  /// True when the peer has closed (a clean EOF with no pending bytes).
  bool read_eof() {
    char chunk[64];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    return n == 0;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// A server over an executor whose compute echoes n (cheap + verifiable).
struct EchoServer {
  explicit EchoServer(Server::Options options = {}) {
    QueryExecutor::Options exec_options;
    exec_options.compute = [](const Query& q, const CancelToken&) {
      Json doc = Json::object();
      doc["n"] = q.n;
      return doc;
    };
    executor = std::make_unique<QueryExecutor>(std::move(exec_options));
    options.port = 0;
    server =
        std::make_unique<Server>(executor_line_handler(*executor), options);
    std::string error;
    started = server->start(&error);
  }
  std::unique_ptr<QueryExecutor> executor;
  std::unique_ptr<Server> server;
  bool started = false;
};

TEST(ServerFraming, SlowlorisByteAtATime) {
  EchoServer s;
  ASSERT_TRUE(s.started);
  RawConn conn(s.server->port());
  ASSERT_TRUE(conn.ok());

  // One byte per segment: the framer must accumulate across reads and only
  // answer at the newline.  Two requests back to back prove the connection
  // state survives the first.
  const std::string request =
      R"({"op":"estimate","family":"Butterfly","n":64})" "\n";
  for (int round = 0; round < 2; ++round) {
    for (const char c : request) {
      ASSERT_TRUE(conn.send_all(std::string(1, c)));
    }
    const Json response = Json::parse(conn.read_line());
    EXPECT_TRUE(response["ok"].as_bool());
    EXPECT_EQ(response["result"]["n"].as_int(), 64);
  }
}

TEST(ServerFraming, PipelinedRequestsInOneSegment) {
  EchoServer s;
  ASSERT_TRUE(s.started);
  RawConn conn(s.server->port());
  ASSERT_TRUE(conn.ok());

  // Many requests in ONE send: the framer must split them and answer each
  // in request order even though some hit cache (inline fast path) and some
  // compute (replied from a pool worker) — the ordering guarantee is what's
  // under test.
  constexpr int kRequests = 32;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    Json query = Json::object();
    query["op"] = "estimate";
    query["family"] = "Butterfly";
    query["n"] = 64 << (i % 3);  // 3 addresses: repeats become cache hits
    burst += query.dump();
    burst += '\n';
  }
  ASSERT_TRUE(conn.send_all(burst));
  for (int i = 0; i < kRequests; ++i) {
    const Json response = Json::parse(conn.read_line());
    ASSERT_TRUE(response["ok"].as_bool()) << "response " << i;
    EXPECT_EQ(response["result"]["n"].as_int(), 64 << (i % 3))
        << "response " << i << " out of order";
  }
}

TEST(ServerFraming, OverlongLineAnswersProtocolErrorAndResyncs) {
  Server::Options options;
  options.max_line = 128;
  EchoServer s(options);
  ASSERT_TRUE(s.started);
  RawConn conn(s.server->port());
  ASSERT_TRUE(conn.ok());

  // An overlong line — delivered in several segments so the framer enters
  // and leaves discard mode — answers protocol_error; the next request on
  // the same connection still works (the stream re-synced at the newline).
  const std::string junk(512, 'x');
  ASSERT_TRUE(conn.send_all(junk));
  ASSERT_TRUE(conn.send_all(junk));
  ASSERT_TRUE(conn.send_all("\n"));
  const Json error_response = Json::parse(conn.read_line());
  EXPECT_FALSE(error_response["ok"].as_bool());
  EXPECT_NE(error_response["error"].as_string().find("exceeds"),
            std::string::npos);

  ASSERT_TRUE(conn.send_all("{\"op\":\"ping\"}\n"));
  const Json pong = Json::parse(conn.read_line());
  EXPECT_TRUE(pong["ok"].as_bool());
  EXPECT_TRUE(pong["result"]["pong"].as_bool());
}

TEST(ServerFraming, HalfCloseAfterCompleteRequestStillAnswered) {
  EchoServer s;
  ASSERT_TRUE(s.started);
  RawConn conn(s.server->port());
  ASSERT_TRUE(conn.ok());

  // shutdown(SHUT_WR) right behind a complete request: the server sees EOF
  // with a framed request still queued — it must answer it, flush, and only
  // then close.
  ASSERT_TRUE(conn.send_all(
      R"({"op":"estimate","family":"Butterfly","n":128})" "\n"));
  conn.shutdown_write();
  const Json response = Json::parse(conn.read_line());
  EXPECT_TRUE(response["ok"].as_bool());
  EXPECT_EQ(response["result"]["n"].as_int(), 128);
  EXPECT_TRUE(conn.read_eof());
}

TEST(ServerFraming, HalfCloseMidRequestGetsNoAnswer) {
  EchoServer s;
  ASSERT_TRUE(s.started);
  RawConn conn(s.server->port());
  ASSERT_TRUE(conn.ok());

  // A torn request (no newline) then EOF: the tail is dropped, no
  // response, clean close.
  ASSERT_TRUE(conn.send_all(R"({"op":"estimate","family":"Butter)"));
  conn.shutdown_write();
  EXPECT_TRUE(conn.read_eof());
}

// ---------------------------------------------------------- acceptor --

/// Send one ping on a connected socket and wait up to 2 s for the pong.
bool ping_answered(int fd) {
  const timeval timeout{2, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  const std::string ping = "{\"op\":\"ping\"}\n";
  if (::send(fd, ping.data(), ping.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(ping.size())) {
    return false;
  }
  std::string reply;
  char chunk[256];
  while (reply.find('\n') == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;  // timeout, EOF or error
    reply.append(chunk, static_cast<std::size_t>(n));
  }
  return reply.find("\"pong\":true") != std::string::npos;
}

TEST(ServerAccept, FullFdTableDoesNotKillTheAcceptor) {
  EchoServer s;
  ASSERT_TRUE(s.started);

  // RLIMIT_NOFILE is process-wide: restore it on every exit path, or the
  // rest of a one-process test run inherits a full fd table.
  struct RestoreLimit {
    rlimit saved{};
    ~RestoreLimit() { ::setrlimit(RLIMIT_NOFILE, &saved); }
  } restore;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &restore.saved), 0);

  // Take the lowest free fd for the client, then cap the table just below
  // the next free one: every fd the acceptor could get is in use, so its
  // accept4 fails with EMFILE while the handshake completes in the backlog.
  const int client = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(client, 0);
  const int next_free = ::dup(client);
  ASSERT_GE(next_free, 0);
  ::close(next_free);
  rlimit full = restore.saved;
  full.rlim_cur = static_cast<rlim_t>(next_free);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &full), 0);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(s.server->port());
  const int connected =
      ::connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  const int connect_errno = errno;
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &restore.saved), 0);
  ASSERT_EQ(connected, 0) << std::strerror(connect_errno);

  // With fds free again, the connection that waited in the backlog and a
  // fresh one are both served.
  EXPECT_TRUE(ping_answered(client));
  ::close(client);
  RawConn fresh(s.server->port());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(ping_answered(fresh.fd()));
  EXPECT_TRUE(s.server->running());
}

// ---------------------------------------------------- connection churn --

/// Parse a numeric field ("Threads:", "VmRSS:") out of /proc/self/status.
long proc_status_value(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::strtol(line.c_str() + field.size(), nullptr, 10);
    }
  }
  return -1;
}

TEST(ServerChurn, SequentialConnectionsStayBounded) {
  EchoServer s;
  ASSERT_TRUE(s.started);

  // Warm up: let every lazily-spawned thread (shards, executor workers)
  // exist before the baseline measurement.
  {
    RawConn warm(s.server->port());
    ASSERT_TRUE(warm.ok());
    ASSERT_TRUE(warm.send_all("{\"op\":\"ping\"}\n"));
    EXPECT_FALSE(warm.read_line().empty());
  }
  const long threads_before = proc_status_value("Threads:");
  const long rss_before_kb = proc_status_value("VmRSS:");
  ASSERT_GT(threads_before, 0);

  // Thousands of open/request/close cycles: connections must not leak
  // threads (the epoll plane never spawns per connection) or memory
  // (per-connection state is freed on close).
  constexpr int kChurn = 2000;
  for (int i = 0; i < kChurn; ++i) {
    RawConn conn(s.server->port());
    ASSERT_TRUE(conn.ok()) << "connect " << i << " failed";
    if (i % 16 == 0) {  // a request on some keeps the framer in the loop
      ASSERT_TRUE(conn.send_all("{\"op\":\"ping\"}\n"));
      EXPECT_FALSE(conn.read_line().empty());
    }
  }

  const long threads_after = proc_status_value("Threads:");
  const long rss_after_kb = proc_status_value("VmRSS:");
  EXPECT_EQ(threads_after, threads_before)
      << "connection churn changed the thread count";
  // Generous bound (sanitizer builds have noisy RSS): churn must not
  // accumulate per-connection state.
  EXPECT_LT(rss_after_kb - rss_before_kb, 128 * 1024)
      << "RSS grew by " << (rss_after_kb - rss_before_kb) << " kB over "
      << kChurn << " connections";
}

// ------------------------------------------------- backpressure + guard --

/// Poll `condition` every 5 ms for up to 5 s.
template <typename Condition>
bool eventually(Condition condition) {
  for (int i = 0; i < 1000; ++i) {
    if (condition()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return condition();
}

/// A bandwidth query line: cost 1, one cache key per n.
std::string bandwidth_line(int n, const std::string& extra = "") {
  return R"({"op":"bandwidth","family":"Butterfly","n":)" +
         std::to_string(n) + extra + "}\n";
}

TEST(ServerBackpressure, ANonReadingPipelinerIsCutOffPastTheOutputCap) {
  // Every answer is a 64 KiB cache hit, so 2000 pipelined requests owe the
  // client 128 MiB: far past the 8 MiB cap plus what the socket buffers
  // absorb.
  QueryExecutor::Options exec_options;
  exec_options.compute = [](const Query&, const CancelToken&) {
    Json doc = Json::object();
    doc["pad"] = std::string(64u << 10, 'x');
    return doc;
  };
  QueryExecutor executor(std::move(exec_options));
  const std::string request = bandwidth_line(64);
  ASSERT_TRUE(handle_request_line(request.substr(0, request.size() - 1),
                                  executor)
                  .find("\"ok\":true") != std::string::npos);
  Server server(executor_line_handler(executor), {.port = 0});
  ASSERT_TRUE(server.start());
  const auto disconnects = [] {
    return scope::Registry::global().counter_value(
        "netemu_backpressure_disconnects_total");
  };
  const std::uint64_t before = disconnects();

  // A client that reads keeps its connection through the same volume.
  RawConn reader(server.port());
  ASSERT_TRUE(reader.ok());
  std::string window;
  for (int i = 0; i < 16; ++i) window += request;
  int answered = 0;
  for (int round = 0; round < 125; ++round) {
    ASSERT_TRUE(reader.send_all(window));
    for (int i = 0; i < 16; ++i) {
      if (reader.read_line().find("\"ok\":true") != std::string::npos) {
        ++answered;
      }
    }
  }
  EXPECT_EQ(answered, 2000);
  EXPECT_EQ(disconnects(), before);

  // One that never reads is disconnected, once, and counted.
  RawConn hog(server.port());
  ASSERT_TRUE(hog.ok());
  std::string burst;
  for (int i = 0; i < 2000; ++i) burst += request;
  hog.send_all(burst);  // may fail once the server has hung up
  EXPECT_TRUE(eventually([&] { return disconnects() == before + 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(disconnects(), before + 1);

  // The reader's connection is still served.
  ASSERT_TRUE(reader.send_all("{\"op\":\"ping\"}\n"));
  EXPECT_NE(reader.read_line().find("\"pong\":true"), std::string::npos);
}

/// A server over a one-worker executor whose computes wait on a gate:
/// every leader it admits stays pending until open().  The destructor opens
/// the gate before the server stops.
struct GatedServer {
  explicit GatedServer(std::size_t max_queue, std::size_t io_threads = 0) {
    QueryExecutor::Options exec_options;
    exec_options.threads = 1;
    exec_options.max_queue = max_queue;
    exec_options.compute = [gate = gate_future](const Query& q,
                                                const CancelToken&) {
      gate->wait();
      Json doc = Json::object();
      doc["n"] = q.n;
      return doc;
    };
    executor = std::make_unique<QueryExecutor>(std::move(exec_options));
    server = std::make_unique<Server>(
        executor_line_handler(*executor),
        Server::Options{.port = 0, .io_threads = io_threads});
  }
  ~GatedServer() { open(); }

  void open() {
    if (!opened.exchange(true)) gate->set_value();
  }

  std::shared_ptr<std::promise<void>> gate =
      std::make_shared<std::promise<void>>();
  std::shared_ptr<std::shared_future<void>> gate_future =
      std::make_shared<std::shared_future<void>>(gate->get_future());
  std::atomic<bool> opened{false};
  std::unique_ptr<QueryExecutor> executor;
  std::unique_ptr<Server> server;
};

TEST(ServerAdmission, CountCapShedsConcurrentLeadersAtOnce) {
  // max_queue 16 and every compute held: of 32 leaders on 32 connections,
  // 16 reach the pool and 16 are shed at once by the guard's count cap.
  // No queue in front of the guard may hold any of them back.
  constexpr int kLeaders = 32;
  GatedServer s(/*max_queue=*/16);
  ASSERT_TRUE(s.server->start());
  QueryExecutor& executor = *s.executor;
  std::vector<std::unique_ptr<RawConn>> conns;
  for (int i = 0; i < kLeaders; ++i) {
    conns.push_back(std::make_unique<RawConn>(s.server->port()));
    ASSERT_TRUE(conns.back()->ok());
    ASSERT_TRUE(conns.back()->send_all(bandwidth_line(64 + i)));
  }
  EXPECT_TRUE(eventually([&] {
    return executor.pending() + executor.stats().rejected == kLeaders;
  })) << "pending " << executor.pending() << ", shed "
      << executor.stats().rejected;

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  std::vector<int> held;
  for (int i = 0; i < kLeaders; ++i) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (!conns[i]->readable_within(static_cast<int>(left.count()))) {
      held.push_back(i);
      continue;
    }
    const Json r = Json::parse(conns[i]->read_line());
    EXPECT_EQ(r["error"].as_string(), "overloaded: admission queue full");
  }
  EXPECT_EQ(kLeaders - static_cast<int>(held.size()), 16);

  s.open();
  for (const int i : held) {
    const Json r = Json::parse(conns[i]->read_line());
    EXPECT_TRUE(r["ok"].as_bool()) << r.dump();
    EXPECT_EQ(r["result"]["n"].as_int(), 64 + i);
  }
}

TEST(ServerAdmission, HealthAndCancelAnswerPastHeldLeaders) {
  // More held leaders than any per-request handler pool the daemon ever
  // sized (max(8, 2 x hw) threads): health and cancel still answer at once.
  const int leaders = static_cast<int>(
      std::max(8u, 2 * std::thread::hardware_concurrency()) + 4);
  GatedServer s(static_cast<std::size_t>(leaders));
  ASSERT_TRUE(s.server->start());
  QueryExecutor& executor = *s.executor;
  std::vector<std::unique_ptr<RawConn>> conns;
  for (int i = 0; i < leaders; ++i) {
    conns.push_back(std::make_unique<RawConn>(s.server->port()));
    ASSERT_TRUE(conns.back()->ok());
    ASSERT_TRUE(conns.back()->send_all(bandwidth_line(
        64 + i, ",\"trace\":\"" + hex64(0x5eed0000u + i) + "\"")));
  }
  EXPECT_TRUE(eventually([&] {
    return executor.pending() == static_cast<std::size_t>(leaders);
  })) << "pending " << executor.pending();

  RawConn control(s.server->port());
  ASSERT_TRUE(control.ok());
  ASSERT_TRUE(control.send_all("{\"op\":\"health\"}\n"));
  ASSERT_TRUE(control.readable_within(1000)) << "health waited";
  const Json health = Json::parse(control.read_line());
  EXPECT_EQ(health["result"]["pool"]["pending"].as_int(), leaders);

  ASSERT_TRUE(control.send_all("{\"op\":\"cancel\",\"trace\":\"" +
                               hex64(0x5eed0000u) + "\"}\n"));
  ASSERT_TRUE(control.readable_within(1000)) << "cancel waited";
  const Json cancel = Json::parse(control.read_line());
  EXPECT_TRUE(cancel["result"]["cancelled"].as_bool()) << cancel.dump();

  s.open();
  for (int i = 0; i < leaders; ++i) {
    EXPECT_FALSE(conns[i]->read_line().empty()) << "leader " << i;
  }
}

TEST(ServerThreads, StartingAServerAddsOnlyItsShardsAndAcceptor) {
  GatedServer s(/*max_queue=*/64, /*io_threads=*/2);
  s.open();
  const long before = proc_status_value("Threads:");
  ASSERT_TRUE(s.server->start());
  // A compute, a hit and a control op: whatever the server would spawn for
  // them exists by now.
  RawConn conn(s.server->port());
  ASSERT_TRUE(conn.ok());
  for (const std::string& line : {bandwidth_line(64), bandwidth_line(64),
                                  std::string("{\"op\":\"health\"}\n")}) {
    ASSERT_TRUE(conn.send_all(line));
    EXPECT_NE(conn.read_line().find("\"ok\":true"), std::string::npos);
  }
  EXPECT_EQ(proc_status_value("Threads:") - before, 2 + 1);
}

TEST(ServerLifecycle, RepliesAfterStopOrDestructionAreDropped) {
  for (const bool destroy : {false, true}) {
    SCOPED_TRACE(destroy ? "server destroyed" : "server stopped");
    GatedServer s(/*max_queue=*/64);
    ASSERT_TRUE(s.server->start());
    RawConn conn(s.server->port());
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(conn.send_all(bandwidth_line(64, ",\"deadline_ms\":3000")));
    ASSERT_TRUE(eventually([&] { return s.executor->pending() == 1; }));

    const auto t0 = std::chrono::steady_clock::now();
    s.server->stop();
    if (destroy) s.server.reset();
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2))
        << "stop() waited for the compute";
    // The compute finishes now and replies into a stopped (or freed)
    // server: the reply is dropped.
    s.open();
    EXPECT_TRUE(eventually([&] {
      return s.executor->pending() == 0 && s.executor->stats().computed == 1;
    }));
  }
}

}  // namespace
}  // namespace netemu
