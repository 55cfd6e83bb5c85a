// perfledger workloads: spans, daemons, inputs, set-up, the closed loop and
// every answer check.  The traced per-layer replays live in layers.cpp.

#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <thread>

#include "netemu/fleet/rendezvous.hpp"
#include "netemu/service/client.hpp"
#include "netemu/service/planner.hpp"
#include "netemu/service/query.hpp"
#include "netemu/util/hash.hpp"
#include "netemu/util/thread_pool.hpp"

namespace perfledger {

using netemu::Json;
using netemu::Prng;

// ------------------------------------------------------------------ spans

std::int32_t SpanBuffer::open(const char* name, std::uint64_t request) {
  const auto index = static_cast<std::int32_t>(records_.size());
  records_.push_back(SpanRecord{name, stack_.empty() ? -1 : stack_.back(),
                                request, now_ns(), 0});
  stack_.push_back(index);
  return index;
}

void SpanBuffer::close(std::int32_t index) {
  records_[static_cast<std::size_t>(index)].end_ns = now_ns();
  stack_.pop_back();
}

SpanBuffer& Tracer::new_buffer() {
  std::lock_guard<std::mutex> lock(mutex_);
  buffers_.push_back(std::make_unique<SpanBuffer>());
  return *buffers_.back();
}

std::vector<double> Tracer::self_times(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const auto& buffer : buffers_) {
    const auto& records = buffer->records();
    std::vector<double> child_ns(records.size(), 0.0);
    for (const SpanRecord& r : records) {
      if (r.parent >= 0) {
        child_ns[static_cast<std::size_t>(r.parent)] +=
            double(r.end_ns - r.start_ns);
      }
    }
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (name == records[i].name) {
        out.push_back(double(records[i].end_ns - records[i].start_ns) -
                      child_ns[i]);
      }
    }
  }
  return out;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& buffer : buffers_) n += buffer->records().size();
  return n;
}

bool Tracer::write_tsv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  out << "name\tbuffer\tindex\tparent\trequest\tstart_ns\tend_ns\n";
  for (std::size_t b = 0; b < buffers_.size(); ++b) {
    const auto& records = buffers_[b]->records();
    for (std::size_t i = 0; i < records.size(); ++i) {
      const SpanRecord& r = records[i];
      out << r.name << '\t' << b << '\t' << i << '\t' << r.parent << '\t'
          << r.request << '\t' << r.start_ns << '\t' << r.end_ns << '\n';
    }
  }
  return bool(out);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * double(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - double(lo));
}

// ---------------------------------------------------------------- daemons

Daemon::Daemon(std::string role, std::string binary, DaemonFlags flags,
               std::vector<std::string> extra_args)
    : role_(std::move(role)),
      binary_(std::move(binary)),
      flags_(flags),
      extra_args_(std::move(extra_args)) {}

bool Daemon::start(std::uint16_t port, std::string* error) {
  std::vector<std::string> argv = {binary_, "--port", std::to_string(port)};
  if (flags_.threads > 0) {
    argv.insert(argv.end(), {"--threads", std::to_string(flags_.threads)});
  }
  argv.insert(argv.end(),
              {"--io-threads", std::to_string(flags_.io_threads),
               "--offload-threads", std::to_string(flags_.offload_threads)});
  argv.insert(argv.end(), extra_args_.begin(), extra_args_.end());
  if (!process_.start(argv, error)) return false;
  std::string line;
  const std::string prefix = "listening on 127.0.0.1:";
  if (!process_.read_stdout_line(line, 10000) || line.rfind(prefix, 0) != 0) {
    process_.kill_hard();
    *error = role_ + ": no listen line on port " + std::to_string(port) +
             " (exit status " + std::to_string(process_.exit_status()) + ")";
    return false;
  }
  port_ = static_cast<std::uint16_t>(std::stoi(line.substr(prefix.size())));
  return true;
}

std::string Daemon::describe() const {
  std::ostringstream out;
  out << role_ << " " << binary_.substr(binary_.find_last_of('/') + 1)
      << " threads=" << (flags_.threads > 0 ? std::to_string(flags_.threads)
                                            : std::string("none"))
      << " io_threads=" << flags_.io_threads
      << " offload_threads=" << flags_.offload_threads << " port=" << port_;
  for (const std::string& arg : extra_args_) {
    // Cache paths vary by checkout; print only the flag.
    if (arg.find('/') == std::string::npos) out << " " << arg;
  }
  return out.str();
}

double Daemon::peak_rss_mb() const {
  std::ifstream status("/proc/" + std::to_string(process_.pid()) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void Daemon::stop() { process_.terminate(3000); }

double Deployment::peak_rss_mb() const {
  double sum = 0.0;
  for (const auto& d : daemons) sum += d->peak_rss_mb();
  return sum;
}

void Deployment::stop() {
  // The fleet front door was started last: stop it before its backends.
  for (auto it = daemons.rbegin(); it != daemons.rend(); ++it) (*it)->stop();
  daemons.clear();
}

// ---------------------------------------------------------------- helpers

namespace {

std::string binary(const RunConfig& config, const char* name) {
  return config.bin_dir + "/" + name;
}

std::uint64_t content_key(const Json& doc) {
  std::string error;
  if (auto q = netemu::query_from_json(doc, &error)) return q->cache_key();
  return netemu::fnv1a64(doc.dump());
}

}  // namespace

const std::string kResultMarker = ",\"ok\":true,\"result\":";

std::string direct_result(const std::string& response) {
  const std::size_t at = response.find(kResultMarker);
  if (at == std::string::npos || response.back() != '}') return {};
  const std::size_t begin = at + kResultMarker.size();
  return response.substr(begin, response.size() - 1 - begin);
}

Prng seeded(std::uint64_t seed, std::uint64_t salt) {
  return Prng(seed * 0x9E3779B97F4A7C15ULL ^ (salt << 17 | salt));
}

std::vector<std::uint16_t> fixed_backend_ports(int attempt) {
  // Below the usual ephemeral range (32768+), so outbound connections do
  // not hold them.
  const auto base = static_cast<std::uint16_t>(27431 + 2 * attempt);
  return {base, static_cast<std::uint16_t>(base + 1)};
}

std::vector<std::string> rendezvous_ids(
    const std::vector<std::uint16_t>& ports) {
  std::vector<std::string> ids;
  for (auto port : ports) ids.push_back("127.0.0.1:" + std::to_string(port));
  return ids;
}

std::size_t owner_of(const Json& doc, const std::vector<std::string>& ids) {
  return netemu::rendezvous_owner(content_key(doc), ids);
}

bool spawn_fleet(const RunConfig& config, DaemonFlags backend_flags,
                 DaemonFlags fleet_flags,
                 const std::vector<std::string>& fleet_args, Deployment& d,
                 std::string* error) {
  for (int attempt = 0; attempt < 8; ++attempt) {
    const std::vector<std::uint16_t> ports = fixed_backend_ports(attempt);
    Deployment trial;
    bool ok = true;
    for (std::size_t i = 0; i < ports.size() && ok; ++i) {
      auto backend = std::make_unique<Daemon>(
          "backend" + std::to_string(i), binary(config, "netemu_serve"),
          backend_flags, std::vector<std::string>{"--no-persist"});
      ok = backend->start(ports[i], error);
      if (ok) trial.daemons.push_back(std::move(backend));
    }
    if (!ok) {
      trial.stop();
      continue;  // a port of this pair is taken: try the next pair
    }
    std::vector<std::string> args = {"--backends",
                                     std::to_string(ports[0]) + "," +
                                         std::to_string(ports[1]),
                                     "--probe-ms", "0"};
    args.insert(args.end(), fleet_args.begin(), fleet_args.end());
    auto fleet = std::make_unique<Daemon>(
        "fleet", binary(config, "netemu_fleet"), fleet_flags, args);
    if (!fleet->start(0, error)) {
      trial.stop();
      return false;
    }
    trial.entry_port = fleet->port();
    trial.daemons.push_back(std::move(fleet));
    trial.backend_ports = ports;
    trial.backend_ids = rendezvous_ids(ports);
    d = std::move(trial);
    return true;
  }
  return false;
}

void print_fleet_counters(std::uint16_t port, std::ostream& log) {
  netemu::Client client;
  std::string response;
  if (!client.connect(port) ||
      !client.request_raw("{\"op\":\"fleet\"}", response)) {
    log << "fleet counters unavailable\n";
    return;
  }
  const Json result = Json::parse(response)["result"];
  const Json& scatter = result["scatter"];
  log << "fleet requests=" << result["requests"].as_uint()
      << " failovers=" << result["failovers"].as_uint()
      << " scatters=" << scatter["scatters"].as_uint()
      << " subqueries=" << scatter["subqueries"].as_uint()
      << " straggler_retries=" << scatter["straggler_retries"].as_uint()
      << "\n";
}

// ------------------------------------------------------------ closed loop

LoopStats closed_loop(Workload& w, std::uint16_t port, double seconds,
                      Tracer* tracer) {
  const int n = w.connections();
  std::vector<LoopStats> per(static_cast<std::size_t>(n));
  std::vector<std::unique_ptr<netemu::Client>> clients;
  std::vector<SpanBuffer*> buffers(static_cast<std::size_t>(n), nullptr);
  for (int c = 0; c < n; ++c) {
    clients.push_back(std::make_unique<netemu::Client>());
    std::string error;
    if (!clients.back()->connect(port, &error)) {
      LoopStats failed;
      failed.attempted = failed.failed = 1;
      std::cout << "connect failed: " << error << "\n";
      return failed;
    }
    if (tracer) buffers[static_cast<std::size_t>(c)] = &tracer->new_buffer();
  }

  const auto start = Clock::now();
  const auto deadline = start + std::chrono::nanoseconds(
                                    static_cast<std::int64_t>(seconds * 1e9));
  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      const auto ci = static_cast<std::size_t>(c);
      LoopStats& stats = per[ci];
      SpanBuffer* buffer = buffers[ci];
      netemu::Client& client = *clients[ci];
      stats.latencies_us.reserve(1 << 16);
      std::string response;
      for (std::uint64_t i = 0;; ++i) {
        const std::uint64_t id = (std::uint64_t(c) << 48) | i;
        Span root(buffer, "loop.request", id);
        std::uint64_t tag = 0;
        const std::string& line = w.request(c, &tag);
        const auto sent = Clock::now();
        bool answered = false;
        {
          Span io(buffer, "loop.io.rtt", id);
          answered = client.request_raw(line, response);
        }
        const auto received = Clock::now();
        ++stats.attempted;
        bool correct = false;
        if (answered) {
          Span check(buffer, "loop.check", id);
          correct = w.check(c, tag, response);
        }
        if (correct) {
          stats.latencies_us.push_back(
              std::chrono::duration<double, std::micro>(received - sent)
                  .count());
        } else {
          ++stats.failed;
        }
        // A broken connection cannot carry more requests.
        if (!answered || received >= deadline) break;
      }
    });
  }
  for (auto& t : threads) t.join();

  LoopStats all;
  all.elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  for (const LoopStats& s : per) {
    all.latencies_us.insert(all.latencies_us.end(), s.latencies_us.begin(),
                            s.latencies_us.end());
    all.attempted += s.attempted;
    all.failed += s.failed;
  }
  return all;
}

// ------------------------------------------------------------------- hits

namespace {

const char* const kFamilies[] = {
    "LinearArray", "Ring",          "GlobalBus",       "Tree",
    "FatTree",     "WeakPPN",       "XTree",           "Mesh2",
    "Mesh3",       "Torus2",        "XGrid2",          "MeshOfTrees2",
    "Multigrid2",  "Pyramid2",      "Butterfly",       "WrappedButterfly",
    "DeBruijn",    "ShuffleExchange", "CCC",           "Hypercube",
    "Multibutterfly", "Expander"};
const char* const kHosts[] = {"LinearArray", "Tree", "Mesh2", "Mesh3",
                              "XTree",       "Butterfly", "Hypercube"};
const double kSizes[] = {256, 1024, 4096, 16384, 65536};
const double kHostSizes[] = {0, 16, 64, 256};

struct Tiny {
  const char* family;
  double n;
};
// Estimates small enough that warming 40 of them stays well under a second.
const Tiny kTinyEstimates[] = {
    {"Mesh2", 16}, {"Ring", 16}, {"Tree", 15}, {"Hypercube", 16},
    {"Butterfly", 24}};

template <class T, std::size_t N>
const T& pick(const T (&items)[N], Prng& rng) {
  return items[rng.below(N)];
}

/// One candidate for key `slot` of kind `kind` (0 bandwidth, 1 estimate, 2
/// max_host, 3 bounds).  Estimate slots cycle through the tiny families in
/// a fixed order, so the warm-up compute is the same for every seed.
Json hit_candidate(int kind, int slot, Prng& rng) {
  Json doc = Json::object();
  switch (kind) {
    case 0:
      doc["op"] = "bandwidth";
      doc["family"] = pick(kFamilies, rng);
      doc["n"] = pick(kSizes, rng);
      break;
    case 1: {
      const Tiny& t = kTinyEstimates[static_cast<std::size_t>(slot) %
                                     std::size(kTinyEstimates)];
      doc["op"] = "estimate";
      doc["family"] = t.family;
      doc["n"] = t.n;
      doc["trials"] = 2;
      doc["seed"] = double(1 + rng.below(1000000));
      break;
    }
    default:
      doc["op"] = kind == 2 ? "max_host" : "bounds";
      doc["family"] = pick(kFamilies, rng);
      doc["n"] = pick(kSizes, rng);
      doc["host"] = pick(kHosts, rng);
      if (kind == 3) doc["m"] = pick(kHostSizes, rng);
      break;
  }
  return doc;
}

const char* const kKindNames[] = {"bandwidth", "estimate", "max_host",
                                  "bounds"};

}  // namespace

HitWorkload::HitWorkload(const RunConfig& config, bool through_fleet)
    : config_(config), fleet_(through_fleet) {
  for (int c = 0; c < connections(); ++c) {
    pick_.push_back(seeded(config.seed, 0x5100 + std::uint64_t(c)));
  }
  make_keys(rendezvous_ids(fixed_backend_ports(0)));
}

const char* HitWorkload::name() const {
  return fleet_ ? "fleet_hit" : "hit_direct";
}

DaemonFlags HitWorkload::serve_flags(bool through_fleet) {
  // Direct: one reactor shard per connection.  Behind the fleet each
  // backend sees at most the two in-flight requests between them.
  return through_fleet ? DaemonFlags{1, 1, 1} : DaemonFlags{1, 2, 1};
}

int HitWorkload::thread_budget() const {
  const int compute = fleet_ ? 2 * serve_flags(true).threads
                             : serve_flags(false).threads;
  return compute + connections();
}

void HitWorkload::make_keys(const std::vector<std::string>& ids) {
  // Key j of each kind sits on backend j % 2, so the key->backend layout is
  // the same in every run whatever the seed.
  ids_ = ids;
  keys_.clear();
  Prng rng = seeded(config_.seed, 0x4B45);
  std::set<std::uint64_t> used;
  for (int kind = 0; kind < 4; ++kind) {
    for (int j = 0; j < kPerKind; ++j) {
      for (;;) {
        Request e;
        e.doc = hit_candidate(kind, j, rng);
        e.key = content_key(e.doc);
        e.owner = netemu::rendezvous_owner(e.key, ids_);
        if (e.owner != std::size_t(j % 2) || !used.insert(e.key).second) {
          continue;
        }
        e.line = e.doc.dump();
        keys_.push_back(std::move(e));
        break;
      }
    }
  }
}

bool HitWorkload::setup(Deployment& d, std::string* error) {
  if (fleet_) {
    // Every estimate stays below --scatter-min-trials: nothing scatters.
    if (!spawn_fleet(config_, serve_flags(true), DaemonFlags{0, 1, 2},
                     {"--scatter-min-trials", "16", "--scatter-ways", "2"}, d,
                     error)) {
      return false;
    }
    if (d.backend_ids != ids_) make_keys(d.backend_ids);
  } else {
    auto serve = std::make_unique<Daemon>(
        "serve", binary(config_, "netemu_serve"), serve_flags(false),
        std::vector<std::string>{"--no-persist"});
    if (!serve->start(0, error)) return false;
    d.entry_port = serve->port();
    d.daemons.push_back(std::move(serve));
  }

  netemu::Client client;
  if (!client.connect(d.entry_port, error)) return false;
  // Warm: every key computes once; its answer is what every later hit on
  // that key must repeat byte for byte.
  tails_.assign(keys_.size(), std::string());
  std::string response;
  for (std::size_t k = 0; k < keys_.size(); ++k) {
    if (!client.request_raw(keys_[k].line, response)) {
      *error = "warm-up: no answer for " + keys_[k].line;
      return false;
    }
    const std::size_t at = response.find(kResultMarker);
    if (at == std::string::npos) {
      *error = "warm-up: not ok: " + response;
      return false;
    }
    tails_[k] = response.substr(at);
    if (fleet_ && tails_[k].find("\"served_by\":\"" + ids_[keys_[k].owner] +
                                 "\"") == std::string::npos) {
      *error = "warm-up: key served off its rendezvous owner: " + response;
      return false;
    }
  }
  // One untimed hit of every shape (every key, in fact).
  for (std::size_t k = 0; k < keys_.size(); ++k) {
    if (!client.request_raw(keys_[k].line, response) ||
        !check(0, k, response)) {
      *error = "warm-up: repeat is not a matching hit: " + response;
      return false;
    }
  }
  return true;
}

void HitWorkload::describe(std::ostream& out, const Deployment& d) const {
  out << "inputs " << keys_.size() << " keys, " << kPerKind << " of each kind:";
  for (const char* kind : kKindNames) out << " " << kind;
  out << "; each connection picks keys uniformly\n";
  if (fleet_) {
    std::size_t on[2] = {0, 0};
    for (const Request& e : keys_) ++on[e.owner];
    out << "layout key->backend: key j of each kind on backend j%2"
        << " (backend0 " << d.backend_ids[0] << ": " << on[0]
        << " keys, backend1 " << d.backend_ids[1] << ": " << on[1]
        << " keys)\n";
  }
}

const std::string& HitWorkload::request(int conn, std::uint64_t* tag) {
  *tag = pick_[static_cast<std::size_t>(conn)].below(keys_.size());
  return keys_[*tag].line;
}

bool HitWorkload::check(int, std::uint64_t tag, const std::string& response) {
  static const std::string kHitPrefix = "{\"cache_hit\":true,";
  const std::string& tail = tails_[tag];
  return response.size() > tail.size() &&
         response.compare(0, kHitPrefix.size(), kHitPrefix) == 0 &&
         response.compare(response.size() - tail.size(), tail.size(),
                          tail) == 0;
}

std::uint64_t HitWorkload::verify(const Deployment& d, std::ostream& log) {
  // Every hit was checked byte for byte in the loop.
  if (fleet_) print_fleet_counters(d.entry_port, log);
  return 0;
}

// -------------------------------------------------------- cold estimates

const std::vector<EstimateWorkload::Shape>& EstimateWorkload::mix() {
  static const std::vector<Shape> shapes = {
      {"mesh2", "Mesh2", 64, 4},
      {"butterfly", "Butterfly", 192, 4},
      {"ccc", "CCC", 64, 4},
      {"hypercube", "Hypercube", 128, 4},
  };
  return shapes;
}

EstimateWorkload::EstimateWorkload(const RunConfig& config)
    : config_(config) {}

Json EstimateWorkload::query(std::uint64_t rng_seed, std::uint64_t i) {
  const Shape& shape = mix()[i % mix().size()];
  Prng rng = seeded(rng_seed, 0xE57 + i);
  Json doc = Json::object();
  doc["op"] = "estimate";
  doc["family"] = shape.family;
  doc["n"] = shape.n;
  doc["trials"] = shape.trials;
  doc["seed"] = double(1000 + rng.below(std::uint64_t(1) << 40));
  return doc;
}

bool EstimateWorkload::setup(Deployment& d, std::string* error) {
  // Keep the daemon's default persistence (cache file + journal), starting
  // empty so every run begins alike.
  const std::string cache = config_.run_dir + "/estimate_cache.json";
  std::remove(cache.c_str());
  std::remove((cache + ".wal").c_str());
  auto serve = std::make_unique<Daemon>(
      "serve", binary(config_, "netemu_serve"),
      DaemonFlags{kThreads, 1, 1},
      std::vector<std::string>{"--cache-file", cache});
  if (!serve->start(0, error)) return false;
  d.entry_port = serve->port();
  d.daemons.push_back(std::move(serve));
  stream_.clear();
  samples_.clear();

  // One untimed estimate of each shape, on seeds the timed stream never
  // draws (it draws from 1000 up).
  netemu::Client client;
  if (!client.connect(d.entry_port, error)) return false;
  std::string response;
  for (std::size_t i = 0; i < mix().size(); ++i) {
    Json doc = query(0, i);
    doc["seed"] = double(1 + i);
    if (!client.request_raw(doc.dump(), response) ||
        direct_result(response).empty()) {
      *error = "warm-up estimate failed: " + response;
      return false;
    }
  }
  return true;
}

void EstimateWorkload::describe(std::ostream& out, const Deployment&) const {
  out << "inputs estimate round-robin:";
  for (const Shape& s : mix()) {
    out << " " << s.family << " n=" << s.n << " trials=" << s.trials << ";";
  }
  out << " fresh seed per query; every " << kSampleEvery
      << "th answer re-planned in-process after timing\n";
}

const std::string& EstimateWorkload::request(int, std::uint64_t* tag) {
  *tag = stream_.size();
  Request e;
  e.doc = query(config_.seed, *tag);
  e.line = e.doc.dump();
  stream_.push_back(std::move(e));
  return stream_.back().line;
}

bool EstimateWorkload::check(int, std::uint64_t tag,
                             const std::string& response) {
  static const std::string kMissPrefix = "{\"cache_hit\":false,";
  if (response.compare(0, kMissPrefix.size(), kMissPrefix) != 0) return false;
  const std::string result = direct_result(response);
  std::string error;
  const Json doc = Json::parse(result, &error);
  const unsigned trials =
      static_cast<unsigned>(stream_[tag].doc["trials"].as_uint());
  if (!error.empty() || doc["degraded"].as_bool() ||
      doc["trials"].as_uint() != trials ||
      doc["trial_rates"].items().size() != trials ||
      !(doc["beta_hat"].as_number() > 0.0)) {
    return false;
  }
  if (tag % kSampleEvery == 0) samples_[tag] = result;
  return true;
}

std::uint64_t EstimateWorkload::verify(const Deployment&, std::ostream& log) {
  // The daemon's result bytes must equal an in-process plan_query at any
  // thread count; a different pool size than the daemon's proves it.
  netemu::ThreadPool pool(2);
  std::uint64_t failed = 0;
  for (const auto& [index, bytes] : samples_) {
    std::string error;
    const auto q = netemu::query_from_json(stream_[index].doc, &error);
    if (!q || netemu::plan_query(*q, &pool).dump() != bytes) {
      ++failed;
      log << "MISMATCH estimate " << stream_[index].line << "\n";
    }
  }
  log << "verified " << samples_.size()
      << " sampled estimates against in-process plan_query\n";
  return failed;
}

// ------------------------------------------------------------- sweeps

SweepWorkload::SweepWorkload(const RunConfig& config)
    : config_(config), ids_(rendezvous_ids(fixed_backend_ports(0))) {}

std::vector<std::string> SweepWorkload::fleet_args() {
  return {"--scatter-min-trials", std::to_string(kTrials), "--scatter-ways",
          "2"};
}

Json SweepWorkload::shard(const Json& sweep_doc, unsigned i) {
  // The scatterer's split: lo_i = i * T / W with W = 2.
  Json doc = Json::object();
  for (const auto& [k, v] : sweep_doc.fields()) doc[k] = v;
  doc["trial_lo"] = i * kTrials / 2;
  doc["trial_hi"] = (i + 1) * kTrials / 2;
  return doc;
}

Json SweepWorkload::sweep(std::uint64_t* cursor,
                          const std::vector<std::string>& ids) {
  for (;;) {
    Json doc = Json::object();
    doc["op"] = "estimate";
    doc["family"] = "Mesh2";
    doc["n"] = 64;
    doc["trials"] = kTrials;
    doc["seed"] = double((*cursor)++);
    if (owner_of(shard(doc, 0), ids) == 0 &&
        owner_of(shard(doc, 1), ids) == 1) {
      return doc;
    }
  }
}

bool SweepWorkload::setup(Deployment& d, std::string* error) {
  if (!spawn_fleet(config_, DaemonFlags{kBackendThreads, 1, 1},
                   DaemonFlags{0, 1, 1}, fleet_args(), d, error)) {
    return false;
  }
  ids_ = d.backend_ids;
  cursor_ = 1000 + seeded(config_.seed, 0x5EE).below(std::uint64_t(1) << 40);
  stream_.clear();
  samples_.clear();

  // Untimed sweeps on seeds the timed stream does not reach: enough
  // deterministic compute that process start-up jitter does not dominate.
  netemu::Client client;
  if (!client.connect(d.entry_port, error)) return false;
  std::uint64_t warm_cursor = 1;
  std::string response;
  for (int i = 0; i < kWarmSweeps; ++i) {
    const Json warm = sweep(&warm_cursor, ids_);
    const Json doc = client.request_raw(warm.dump(), response)
                         ? Json::parse(response)
                         : Json();
    if (!doc["ok"].as_bool() || doc["scattered"].as_uint() != 2) {
      *error = "warm-up sweep did not scatter 2 ways: " + response;
      return false;
    }
  }
  return true;
}

void SweepWorkload::describe(std::ostream& out, const Deployment& d) const {
  out << "inputs estimate sweeps Mesh2 n=64 trials=" << kTrials
      << " (= --scatter-min-trials), fresh seed per sweep; every "
      << kSampleEvery << "th merged answer compared to an unscattered "
      << "in-process plan_query after timing\n";
  out << "layout shard->backend: shard0 trials [0," << kTrials / 2
      << ") -> backend0 " << d.backend_ids[0] << ", shard1 trials ["
      << kTrials / 2 << "," << kTrials << ") -> backend1 "
      << d.backend_ids[1] << "\n";
}

const std::string& SweepWorkload::request(int, std::uint64_t* tag) {
  *tag = stream_.size();
  Request e;
  e.doc = sweep(&cursor_, ids_);
  e.line = e.doc.dump();
  stream_.push_back(std::move(e));
  return stream_.back().line;
}

bool SweepWorkload::check(int, std::uint64_t tag,
                          const std::string& response) {
  std::string error;
  const Json doc = Json::parse(response, &error);
  const Json& result = doc["result"];
  if (!error.empty() || !doc["ok"].as_bool() || doc["cache_hit"].as_bool() ||
      doc["degraded"].as_bool() || doc["scattered"].as_uint() != 2 ||
      result["trials"].as_uint() != kTrials ||
      result["trial_rates"].items().size() != kTrials) {
    return false;
  }
  if (tag % kSampleEvery == 0) samples_[tag] = result.dump();
  return true;
}

std::uint64_t SweepWorkload::verify(const Deployment& d, std::ostream& log) {
  print_fleet_counters(d.entry_port, log);
  netemu::ThreadPool pool(2);
  std::uint64_t failed = 0;
  for (const auto& [index, bytes] : samples_) {
    std::string error;
    const auto q = netemu::query_from_json(stream_[index].doc, &error);
    // Re-dump through the parser: the fleet re-serializes what it merges.
    if (!q ||
        Json::parse(netemu::plan_query(*q, &pool).dump()).dump() != bytes) {
      ++failed;
      log << "MISMATCH sweep " << stream_[index].line << "\n";
    }
  }
  log << "verified " << samples_.size()
      << " sampled sweeps against unscattered in-process plan_query\n";
  return failed;
}

// -------------------------------------------------------------- registry

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "hit_direct", "estimate_cold", "fleet_hit", "scatter_sweep"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const RunConfig& config) {
  if (name == "hit_direct") return std::make_unique<HitWorkload>(config, false);
  if (name == "fleet_hit") return std::make_unique<HitWorkload>(config, true);
  if (name == "estimate_cold") {
    return std::make_unique<EstimateWorkload>(config);
  }
  if (name == "scatter_sweep") return std::make_unique<SweepWorkload>(config);
  return nullptr;
}

}  // namespace perfledger
