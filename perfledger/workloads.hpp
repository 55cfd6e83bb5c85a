#pragma once
// The four workloads (NOTES.md says why each exists).  Private to
// perfledger: workloads.cpp holds their inputs, set-up, answer checks and
// sample verification; layers.cpp holds their traced per-layer replays.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ledger.hpp"
#include "netemu/util/json.hpp"
#include "netemu/util/prng.hpp"

namespace perfledger {

/// What precedes the result document in an ok answer line.
extern const std::string kResultMarker;
/// The result document bytes of a direct netemu_serve answer (the executor
/// splices the cached text verbatim as the last field), or "" when the
/// answer is not a plain ok one.
std::string direct_result(const std::string& response);

/// A seed-derived Prng for one purpose (`salt`) of one run seed.
netemu::Prng seeded(std::uint64_t seed, std::uint64_t salt);

/// Rendezvous placement ranks backends by "127.0.0.1:<port>", so the fleet
/// workloads run their backends on fixed ports: the key->backend and
/// shard->backend layouts are then a function of the seed alone.  Pair
/// `attempt` is tried when the earlier pairs are taken.
std::vector<std::uint16_t> fixed_backend_ports(int attempt);
std::vector<std::string> rendezvous_ids(
    const std::vector<std::uint16_t>& ports);
/// Backend index FleetRouter ranks first for this request document.
std::size_t owner_of(const netemu::Json& doc,
                     const std::vector<std::string>& ids);

/// Print the {"op":"fleet"} counters of the netemu_fleet at `port` as one
/// "fleet ..." line (straggler retries, failovers).
void print_fleet_counters(std::uint16_t port, std::ostream& log);

/// Two netemu_serve backends on a fixed port pair, plus a netemu_fleet in
/// front of them.  The fleet is the deployment's entry port.
bool spawn_fleet(const RunConfig& config, DaemonFlags backend_flags,
                 DaemonFlags fleet_flags,
                 const std::vector<std::string>& fleet_args, Deployment& d,
                 std::string* error);

/// One generated request: its document, its wire line, and where the fleet
/// places it.
struct Request {
  netemu::Json doc;
  std::string line;
  std::uint64_t key = 0;   ///< content address
  std::size_t owner = 0;   ///< fleet backend the rendezvous ranks first
};

// ------------------------------------------------------------------- hits

/// hit_direct and fleet_hit: the same warmed key set, sent direct to one
/// netemu_serve or through netemu_fleet to two backends.
class HitWorkload : public Workload {
 public:
  static constexpr int kPerKind = 40;  ///< keys of each of the 4 kinds

  HitWorkload(const RunConfig& config, bool through_fleet);

  const char* name() const override;
  int connections() const override { return 2; }
  int thread_budget() const override;
  bool setup(Deployment& d, std::string* error) override;
  void describe(std::ostream& out, const Deployment& d) const override;
  const std::string& request(int conn, std::uint64_t* tag) override;
  bool check(int conn, std::uint64_t tag,
             const std::string& response) override;
  std::uint64_t verify(const Deployment& d, std::ostream& log) override;
  bool replay(Deployment& d, Tracer& tracer, std::vector<Metric>& out,
              std::ostream& log) override;

  static DaemonFlags serve_flags(bool through_fleet);

 private:
  void make_keys(const std::vector<std::string>& ids);

  RunConfig config_;
  bool fleet_;
  std::vector<std::string> ids_;  ///< rendezvous ids the keys were laid on
  std::vector<Request> keys_;
  /// Response bytes from ',"ok":true,"result":' to the end, captured at
  /// warm-up (the fleet's include "served_by").
  std::vector<std::string> tails_;
  std::vector<netemu::Prng> pick_;  ///< per-connection key picker
};

// -------------------------------------------------------- cold estimates

/// estimate_cold: every query a fresh seed, so every one computes.
class EstimateWorkload : public Workload {
 public:
  struct Shape {
    const char* label;
    const char* family;
    double n;
    unsigned trials;
  };
  /// Round-robin mix: dimension-order, level-routed, BFS-routed, and the
  /// node-capped weak hypercube.
  static const std::vector<Shape>& mix();
  static constexpr int kThreads = 3;
  static constexpr std::uint64_t kSampleEvery = 16;

  explicit EstimateWorkload(const RunConfig& config);

  const char* name() const override { return "estimate_cold"; }
  int connections() const override { return 1; }
  int thread_budget() const override { return kThreads; }
  bool setup(Deployment& d, std::string* error) override;
  void describe(std::ostream& out, const Deployment& d) const override;
  const std::string& request(int conn, std::uint64_t* tag) override;
  bool check(int conn, std::uint64_t tag,
             const std::string& response) override;
  std::uint64_t verify(const Deployment& d, std::ostream& log) override;
  bool replay(Deployment& d, Tracer& tracer, std::vector<Metric>& out,
              std::ostream& log) override;

  /// Query `i` of the stream drawn from `rng_seed`.
  static netemu::Json query(std::uint64_t rng_seed, std::uint64_t i);

 private:
  RunConfig config_;
  std::vector<Request> stream_;
  std::map<std::uint64_t, std::string> samples_;  ///< index -> result bytes
};

// ------------------------------------------------------------- sweeps

/// scatter_sweep: cold estimate sweeps at the scatter threshold through
/// netemu_fleet --scatter-ways 2 to two backends.
class SweepWorkload : public Workload {
 public:
  static constexpr int kBackendThreads = 2;
  static constexpr unsigned kTrials = 8;  ///< == --scatter-min-trials
  static constexpr int kWarmSweeps = 4;
  static constexpr std::uint64_t kSampleEvery = 16;

  explicit SweepWorkload(const RunConfig& config);

  const char* name() const override { return "scatter_sweep"; }
  int connections() const override { return 1; }
  int thread_budget() const override { return 2 * kBackendThreads; }
  bool setup(Deployment& d, std::string* error) override;
  void describe(std::ostream& out, const Deployment& d) const override;
  const std::string& request(int conn, std::uint64_t* tag) override;
  bool check(int conn, std::uint64_t tag,
             const std::string& response) override;
  std::uint64_t verify(const Deployment& d, std::ostream& log) override;
  bool replay(Deployment& d, Tracer& tracer, std::vector<Metric>& out,
              std::ostream& log) override;

  /// A sweep whose shard i (trials [4i, 4i+4)) is ranked first on backend
  /// i: scans seeds from `*cursor` upward and leaves it past the one used.
  static netemu::Json sweep(std::uint64_t* cursor,
                            const std::vector<std::string>& ids);
  /// The trial-range sub-query the scatterer sends for shard `i`.
  static netemu::Json shard(const netemu::Json& sweep_doc, unsigned i);
  static std::vector<std::string> fleet_args();

 private:
  RunConfig config_;
  std::vector<std::string> ids_;
  std::uint64_t cursor_ = 0;
  std::vector<Request> stream_;
  std::map<std::uint64_t, std::string> samples_;  ///< index -> merged result
};

}  // namespace perfledger
