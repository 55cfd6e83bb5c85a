#pragma once
// netemu::scope — the metrics half of the observability subsystem.
//
// Design constraints (docs/SCOPE.md):
//  * lock-light hot path: a Counter::add is one relaxed fetch_add on a
//    thread-sharded cache line; a Histogram::observe is two.  No mutex is
//    ever taken while recording — the registry mutex guards only metric
//    *registration* (done once per call site) and snapshotting;
//  * readable while written: value()/snapshot() may run concurrently with
//    any number of writers and always see a sum of committed increments
//    (each shard is an atomic, so the total is a consistent lower bound
//    that catches up immediately — exactly Prometheus counter semantics);
//  * one global kill switch: scope::set_enabled(false) short-circuits every
//    recording site to a single relaxed load, which is what
//    bench/scope_overhead measures the instrumented stack against.
//
// Histograms are fixed-bucket log-scale: kSubBuckets buckets per power of
// two over [2^kMinExp, 2^kMaxExp), plus underflow/overflow.  Quantile
// extraction walks the committed bucket counts and log-interpolates inside
// the target bucket, so any reported pXX has bounded *relative* error of
// half a bucket width (2^(1/kSubBuckets) ≈ 9% wide ⇒ ≤ ~4.5% error) —
// plenty for latency tails, and immune to outliers by construction.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace netemu::scope {

/// Global instrumentation switch.  Default on.  Recording sites check this
/// with one relaxed load; disabling makes every record a near-no-op so the
/// overhead harness can measure the cost of recording itself.
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Shard index of the calling thread: assigned round-robin at first use so
/// concurrent writers land on distinct cache lines.
std::size_t shard_index() noexcept;

inline constexpr std::size_t kShards = 8;

/// Monotonically increasing counter (Prometheus "counter" semantics:
/// resets only on process restart, which readers detect via the process
/// epoch — see process_epoch_unix_s() in trace.hpp).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (!enabled()) return;
    shards_[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  void inc() noexcept { add(1); }

  std::uint64_t value() const noexcept {
    std::uint64_t sum = 0;
    for (const Shard& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Shard, kShards> shards_{};
};

/// Last-write-wins instantaneous value (queue depths, breaker states, ...).
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(double d) noexcept {
    // CAS loop: atomic<double> has no fetch_add until C++20 TS adoption is
    // universal; gauges are not hot enough for this to matter.
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket log-scale histogram with thread-sharded counts.
class Histogram {
 public:
  static constexpr int kSubBuckets = 8;  ///< buckets per power of two
  static constexpr int kMinExp = -10;    ///< lowest bucketed value ~ 1e-3
  static constexpr int kMaxExp = 44;     ///< highest bucketed value ~ 1.7e13
  /// bucket 0 = underflow (v < 2^kMinExp), last = overflow (v >= 2^kMaxExp).
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets + 2;

  void observe(double v) noexcept;

  /// Bucket index a value lands in (exposed for tests and exposition).
  static std::size_t bucket_of(double v) noexcept;
  /// Inclusive lower / exclusive upper bound of a bucket's value range.
  static double bucket_lower(std::size_t b) noexcept;
  static double bucket_upper(std::size_t b) noexcept;

  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    std::array<std::uint64_t, kBuckets> buckets{};

    /// Quantile q in [0, 1] with log-interpolation inside the bucket;
    /// relative error bounded by half a bucket width (≈ 4.5%).  0 when
    /// empty.
    double quantile(double q) const;
    double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }
  };

  /// Consistent-enough snapshot: sums committed per-shard counts.  Safe
  /// concurrently with observe().
  Snapshot snapshot() const;

  std::uint64_t count() const noexcept;

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
    std::atomic<double> sum{0.0};
  };
  std::array<Shard, kShards> shards_{};
};

/// Exact small-sample quantile over an unsorted value vector (sorts a
/// copy).  The single home for the "sorted[idx] at q*(n-1)+0.5" math that
/// used to be duplicated in executor.cpp and micro_sim.cpp — use this for
/// bench-sized sample sets, Histogram for streaming/production paths.
double exact_quantile(std::vector<double> samples, double q);

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Named-metric registry.  register-or-lookup returns a stable reference;
/// call sites fetch their metric once (a function-local static, or a member
/// reference taken at construction) and record lock-free thereafter.
///
/// Two scopes (docs/SCOPE.md): the process-wide global() holds the
/// simulator and I/O metrics; every QueryExecutor and FleetRouter owns one
/// more, so several executors or routers in one process count apart.
class Registry {
 public:
  /// The process-wide registry (simulator and I/O metrics).
  static Registry& global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Register (first call) or look up (subsequent calls) a metric by name.
  /// Kind mismatches on re-lookup throw std::logic_error.
  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  Histogram& histogram(const std::string& name, const std::string& help = "");

  /// Value of the counter registered as `name`; 0 when none is.  A pure
  /// read: unlike counter(), it never registers anything.
  std::uint64_t counter_value(const std::string& name) const;

  struct Sample {
    std::string name;
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    std::uint64_t counter = 0;
    double gauge = 0.0;
    Histogram::Snapshot hist;
  };
  /// Point-in-time view of every registered metric, sorted by name.
  std::vector<Sample> snapshot() const;

 private:
  struct Entry {
    std::string help;
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  mutable std::mutex mutex_;
  std::map<std::string, Entry> metrics_;
};

}  // namespace netemu::scope
