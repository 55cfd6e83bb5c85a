#pragma once
// BackendHealth: the per-backend circuit-breaker state machine.
//
//            consecutive transport failures >= threshold
//   kClosed ────────────────────────────────────────────► kOpen
//      ▲                                                    │
//      │ probe successes >= close_after_successes           │ open_cooldown
//      │                                                    ▼
//      └──────────────────────────────────────────────  kHalfOpen
//                        probe failure ──► back to kOpen
//
// Closed admits everything; open admits nothing (the router skips to the
// next rendezvous choice); half-open admits exactly one in-flight probe at
// a time — live traffic or the router's periodic health-op probe, whichever
// arrives first — so a recovering backend is tested without being flooded.
//
// Only *transport* failures (refused connects, dropped/timed-out
// connections) trip the breaker.  Server-side error documents and
// admission-control sheds are authoritative answers from a live process —
// the router fails sheds over, but they do not count against health.
//
// All methods take the caller's clock (`now_ms`, any monotonic ms counter)
// so tests drive transitions without sleeping.  Not thread-safe; the
// FleetRouter guards instances with its own mutex.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace netemu {

class BackendHealth {
 public:
  struct Options {
    /// Consecutive transport failures that open the breaker.
    int failure_threshold = 3;
    /// Time spent open before probe traffic is admitted (half-open).
    std::uint64_t open_cooldown_ms = 500;
    /// Probe successes in half-open needed to close again.
    int close_after_successes = 1;
    /// Rolling outcome window (stats only; 0 disables).
    std::size_t window = 64;
  };

  enum class State { kClosed, kOpen, kHalfOpen };
  static const char* state_name(State s);

  BackendHealth();  // all-default Options
  explicit BackendHealth(Options options);

  /// Current state; lazily transitions kOpen -> kHalfOpen once the cooldown
  /// has elapsed.
  State state(std::uint64_t now_ms);

  /// May a request be sent now?  Closed: always.  Open: never.  Half-open:
  /// only while no other probe is in flight (a true return reserves the
  /// probe slot until the next record_success/record_failure).
  bool allow(std::uint64_t now_ms);

  /// A response document arrived (any "ok" value — the transport worked).
  void record_success(std::uint64_t now_ms);

  /// A transport-level failure (refused, dropped, timed out).
  void record_failure(std::uint64_t now_ms);

  /// An attempt ended without a verdict on the backend (the request's own
  /// deadline ran out): nothing is counted, but a half-open probe slot is
  /// freed for the next request or probe.
  void release(std::uint64_t now_ms);

  int consecutive_failures() const { return consecutive_failures_; }
  /// Transitions into kOpen (initial ejections + half-open re-openings).
  std::uint64_t ejections() const { return ejections_; }
  /// Failure fraction over the rolling window (0 when empty).
  double window_failure_rate() const;

  const Options& options() const { return options_; }

 private:
  void to_open(std::uint64_t now_ms);
  void record_window(bool failure);

  Options options_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  int half_open_successes_ = 0;
  bool probe_inflight_ = false;
  std::uint64_t opened_at_ms_ = 0;
  std::uint64_t ejections_ = 0;

  // Rolling outcome ring: true = failure.
  std::vector<bool> window_;
  std::size_t window_next_ = 0;
  std::size_t window_count_ = 0;
  std::size_t window_failures_ = 0;
};

}  // namespace netemu
