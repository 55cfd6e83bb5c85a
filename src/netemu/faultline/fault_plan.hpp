#pragma once
// FaultPlan: the declarative half of netemu::faultline.
//
// A plan is a small set of probabilities and magnitudes describing which
// faults to inject where: connection drops and short reads/writes at the
// socket layer, slow I/O, disk-persist failures and torn (truncated) cache
// writes, and worker stalls inside the executor's compute path.  All
// randomness flows from `seed`, so a chaos run is reproducible from its
// plan spec alone (see docs/FAULTLINE.md).
//
// Spec syntax (round-trips through parse()/spec()):
//
//   seed=42,drop=0.02,partial=0.3,slow=0.1:2,disk_fail=0.2,torn=0.3,stall=0.05:20
//
// where `slow` and `stall` take `probability[:milliseconds]`.  Omitted keys
// keep their defaults (probability 0 = fault disabled).

#include <cstdint>
#include <optional>
#include <string>

namespace netemu {

struct FaultPlan {
  std::uint64_t seed = 1;

  // Socket layer (server shards, ExchangePool, LineChannel).
  double drop_p = 0.0;     ///< per-I/O-op chance the connection "drops"
  double partial_p = 0.0;  ///< per-I/O-op chance of a short read/write
  double slow_p = 0.0;     ///< per-I/O-op chance of sleeping slow_ms first
  std::uint32_t slow_ms = 2;

  // Disk layer (ResultCache persistence).
  double disk_fail_p = 0.0;  ///< chance a save() fails cleanly (no file change)
  double torn_p = 0.0;       ///< chance a save() leaves a truncated file behind

  // Compute layer (QueryExecutor workers).
  double stall_p = 0.0;  ///< per-compute chance of sleeping stall_ms first
  std::uint32_t stall_ms = 20;

  /// True when any fault has nonzero probability.
  bool enabled() const;

  /// Canonical spec string (only non-default fields, seed always included).
  std::string spec() const;

  /// Parse a spec string.  Returns nullopt and sets *error on malformed
  /// keys, probabilities outside [0, 1], or bad numbers.
  static std::optional<FaultPlan> parse(const std::string& spec,
                                        std::string* error = nullptr);

  /// A moderate randomized plan derived deterministically from `seed` —
  /// what the chaos soak sweeps.  Every fault kind is enabled; sleeps are
  /// kept to a few milliseconds so a soak stays fast.
  static FaultPlan for_seed(std::uint64_t seed);
};

}  // namespace netemu
