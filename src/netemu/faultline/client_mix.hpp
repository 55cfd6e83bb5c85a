#pragma once
// ClientMix: a deterministic population of client behaviour profiles for
// overload drills (`bench/soak --scenario overload` and the guard tests).
//
// An overload storm is only meaningful when the traffic is heterogeneous:
// the guard's promise is that WELL-BEHAVED clients keep their fair share
// while greedy and broken ones are contained.  This module fabricates that
// population reproducibly from one seed:
//
//   kWellBehaved — paces itself with think time between requests and
//                  honours retry_after_ms backoff hints after a shed
//   kGreedy      — closed-loop but zero think time, ignores every backoff
//                  hint, and asks for the most expensive queries it can
//   kMalformed   — interleaves protocol garbage (non-JSON, wrong-typed
//                  fields, unknown ops, oversized junk) with real requests
//
// Like FaultPlan, everything flows from `seed` so a storm is reproducible
// from its spec alone.  The profiles are pure data; the soak harness owns
// the sockets and the clock.

#include <cstdint>
#include <string>
#include <vector>

#include "netemu/util/prng.hpp"

namespace netemu {

enum class ClientKind {
  kWellBehaved,
  kGreedy,
  kMalformed,
};

const char* client_kind_name(ClientKind kind);

/// One client's behaviour contract in the storm.
struct ClientProfile {
  ClientKind kind = ClientKind::kWellBehaved;
  /// Stable guard identity ("well-0", "greedy-1", ...).  Harnesses send it
  /// as the protocol "client" field so fairness accounting is visible even
  /// when every connection shares one source address.
  std::string name;
  /// Per-client PRNG stream seed (derived from the mix seed and index).
  std::uint64_t seed = 0;
  /// Pacing between requests; 0 for greedy clients.
  std::uint32_t think_ms = 0;
  /// Sleep the server's retry_after_ms hint after a shed?
  bool honor_retry_after = false;
};

struct ClientMixSpec {
  std::uint64_t seed = 1;
  std::size_t well_behaved = 4;
  std::size_t greedy = 1;
  std::size_t malformed = 1;
  /// Well-behaved think time between requests.
  std::uint32_t think_ms = 5;
};

/// The deterministic population: well-behaved first, then greedy, then
/// malformed, each with an independent PRNG stream.
std::vector<ClientProfile> make_client_mix(const ClientMixSpec& spec);

/// One line of protocol garbage drawn from a seeded menu: invalid JSON,
/// JSON non-objects, unknown ops, wrong-typed fields, and oversized junk.
/// Every variant must be answered with an error line — never a crash, a
/// hang, or a dropped connection with queued valid requests behind it.
std::string malformed_request_line(Prng& prng);

}  // namespace netemu
