#pragma once
// The fleet front door: the protocol handler netemu_fleet plugs between its
// listening Server and a FleetRouter.  Library code (not example glue) so
// tests can drive a whole fleet in-process, line in / line out.
//
// Op handling:
//   shutdown  -> ack; stops the front door only (backends are independent)
//   drain     -> ack; netemu_fleet stops accepting, lets in-flight proxied
//                requests land within --drain-ms, and exits (backends keep
//                running — drain THEM individually to stop compute)
//   fleet     -> router stats (per-backend health, shed/failover/hedge)
//   events    -> this process's scope flight recorder (breaker transitions
//                and hedge outcomes, with trace ids)
//   trace     -> span merge: the fleet's own spans (site "fleet") plus the
//                op fanned out to EVERY backend, each backend's spans
//                annotated with the site that recorded them
//   queries   -> routed via FleetRouter::request; the response document is
//                passed through annotated with "served_by" (and "hedged").
//
// Trace minting: a query carrying "trace":true (boolean) gets a fresh
// trace id minted here — for clients that want tracing but cannot mint
// (shell one-liners).  With Options::trace_all every untraced query gets
// one.  String "trace" ids pass through untouched.

#include <memory>
#include <string>

#include "netemu/fleet/router.hpp"
#include "netemu/fleet/scatter.hpp"
#include "netemu/util/json.hpp"

namespace netemu {

class FleetFrontDoor {
 public:
  struct Options {
    /// Mint a trace id for every query that did not bring one.  Off by
    /// default: tracing every request makes every backend record spans.
    bool trace_all = false;
    /// Scatter-gather decomposition of big estimate sweeps across the
    /// backends (docs/SCATTER.md).  scatter.min_trials = 0 disables it.
    Scatterer::Options scatter;
  };

  explicit FleetFrontDoor(FleetRouter& router, Options options);
  explicit FleetFrontDoor(FleetRouter& router)
      : FleetFrontDoor(router, Options()) {}

  /// Handle one request line (no trailing newline); returns the response
  /// line.  The fleet-side twin of handle_request_line().  A drain op sets
  /// `drain_requested` (when non-null) for the daemon's drain sequence.
  /// `peer` is the connection's peer tag (Server::LineHandler): a
  /// query op carrying no "client" field is stamped "peer:<peer>" before
  /// routing, so backend guards can tell the fleet's callers apart even
  /// though every backend sees the same front-door source address.
  std::string handle_line(const std::string& line, bool* shutdown_requested,
                          bool* drain_requested = nullptr,
                          const std::string& peer = {});

  /// The scatterer's counters (tests and the `fleet` op).
  Scatterer::Stats scatter_stats() const { return scatterer_.stats(); }

 private:
  std::string handle_trace(const Json& request);

  FleetRouter& router_;
  Options options_;
  Scatterer scatterer_;
};

}  // namespace netemu
