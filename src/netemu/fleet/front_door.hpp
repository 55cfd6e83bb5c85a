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
//   queries   -> raced via FleetRouter::race (big estimate sweeps scatter);
//                the response document is passed through annotated with
//                "served_by" (and "hedged").
//
// handle() runs on the reactor of the Server shard that framed the line
// and answers when the backends' lines arrive: no thread hand-off, no
// thread per attempt.  handle_line() is its blocking wrapper.
//
// Trace minting: a query carrying "trace":true (boolean) gets a fresh
// trace id minted here — for clients that want tracing but cannot mint
// (shell one-liners).  With Options::trace_all every untraced query gets
// one.  String "trace" ids pass through untouched.

#include <chrono>
#include <functional>
#include <string>

#include "netemu/fleet/router.hpp"
#include "netemu/fleet/scatter.hpp"
#include "netemu/service/reactor.hpp"
#include "netemu/service/server.hpp"
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

  /// One answered request line.
  struct Answer {
    std::string line;       ///< the response line (no trailing newline)
    bool shutdown = false;  ///< a shutdown op: stop the server after it
    bool drain = false;     ///< a drain op: run the daemon's drain sequence
  };

  /// Handle one request line (no trailing newline) on `reactor`, the
  /// fleet-side twin of handle_request_line(); `done` runs there once, now
  /// or when the backends' lines arrive.  `peer` is the connection's peer
  /// tag (Server::LineHandler): a query op carrying no "client" field is
  /// stamped "peer:<peer>" before routing, so backend guards can tell the
  /// fleet's callers apart even though every backend sees the same
  /// front-door source address.
  void handle(Reactor& reactor, const std::string& line,
              const std::string& peer, std::function<void(Answer)> done);

  /// Blocking wrapper of handle() on one of the router's loops; returns the
  /// response line.  A drain op sets `drain_requested` (when non-null).
  std::string handle_line(const std::string& line, bool* shutdown_requested,
                          bool* drain_requested = nullptr,
                          const std::string& peer = {});

  /// The scatterer's counters (tests and the `fleet` op).
  Scatterer::Stats scatter_stats() const { return scatterer_.stats(); }

 private:
  /// `drain_honored`: whether a drain op's ack may promise a drain.
  void dispatch(Reactor& reactor, const std::string& line,
                const std::string& peer, bool drain_honored,
                std::function<void(Answer)> done);
  void handle_trace(Reactor& reactor, const Json& request,
                    std::function<void(Answer)> done);
  std::string response_line(FleetRouter::Result r) const;

  FleetRouter& router_;
  Options options_;
  Scatterer scatterer_;
};

/// netemu_fleet's graceful drain (docs/LIFECYCLE.md): close the listener,
/// give the router's races and fan-outs in flight up to `budget` to land,
/// then stop the server.  Returns how long it took.
std::chrono::milliseconds drain_front_door(Server& server,
                                           const FleetRouter& router,
                                           std::chrono::milliseconds budget);

}  // namespace netemu
