#pragma once
// ExchangePool: the one engine that sends a line-protocol request and
// retries it, run on a Reactor.  An exchange sends one request line to
// 127.0.0.1:<port> over a pooled non-blocking connection and ends in
// exactly one outcome: a response document (a final shed is flagged
// kOverloaded) or a classified failure — connect refused, transport (a
// drop or a timeout), protocol (an unparseable line), deadline (the
// request's own budget ran out).  Client::request_outcome runs one on a
// reactor its caller's thread turns; a FleetRouter runs each race leg as
// one on a shard's reactor.
//
// Client::RetryPolicy applies, with every wait a reactor timer:
//   - a refused connect ends the exchange at once, with no backoff (the
//     backend process is down; the caller fails over);
//   - a transport or protocol failure retries on a fresh connection after
//     the jittered exponential backoff, up to max_attempts;
//   - a shed, with retry_overloaded set, retries on the same connection
//     after the shed's retry_after_ms hint (jittered and capped like the
//     backoff; a hint of 0 takes the exponential schedule).  Without it,
//     or with no retry left, the shed document is the outcome;
//   - attempt_timeout_ms bounds each attempt (0: no bound);
//   - a deadline budget (the request's deadline_ms) covers the whole
//     exchange: each attempt's timeout and each backoff draw from what is
//     left, and retrying stops once it is spent.  An attempt that times
//     out with the budget spent ends the exchange as kDeadline.
//
// Connections: one request in flight per connection.  A finished exchange
// hands its connection back to the port's idle list (at most
// idle_per_port kept, the rest closed); an idle connection the backend
// hangs up is dropped when the hang-up arrives.  So the pool never holds
// more connections than exchanges it has had in flight at once.
//
// Single-threaded, like its reactor.  `done` callbacks run on the reactor
// at the end of a turn, never inside start().

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "netemu/scope/metrics.hpp"
#include "netemu/service/client.hpp"
#include "netemu/service/reactor.hpp"
#include "netemu/util/prng.hpp"

namespace netemu {

class FaultInjector;

class ExchangePool {
 public:
  using Done = std::function<void(Client::RequestOutcome outcome)>;

  /// `open_connections` (optional, not owned) tracks this pool's open
  /// connections; several pools may share one gauge.
  ExchangePool(Reactor& reactor, Client::RetryPolicy policy,
               std::size_t idle_per_port,
               scope::Gauge* open_connections = nullptr);
  /// Closes every connection; exchanges still in flight end without
  /// running their callbacks.
  ~ExchangePool();

  ExchangePool(const ExchangePool&) = delete;
  ExchangePool& operator=(const ExchangePool&) = delete;

  /// Send `line` (no trailing newline) to 127.0.0.1:`port`; `done` runs
  /// once with the outcome.  `budget_ms` > 0 is the deadline budget.
  void start(std::uint16_t port, std::string line, std::uint64_t budget_ms,
             Done done);

  /// Exchanges whose request line is not yet fully written (connecting,
  /// backing off, or blocked on a full socket buffer).
  std::size_t unsent() const;

  /// Route every send and read through a fault injector (chaos testing):
  /// a drop fails the attempt as a transport failure, a clamped length
  /// makes a short transfer.  Not owned; nullptr disables.
  void set_fault_injector(FaultInjector* injector) { faults_ = injector; }

 private:
  struct Conn;
  struct Exchange;

  void begin_attempt(Exchange& ex);
  /// Retry after the backoff (`hint_ms` > 0: a shed's hint instead of the
  /// exponential schedule), or finish when no attempt or budget is left.
  void retry_after(Exchange& ex, std::uint64_t hint_ms = 0);
  void finish(Exchange& ex);
  void on_conn_event(Conn& conn, std::uint32_t events);
  /// Write pending output; false on a transport error (conn still open).
  bool flush(Conn& conn);
  /// `reusable`: the connection may go back to the idle list.
  void on_response(Conn& conn, std::string line, bool reusable);
  void fail_attempt(Conn& conn, RequestFailure failure, std::string error);
  void on_timeout(Exchange& ex, std::uint64_t timeout_ms);
  Conn* open(std::uint16_t port, int* connect_errno);
  void release(Conn& conn);
  void close(Conn& conn);

  Reactor& reactor_;
  Client::RetryPolicy policy_;
  std::size_t idle_per_port_;
  scope::Gauge* open_connections_;
  FaultInjector* faults_ = nullptr;
  Prng jitter_;
  std::uint64_t next_id_ = 1;
  std::unordered_map<std::uint64_t, std::unique_ptr<Exchange>> live_;
  std::unordered_map<Conn*, std::unique_ptr<Conn>> conns_;
  std::unordered_map<std::uint16_t, std::vector<Conn*>> idle_;
  /// Closed connections, freed at the end of the turn (a connection may
  /// close from inside its own event handler).
  std::vector<std::unique_ptr<Conn>> closed_;
};

}  // namespace netemu
