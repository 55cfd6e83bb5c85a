#pragma once
// perfledger: shared declarations of the benchmark (see NOTES.md).
//
// One benchmark process spawns the shipped daemons (netemu_serve, netemu_fleet)
// as child processes, drives one workload through them in a closed loop,
// checks every answer, and prints the end-to-end metrics.  The traced mode
// replays every workload's calls into each layer's public functions under
// in-memory spans and prints the per-layer metrics instead.

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "netemu/faultline/process.hpp"

namespace perfledger {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------------ spans

struct SpanRecord {
  const char* name;       ///< static string: one of the span names below
  std::int32_t parent;    ///< index in the same buffer; -1 = root
  std::uint64_t request;  ///< request id shared by a request's spans
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// One thread's span log.  Spans nest through an open-span stack, so a span
/// opened while another is open becomes its child.
class SpanBuffer {
 public:
  std::int32_t open(const char* name, std::uint64_t request);
  void close(std::int32_t index);
  const std::vector<SpanRecord>& records() const { return records_; }

 private:
  std::vector<SpanRecord> records_;
  std::vector<std::int32_t> stack_;
};

/// RAII span; a null buffer records nothing (recording off).
class Span {
 public:
  Span(SpanBuffer* buffer, const char* name, std::uint64_t request)
      : buffer_(buffer), index_(buffer ? buffer->open(name, request) : -1) {}
  ~Span() {
    if (buffer_) buffer_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanBuffer* buffer_;
  std::int32_t index_;
};

/// Run `fn` inside a span and return the span's duration in ns.
template <class Fn>
double timed(SpanBuffer& buffer, const char* name, std::uint64_t request,
             Fn&& fn) {
  const std::int32_t index = buffer.open(name, request);
  fn();
  buffer.close(index);
  const SpanRecord& r = buffer.records()[static_cast<std::size_t>(index)];
  return static_cast<double>(r.end_ns - r.start_ns);
}

/// Every span buffer of a run.  Buffers are handed out one per thread and
/// keep stable addresses; the readers below run after the writers joined.
class Tracer {
 public:
  SpanBuffer& new_buffer();

  /// Self times (ns) of every span with this name: its duration minus the
  /// time its direct children cover.
  std::vector<double> self_times(const std::string& name) const;
  std::size_t size() const;
  /// One line per span: name, buffer, index, parent, request, start, end.
  bool write_tsv(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

// ---------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Quantile q in [0, 1] by linear interpolation (the same rule as Python's
/// statistics.quantiles with method="inclusive").  0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

// ----------------------------------------------------------------- config

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;  ///< holds netemu_serve and netemu_fleet
  std::string run_dir;  ///< cache files and span dumps of this run
};

// ---------------------------------------------------------------- daemons

/// Thread flags given to a spawned daemon.  `threads` is the compute pool
/// (netemu_serve only; 0 for netemu_fleet, which has none).
struct DaemonFlags {
  int threads = 0;
  int io_threads = 1;
  int offload_threads = 1;
};

class Daemon {
 public:
  Daemon(std::string role, std::string binary, DaemonFlags flags,
         std::vector<std::string> extra_args);
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawn on `port` (0 = ephemeral) and wait for the listen line.
  bool start(std::uint16_t port, std::string* error);
  std::uint16_t port() const { return port_; }
  /// "role binary threads=.. io_threads=.. offload_threads=.. port=..".
  std::string describe() const;
  /// Peak resident set (VmHWM) of the live process, in MB; 0 if unreadable.
  double peak_rss_mb() const;
  /// SIGTERM (graceful drain), then reap.
  void stop();

 private:
  std::string role_;
  std::string binary_;
  DaemonFlags flags_;
  std::vector<std::string> extra_args_;
  netemu::ManagedProcess process_;
  std::uint16_t port_ = 0;
};

struct Deployment {
  std::vector<std::unique_ptr<Daemon>> daemons;
  std::uint16_t entry_port = 0;  ///< where the workload's requests go
  std::vector<std::uint16_t> backend_ports;  ///< fleet backends, by index
  std::vector<std::string> backend_ids;      ///< their rendezvous identities

  /// Summed VmHWM of every spawned daemon, read while they still run.
  double peak_rss_mb() const;
  void stop();
};

// -------------------------------------------------------------- workloads

/// Closed-loop outcome: latencies of correct answers and the counts.
struct LoopStats {
  std::vector<double> latencies_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double elapsed_s = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  /// Closed-loop connections the benchmark holds open.
  virtual int connections() const = 0;
  /// Threads that can run at once: compute-pool threads summed over every
  /// daemon, plus one per in-flight request on the hit workloads.
  virtual int thread_budget() const = 0;

  /// Spawn the daemons, warm them and send one untimed request of each
  /// shape.  Everything up to the first timed request.
  virtual bool setup(Deployment& deployment, std::string* error) = 0;
  /// Placement layout lines (identical in every run).
  virtual void describe(std::ostream& out, const Deployment& d) const = 0;

  /// The next timed-loop request on connection `conn`; `*tag` identifies
  /// what check() must expect.  Called only from that connection's thread.
  virtual const std::string& request(int conn, std::uint64_t* tag) = 0;
  /// Check one answer; false counts as a failed operation.
  virtual bool check(int conn, std::uint64_t tag,
                     const std::string& response) = 0;
  /// After timing, daemons still up: the sample checks that need
  /// in-process recomputation, and the fleet's own counters.  Returns the
  /// number of failed operations.
  virtual std::uint64_t verify(const Deployment& d, std::ostream& log) = 0;

  /// Traced replay of this workload's layer calls (per-layer metrics).
  virtual bool replay(Deployment& deployment, Tracer& tracer,
                      std::vector<Metric>& out, std::ostream& log) = 0;
};

const std::vector<std::string>& workload_names();
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const RunConfig& config);

/// Drive `w` closed-loop against `port` for `seconds`; spans go to `tracer`
/// when it is non-null.
LoopStats closed_loop(Workload& w, std::uint16_t port, double seconds,
                      Tracer* tracer);

}  // namespace perfledger
