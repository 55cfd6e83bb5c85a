// perfledger: one workload per invocation.
//
//   perfledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              --bin-dir <dir with netemu_serve, netemu_fleet>
//              --run-dir <scratch dir>
//
// Untraced (--trace 0): set up the workload five times (setup_s is their
// median), drive the last set-up closed-loop for --seconds, check every
// answer, verify a sample in-process, and print the end-to-end metrics.
// Traced (--trace 1): drive the workload for --seconds/2 untraced and
// --seconds/2 with span recording on (the tracing overhead), then replay
// every workload's layer calls under spans and print the per-layer metrics.
// The last line of stdout is the JSON result; the exit status is nonzero
// when any answer was wrong.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "ledger.hpp"
#include "netemu/util/cli.hpp"

using namespace perfledger;

namespace {

constexpr int kSetups = 5;

std::string loadavg() {
  std::ifstream in("/proc/loadavg");
  std::string one, five, fifteen;
  in >> one >> five >> fifteen;
  return one + "/" + five + "/" + fifteen;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  char value[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

void print_env(const Workload& w, const Deployment& d, long nproc) {
  std::cout << "env nproc=" << nproc << " connections=" << w.connections()
            << " thread_budget=" << w.thread_budget() << "\n";
  for (const auto& daemon : d.daemons) {
    std::cout << "daemon " << daemon->describe() << "\n";
  }
}

/// Correct answers per second of a closed-loop run.
double throughput(const LoopStats& s) {
  return double(s.latencies_us.size()) / s.elapsed_s;
}

/// Print the closing lines (the JSON result last) and return the exit
/// status: nonzero when an answer was wrong or a metric is not a number.
int finish(bool ok, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric>& metrics) {
  bool finite = true;
  for (const Metric& m : metrics) finite = finite && std::isfinite(m.value);
  const bool correct = ok && failed == 0 && finite;
  std::cout << "loadavg_after " << loadavg() << "\n";
  std::cout << result_line(correct, attempted, failed, metrics) << std::endl;
  return correct ? 0 : 1;
}

int run_untraced(Workload& w, const RunConfig& config, long nproc) {
  std::vector<double> setups;
  Deployment d;
  for (int s = 0; s < kSetups; ++s) {
    d.stop();
    d = Deployment();
    std::string error;
    const auto t0 = Clock::now();
    if (!w.setup(d, &error)) {
      d.stop();
      std::cerr << "perfledger: set-up failed: " << error << "\n";
      return 1;
    }
    setups.push_back(seconds_since(t0));
  }
  print_env(w, d, nproc);
  w.describe(std::cout, d);

  const LoopStats loop = closed_loop(w, d.entry_port, config.seconds, nullptr);
  const double rss = d.peak_rss_mb();
  const std::uint64_t verify_failed = w.verify(d, std::cout);
  d.stop();

  const std::vector<Metric> metrics = {
      {"throughput_rps", throughput(loop), "1/s"},
      {"latency_p50_us", quantile(loop.latencies_us, 0.5), "us"},
      {"latency_p90_us", quantile(loop.latencies_us, 0.9), "us"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", rss, "MB"},
  };
  std::cout << "loop answers=" << loop.latencies_us.size()
            << " attempted=" << loop.attempted << " failed=" << loop.failed
            << " elapsed_s=" << loop.elapsed_s << " setups_s=";
  for (double s : setups) std::cout << s << " ";
  std::cout << "\n";
  return finish(loop.attempted > 0, loop.attempted,
                loop.failed + verify_failed, metrics);
}

int run_traced(Workload& w, const RunConfig& config, long nproc) {
  Tracer tracer;
  std::vector<Metric> metrics;
  Deployment d;
  std::string error;
  if (!w.setup(d, &error)) {
    d.stop();
    std::cerr << "perfledger: set-up failed: " << error << "\n";
    return 1;
  }
  print_env(w, d, nproc);
  w.describe(std::cout, d);

  // Tracing overhead: the same loop, half the time without recording and
  // half with it.
  const LoopStats plain =
      closed_loop(w, d.entry_port, config.seconds / 2, nullptr);
  const LoopStats traced =
      closed_loop(w, d.entry_port, config.seconds / 2, &tracer);
  const double plain_rps = throughput(plain);
  const double traced_rps = throughput(traced);
  metrics.push_back({"trace.untraced_throughput_rps", plain_rps, "1/s"});
  metrics.push_back({"trace.throughput_rps", traced_rps, "1/s"});
  metrics.push_back(
      {"trace.overhead_pct", 100.0 * (plain_rps - traced_rps) / plain_rps,
       "%"});
  // The client's own share of a timed request: the loop span minus its
  // round-trip and answer-check children (picking the request).
  metrics.push_back(
      {"trace.client_self_us", median(tracer.self_times("loop.request")) / 1e3,
       "us"});
  std::uint64_t attempted = plain.attempted + traced.attempted;
  std::uint64_t failed = plain.failed + traced.failed;

  // Every workload's layer replay, each on its own deployment; this
  // workload reuses the one it just drove.
  bool replays_ok = true;
  for (const std::string& name : workload_names()) {
    std::unique_ptr<Workload> other;
    Workload* target = &w;
    Deployment other_d;
    Deployment* target_d = &d;
    if (name != w.name()) {
      other = make_workload(name, config);
      if (other->thread_budget() > nproc) {
        std::cerr << "perfledger: refusing the " << name
                  << " replay: thread budget exceeds nproc\n";
        replays_ok = false;
        continue;
      }
      target = other.get();
      target_d = &other_d;
      if (!other->setup(other_d, &error)) {
        other_d.stop();
        std::cerr << "perfledger: replay set-up of " << name
                  << " failed: " << error << "\n";
        replays_ok = false;
        continue;
      }
    }
    const bool ok = target->replay(*target_d, tracer, metrics, std::cout);
    if (target == &w) failed += w.verify(d, std::cout);
    target_d->stop();
    ++attempted;
    if (!ok) {
      ++failed;
      std::cout << "replay of " << name << " saw a wrong answer\n";
    }
  }

  const std::string spans_path = config.run_dir + "/spans-" +
                                 config.workload + "-" +
                                 std::to_string(config.seed) + ".tsv";
  tracer.write_tsv(spans_path);
  std::cout << "spans " << tracer.size() << " written to " << spans_path
            << "\n";
  return finish(replays_ok, attempted, failed, metrics);
}

}  // namespace

int main(int argc, char** argv) {
  const netemu::Cli cli(argc, argv);
  RunConfig config;
  config.workload = cli.get("workload");
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  config.seconds = cli.get_double("seconds", 10.0);
  config.trace = cli.get_int("trace", 0) != 0;
  config.bin_dir = cli.get("bin-dir", ".");
  config.run_dir = cli.get("run-dir", ".");

  std::unique_ptr<Workload> w = make_workload(config.workload, config);
  if (!w || config.seconds <= 0.0) {
    std::cerr << "perfledger: --workload must be one of:";
    for (const std::string& name : workload_names()) std::cerr << " " << name;
    std::cerr << "; --seconds must be positive\n";
    return 2;
  }

  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  std::cout << "perfledger workload=" << config.workload
            << " seed=" << config.seed << " seconds=" << config.seconds
            << " trace=" << (config.trace ? 1 : 0) << "\n";
  std::cout << "loadavg_before " << loadavg() << "\n";
  if (w->thread_budget() > nproc) {
    std::cerr << "perfledger: refusing " << config.workload
              << ": thread budget " << w->thread_budget() << " exceeds nproc "
              << nproc << "\n";
    return 2;
  }
  return config.trace ? run_traced(*w, config, nproc)
                      : run_untraced(*w, config, nproc);
}
