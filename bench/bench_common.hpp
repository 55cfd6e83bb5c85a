#pragma once
// Shared helpers for the bench binaries that regenerate the paper's tables
// and figures.  Each bench is a standalone executable printing an ASCII
// table plus a PASS/CHECK verdict line per row, so `for b in build/bench/*`
// produces the whole evaluation.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "netemu/bandwidth/theory.hpp"
#include "netemu/faultline/process.hpp"
#include "netemu/topology/factory.hpp"
#include "netemu/util/stats.hpp"
#include "netemu/util/table.hpp"

namespace netemu::bench {

// ------------------------------------------------------- backend processes
// soak and scatter_speedup spawn real netemu_serve child processes; the
// fork/exec + listen-line handshake lives here so they share one copy.

/// Default path of the netemu_serve binary for a bench living in
/// build/bench/ (override with --serve-bin).
inline std::string default_serve_bin(const std::string& program) {
  const std::size_t slash = program.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : program.substr(0, slash);
  return dir + "/../examples/netemu_serve";
}

/// Arguments for one spawned netemu_serve backend.  `port` 0 binds an
/// ephemeral port (the bound port is parsed back out of the listen line);
/// an empty `cache_file` runs memory-only (--no-persist).
struct ServeSpawn {
  std::uint16_t port = 0;
  std::string cache_file;
  int threads = 2;
  int queue = 64;
  std::vector<std::string> extra_args;  ///< appended verbatim
};

/// fork/exec one netemu_serve and block until it prints its listen line;
/// `*port_out` (when non-null) receives the bound port.  False + *error on
/// spawn failure, no listen line within 10 s, or an unparseable one.
/// Teardown is the caller's choice: ManagedProcess RAII / kill_hard() for a
/// crash, terminate() for a graceful SIGTERM drain.
inline bool spawn_serve(ManagedProcess& proc, const std::string& serve_bin,
                        const ServeSpawn& spawn, std::uint16_t* port_out,
                        std::string* error) {
  std::vector<std::string> argv = {
      serve_bin,
      "--port", std::to_string(spawn.port),
      "--threads", std::to_string(spawn.threads),
      "--queue", std::to_string(spawn.queue),
  };
  if (spawn.cache_file.empty()) {
    argv.push_back("--no-persist");
  } else {
    argv.push_back("--cache-file");
    argv.push_back(spawn.cache_file);
  }
  argv.insert(argv.end(), spawn.extra_args.begin(), spawn.extra_args.end());
  if (!proc.start(argv, error)) return false;
  std::string line;
  if (!proc.read_stdout_line(line, 10000)) {
    *error = serve_bin + ": no listen line within 10s (exit status " +
             std::to_string(proc.exit_status()) + ")";
    return false;
  }
  const std::string prefix = "listening on 127.0.0.1:";
  if (line.rfind(prefix, 0) != 0) {
    *error = "unexpected listen line: " + line;
    return false;
  }
  if (port_out) {
    *port_out =
        static_cast<std::uint16_t>(std::stoi(line.substr(prefix.size())));
  }
  return true;
}

/// Machine ladder: instances of one family at geometrically growing sizes.
struct Ladder {
  Family family;
  unsigned k;
  std::vector<std::size_t> targets;
  const char* note = "";
};

inline std::string ladder_label(const Ladder& l) {
  std::string s = family_name(l.family);
  if (family_is_dimensional(l.family)) s += std::to_string(l.k);
  return s;
}

/// The Table 4 measurement ladders.  Sizes are capped per family by the
/// router in use: algebraically-routed families scale further than the
/// BFS-routed ones (whose distance-field cache is the limit).
inline std::vector<Ladder> table4_ladders() {
  return {
      {Family::kLinearArray, 1, {64, 128, 256, 512}},
      {Family::kRing, 1, {64, 128, 256, 512}},
      {Family::kGlobalBus, 1, {64, 128, 256, 512}},
      {Family::kTree, 1, {63, 127, 255, 511, 1023}},
      {Family::kFatTree, 1, {63, 127, 255, 511, 1023}},
      {Family::kWeakPPN, 1, {63, 127, 255, 511, 1023}},
      {Family::kXTree, 1, {63, 127, 255, 511, 1023, 2047, 4095}},
      {Family::kMesh, 2, {64, 256, 1024, 4096}},
      {Family::kMesh, 3, {64, 512, 4096}},
      {Family::kTorus, 2, {64, 256, 1024, 4096}},
      {Family::kXGrid, 2, {64, 256, 1024, 4096}},
      {Family::kMeshOfTrees, 2, {176, 736, 3008}, "sides 8/16/32"},
      {Family::kMultigrid, 2, {85, 341, 1365, 5461}},
      {Family::kPyramid, 2, {85, 341, 1365, 5461}},
      {Family::kButterfly, 1, {192, 448, 1024, 2304, 5120, 11264}},
      {Family::kWrappedButterfly, 1, {160, 384, 896, 2048, 4608}},
      {Family::kDeBruijn, 1, {64, 256, 1024, 4096}},
      {Family::kShuffleExchange, 1, {64, 256, 1024, 4096, 8192}},
      {Family::kCCC, 1, {160, 384, 896, 2048, 4608}},
      {Family::kHypercube, 1, {64, 256, 1024, 4096}},
      {Family::kMultibutterfly, 1, {192, 448, 1024, 2304, 5120}},
      {Family::kExpander, 1, {64, 256, 1024, 4096}},
  };
}

/// Exit-code accumulator: benches return nonzero when a shape check fails,
/// without aborting the remaining rows.
class Verdict {
 public:
  void check(bool ok, const std::string& what) {
    if (!ok) {
      ++failures_;
      std::cout << "CHECK FAILED: " << what << "\n";
    }
  }
  int exit_code() const { return failures_ == 0 ? 0 : 1; }
  int failures() const { return failures_; }

 private:
  int failures_ = 0;
};

inline void print_header(const std::string& title) {
  std::cout << "\n==== " << title << " ====\n\n";
}

/// Minimal ASCII log-log chart: one row per x, bars proportional to
/// lg(value); series glyphs overlaid left to right.
inline void ascii_loglog_chart(
    const std::vector<double>& xs,
    const std::vector<std::pair<std::string, std::vector<double>>>& series,
    int width = 60) {
  double lo = 1e300, hi = 0;
  for (const auto& [name, ys] : series) {
    for (double y : ys) {
      if (y > 0) {
        lo = std::min(lo, y);
        hi = std::max(hi, y);
      }
    }
  }
  if (hi <= lo) hi = lo + 1;
  const double llo = std::log2(lo), lhi = std::log2(hi);
  const char glyphs[] = "*o+x";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    std::string line(static_cast<std::size_t>(width) + 1, ' ');
    for (std::size_t s = 0; s < series.size(); ++s) {
      const double y = series[s].second[i];
      if (y <= 0) continue;
      const int pos = static_cast<int>(
          (std::log2(y) - llo) / (lhi - llo) * width);
      line[static_cast<std::size_t>(std::clamp(pos, 0, width))] =
          glyphs[s % 4];
    }
    std::printf("  %10.0f |%s\n", xs[i], line.c_str());
  }
  std::printf("  %10s  ", "");
  for (std::size_t s = 0; s < series.size(); ++s) {
    std::printf("[%c %s] ", glyphs[s % 4], series[s].first.c_str());
  }
  std::printf("   (log2 scale %.1f..%.1f)\n", llo, lhi);
}

}  // namespace netemu::bench
