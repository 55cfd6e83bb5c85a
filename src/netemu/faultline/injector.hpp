#pragma once
// FaultInjector: the imperative half of netemu::faultline.
//
// One injector instance is shared by every hook point in a service stack
// (client exchanges, server shards, result cache, executor workers).  Each
// hook asks the injector whether to fault *this* operation; the injector
// draws from a single seeded PRNG stream and counts what it injected, so a
// chaos test can assert both that faults actually fired and that the stack
// absorbed them.
//
// Thread-safety: all hooks take an internal mutex (hook sites are syscalls
// or disk writes, so the lock is never the bottleneck).  Determinism is
// per-draw: the same seed produces the same fault sequence for a fixed
// order of hook calls; across threads the interleaving — and therefore
// which operation receives which fault — may vary, which is exactly the
// nondeterminism a chaos sweep wants while staying reproducible in the
// single-threaded unit tests.

#include <cstdint>
#include <mutex>

#include "netemu/faultline/fault_plan.hpp"
#include "netemu/util/prng.hpp"

namespace netemu {

class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  enum class IoFault {
    kNone,  ///< proceed (len possibly clamped for a short transfer)
    kDrop,  ///< behave as if the connection dropped
  };

  /// Socket hook: called before each read/write of up to `len` bytes.
  /// May sleep (slow I/O), clamp `len` (short transfer), or request a drop.
  IoFault on_io(std::size_t& len);

  enum class DiskFault {
    kNone,  ///< persist normally
    kFail,  ///< fail the save cleanly (no file change)
    kTorn,  ///< write only `torn_fraction` of the bytes, then "crash"
  };

  /// Disk hook: called once per ResultCache::save().  On kTorn,
  /// `torn_fraction` is set to the fraction of bytes to actually write.
  DiskFault on_disk_write(double& torn_fraction);

  /// Compute hook: called at the start of each worker computation; may
  /// sleep to simulate a stalled worker.
  void on_compute();

  struct Counts {
    std::uint64_t drops = 0;
    std::uint64_t shorts = 0;
    std::uint64_t slows = 0;
    std::uint64_t disk_fails = 0;
    std::uint64_t torn_writes = 0;
    std::uint64_t stalls = 0;
    std::uint64_t total() const {
      return drops + shorts + slows + disk_fails + torn_writes + stalls;
    }
  };
  Counts counts() const;

  const FaultPlan& plan() const { return plan_; }

 private:
  const FaultPlan plan_;
  mutable std::mutex mutex_;
  Prng rng_;
  Counts counts_;
};

}  // namespace netemu
