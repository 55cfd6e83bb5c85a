#!/usr/bin/env python3
"""perfledger entry point: build the benchmark and daemons, run one workload.

    python3 perfledger/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first run configures and builds the
package in perfledger/ (netemu's libraries, netemu_serve, netemu_fleet and
the `perfledger` binary) under $CARGO_TARGET_DIR (default .bench_build);
later runs only rebuild what changed.  The binary's stdout is passed
through, so its last line is the JSON result.  Build logs go to stderr.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["hit_direct", "estimate_cold", "fleet_hit", "scatter_sweep"]
# A run must end within 180 s; the build of a fresh checkout may take longer.
RUN_LIMIT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfledger: netemu sources not found next to perfledger/")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, target)
    build_dir = os.path.join(build_root, "perfledger")
    run_dir = os.path.join(build_root, "perfledger-run")
    os.makedirs(run_dir, exist_ok=True)
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit(f"perfledger: build failed: {err}")

    command = [os.path.join(build_dir, "perfledger"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--bin-dir", build_dir, "--run-dir", run_dir]
    # Its own process group, so a timeout or a crash of the benchmark
    # takes the daemons it spawned down with it.
    started = time.monotonic()
    bench = subprocess.Popen(command, cwd=run_dir, start_new_session=True)
    try:
        code = bench.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        code = None
    if code is None or code < 0:  # timed out, or killed by a signal
        try:
            os.killpg(bench.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        bench.wait()
    if code is None:
        sys.exit(f"perfledger: run exceeded {RUN_LIMIT_S} s "
                 f"({time.monotonic() - started:.0f} s)")
    sys.exit(code)


if __name__ == "__main__":
    main()
