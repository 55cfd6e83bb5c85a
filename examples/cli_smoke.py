#!/usr/bin/env python3
"""CLI smoke: netemu_serve driven by netemu_query and netemu_top.

Starts a daemon on an ephemeral port, asks it a ping, a bandwidth query
and a deadline-bounded estimate through netemu_query, renders one
netemu_top frame of it, checks that a refused connect fails fast, and
stops the daemon through the shutdown op.  Every command runs under a
timeout; the script asserts exit codes and parsed output and exits 1 on
the first failure.

    python3 examples/cli_smoke.py <directory holding the example binaries>
"""

import json
import os
import re
import select
import shutil
import subprocess
import sys
import tempfile
import time

TIMEOUT_S = 60  # per command: a hang fails the smoke instead of the run


def fail(message):
    print(f"FAIL: {message}", flush=True)
    sys.exit(1)


def run(bin_dir, args, timeout=TIMEOUT_S):
    """Run one example binary; returns (result, wall seconds)."""
    cmd = [os.path.join(bin_dir, args[0])] + args[1:]
    print("$ " + " ".join(cmd), flush=True)
    started = time.monotonic()
    try:
        result = subprocess.run(cmd, capture_output=True, text=True,
                                timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{args[0]} timed out after {timeout} s")
    return result, time.monotonic() - started


def query(bin_dir, port, args):
    """netemu_query against the daemon: exit 0 and an "ok":true document."""
    result, _ = run(bin_dir, ["netemu_query", "--port", str(port)] + args)
    if result.returncode != 0:
        fail(f"netemu_query {args[0]} exited {result.returncode}: "
             f"{result.stdout.strip()} {result.stderr.strip()}")
    lines = result.stdout.strip().splitlines()
    doc = json.loads(lines[-1]) if lines else {}
    if doc.get("ok") is not True:
        fail(f"netemu_query {args[0]} answered {result.stdout.strip()}")
    return doc


def read_port(daemon, deadline_s=TIMEOUT_S):
    """The port from the daemon's `listening on 127.0.0.1:<port>` line."""
    fd = daemon.stdout.fileno()
    seen = b""
    deadline = time.monotonic() + deadline_s
    while True:
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            fail("netemu_serve printed no listening line")
        chunk = os.read(fd, 4096)
        if not chunk:
            fail(f"netemu_serve exited early ({daemon.wait()})")
        seen += chunk
        match = re.search(rb"listening on 127\.0\.0\.1:(\d+)", seen)
        if match:
            return int(match.group(1))


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    bin_dir = os.path.abspath(sys.argv[1])
    workdir = tempfile.mkdtemp(prefix="netemu_cli_smoke_")
    daemon = subprocess.Popen(
        [os.path.join(bin_dir, "netemu_serve"), "--port", "0",
         "--no-persist"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, cwd=workdir)
    try:
        port = read_port(daemon)

        pong = query(bin_dir, port, ["ping"]).get("result", {}).get("pong")
        if pong is not True:
            fail("ping answered without \"pong\":true")
        query(bin_dir, port, ["bandwidth", "--family", "Butterfly",
                              "--n", "4096"])
        query(bin_dir, port, ["estimate", "--family", "butterfly", "--n",
                              "64", "--trials", "2", "--deadline-ms", "5000"])

        top, _ = run(bin_dir, ["netemu_top", "--backends", str(port),
                               "--once"])
        if top.returncode != 0:
            fail(f"netemu_top exited {top.returncode}: {top.stderr.strip()}")
        if not re.search(rf"127\.0\.0\.1:{port}\s.*\bup\b", top.stdout):
            fail(f"netemu_top shows no live row for {port}:\n{top.stdout}")

        # Nothing listens on port 1: the connect is refused, and the client
        # must fail at once instead of running its retry schedule.
        refused, seconds = run(bin_dir, ["netemu_query", "ping", "--port",
                                         "1"])
        if refused.returncode != 1:
            fail(f"a refused connect exited {refused.returncode}, not 1")
        if seconds >= 2.0:
            fail(f"a refused connect took {seconds:.2f} s (>= 2 s)")

        query(bin_dir, port, ["shutdown"])
        try:
            code = daemon.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("netemu_serve did not exit after the shutdown op")
        if code != 0:
            fail(f"netemu_serve exited {code} after the shutdown op")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
        daemon.stdout.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print("PASS: cli smoke", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
