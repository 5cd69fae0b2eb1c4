#!/usr/bin/env python3
"""Run the ewcd benchmark for one workload.

    python3 perfbench/run.py --workload shard_light --seed 1 --seconds 30 --trace 0

Run from the root of the repository. Builds the repository's libraries,
`ewcsim` and the benchmark driver (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR or .bench_build, runs the benchmark's self-tests, then the
driver. The driver's last output line is the result: one JSON object with
`correct`, `attempted`, `failed` and `metrics`. Exits non-zero, without a
result line, when the build, the self-tests or the driver fail.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("shard_light", "shard_heavy", "fleet_light")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build incrementally. True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if cfg.returncode != 0:
            log("perfbench: configure failed:\n" + cfg.stderr[-4000:])
            return False
    b = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True)
    if b.returncode != 0:
        log("perfbench: build failed:\n" + b.stdout[-4000:])
        return False
    return True


def stop_group(pgid):
    """Stop whatever the driver left in its process group and wait for it."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.02)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(build_dir):
        return 1
    selftest = subprocess.run([os.path.join(build_dir, "ewcbench_selftest")],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=60)
    if selftest.returncode != 0:
        log("perfbench: self-tests failed:\n" + selftest.stdout)
        return 1

    # Sockets and server logs live in a per-run directory inside the build
    # directory, so a run writes nothing outside the checkout.
    run_dir = os.path.join(build_dir, "run", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "ewcbench"),
           "--ewcsim", os.path.join(build_dir, "ewc_tools", "ewcsim"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # SIGTERM unwinds through the finally below, so the driver's process
    # group (it and every server it spawned) is stopped with this script.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    proc = subprocess.Popen(cmd, cwd=run_dir, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out")
        out = ""
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        stop_group(proc.pid)
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        log(line)
    if proc.returncode != 0 or not lines:
        log("perfbench: driver exited with %s" % proc.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("perfbench: driver printed no result: " + lines[-1])
        return 1
    for name in os.listdir(run_dir):
        os.unlink(os.path.join(run_dir, name))
    os.rmdir(run_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
