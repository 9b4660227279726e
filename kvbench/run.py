#!/usr/bin/env python3
"""Build and run the repository benchmark (kvbench).

Usage, from the root of a checkout:

    python3 kvbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 kvbench/run.py --selftest

The first call configures and builds kvbench/ (which compiles src/ and
tools/ido_serve.cpp) into .bench_build/kvbench; later calls rebuild only
what changed.  Run files (heaps, port files, Chrome traces) go to
.bench_build/kvbench-run.  The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; see kvbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "kvbench")
WORK = os.path.join(OUT, "kvbench-run")
WORKLOADS = ("serve_read_mostly", "fase_write_heavy",
             "routed_replicated_write", "crash_restart")
RUN_TIMEOUT_S = 160  # leaves room for the build check and reaping


def child_env():
    """Keep compiler and program temporaries inside the checkout."""
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    os.makedirs(OUT, exist_ok=True)
    log_path = os.path.join(OUT, "kvbench-build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = (
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "kvbench",
         "ido_serve"],
    )
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT, env=child_env(), timeout=880)
            if rc.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("kvbench: build failed (%s)\n" % " ".join(cmd))
                return False
    # Write the build's dirty pages back now, so background writeback
    # does not overlap the measurement (the heaps are file mappings).
    os.sync()
    return True


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def reap_group(pgid):
    """SIGKILL whatever is left of the run's process group, then wait."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run(argv):
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("kvbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        rc = 1
    reap_group(proc.pid)
    proc.wait()
    return rc


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if not build():
        return 1
    binary = os.path.join(BUILD, "kvbench")
    if args.selftest:
        return run([binary, "--selftest"])
    return run([binary, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--serve-bin", os.path.join(BUILD, "ido_serve"),
                "--work-dir", WORK, "--commit", commit()])


if __name__ == "__main__":
    sys.exit(main())
