#!/usr/bin/env python3
"""Build bench_layers from this checkout and run one workload.

Usage, from the root of a checkout:

    python3 bench/layers/run.py --workload NAME --seed N --seconds S \
        --trace 0|1

The program is built with CMake in $CARGO_TARGET_DIR/layers (default
.bench_build/layers) and keeps its temporary files there. Its standard
output is passed through, so the last line is the JSON result; build
output goes to standard error. Exits nonzero without a result when the
checkout holds no library to build or the build fails.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
# A run must end within 180 s; leave room to stop it cleanly.
RUN_TIMEOUT_S = 170


def build(build_dir):
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit("run.py: %s has no %s to build" % (ROOT, needed))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "bench_layers", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "bench_layers")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "layers")
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("run.py: build failed: %s" % e)

    cmd = [exe, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--trace=%d" % args.trace,
           "--tmp=" + os.path.join(build_dir, "tmp")]
    sys.stdout.flush()
    # Its own session, so a timeout stops the shard workers it forks too.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("run.py: bench_layers did not finish in %d s"
                 % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
