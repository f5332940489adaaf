#!/usr/bin/env python3
"""Build and run the repository's benchmark.

    python3 perfbench/run.py --workload <suite|large|service|certify> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
perfbench/ (which builds the libraries under src/ from source) into
.bench_build/perfbench; later runs only bring that build up to date.
The last line of standard output is the benchmark's JSON result; the
exit code is non-zero when the build, a check or the run fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 850
# A run stops starting rounds at --seconds; the margin covers the
# round in flight, the final checks and process start-up.
RUN_MARGIN_S = 60


def build():
    """Configure (once) and build; build output goes to stderr."""
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp  # keep the compiler's temporaries in the checkout
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD, *gen,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                      # The product's default optimisation, minus -g.
                      "-DCMAKE_CXX_FLAGS_RELWITHDEBINFO=-O2 -DNDEBUG"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            if cmd[1] == "-S":  # a failed configure must not stick
                shutil.rmtree(BUILD, ignore_errors=True)
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def run_timeout(args):
    """Seconds a run may take: twice its --seconds plus RUN_MARGIN_S."""
    seconds = 20.0  # the program's default
    if "--seconds" in args[:-1]:
        try:
            seconds = float(args[args.index("--seconds") + 1])
        except ValueError:
            seconds = 0.0  # the program rejects it at once
    if not 0.0 < seconds <= 600.0:
        seconds = 0.0
    return 2 * seconds + RUN_MARGIN_S


def main():
    build()
    binary = os.path.join(BUILD, "perfbench")
    timeout = run_timeout(sys.argv[1:])
    try:
        done = subprocess.run([binary, *sys.argv[1:]], cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %g s" % timeout)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
