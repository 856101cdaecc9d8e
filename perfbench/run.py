#!/usr/bin/env python3
"""Build the benchmark from source (first run only) and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload frame-busy|sweep-lanes|sweep-checked \
        --seed N --seconds S --trace 0|1 [--size full|tiny]

The simulator library is compiled from ../src together with the
benchmark driver into .bench_build/perfbench (RelWithDebInfo, the
repository default); later runs only re-check that build. Build output
goes to stderr, so the last line of stdout stays the driver's JSON
result. The exit status is the driver's: 0 only when every output
verified.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD_DIR, "vkbench")


def build():
    """Configure once, then build; returns False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: simulator sources not found under "
              f"{os.path.join(ROOT, 'src')}", file=sys.stderr)
        return False
    jobs = str(max(1, min(len(os.sched_getaffinity(0)), 4)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 2
    sys.stdout.flush()
    # A SIGTERM to this script stops the driver too, and waits for it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    child = subprocess.Popen([BINARY, "--workdir", WORK_DIR] + sys.argv[1:])
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.terminate()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
