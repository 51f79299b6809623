#!/usr/bin/env python3
"""Builds and runs the FTC benchmark.

Run from the repository root:

    python3 ftcbench/run.py --workload monitor-64B --seed 1 --seconds 10 --trace 0
    python3 ftcbench/run.py --self-test     # the benchmark's own unit tests

The first call configures and builds a Release tree under .bench_build/
(or $CARGO_TARGET_DIR when set) from ftcbench/CMakeLists.txt, which pulls in
the library from src/. Later calls rebuild incrementally. The benchmark's
stdout is passed through; its last line is the JSON result. The exit code is
the benchmark's (nonzero on any failed correctness check) or 2 when the
build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "ftcbench")


def build(target):
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT)
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("ftcbench: build failed (%s)\n" % " ".join(cmd))
                # A failed configure must not leave a cache that skips it next
                # time.
                if cmd[1] == "-S":
                    cache = os.path.join(out, "CMakeCache.txt")
                    if os.path.exists(cache):
                        os.remove(cache)
                return None
    return os.path.join(out, target)


def main(argv):
    if argv[:1] == ["--self-test"]:
        exe = build("ftcbench_tests")
        return 2 if exe is None else subprocess.call([exe] + argv[1:])
    exe = build("ftcbench")
    if exe is None:
        return 2
    sys.stdout.flush()
    return subprocess.call([exe] + argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
