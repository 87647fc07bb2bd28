#!/usr/bin/env python3
"""Builds and runs the VAQ wall-clock benchmark (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a VAQ checkout. The C++ binary vaq_perfbench is
configured and built (incrementally) into .bench_build/ from
perfbench/CMakeLists.txt, which compiles the repository's libraries from
src/; the binary then runs in the checkout root, so its scratch
directories (.bench_tmp/) land there too. Its output is passed through;
the last line is the JSON result. Exits non-zero, without a result line,
when the checkout has no VAQ sources, the build fails or the binary fails.
"""
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "vaq_perfbench")
# A run that takes longer than this is killed and reported as failed.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=1):
    sys.stderr.write("perfbench: " + message + "\n")
    sys.exit(code)


def run_quiet(cmd):
    """Runs a build step; shows its output only when it fails."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build step failed: " + " ".join(cmd))


def build():
    for required in ("src/CMakeLists.txt", "tools/pipeline_setup.cc"):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail("not a VAQ checkout: %s is missing" % required, code=2)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "vaq_perfbench",
               "-j", jobs])


def main():
    build()
    try:
        proc = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        # subprocess.run has already killed and reaped the binary. The
        # partial output arrives as bytes even in text mode.
        partial = exc.stdout or b""
        if isinstance(partial, bytes):
            partial = partial.decode(errors="replace")
        sys.stdout.write(partial)
        fail("vaq_perfbench timed out after %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        # Pass the report through, minus any result line.
        sys.stdout.write("\n".join(l for l in lines if not l.startswith("{")))
        sys.stdout.write("\n")
        fail("vaq_perfbench exited with %d" % proc.returncode,
             code=proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("vaq_perfbench printed no result line")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
