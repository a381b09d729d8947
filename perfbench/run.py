#!/usr/bin/env python3
"""Builds the fnc2cpp benchmark from source and runs one workload.

    python3 perfbench/run.py --workload compile|service|batch --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --inputs-digest --seed N

Run it from the root of a checkout. The build (CMake, Release with debug
info) goes to $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the
variable is unset; the first run builds, later runs only re-check it. Every
file the benchmark writes (artifact caches, the fnc2d socket, native-module
scratch files, trace spans) goes under that build directory, and the
benchmark's child processes are waited for before this script exits.

Arguments other than the build-related ones are passed through to the
perfbench binary (see perfbench/src/Main.cpp); its last line of standard
output is the JSON result.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd, env):
    """Runs a build step with its output on stderr (stdout stays the
    result channel)."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    if proc.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build(out, env):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("fnc2cpp sources not found next to perfbench/ (src/CMakeLists.txt)")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(tool + " not found")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", out, "-j", jobs], env)
    exe = os.path.join(out, "perfbench")
    if not os.access(exe, os.X_OK):
        fail("build produced no perfbench binary")
    return exe


def main(argv):
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ)
    # Compilers (the build and the native backend) and the native build
    # scratch directories use TMPDIR; keep them inside the checkout.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    exe = build(out, env)

    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    args = [exe] + argv
    if "--trace-dir" not in argv:
        args += ["--trace-dir", work]
    proc = subprocess.Popen(args, cwd=work, env=env, start_new_session=True)

    def stop(*_):
        # The benchmark and anything it started (the native build's
        # compiler) share one process group.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("interrupted")

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    shutil.rmtree(tmp, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
