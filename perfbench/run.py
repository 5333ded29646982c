#!/usr/bin/env python3
"""Benchmark of record for sqlink: the paper's Figure 3/4 pipelines and the
query server.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first run builds the libraries
under src/ and perfbench/bench_of_record.cpp (Release) into .bench_build/;
later runs reuse that build. Prints a metadata line (commit, source digest,
host, build type) and the lines bench_of_record prints, then the result
object as the last line of stdout. Exits non-zero, without a result, when
the sources or the build are missing or broken, and non-zero with a result
when an operation failed or returned a wrong result.

--carts and --corrupt-op are passed through to bench_of_record; selftest.py
uses them to shrink the input and to check that the oracle rejects a damaged
result.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BUILD_TYPE = "Release"
WORKLOADS = ("fig3_stream", "fig3_dfs", "fig4_full_hit", "serve_4")
# One run must end within 180 s; the build (first run only) is outside this.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--carts", type=int, default=0)
    parser.add_argument("--corrupt-op", type=int, default=-1)
    return parser.parse_args()


def build():
    """Configures (once) and builds bench_of_record; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no src/CMakeLists.txt here: run from the root of a sqlink checkout")
        return None
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "bench_of_record",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log(f"build step failed: {' '.join(step)}")
            return None
    binary = os.path.join(BUILD_DIR, "bench_of_record")
    return binary if os.path.isfile(binary) else None


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """SHA-256 over the benchmarked sources, for checkouts without .git."""
    digest = hashlib.sha256()
    for top in ("src", os.path.relpath(BENCH_DIR, ROOT)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def run_benchmark(binary, args):
    """Runs bench_of_record in its own process group; returns (code, stdout)."""
    work = os.path.join(BUILD_ROOT, "work", str(os.getpid()))
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", work]
    if args.carts > 0:
        command += ["--carts", str(args.carts)]
    if args.corrupt_op >= 0:
        command += ["--corrupt-op", str(args.corrupt_op)]
    env = dict(os.environ, TMPDIR=tmp)
    for knob in ("FAILPOINTS", "SQLINK_TRACE", "SQLINK_METRICS_DUMP",
                 "SQLINK_OPS_PORT", "SQLINK_BENCH_JSON"):
        env.pop(knob, None)
    child = subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                             text=True, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
        code = child.returncode
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        log(f"bench_of_record killed (timeout {RUN_TIMEOUT_S} s or interrupt)")
        out, code = "", None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return code, out


def main():
    # A SIGTERM must also reach bench_of_record's process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args()
    binary = build()
    if binary is None:
        return 2
    code, out = run_benchmark(binary, args)
    lines = [line for line in out.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if code is None or not isinstance(result, dict) or set(result) != RESULT_KEYS:
        log(f"bench_of_record exited with {code} and no result line")
        return 3
    meta = {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "build_type": BUILD_TYPE,
        "nproc": os.cpu_count(),
        "host": platform.platform(),
        "python": platform.python_version(),
        "unix_time": round(time.time(), 3),
    }
    print(json.dumps({"run": meta}))
    for line in lines:
        print(line)
    sys.stdout.flush()
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
