#!/usr/bin/env python3
"""Self-test of the benchmark of record, at a small input size.

    python3 perfbench/selftest.py

Run from the root of a source checkout. For every workload it runs the
untraced and the traced run end to end and checks the result line against
BENCHMARK.json: every metric present with its unit, end-to-end metrics
non-zero, and each per-layer metric non-zero where its layer runs and zero
where the layer is idle. It then checks that the oracle rejects a
deliberately corrupted result on every workload, and that the benchmark
exits non-zero without a result in a directory that holds only
BENCHMARK.json and perfbench/. Exits 0 when all checks pass.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
SMALL = ["--seconds", "1", "--carts", "20000"]
PIPELINES = {"fig3_stream", "fig3_dfs", "fig4_full_hit"}
STREAMING = {"fig3_stream", "fig4_full_hit"}
COMPUTING = {"fig3_stream", "fig3_dfs"}
ALL = PIPELINES | {"serve_4"}

# Per-layer metric -> workloads where its layer does work (value > 0).
ACTIVE = {
    "sql.plan_ms": ALL,
    "sql.prep_exec_ms": COMPUTING,
    "sql.rows_emitted": ALL,
    "transform.recode_map_ms": COMPUTING,
    "transform.apply_exec_ms": COMPUTING,
    "transform.kernel_ms": COMPUTING,
    "rewriter.rewrite_ms": PIPELINES,
    "cache.hit_frac": {"fig4_full_hit"},
    "stream.transfer_ms": STREAMING,
    "stream.bytes_per_row": STREAMING,
    "stream.send_frame_ms": STREAMING,
    "stream.recv_frame_ms": STREAMING,
    "net.conns": STREAMING,
    "table.encode_ms": STREAMING,
    "table.decode_ms": STREAMING,
    "table.encoded_bytes_per_row": STREAMING,
    "dfs.write_ms": {"fig3_dfs"},
    "dfs.bytes_per_row": {"fig3_dfs"},
    "ml.text_ingest_ms": {"fig3_dfs"},
    "ml.to_dataset_ms": PIPELINES,
    "ml.local_split_frac": PIPELINES,
    "serving.connect_ms": {"serve_4"},
    "serving.server_sql_ms": {"serve_4"},
    "serving.repeat_frac": {"serve_4"},
    "serving.latency_p99_ms": {"serve_4"},
}
# Metrics that must read exactly zero wherever they are reported.
ALWAYS_ZERO = {"stream.retries", "serving.rejected"}
# Layers that must stay idle (every metric zero) outside these workloads.
IDLE_OUTSIDE = {
    "stream.": STREAMING, "net.": STREAMING, "table.": STREAMING,
    "dfs.": {"fig3_dfs"}, "serving.": {"serve_4"},
    "transform.": COMPUTING,
}

failures = []


def check(condition, message):
    if not condition:
        failures.append(message)
        print(f"FAIL {message}", flush=True)


def run(cwd, *args):
    script = os.path.join(cwd, "perfbench", "run.py")
    done = subprocess.run([sys.executable, script, *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if done.returncode not in (0, 1):
        sys.stderr.write(done.stderr[-2000:])
    return done.returncode, result


def check_metrics(label, result, specs):
    metrics = result.get("metrics", {})
    check(set(metrics) == {s["name"] for s in specs},
          f"{label}: metric names differ from BENCHMARK.json")
    for spec in specs:
        got = metrics.get(spec["name"], {})
        check(got.get("unit") == spec["unit"],
              f"{label}: {spec['name']} unit {got.get('unit')!r}")
    return {name: value["value"] for name, value in metrics.items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    workloads = [w["name"] for w in bench["workloads"]]
    check(set(workloads) == ALL, "workload list differs from the self-test's")

    for workload in workloads:
        code, result = run(ROOT, "--workload", workload, "--seed", "7",
                           "--trace", "0", *SMALL)
        label = f"{workload} untraced"
        check(code == 0 and result and result["correct"] and
              result["failed"] == 0 and result["attempted"] >= 1,
              f"{label}: exit {code}, result {result}")
        if result:
            values = check_metrics(label, result, bench["end_to_end"])
            for name, value in values.items():
                check(value > 0, f"{label}: {name} is {value}")

        code, result = run(ROOT, "--workload", workload, "--seed", "7",
                           "--trace", "1", *SMALL)
        label = f"{workload} traced"
        check(code == 0 and result and result["correct"],
              f"{label}: exit {code}, result {result}")
        if result:
            values = check_metrics(label, result, bench["per_layer"])
            for name, active in ACTIVE.items():
                if workload in active:
                    check(values.get(name, 0) > 0, f"{label}: {name} is 0")
            for name in ALWAYS_ZERO:
                check(values.get(name) == 0, f"{label}: {name} is not 0")
            for prefix, active in IDLE_OUTSIDE.items():
                if workload in active:
                    continue
                for name, value in values.items():
                    if name.startswith(prefix):
                        check(value == 0, f"{label}: idle {name} is {value}")
            if workload == "fig4_full_hit":
                check(values.get("cache.hit_frac") == 1,
                      f"{label}: cache.hit_frac is not 1")

        code, result = run(ROOT, "--workload", workload, "--seed", "7",
                           "--trace", "0", "--corrupt-op", "0", *SMALL)
        check(code != 0 and result is not None and not result["correct"] and
              result["failed"] >= 1,
              f"{workload}: corrupted result not rejected (exit {code})")

    bare = os.path.join(ROOT, ".bench_build", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, result = run(bare, "--workload", workloads[0], "--seed", "1",
                       "--seconds", "1", "--trace", "0")
    check(code != 0 and result is None,
          f"bare directory: exit {code}, result {result}")
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest:", "FAILED" if failures else "passed", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
