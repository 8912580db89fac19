#!/usr/bin/env python3
"""perfbench's own test.

    python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does, runs every workload of
workloads.json (a superset of BENCHMARK.json's) briefly in both modes and
checks that:
  - the last stdout line is {"correct","attempted","failed","metrics"},
    correct, with at least one operation attempted and none failed;
  - --trace 0 prints exactly BENCHMARK.json's end-to-end metrics and
    --trace 1 exactly its per-layer metrics, each with the declared unit;
    no end-to-end value is 0, every per-layer metric workloads.json's
    per_layer_applies lists for the workload is non-zero (bar its
    may_be_zero ones) and every other per-layer metric is 0;
  - the host stamp carries nproc, kernel tier, compiler, build type,
    stats switch and commit;
  - the parameters the program prints equal workloads.json's;
  - run.py fails without printing a result in a directory that holds only
    BENCHMARK.json and perfbench/;
  - two checkouts that share one CARGO_TARGET_DIR get separate build
    trees, and this checkout's build tree was configured from its sources.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
HOST_KEYS = {"nproc", "kernel_tier", "compiler", "build_type", "no_stats",
             "commit"}


def load(name):
    with open(os.path.join(ROOT if name == "BENCHMARK.json" else HERE,
                           name)) as f:
        return json.load(f)


def check_run(binary, bench, described, workload, trace, failures):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", "1", "--seconds", "2",
         "--trace", str(trace)], capture_output=True, text=True, timeout=170)
    where = f"{workload} --trace {trace}"
    lines = [json.loads(l) for l in out.stdout.splitlines() if l.strip()]
    if out.returncode != 0 or not lines:
        failures.append(f"{where}: exit {out.returncode}\n{out.stdout[-2000:]}")
        return
    result = lines[-1]
    if set(result) != RESULT_KEYS:
        failures.append(f"{where}: result keys {sorted(result)}")
        return
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        failures.append(f"{where}: not correct: {result}")
    declared = bench["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    if set(metrics) != set(units):
        failures.append(f"{where}: missing {sorted(set(units) - set(metrics))}"
                        f" extra {sorted(set(metrics) - set(units))}")
    for name, m in metrics.items():
        if name in units and m.get("unit") != units[name]:
            failures.append(f"{where}: {name} unit {m.get('unit')}")
        if not isinstance(m.get("value"), (int, float)):
            failures.append(f"{where}: {name} value {m.get('value')}")
        elif not trace and m["value"] <= 0:
            failures.append(f"{where}: end-to-end {name} is {m['value']}")
    if trace:
        applies = described["per_layer_applies"]
        measured = set(applies[workload])
        may_be_zero = set(applies["may_be_zero"][workload])
        for name, m in metrics.items():
            zero = m.get("value") == 0
            if name in measured and zero and name not in may_be_zero:
                failures.append(f"{where}: measured per-layer {name} is 0")
            elif name not in measured and not zero:
                failures.append(f"{where}: unmeasured per-layer {name} is "
                                f"{m.get('value')}, not 0")
    host = next((l["host"] for l in lines if "host" in l), {})
    if not HOST_KEYS <= set(host):
        failures.append(f"{where}: host stamp {host}")
    params = next((l["params"] for l in lines if "params" in l), None)
    if params != described["workloads"][workload]["params"]:
        failures.append(f"{where}: params {params} != workloads.json")
    if not trace and not any("sum_rel_error_pct" in l.get("detail", {})
                             for l in lines):
        failures.append(f"{where}: no sum_rel_error_pct detail")


def check_stripped_checkout(failures):
    """Only BENCHMARK.json and perfbench/: the build must fail cleanly."""
    base = os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                        or ".bench_build"), "stripped")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), base)
    shutil.copytree(HERE, os.path.join(base, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(base, "build"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flowqueue_fig4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=base, env=env, capture_output=True, text=True, timeout=170)
    if out.returncode == 0 or '"correct"' in out.stdout:
        failures.append("stripped checkout did not fail cleanly")
    shutil.rmtree(base, ignore_errors=True)


def check_shared_target_dir(failures):
    """Two copies of run.py in different checkouts, one CARGO_TARGET_DIR:
    each must build into its own tree, or both would run one checkout's
    code."""
    base = os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                        or ".bench_build"), "shared")
    shutil.rmtree(base, ignore_errors=True)
    dirs = []
    for copy in ("a", "b"):
        os.makedirs(os.path.join(base, copy, "perfbench"))
        shutil.copy(os.path.join(HERE, "run.py"),
                    os.path.join(base, copy, "perfbench"))
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.path.insert(0, 'perfbench'); import run; "
             "print(run.build_dir())"],
            cwd=os.path.join(base, copy),
            env=dict(os.environ, CARGO_TARGET_DIR=os.path.join(base, "t")),
            capture_output=True, text=True, timeout=30)
        dirs.append(out.stdout.strip())
    if not dirs[0] or dirs[0] == dirs[1]:
        failures.append(f"checkouts sharing CARGO_TARGET_DIR share {dirs}")
    shutil.rmtree(base, ignore_errors=True)
    if run.configured_from(run.build_dir()) != os.path.realpath(HERE):
        failures.append("build tree not configured from this checkout")


def main():
    bench = load("BENCHMARK.json")
    described = load("workloads.json")
    binary = run.build(run.build_dir())
    failures = []
    names = list(described["workloads"])
    if not {w["name"] for w in bench["workloads"]} <= set(names) or set(
            names) != set(run.WORKLOADS):
        failures.append("workload names differ between BENCHMARK.json, "
                        "workloads.json and run.py")
    for workload in names:
        for trace in (0, 1):
            check_run(binary, bench, described, workload, trace, failures)
    check_stripped_checkout(failures)
    check_shared_target_dir(failures)
    for failure in failures:
        print("FAIL", failure)
    print("perfbench test:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
