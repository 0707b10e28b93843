"""Quick self-check of the benchmark at tiny input sizes.

    python3 perfbench/selfcheck.py

Checks that every workload, untraced and traced, prints each end-to-end
or per-module metric named in BENCHMARK.json with its unit and a final
JSON line of the agreed shape; that a wrong expected value (a genus off
by one) shows up as failed items without crashing the run; and that the
benchmark refuses to run, printing no result, where the vskit sources
are missing.  Exits 0 when all checks pass.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}, \
        [w["name"] for w in spec["workloads"]]


def run_tiny(workload, trace, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=cwd, check=False)


def check_metrics(problems):
    for trace in (0, 1):
        want, workloads = expected_metrics(trace)
        for workload in workloads:
            done = run_tiny(workload, trace)
            tag = f"{workload} trace {trace}"
            if done.returncode != 0:
                problems.append(f"{tag}: exit {done.returncode}: "
                                f"{done.stderr[-300:]}")
                continue
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != RESULT_KEYS:
                problems.append(f"{tag}: result keys {sorted(result)}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                units = [k for k in want if k in got and got[k] != want[k]]
                problems.append(f"{tag}: metrics differ from BENCHMARK.json:"
                                f" missing {sorted(set(want) - set(got))},"
                                f" extra {sorted(set(got) - set(want))},"
                                f" wrong units {units}")
            if not (result["correct"] and result["attempted"] >= 1
                    and result["failed"] == 0):
                problems.append(f"{tag}: {result['attempted']} attempted, "
                                f"{result['failed']} failed")
            prefix = "layer " if trace else "metric "
            for name, unit in want.items():
                if not any(line.startswith(f"{prefix}{name} ") and
                           f" {unit}" in line for line in lines):
                    problems.append(f"{tag}: no printed line for {name}")
            if not any(line.startswith("metric failed_ratio ")
                       for line in lines):
                problems.append(f"{tag}: no printed failed_ratio")


def check_injected_error(problems):
    """A genus off by one must fail items, not crash the run."""
    sys.path.insert(0, HERE)
    import run
    import signatures
    right = signatures.genus
    signatures.genus = lambda sig: right(sig) + 1
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            result = run.run_workload(run.parse_args(
                ["--workload", "rank-sweep", "--seed", "1", "--seconds",
                 "0.5", "--scale", "tiny"]))
    finally:
        signatures.genus = right
    if result["correct"] or result["failed"] != result["attempted"]:
        problems.append(f"injected wrong genus: {result['failed']} of "
                        f"{result['attempted']} items failed")
    if "metric failed_ratio 1 ratio" not in out.getvalue():
        problems.append("injected wrong genus: failed_ratio is not 1")


def check_refuses_without_sources(problems):
    bare = os.path.join(ROOT, ".bench_out", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run_tiny("rank-sweep", 0, cwd=bare,
                        script=os.path.join("perfbench", "run.py"))
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        problems.append("ran without vskit sources")


def main():
    problems = []
    check_metrics(problems)
    check_injected_error(problems)
    check_refuses_without_sources(problems)
    for problem in problems:
        print("FAIL", problem)
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
