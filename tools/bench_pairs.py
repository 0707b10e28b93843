"""Paired benchmark runs of a parent checkout against this one.

    python3 tools/bench_pairs.py --parent PATH --workload enumerate-stream \
        --pairs 10 --seconds 10 --out BENCH.json

PATH is an existing checkout of the parent commit (a `git clone` or a
`git archive` extract).  For each workload, pair i runs
`perfbench/run.py --workload W --seed SEED+i --seconds S` once in the
parent and once in this checkout, each from its own root, one process at
a time.  Even pairs run the parent first, odd pairs this checkout first,
so a drift in host speed does not favour one side.  Every run gets
PYTHONDONTWRITEBYTECODE=1, and each checkout's `__pycache__` folders
under src/ and perfbench/ are deleted before the first run: a cached
bytecode file makes `setup_s` read lower on whichever side has one.

The last line of each run is parsed as its JSON result.  The output file
holds, per workload and end-to-end metric of BENCHMARK.json: each side's
runs, median and quartiles, the pairs this checkout won (ties count for
neither side), the ratio of the medians and the metric's bound; and per
workload each side's attempted and failed items.  A run that exits
non-zero, or whose result is not correct, is recorded and the script
exits 1 after writing the file.

The acceptance sweeps are timed the same way, in --pairs rounds once
the workloads are done: round i runs `pytest tests/test_acceptance.py`
once in each checkout, in the order pair i would, and reads each test's
call time (setup and teardown excluded) from pytest's JUnit XML report.
Under "acceptance" the file holds, per sweep ac1, ..., ac8, the same
rows as a metric (lower is better, no bound) and each side's failed
sweeps.  A failed sweep, such as a wall-clock gate missed on a slow
host, is recorded and the script exits 1 after writing the file.
"""

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from xml.etree import ElementTree

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "head")
ACCEPTANCE = "tests/test_acceptance.py"


def commit_of(checkout):
    """The checkout's commit, with "+dirty" when tracked files differ from
    it, or "unknown" where it is not a git clone."""
    def git(*args):
        return subprocess.run(["git", "-C", checkout, *args],
                              capture_output=True, text=True, check=False)
    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return "unknown"
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout
    return head.stdout.strip() + ("+dirty" if dirty.strip() else "")


def drop_bytecode(checkout):
    """Delete the __pycache__ folders under checkout's src/ and perfbench/."""
    for top in ("src", "perfbench"):
        for folder, subdirs, _ in os.walk(os.path.join(checkout, top)):
            if "__pycache__" in subdirs:
                shutil.rmtree(os.path.join(folder, "__pycache__"))
                subdirs.remove("__pycache__")


def last_json(stdout):
    """The JSON object on the last non-empty line of a run's output."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("run printed nothing")
    return json.loads(lines[-1])


def run_once(checkout, workload, seed, seconds):
    """One perfbench run in checkout; its parsed result, or an error dict."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True, check=False,
                          timeout=4 * seconds + 300)
    try:
        result = last_json(done.stdout)
    except ValueError as err:
        return {"correct": False, "error": f"exit {done.returncode}: {err}"}
    if done.returncode != 0:
        result["correct"] = False
        result["error"] = f"exit {done.returncode}"
    return result


def acceptance_result(root):
    """A result, shaped like a perfbench run's, from a JUnit XML report.

    Each test named test_acN_... gives metric "acN", its time in seconds;
    a test with a failure or error element counts as failed.
    """
    metrics, failed = {}, []
    for case in root.iter("testcase"):
        match = re.match(r"test_(ac\d+)_", case.get("name", ""))
        if match is None:
            continue
        name = match.group(1)
        metrics[name] = {"value": float(case.get("time")), "unit": "s"}
        if case.find("failure") is not None or case.find("error") is not None:
            failed.append(name)
    result = {"correct": not failed, "attempted": len(metrics),
              "failed": len(failed), "metrics": metrics}
    if failed:
        result["error"] = "failed " + ", ".join(failed)
    return result


def time_acceptance(checkout):
    """One pytest run of the acceptance sweeps in checkout, as a result."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "-o", "junit_duration_report=call"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.join(checkout, "src"))
    with tempfile.TemporaryDirectory() as folder:
        xml = os.path.join(folder, "acceptance.xml")
        done = subprocess.run([*cmd, f"--junitxml={xml}", ACCEPTANCE],
                              cwd=checkout, env=env, capture_output=True,
                              text=True, check=False, timeout=1800)
        try:
            root = ElementTree.parse(xml).getroot()
        except (OSError, ElementTree.ParseError) as err:
            return {"correct": False,
                    "error": f"exit {done.returncode}: {err}"}
    return acceptance_result(root)


def alternate(pairs, run_side, show):
    """pairs results {side: run_side(side, i)}, even i parent first.

    show(i, pair) returns the progress line printed after each pair.
    """
    results = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {side: run_side(side, i) for side in order}
        results.append(pair)
        print(show(i, pair), flush=True)
    return results


def quartiles(values):
    """(first quartile, median, third quartile) of one side's runs."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(results, end_to_end):
    """Per-metric rows from paired results.

    results is a list of {"parent": result, "head": result}, one per
    pair; end_to_end the list of metric entries of BENCHMARK.json.  A
    metric missing from either side of a pair is left out of that pair.
    """
    rows = {}
    for spec in end_to_end:
        name, better = spec["name"], spec["better"]
        pairs = [(pair["parent"]["metrics"][name]["value"],
                  pair["head"]["metrics"][name]["value"])
                 for pair in results
                 if all(name in pair[side].get("metrics", {})
                        for side in SIDES)]
        if not pairs:
            continue
        row = {"unit": spec["unit"], "better": better,
               "bound": spec.get("bound"), "pairs": len(pairs)}
        for k, side in enumerate(SIDES):
            runs = [pair[k] for pair in pairs]
            q1, median, q3 = quartiles(runs)
            row[side] = {"median": median, "q1": q1, "q3": q3, "runs": runs}
        sign = 1 if better == "higher" else -1
        row["head_won"] = sum(sign * (head - parent) > 0
                              for parent, head in pairs)
        row["parent_won"] = sum(sign * (head - parent) < 0
                                for parent, head in pairs)
        parent_median = row["parent"]["median"]
        row["ratio"] = (row["head"]["median"] / parent_median
                        if parent_median else None)
        rows[name] = row
    return rows


def counts(results):
    """Each side's attempted and failed items and incorrect runs."""
    out = {}
    for side in SIDES:
        runs = [pair[side] for pair in results]
        out[side] = {"attempted": [r.get("attempted") for r in runs],
                     "failed": [r.get("failed") for r in runs],
                     "incorrect_runs": sum(not r.get("correct")
                                           for r in runs),
                     "errors": [r["error"] for r in runs if "error" in r]}
    return out


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True,
                        help="an existing checkout of the parent commit")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of BENCHMARK.json; repeatable")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--out", required=True, help="output JSON path")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("need --pairs >= 1 and --seconds > 0")
    args.parent = os.path.abspath(args.parent)
    if not os.path.isfile(os.path.join(args.parent, "perfbench", "run.py")):
        parser.error(f"no perfbench/run.py under {args.parent}")
    return args


def main(argv=None):
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    known = {w["name"] for w in bench["workloads"]}
    unknown = [w for w in args.workload if w not in known]
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    checkouts = {"parent": args.parent, "head": ROOT}
    for checkout in checkouts.values():
        drop_bytecode(checkout)
    report = {"parent_commit": commit_of(args.parent),
              "head_commit": commit_of(ROOT),
              "python": platform.python_version(),
              "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
              "pairs": args.pairs, "seconds": args.seconds,
              "seeds": list(range(args.seed, args.seed + args.pairs)),
              "order": "even pairs parent first, odd pairs head first",
              "workloads": {}}
    status = 0
    for workload in args.workload:
        def run_side(side, i):
            return run_once(checkouts[side], workload, args.seed + i,
                            args.seconds)

        def show(i, pair):
            rates = [pair[side].get("metrics", {}).get("items_per_s", {})
                     .get("value") for side in SIDES]
            return (f"{workload} pair {i + 1}/{args.pairs} seed "
                    f"{args.seed + i}: items_per_s parent {rates[0]} "
                    f"head {rates[1]}")

        results = alternate(args.pairs, run_side, show)
        tally = counts(results)
        if any(tally[side]["incorrect_runs"] for side in SIDES):
            status = 1
        report["workloads"][workload] = {
            "metrics": summarize(results, bench["end_to_end"]),
            "runs": tally}

    def show_acceptance(i, pair):
        seconds = [sum(m["value"] for m in pair[side].get("metrics",
                                                          {}).values())
                   for side in SIDES]
        return (f"acceptance round {i + 1}/{args.pairs}: seconds parent "
                f"{seconds[0]:.2f} head {seconds[1]:.2f}")

    results = alternate(args.pairs,
                        lambda side, i: time_acceptance(checkouts[side]),
                        show_acceptance)
    sweeps = sorted({name for pair in results for side in SIDES
                     for name in pair[side].get("metrics", {})},
                    key=lambda name: int(name[2:]))
    tally = counts(results)
    if any(tally[side]["incorrect_runs"] for side in SIDES):
        status = 1
    report["acceptance"] = {
        "metrics": summarize(results, [{"name": name, "unit": "s",
                                        "better": "lower"}
                                       for name in sweeps]),
        "runs": tally}
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    print(f"wrote {args.out}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
