"""vskit benchmark: closed-loop workloads, end-to-end metrics, traced layers.

Run one workload, from the root of the repository:

    python3 perfbench/run.py --workload rank-sweep --seed 1 --seconds 25 \
        --trace 0

or all four, each in a fresh process:

    python3 perfbench/run.py --all --seed 1 --seconds 25 --trace 0

Each workload runs as a closed loop in its own process: one caller, no
threads, each item starting only after the previous one has finished
and been checked.  The loop runs whole rounds of items (see
workloads.py) until --seconds have passed, so a run may end up to one
round later.  The workloads and why each was chosen:

* rank-sweep: kernel ranks over the AC3 signature sweep (n <= 12,
  g <= 50) plus long chains; exercises group_algebra and uncertified
  combination, while moebius and sphere_geometry stay idle.
* certify-scenes: `vskit build` and `vskit rank` on generated scene
  files; exercises moebius, sphere_geometry, certified combination,
  element enumeration and CLI parsing.
* limitset-deep: verify, sample to depth 8, audit and render a seeded
  variant of the rank-2 classical pairing; Moebius products and disc
  transport.
* enumerate-stream: `vskit enumerate-cyclic` with every record re-parsed
  and checked; signature enumeration and printing.

With --trace 0 the run reports the end-to-end metrics:

* setup_s: median of five set-ups, each an `import vskit` in a fresh
  interpreter plus the seeded input generation and scene writing.
* items_per_s: items completed per second of item time, as the median
  over windows of whole rounds of at least WINDOW_S item time each.
* item_p50_ms: median item latency, as the median of the windows'
  medians.  (Both are medians over time, so that a burst of host speed
  or contention during part of a run moves them less than an average.)
* item_tail_ms: item latency at the highest percentile that still has
  at least ten items beyond it.
* peak_rss_mb: peak resident memory of the workload process.
* first_output_s: median time from an item's start to its first output
  (the first stdout write of a CLI call, or the first vskit result).
* failed_ratio: items whose check failed or that raised, over items
  attempted (printed; the final JSON carries attempted and failed).

With --trace 1 the same loop runs on the same seed with every public
function of the nine vskit modules wrapped (tracer.py), and reports the
per-module metrics, the traced wall time, the part of it no module
accounts for, and the tracing overhead: the traced wall time minus the
wall time of an untraced run of the same items in a fresh process.

Every item is checked by an oracle that does not use the path being
measured; an item whose check fails, or that raises, counts as failed.
Inputs that trip known defects of vskit (kernel ranks of chains of a
thousand leaves and more, false nesting violations in deep or general
limit-set samples) are not timed items: they run as probes after the
timed phase, and each probe is listed as ok or FAIL.  The run also
prints the silent caps it saw (certificate lines that passed only to a
bounded depth, listings cut short by the element budget, sample depth
requested and reached), a SHA-256 digest of the CLI output or renders
of the first round, and per-kind median latencies.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed, metrics.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170
WINDOW_S = 0.5          # least item time in one window of whole rounds

IMPORT_PROBE = ("import sys, time\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "start = time.perf_counter()\n"
                "import vskit\n"
                "print(time.perf_counter() - start)\n")

END_TO_END = (("setup_s", "s"), ("items_per_s", "1/s"),
              ("item_p50_ms", "ms"), ("item_tail_ms", "ms"),
              ("peak_rss_mb", "MB"), ("first_output_s", "s"))


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def load_vskit():
    """Import vskit from this checkout's src, and only from there."""
    if not os.path.isfile(os.path.join(SRC, "vskit", "__init__.py")):
        raise BenchError(f"no vskit sources under {SRC}")
    sys.path.insert(0, SRC)
    start = perf_counter()
    import vskit
    import vskit.cli                                        # noqa: F401
    elapsed = perf_counter() - start
    where = os.path.dirname(os.path.abspath(vskit.__file__))
    if where != os.path.join(SRC, "vskit"):
        raise BenchError(f"vskit imported from {where}, not from {SRC}")
    return vskit, elapsed


def fresh_import_seconds():
    """Time of `import vskit` in a new interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC],
                          capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S)
    return float(done.stdout.strip().splitlines()[-1])


def git_commit():
    """The checkout's commit from .git, or 'unknown' outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(latencies):
    """(value, percentile, items beyond) at the highest percentile that
    still has at least ten items beyond it; the maximum below 11 items."""
    ordered = sorted(latencies)
    index = max(len(ordered) - 11, 0) if len(ordered) >= 11 \
        else len(ordered) - 1
    return (ordered[index], 100.0 * (index + 1) / len(ordered),
            len(ordered) - index - 1)


class Loop:
    """Results of one closed-loop timed phase."""

    def __init__(self):
        self.latencies = []
        self.windows = [[]]       # latencies, in windows of whole rounds
        self.by_kind = {}         # item kind -> latencies
        self.first = []
        self.failures = []        # (label, problem)
        self.wall = 0.0

    def close_round(self):
        if sum(self.windows[-1]) >= WINDOW_S:
            self.windows.append([])

    def window_medians(self):
        """Per-window (items per second, median latency), whole windows
        only, or the run as one window when it is shorter than one."""
        whole = [w for w in self.windows if w and sum(w) >= WINDOW_S] \
            or [self.latencies]
        return ([len(w) / sum(w) for w in whole],
                [statistics.median(w) for w in whole])


def timed_loop(workload, seconds, max_items, tracer):
    """Run whole rounds of items until `seconds` pass (or max_items)."""
    loop = Loop()
    start = perf_counter()
    for items in workload.rounds():
        for item in items:
            t0 = perf_counter()
            try:
                if tracer is not None:
                    outcome = tracer.item(workload.run, item)
                else:
                    outcome = workload.run(item)
            except Exception as err:   # RecursionError, MemoryError too
                latency = perf_counter() - t0
                problem = f"{type(err).__name__}: {err}"[:300]
            else:
                latency = perf_counter() - t0 - outcome.excluded_s
                loop.first.append(outcome.first_s)
                try:
                    problem = workload.check(item, outcome)
                except Exception as err:
                    problem = f"check raised {type(err).__name__}: {err}"
            loop.latencies.append(latency)
            loop.windows[-1].append(latency)
            loop.by_kind.setdefault(workload.kind(item), []).append(latency)
            if problem is not None:
                loop.failures.append((workload.label(item), problem))
        loop.close_round()
        done = len(loop.latencies)
        if (max_items is not None and done >= max_items) or \
                (max_items is None and perf_counter() - start >= seconds):
            break
    loop.wall = perf_counter() - start
    return loop


def run_probes(workload):
    """Known-defect probes: (label, problem or None), each caught."""
    out = []
    for label, probe in workload.probes():
        try:
            problem = probe()
        except Exception as err:
            problem = f"{type(err).__name__}: {err}"[:300]
        out.append((label, problem))
    return out


def untraced_wall(args, items):
    """Wall time of the same items, untraced, in a fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", "0", "--items", str(items),
           "--scale", args.scale]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    for line in done.stdout.splitlines():
        if line.startswith("timed_wall_s "):
            return float(line.split()[1])
    raise BenchError("untraced child printed no wall time")


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(args):
    """Set up, run and report one workload; returns the result dict."""
    from workloads import WORKLOADS
    import tracer as tracing

    vs, import_s = load_vskit()
    cls = WORKLOADS[args.workload]
    workdir = os.path.join(OUT, f"scenes-{args.workload}-{args.seed}")
    holder = {"tracer": None}

    def make():
        start = perf_counter()
        made = cls(vs, args.seed, args.scale, workdir,
                   lambda: holder["tracer"])
        return made, perf_counter() - start

    workload, gen_s = make()
    setups = [import_s + gen_s]
    if args.items is None:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(fresh_import_seconds() + make()[1])
    setup_s = statistics.median(setups)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer(vs)
        tracer.install()
        holder["tracer"] = tracer
        tracer.begin()
    try:
        loop = timed_loop(workload, args.seconds, args.items, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
            holder["tracer"] = None
    traced_wall = tracer.finish() if tracer is not None else None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    lines = []
    say = lines.append
    attempted = len(loop.latencies)
    failed = len(loop.failures)
    say(f"# vskit benchmark: workload {args.workload}, seed {args.seed}, "
        f"{args.seconds} s, trace {args.trace}, scale {args.scale}")
    say(f"stamp python={platform.python_version()} "
        f"nproc={len(os.sched_getaffinity(0))} cpus={os.cpu_count()} "
        f"commit={git_commit()} seed={args.seed} workload={args.workload}")
    say("sizes " + " ".join(f"{k}={v}" for k, v in workload.sizes.items())
        + f" round={workload.round_size} items={attempted}")
    if args.items is not None:
        say(f"timed_wall_s {loop.wall:.6f}")

    metrics = {}
    item_s = sum(loop.latencies)
    tail_value, tail_pct, beyond = tail(loop.latencies)
    rates, medians = loop.window_medians()
    values = {
        "setup_s": (setup_s, f"median of {len(setups)} set-ups"),
        "items_per_s": (statistics.median(rates), f"median of "
                        f"{len(rates)} windows; {attempted} items in "
                        f"{item_s:.3f} s of item time, "
                        f"{loop.wall:.3f} s wall"),
        "item_p50_ms": (1000.0 * statistics.median(medians),
                        f"median of {len(medians)} window medians, "
                        f"n={attempted}"),
        "item_tail_ms": (1000.0 * tail_value, f"p{tail_pct:.2f}, "
                         f"{beyond} items beyond, n={attempted}"),
        "peak_rss_mb": (peak_rss_mb, "ru_maxrss, n=1"),
        "first_output_s": (statistics.median(loop.first or loop.latencies),
                           f"median, n={len(loop.first)}"),
    }
    if not args.trace:        # end-to-end figures come from untraced runs
        for name, unit in END_TO_END:
            value, note = values[name]
            say(f"metric {name} {fmt(value)} {unit} ({note})")
            metrics[name] = {"value": value, "unit": unit}
    say(f"metric failed_ratio {fmt(failed / attempted)} ratio "
        f"({failed} of {attempted} items)")
    if workload.caps:
        say("caps " + " ".join(f"{k}={v}" for k, v in workload.caps.items())
            + f" (totals over {attempted} items)")
    say(f"digest sha256={workload.digest.hexdigest()} over the first "
        f"{workload.digested} items (seed {args.seed})")
    for kind, latencies in loop.by_kind.items():
        say(f"kind {kind}: n={len(latencies)} "
            f"p50_ms={1000.0 * statistics.median(latencies):.6g}")
    for label, problem in loop.failures[:20]:
        say(f"FAILED {label}: {problem}")

    if tracer is not None:
        tracer.counters["cli.output_bytes"] = workload.output_bytes
        for name, (value, unit) in tracer.metrics().items():
            say(f"layer {name} {fmt(value)} {unit}")
            metrics[name] = {"value": value, "unit": unit}
        modules_self = sum(tracer.stats[m][1] for m in tracing.MODULES)
        remainder = traced_wall - modules_self
        untraced = untraced_wall(args, attempted)
        for name, value in (("trace.wall_s", traced_wall),
                            ("trace.remainder_s", remainder),
                            ("trace.overhead_s", traced_wall - untraced)):
            say(f"layer {name} {fmt(value)} s")
            metrics[name] = {"value": value, "unit": "s"}
        say(f"trace self times: modules {modules_self:.3f} s + remainder "
            f"{remainder:.3f} s = traced wall {traced_wall:.3f} s; "
            f"untraced wall {untraced:.3f} s for the same {attempted} items")
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}"
                             ".tsv")
        tracer.write_spans(spans)
        say(f"spans {len(tracer.span_name)} written to "
            f"{os.path.relpath(spans, ROOT)}")

    if args.items is None:
        probes = run_probes(workload)
        failing = [p for p in probes if p[1] is not None]
        say(f"known_defects {len(failing)} of {len(probes)} probes fail")
        for label, problem in probes:
            say(f"  {'FAIL' if problem else 'ok  '} {label}"
                + (f": {problem}" if problem else ""))

    for line in lines:
        print(line)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return result


def run_all(args):
    """Each workload in a fresh process, then one summary table."""
    from workloads import WORKLOADS
    status = 0
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               name, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace), "--scale",
               args.scale]
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT, check=False)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            status = 1
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        rows.append((name, result))
        status = status or (0 if result["correct"] else 1)
    print("# summary")
    for name, result in rows:
        cells = " ".join(f"{k}={fmt(v['value'])}{v['unit']}"
                         for k, v in result["metrics"].items())
        print(f"{name}: attempted={result['attempted']} "
              f"failed={result['failed']} {cells}")
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in a fresh process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny input sizes, for the self-check")
    parser.add_argument("--items", type=int, default=None,
                        help=argparse.SUPPRESS)   # untraced overhead child
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, HERE)
    try:
        if args.all:
            return run_all(args)
        from workloads import WORKLOADS
        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; choose "
                             f"from {', '.join(WORKLOADS)}")
        run_workload(args)
        return 0
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
