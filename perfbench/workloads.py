"""The four workloads of the benchmark.

Each workload makes its inputs from the seed during set-up, then hands
the timed loop one *item* at a time: ``run`` does the user's job through
vskit and is timed, ``check`` applies an oracle that does not use the
path being measured and is not timed.  Items come in *rounds*, fixed
lists that the loop always finishes, so every run has the same mix of
item sizes whatever the seed; the seed varies the inputs inside that mix.

Every module of vskit is looked up at call time (``self.vs.cli.run``),
so a traced run sees the wrapped functions.  Functions an oracle needs
are taken during set-up, before any wrapper is installed.
"""

import cmath
import contextlib
import hashlib
import io
import math
import os
import random
import string
import sys
from time import perf_counter

import signatures

CERTIFY_DEPTH = 6      # the CLI's default word depth for hypothesis checks


class Outcome:
    """What one timed item returned.

    first_s is the time from the item's start to its first output, and
    excluded_s the oracle time spent inside the item (online checks of
    streamed output), which is not part of the item's latency.
    """

    __slots__ = ("result", "first_s", "excluded_s")

    def __init__(self, result, first_s, excluded_s=0.0):
        self.result = result
        self.first_s = first_s
        self.excluded_s = excluded_s


class StdoutSink(io.TextIOBase):
    """Stands in for stdout during a CLI call.

    Counts and hashes the bytes and stamps the first write.
    An optional on_line callback checks each complete line as it is
    written; its time is kept in check_s (and, in a traced run, charged to
    the benchmark rather than to the CLI).
    """

    def __init__(self, on_line=None, tracer=None, keep=False):
        super().__init__()
        self.on_line = on_line
        self.tracer = tracer
        self.keep = [] if keep else None
        self.first = None
        self.bytes = 0
        self.check_s = 0.0
        self.hash = hashlib.sha256()
        self._partial = ""

    def writable(self):
        return True

    def write(self, text):
        if self.first is None:
            self.first = perf_counter()
        data = text.encode("utf-8")
        self.bytes += len(data)
        self.hash.update(data)
        if self.keep is not None:
            self.keep.append(text)
        if self.on_line is not None:
            start = perf_counter()
            if self.tracer is not None:
                self.tracer.as_benchmark(self._feed, text)
            else:
                self._feed(text)
            self.check_s += perf_counter() - start
        return len(text)

    def _feed(self, text):
        if "\n" not in text:
            self._partial += text
            return
        head, *rest = text.split("\n")
        self.on_line(self._partial + head)
        for line in rest[:-1]:
            self.on_line(line)
        self._partial = rest[-1]

    def text(self):
        return "".join(self.keep)


def _cli_call(vs, args, sink):
    """One `vskit <args>` call in process, with stdout sent to sink."""
    with contextlib.redirect_stdout(sink):
        return vs.cli.run(args[0], args[1:])


class Workload:
    """Base: set-up state, round structure, digests and reporting."""

    name = ""
    round_size = 1
    digest_items = 0          # items of round 1 (or a prefix) in the digest

    def __init__(self, vs, seed, scale, workdir, tracer_ref):
        self.vs = vs
        self.scale = scale
        self.tracer_ref = tracer_ref      # callable returning the tracer
        self.rng = random.Random(f"{self.name}:{seed}")
        self.digest = hashlib.sha256()
        self.digested = 0
        self.caps = {}
        self.output_bytes = 0

    def add_digest(self, data):
        if self.digested < self.digest_items:
            self.digest.update(data)
            self.digested += 1

    def probes(self):
        return []


# ---------------------------------------------------------------------------
# rank-sweep


class RankSweep(Workload):
    """Kernel ranks over the AC3 signature sweep plus a ladder of long
    chains, all uncertified; the seed shuffles the sweep."""

    name = "rank-sweep"
    chain_stride = 500         # one long chain after every 500 sweep items
    digest_items = 2000

    def __init__(self, vs, seed, scale, workdir, tracer_ref):
        super().__init__(vs, seed, scale, workdir, tracer_ref)
        if scale == "tiny":
            n_max, g_max, ladder, self.chain_stride = 6, 8, (20, 40), 50
        else:
            n_max, g_max, ladder = 12, 50, (200, 400, 600)
        self.sweep = signatures.sweep(n_max, g_max)
        self.rng.shuffle(self.sweep)
        self.ladder = [(2, 1, (), k, ()) for k in ladder]
        self.round_size = self.chain_stride + 1
        self.sizes = {"signatures": len(self.sweep), "n_max": n_max,
                      "g_max": g_max, "chain_leaves": list(ladder),
                      "chain_stride": self.chain_stride}

    def rounds(self):
        pos = 0
        for r in range(sys.maxsize):
            items = []
            for _ in range(self.chain_stride):
                items.append(self.sweep[pos % len(self.sweep)])
                pos += 1
            items.append(self.ladder[r % len(self.ladder)])
            yield items

    def label(self, sig):
        n, a, m_orders, c, n_orders = sig
        return f"n={n} a={a} m={list(m_orders)} c={c} e={list(n_orders)}"

    def kind(self, sig):
        return f"chain c={sig[3]}" if sig in self.ladder else "sweep"

    def run(self, sig):
        cyclic = self.vs.cyclic_case
        start = perf_counter()
        n, a, m_orders, c, n_orders = sig
        built = cyclic.build_cyclic(
            cyclic.CyclicSignature(n, a=a, c=c, m_orders=m_orders,
                                   n_orders=n_orders), certify=False)
        first = perf_counter() - start
        return Outcome(built.rank_report(), first)

    def check(self, sig, outcome):
        report = outcome.result
        self.add_digest("\n".join(report.lines()).encode())
        expected = signatures.genus(sig)
        if not report.ok:
            return f"rank report not ok: {report.problems[:1]}"
        if report.kernel_rank != expected:
            return (f"kernel rank {report.kernel_rank}, "
                    f"genus formula {expected}")
        return None

    def probes(self):
        """Kernel ranks of chains of a thousand leaves and more, which
        raise RecursionError in the recursive tree walks."""
        cyclic = self.vs.cyclic_case
        out = []
        for k in (1000, 2000, 5000):
            def probe(k=k):
                sig = cyclic.CyclicSignature(2, a=1, c=k)
                report = cyclic.build_cyclic(sig, certify=False).rank_report()
                if report.kernel_rank != signatures.genus((2, 1, (), k, ())):
                    return f"kernel rank {report.kernel_rank}"
                return None
            out.append((f"rank of chain n=2 a=1 c={k}", probe))
        return out


# ---------------------------------------------------------------------------
# certify-scenes

# Signatures of the certified scenes, as (n, a, m_orders, c, n_orders):
# 3 and 4 leaves of types T2, T4 and T1.  Two cheap scenes (under 0.1 s
# per item here) and six of like cost (0.4 to 0.7 s), so that the median
# and the tail item both fall among the six for any number of whole
# rounds.  Scenes of five and more leaves take 2 to 10 s per item, which
# would leave too few items in a run for a tail percentile.  The station
# spacing stays at its default: item cost grows with it.
CERTIFY_SCENES = (
    (12, 2, (), 1, ()),                # T2 T2 T1
    (4, 2, (2,), 0, ()),               # T2 T2 T4
    (6, 3, (), 1, ()),                 # T2 T2 T2 T1
    (6, 4, (), 0, ()),                 # T2 T2 T2 T2
    (12, 3, (2,), 0, ()),              # T2 T2 T2 T4
    (12, 1, (2, 2), 1, ()),            # T2 T4 T4 T1
    (2, 0, (2,), 3, ()),               # T4 T1 T1 T1
    (12, 0, (2, 2), 0, (3, 3)),        # T4 T4 T1 T1
)
CERTIFY_SCENES_TINY = ((6, 1, (), 2, ()), (4, 2, (), 1, ()))


class CertifyScenes(Workload):
    """`vskit build` then `vskit rank` on generated scene files.

    The signatures are fixed; the seed names the leaves and orders the
    scenes in a round.
    """

    name = "certify-scenes"

    def __init__(self, vs, seed, scale, workdir, tracer_ref):
        super().__init__(vs, seed, scale, workdir, tracer_ref)
        sigs = CERTIFY_SCENES_TINY if scale == "tiny" else CERTIFY_SCENES
        self.scenes = []
        os.makedirs(workdir, exist_ok=True)
        for index, sig in enumerate(sigs):
            path = os.path.join(workdir, f"scene-{index}.vsk")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(self._scene_text(sig))
            self.scenes.append((sig, path))
        self.rng.shuffle(self.scenes)
        self.round_size = len(self.scenes)
        self.digest_items = len(self.scenes)
        leaves = [signatures.leaf_count(sig) for sig in sigs]
        self.sizes = {"scenes": len(sigs), "leaves_min": min(leaves),
                      "leaves_max": max(leaves), "depth": CERTIFY_DEPTH}
        self.caps = {"pass_lines": 0, "bounded_pass_lines": 0,
                     "listing_depth_requested": 0,
                     "listing_depth_completed": 0, "listings_cut_short": 0}

    def _scene_text(self, sig):
        names = {}
        for name, _, _ in signatures.leaf_specs(sig):
            while True:
                new = "".join(self.rng.choice(string.ascii_uppercase)
                              for _ in range(3))
                if new not in names.values():
                    break
            names[name] = new
        return signatures.scene_text(sig, names)

    def rounds(self):
        while True:
            yield self.scenes

    def label(self, scene):
        return f"{scene[1]} {signatures.leaf_count(scene[0])} leaves"

    def kind(self, scene):
        return f"scene {scene[0]}"

    def run(self, scene):
        _, path = scene
        tracer = self.tracer_ref()
        start = perf_counter()
        build = StdoutSink(tracer=tracer, keep=True)
        build_status = _cli_call(self.vs, ["build", path], build)
        rank = StdoutSink(tracer=tracer, keep=True)
        rank_status = _cli_call(self.vs, ["rank", path], rank)
        first = (build.first if build.first is not None
                 else perf_counter()) - start
        return Outcome((build_status, build, rank_status, rank), first)

    def check(self, scene, outcome):
        sig, _ = scene
        build_status, build, rank_status, rank = outcome.result
        self.output_bytes += build.bytes + rank.bytes
        build_text, rank_text = build.text(), rank.text()
        self.add_digest((build_text + rank_text).encode())
        passes = build_text.count("[exact-pass]")
        bounded = [int(line.split("[pass to depth ", 1)[1].split("]")[0])
                   for line in build_text.splitlines()
                   if "[pass to depth " in line]
        self.caps["pass_lines"] += passes
        self.caps["bounded_pass_lines"] += len(bounded)
        self.caps["listing_depth_requested"] += CERTIFY_DEPTH * len(bounded)
        self.caps["listing_depth_completed"] += sum(bounded)
        self.caps["listings_cut_short"] += sum(d < CERTIFY_DEPTH
                                               for d in bounded)
        if build_status != 0 or "[FAIL]" in build_text:
            return f"build exit {build_status}: {build_text[-200:]!r}"
        if rank_status != 0:
            return f"rank exit {rank_status}: {rank_text[-200:]!r}"
        expected = signatures.genus(sig)
        lines = rank_text.splitlines()
        for want in (f"kernel rank = {expected}", "theta surjective: yes",
                     "kernel torsion-free: yes"):
            if want not in lines:
                return f"rank output lacks {want!r}"
        return None


# ---------------------------------------------------------------------------
# limitset-deep

# The rank-2 classical pairing of AC4/AC7: (center, radius) of C and C'
# and the matrix pairing them, per generator.
RANK2_PAIRS = (
    ((0, 0.25), (0, 4.0), (4, 0, 0, 0.25)),
    ((17 / 15, 8 / 15), (-17 / 15, 8 / 15),
     (17 / 8, -15 / 8, -15 / 8, 17 / 8)),
)


def conjugated_pairs(s, shift=0j):
    """RANK2_PAIRS conjugated by the similarity z -> s z + shift.

    A similarity maps circles to circles (center s c + shift, radius
    |s| r) and the pairing maps to T A T^-1, so the conjugate is again a
    Schottky pairing with the same combinatorics.
    """
    out = []
    for (c1, r1), (c2, r2), (a, b, c, d) in RANK2_PAIRS:
        # [[s, t], [0, 1]] [[a, b], [c, d]] [[1, -t], [0, s]]
        t = shift
        m = (s * a + t * c, s * b + t * d, c, d)
        m = (m[0], -m[0] * t + m[1] * s, m[2], -m[2] * t + m[3] * s)
        out.append(((s * c1 + t, abs(s) * r1), (s * c2 + t, abs(s) * r2), m))
    return out


def symmetric_pairs(quarter_turn, swap, invert):
    """RANK2_PAIRS under a symmetry that is exact in floating point.

    Conjugation by z -> i z, listing the two pairs in either order, and
    pairing C'_j to C_j by A_j^-1 (one flag per generator) only swap,
    negate or turn by i the input numbers.  Each of the sixteen variants
    samples to depth 8 with no nesting violation, where general
    conjugates do not (see LimitsetDeep.probes).
    """
    pairs = conjugated_pairs(1j if quarter_turn else 1)
    for j, flip in enumerate(invert):
        if flip:
            c, cp, (a, b, cc, d) = pairs[j]
            pairs[j] = (cp, c, (d, -b, -cc, a))
    return pairs[::-1] if swap else pairs


class LimitsetDeep(Workload):
    """verify_pairing, sample, disconnectedness_report and render on a
    seeded variant of the rank-2 classical system, one per item."""

    name = "limitset-deep"
    round_size = 1
    digest_items = 1

    def __init__(self, vs, seed, scale, workdir, tracer_ref):
        super().__init__(vs, seed, scale, workdir, tracer_ref)
        self.depth = 4 if scale == "tiny" else 8
        self.systems = [self._draw() for _ in range(64)]
        self.sizes = {"rank": 2, "depth": self.depth,
                      "discs": 2 * (3 ** self.depth - 1),
                      "variants": len(self.systems)}
        self.caps = {"depth_requested": 0, "depth_reached": 0}

    def _draw(self):
        rng = self.rng
        return symmetric_pairs(rng.random() < 0.5, rng.random() < 0.5,
                               (rng.random() < 0.5, rng.random() < 0.5))

    def rounds(self):
        for r in range(sys.maxsize):
            yield [(r, self.systems[r % len(self.systems)])]

    def label(self, item):
        return f"system {item[0]} depth {self.depth}"

    def kind(self, item):
        return f"depth {self.depth}"

    def _system(self, pairs):
        vs = self.vs
        triples = []
        for (c1, r1), (c2, r2), m in pairs:
            triples.append((vs.sphere_geometry.SphereCircle
                            .from_center_radius(c1, r1),
                            vs.sphere_geometry.SphereCircle
                            .from_center_radius(c2, r2),
                            vs.moebius.MoebiusMap(*m)))
        return vs.schottky.PairingSystem(triples)

    def _job(self, pairs, depth):
        vs = self.vs
        start = perf_counter()
        system = self._system(pairs)
        verified = vs.schottky.verify_pairing(system).ok
        first = perf_counter() - start
        smp = vs.limitset.sample(system, depth=depth)
        report = vs.limitset.disconnectedness_report(smp)
        svg = vs.limitset.render(smp)
        return Outcome((verified, smp.depth, len(smp.discs), report, svg),
                       first)

    def run(self, item):
        return self._job(item[1], self.depth)

    def _problem(self, result, depth):
        verified, reached, discs, report, svg = result
        if not verified:
            return "pairing failed verification"
        if reached != depth:
            return f"sample reached depth {reached} of {depth}"
        if discs != 2 * (3 ** depth - 1):      # 4 * 3^(k-1) at level k
            return f"{discs} discs, expected {2 * (3 ** depth - 1)}"
        if report.violations:
            return (f"{len(report.violations)} nesting violations in "
                    f"{report.checked} nested discs")
        if not report.monotone:
            return "diameters not monotone"
        if not svg.startswith("<svg"):
            return "render produced no SVG"
        return None

    def check(self, item, outcome):
        verified, reached, discs, report, svg = outcome.result
        self.caps["depth_requested"] += self.depth
        self.caps["depth_reached"] += reached
        self.add_digest(svg.encode())
        return self._problem(outcome.result, self.depth)

    def probes(self):
        """False nesting violations: four seeded general conjugates
        (rotated, scaled and translated) at the workload's depth, and the
        first item's system at depth 9."""
        rng = self.rng

        def failing(pairs_list, depth):
            bad = [p for p in (self._problem(self._job(pairs, depth).result,
                                             depth) for pairs in pairs_list)
                   if p]
            if bad:
                return f"{len(bad)} of {len(pairs_list)} fail: {bad[0]}"
            return None

        general = [conjugated_pairs(
            cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0.0, 2 * math.pi)),
            complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
            for _ in range(4)]
        return [(f"4 general conjugates depth {self.depth}",
                 lambda: failing(general, self.depth)),
                ("first system depth 9",
                 lambda: failing([self.systems[0]], 9))]


# ---------------------------------------------------------------------------
# enumerate-stream

# (n, g_max) per item: 17000 to 21000 records each, chosen so that the
# items cost about the same (0.25 to 0.35 s here).
ENUMERATIONS = ((2, 70), (4, 50), (6, 46), (8, 62), (9, 120), (10, 78),
                (12, 60))
ENUMERATIONS_TINY = ((6, 12), (12, 16))


class EnumerateStream(Workload):
    """`vskit enumerate-cyclic n g_max` with each record re-parsed and
    checked as it is written."""

    name = "enumerate-stream"

    def __init__(self, vs, seed, scale, workdir, tracer_ref):
        super().__init__(vs, seed, scale, workdir, tracer_ref)
        self.kernel_genus = vs.cyclic_case.kernel_genus
        self.genus_memo = {}
        jobs = ENUMERATIONS_TINY if scale == "tiny" else ENUMERATIONS
        # expected record counts, from the benchmark's own enumeration
        self.jobs = [(n, g, len(signatures.sweep(n, g, n_min=n)))
                     for n, g in jobs]
        self.rng.shuffle(self.jobs)
        self.round_size = len(self.jobs)
        self.digest_items = len(self.jobs)
        counts = [job[2] for job in self.jobs]
        self.sizes = {"commands": len(self.jobs), "records_min": min(counts),
                      "records_max": max(counts),
                      "records_per_round": sum(counts)}

    def rounds(self):
        while True:
            yield self.jobs

    def label(self, job):
        return f"enumerate-cyclic {job[0]} {job[1]}"

    kind = label

    def run(self, job):
        n, g_max, _ = job
        state = {"records": 0, "last": None, "problem": None}
        memo = self.genus_memo

        def on_line(line):
            state["records"] += 1
            if state["problem"] is not None:
                return
            try:
                rec = signatures.parse_record(line)
            except (ValueError, KeyError) as err:
                state["problem"] = f"unparsable record {line!r}: {err}"
                return
            key = (rec["g"], rec["a"], rec["b"], rec["c"], rec["d"],
                   rec["m_orders"], rec["n_orders"])
            args = (n, rec["a"], rec["b"], rec["c"], rec["n_orders"])
            g = memo.get(args)
            if g is None:
                g = memo[args] = self.kernel_genus(*args)
            if g != rec["g"] or rec["g"] > g_max:
                state["problem"] = f"g={rec['g']} but kernel_genus {g}"
            elif rec["b"] != len(rec["m_orders"]) \
                    or rec["d"] != len(rec["n_orders"]):
                state["problem"] = f"counts disagree with orders: {line!r}"
            elif rec["elementary"] != (rec["g"] <= 1):
                state["problem"] = f"elementary flag wrong: {line!r}"
            elif state["last"] is not None and key <= state["last"]:
                state["problem"] = f"out of order: {line!r}"
            state["last"] = key

        sink = StdoutSink(on_line, tracer=self.tracer_ref())
        start = perf_counter()
        status = _cli_call(self.vs, ["enumerate-cyclic", str(n), str(g_max)],
                           sink)
        first = (sink.first if sink.first is not None
                 else perf_counter()) - start
        return Outcome((status, sink, state), first, sink.check_s)

    def check(self, job, outcome):
        status, sink, state = outcome.result
        self.output_bytes += sink.bytes
        self.add_digest(sink.hash.digest())
        if status != 0:
            return f"exit {status}"
        if state["problem"] is not None:
            return state["problem"]
        if state["records"] != job[2]:
            return f"{state['records']} records, expected {job[2]}"
        return None


WORKLOADS = {w.name: w for w in (RankSweep, CertifyScenes, LimitsetDeep,
                                 EnumerateStream)}
