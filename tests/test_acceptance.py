"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line naming the guarantee and the
tolerance it was checked at.
"""

import cmath
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from vskit.basic_groups import OrbifoldSignature, make_basic, \
    orbifold_signature
from vskit.cli import run
from vskit.combination import GroupData, chain_leaves
from vskit.cyclic_case import build_cyclic, enumerate_signatures
from vskit.limitset import disconnectedness_report, sample
from vskit.moebius import MoebiusMap, classify, is_identity_map, \
    projectively_equal
from vskit.schottky import PairingSystem, reduced_words, verify_pairing
from vskit.sphere_geometry import SphereCircle

PROJ_TOL = 1e-9


def _report(ok, line):
    print(("PASS: " if ok else "FAIL: ") + line)
    assert ok, line


def _random_lambda(rng):
    modulus = rng.uniform(1.05, 10.0)
    return modulus * cmath.exp(1j * rng.uniform(0.0, 2.0 * cmath.pi))


def _commute_ok(g, x, y, tol=PROJ_TOL):
    return projectively_equal(g[x] * g[y], g[y] * g[x], tol)


def _rank2_system():
    CA = SphereCircle.from_center_radius(0, 0.25)
    CAp = SphereCircle.from_center_radius(0, 4.0)
    CB = SphereCircle.from_center_radius(17 / 15, 8 / 15)
    CBp = SphereCircle.from_center_radius(-17 / 15, 8 / 15)
    A = MoebiusMap(4, 0, 0, 0.25)
    B = MoebiusMap(17 / 8, -15 / 8, -15 / 8, 17 / 8)
    return PairingSystem([(CA, CAp, A), (CB, CBp, B)])


def test_ac1_basic_type_relations():
    rng = random.Random(20260825)
    t0 = time.perf_counter()
    bad = []
    for _ in range(50):
        n = rng.randint(2, 12)
        lam1 = _random_lambda(rng)
        lam2 = _random_lambda(rng)
        lam3 = _random_lambda(rng)

        g = make_basic("T1", n=n).gens
        if not is_identity_map(g["E"] ** n, PROJ_TOL):
            bad.append(("T1", n))
        g = make_basic("T2", lam=lam1).gens
        if classify(g["L"], PROJ_TOL).kind != "loxodromic":
            bad.append(("T2", lam1))
        g = make_basic("T3").gens
        if not _commute_ok(g, "U", "V"):
            bad.append(("T3",))
        g = make_basic("T4", n=n, lam=lam1).gens
        if not _commute_ok(g, "A", "E"):
            bad.append(("T4", n, lam1))
        g = make_basic("T5", lam=lam1).gens
        if not _commute_ok(g, "A", "U"):
            bad.append(("T5", lam1))
        g = make_basic("T6", lam1=lam1, lam2=lam2).gens
        if not (_commute_ok(g, "A", "U") and _commute_ok(g, "B", "V")):
            bad.append(("T6", lam1, lam2))
        g = make_basic("T7", lam1=lam1, lam2=lam2, lam3=lam3).gens
        uv = g["U"] * g["V"]
        if not (_commute_ok(g, "A", "U") and _commute_ok(g, "B", "V")
                and projectively_equal(g["C"] * uv, uv * g["C"], PROJ_TOL)):
            bad.append(("T7", lam1, lam2, lam3))
    elapsed = time.perf_counter() - t0
    _report(not bad and elapsed < 1.0,
            f"AC1 basic-type relations: 7 types x 50 random draws "
            f"(n in 2..12, |lambda| in (1,10]) projective within 1e-9, "
            f"{len(bad)} failures, {elapsed:.2f}s (budget 1s)")


def test_ac2_signature_table():
    expected = [
        (make_basic("T1", n=2), OrbifoldSignature(0, (2, 2))),
        (make_basic("T1", n=9), OrbifoldSignature(0, (9, 9))),
        (make_basic("T2", lam=4), OrbifoldSignature(1, ())),
        (make_basic("T3"), OrbifoldSignature(0, (2, 2, 2))),
        (make_basic("T4", n=5, lam=3), OrbifoldSignature(1, ())),
        (make_basic("T5", lam=4), OrbifoldSignature(0, (2, 2, 2, 2))),
        (make_basic("T6", lam1=4, lam2=7),
         OrbifoldSignature(0, (2, 2, 2, 2, 2))),
        (make_basic("T7", lam1=4, lam2=7, lam3=11),
         OrbifoldSignature(0, (2, 2, 2, 2, 2, 2))),
    ]
    bad = [(bg.btype, str(orbifold_signature(bg)))
           for bg, sig in expected if orbifold_signature(bg) != sig]
    _report(not bad,
            f"AC2 quotient signature table: all seven basic types exact, "
            f"no tolerance, {len(bad)} mismatches")


def test_ac3_cyclic_rank_cross_validation():
    t0 = time.perf_counter()
    total = 0
    bad = []
    for n in range(2, 13):
        for sig in enumerate_signatures(n, 50):
            report = build_cyclic(sig, certify=False).rank_report()
            total += 1
            if report.kernel_rank != sig.g or not report.ok:
                bad.append((sig, report.kernel_rank))
    elapsed = time.perf_counter() - t0
    _report(total == 73407 and not bad and elapsed < 30.0,
            f"AC3 cyclic-signature rank cross-validation: {total} "
            f"admissible signatures (n <= 12, g <= 50), kernel rank by "
            f"Euler characteristic == genus formula exactly, {len(bad)} "
            f"mismatches, {elapsed:.1f}s (budget 30s)")


def test_ac4_ping_pong_freeness():
    t0 = time.perf_counter()
    system = _rank2_system()
    verified = verify_pairing(system).ok
    words = list(reduced_words(2, 6, system.generator,
                               lambda m, y: m * system.generator(y)))
    kinds = {}
    for _, m in words:
        kind = classify(m, PROJ_TOL).kind
        kinds[kind] = kinds.get(kind, 0) + 1
    elapsed = time.perf_counter() - t0
    ok = (verified and len(words) == 1456
          and kinds.get("loxodromic", 0) == 1456
          and kinds.get("elliptic", 0) == 0
          and kinds.get("parabolic", 0) == 0
          and kinds.get("identity", 0) == 0
          and elapsed < 5.0)
    _report(ok,
            f"AC4 ping-pong freeness: fixed rank-2 classical pairing "
            f"verified, {len(words)} reduced words of length <= 6 all "
            f"loxodromic at tolerance 1e-9 ({kinds}), {elapsed:.2f}s "
            f"(budget 5s)")


def test_ac5_no_parabolics():
    t0 = time.perf_counter()
    sources = [make_basic("T1", n=7), make_basic("T2", lam=4),
               make_basic("T3"), make_basic("T4", n=5, lam=3),
               make_basic("T5", lam=4), make_basic("T6", lam1=4, lam2=7),
               make_basic("T7", lam1=4, lam2=7, lam3=11)]
    labels = [bg.btype for bg in sources]
    sources.append(chain_leaves([make_basic("T1", n=2, prefix="r2."),
                                 make_basic("T1", n=3, prefix="r3."),
                                 make_basic("T2", lam=4, prefix="s.")]))
    labels.append("3-leaf assembly")
    checked = 0
    parabolic = 0
    ambiguous = 0
    for source in sources:
        enum = GroupData.coerce(source).elements(6)
        for _, _, m in enum.triples:
            checked += 1
            if classify(m, PROJ_TOL).kind == "parabolic":
                parabolic += 1
            tr2 = (m.a + m.d) ** 2
            if abs(tr2 - 4.0) < PROJ_TOL and not is_identity_map(m,
                                                                 PROJ_TOL):
                ambiguous += 1
    elapsed = time.perf_counter() - t0
    ok = parabolic == 0 and ambiguous == 0 and elapsed < 10.0
    _report(ok,
            f"AC5 no parabolics: {', '.join(labels)} enumerated to depth "
            f"6 ({checked} elements), {parabolic} parabolic and "
            f"{ambiguous} ambiguous near-parabolic classifications at "
            f"1e-9, {elapsed:.2f}s (budget 10s)")


BROKEN_SCENES = [
    ("overlapping discs", "verify", """\
pairing
  pair 0 0 1/4  0 0 4  4 0 0 1/4
  pair 17/15 0 8/15  -17/15 0 6/5  17/8 -15/8 -15/8 17/8
""", "not disjoint"),
    ("stable letter misses its target circle", "build", """\
hnn H
  base none
  letter 2 0 0 1/2
  disc1 0 0 1 inside
  disc2 0 0 16 outside
""", "A(Sigma1) = Sigma2"),
    ("elliptic stable letter", "verify", """\
hnn H
  base none
  letter 0 -1 1 0
  disc1 0 0 1/4 inside
  disc2 0 0 4 outside
""", "classified elliptic"),
]


def test_ac6_negative_controls(tmp_path, capsys):
    results = []
    for label, command, text, witness in BROKEN_SCENES:
        path = tmp_path / f"{command}-{len(results)}.vsk"
        path.write_text(text)
        status = run(command, [str(path)])
        out = capsys.readouterr().out
        results.append((label, status == 1 and witness in out))
    bad = [label for label, ok in results if not ok]
    with capsys.disabled():
        _report(not bad,
                f"AC6 combination negative controls: 3 broken scenes "
                f"(overlapping discs, wrong circle image, elliptic stable "
                f"letter) all exit 1 with a printed witness, "
                f"{len(bad)} misses")


def test_ac7_limit_set_nesting():
    s = sample(_rank2_system(), depth=8)
    report = disconnectedness_report(s)
    diam = s.max_diameter_by_depth
    decreasing = all(diam[k + 1] < diam[k] for k in range(1, 7))
    terminal_ok = diam[7] < 0.1 * diam[1]
    ok = (len(report.violations) == 0 and decreasing and terminal_ok)
    _report(ok,
            f"AC7 limit-set nesting: rank-2 classical system to depth 8, "
            f"{len(report.violations)} nesting violations, max diameter "
            f"strictly decreasing from depth 2, terminal "
            f"{diam[7]:.3e} < 0.1 x depth-2 {diam[1]:.3e}")


RANK_SCENE = """\
leaf L
  type T4
  n 3
  lam 2

theta
  target 3
  image L.A 0
  image L.E 1
"""

BUILD_SCENE = """\
leaf R2
  type T1
  n 2

leaf R3
  type T1
  n 3

leaf S
  type T2
  lam 4

product P
  parts R2 R3 S

root P
"""


def test_ac8_determinism(tmp_path):
    rank_scene = tmp_path / "rank.vsk"
    rank_scene.write_text(RANK_SCENE)
    build_scene = tmp_path / "build.vsk"
    build_scene.write_text(BUILD_SCENE)
    invocations = [
        ("build", ["build", str(build_scene)]),
        ("rank", ["rank", str(rank_scene)]),
        ("enumerate-cyclic", ["enumerate-cyclic", "6", "8"]),
    ]
    # the subprocesses import vskit from this checkout's src directory
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    bad = []
    for label, args in invocations:
        runs = [subprocess.run([sys.executable, "-m", "vskit.cli", *args],
                               capture_output=True, check=False, env=env)
                for _ in range(2)]
        if not (runs[0].returncode == runs[1].returncode == 0
                and runs[0].stdout == runs[1].stdout
                and runs[0].stdout):
            bad.append(label)
    _report(not bad,
            f"AC8 determinism: build/rank/enumerate-cyclic stdout "
            f"byte-identical across two runs, {len(bad)} differing")
