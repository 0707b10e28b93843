"""Limit set sampling, nesting audits, and rendering."""

import cmath
import hashlib
import tracemalloc

import pytest

from vskit.basic_groups import Gluing, make_b3, make_basic
from vskit.combination import Leaf, assemble, station_frame
from vskit.cyclic_case import CyclicSignature, build_cyclic
from vskit.limitset import (LimitSetSample, disconnectedness_report,
                            export_lines, render, sample)
from vskit.moebius import INF, TOL, MoebiusMap, classify, fixed_points
from vskit.schottky import (DegeneratePairingError, PairingSystem,
                            count_reduced_words, ping_pong_disc,
                            reduced_words, word_census)
from vskit.sphere_geometry import (SphereCircle, SphereDisc, disc_contains,
                                  discs_same)


def _rank2_system():
    # concentric pair for 16z and its mirror pair across the unit circle
    CA = SphereCircle.from_center_radius(0, 0.25)
    CAp = SphereCircle.from_center_radius(0, 4.0)
    CB = SphereCircle.from_center_radius(17 / 15, 8 / 15)
    CBp = SphereCircle.from_center_radius(-17 / 15, 8 / 15)
    A = MoebiusMap(4, 0, 0, 0.25)
    B = MoebiusMap(17 / 8, -15 / 8, -15 / 8, 17 / 8)
    return PairingSystem([(CA, CAp, A), (CB, CBp, B)])


class TestSampling:
    def test_rank_one_leaf(self):
        s = sample(make_basic("T2", lam=4), depth=3)
        assert s.depth == 3 and len(s.discs) == 6
        # the whole point set is the pair of fixed points of the scaling
        assert s.points[0] is INF
        assert abs(s.points[1]) < 1e-12 and len(s.points) == 2
        assert s.max_diameter_by_depth[0] == pytest.approx(1.6)
        assert s.max_diameter_by_depth[2] \
            < 0.1 * s.max_diameter_by_depth[0]

    def test_finite_leaf_is_empty(self):
        s = sample(make_basic("T1", n=5), depth=4)
        assert not s.discs and not s.points
        assert s.max_diameter_by_depth == ()

    def test_rank_two_classical_system(self):
        s = sample(_rank2_system(), depth=6)
        assert len(s.discs) == 1456
        diam = s.max_diameter_by_depth
        assert diam[0] == pytest.approx(9.412e-01, rel=1e-3)
        assert diam[1] == pytest.approx(1.325e-01, rel=1e-3)
        assert diam[5] == pytest.approx(5.889e-05, rel=1e-3)
        assert all(diam[k + 1] < diam[k] for k in range(5))
        report = disconnectedness_report(s)
        assert report.ok and report.checked == 1452
        assert report.monotone

    def test_circle_budget_caps_depth(self):
        s = sample(_rank2_system(), depth=8, circle_budget=100)
        assert s.depth == 3 and len(s.discs) == 52

    def test_discs_follow_the_reduced_word_walk(self):
        system = _rank2_system()
        s = sample(system, depth=4)
        assert [word for word, _ in s.discs] == list(reduced_words(2, 4))
        assert all(discs_same(disc, ping_pong_disc(system, word))
                   for word, disc in s.discs)
        # every reduced word is counted, and none is the identity
        census = word_census(system, 4)
        assert sum(census.values()) == count_reduced_words(2, 4)
        assert "identity" not in census

    def test_certified_tree_yields_points_only(self):
        built = build_cyclic(CyclicSignature(3, n_orders=(3, 3)))
        s = sample(built, depth=4)
        assert s.discs == () and len(s.points) == 40
        assert sample(assemble(built.tree), depth=4).points == s.points

    def test_composite_leaf_is_sampled_through_its_tree(self):
        # a B3 group has Schottky generators but no standard pairing
        g = make_b3([make_basic("T3", prefix="a."),
                     make_basic("T5", lam=4.0, prefix="b.")],
                    [Gluing("a.U", "b.V")])
        assert g.schottky_names == ("b.A",)
        s = sample(g, depth=3)
        assert s == sample(g.tree, depth=3) and len(s.points) == 28

    def test_element_sample_merges_fixed_points_across_root_classes(self):
        # E commutes with A, so A and A*E lie in different root classes
        # yet fix the same two points, which their solves give with
        # different last bits; the sample keeps each point once
        t4 = make_basic("T4", n=2, lam=4.0)
        placed = t4.conjugated_by(station_frame(6.0, t4.standard_scale()))
        A, E = placed.gens["A"], placed.gens["E"]
        assert fixed_points(A) != fixed_points(A * E)
        points = sample(Leaf(placed), depth=2).points
        for p in (5, 7):
            assert sum(abs(q - p) < 1e-9 for q in points) == 1

    def test_uncertified_tree_rejected(self):
        fast = build_cyclic(CyclicSignature(3, n_orders=(3, 3)),
                            certify=False)
        with pytest.raises(ValueError, match="uncertified tree"):
            sample(fast, depth=4)
        s = sample(fast, depth=4, require_verified=False)
        assert len(s.points) == 40

    def test_unknown_source_rejected(self):
        with pytest.raises(TypeError):
            sample(42, depth=3)


class TestNegativeControls:
    def _corrupted(self):
        # the translation spoils A(C_A) = C_A' while leaving the circles,
        # and hence the side assignment, intact
        CA = SphereCircle.from_center_radius(0, 0.25)
        CAp = SphereCircle.from_center_radius(0, 4.0)
        CB = SphereCircle.from_center_radius(17 / 15, 8 / 15)
        CBp = SphereCircle.from_center_radius(-17 / 15, 8 / 15)
        B = MoebiusMap(17 / 8, -15 / 8, -15 / 8, 17 / 8)
        return PairingSystem([(CA, CAp, MoebiusMap(4, 0.75, 0, 0.25)),
                              (CB, CBp, B)])

    def test_strict_sampling_rejects_broken_pairing(self):
        with pytest.raises(ValueError, match="failed verification"):
            sample(self._corrupted(), depth=3)

    def test_nesting_violations_reported(self):
        s = sample(self._corrupted(), depth=3, require_verified=False)
        report = disconnectedness_report(s)
        assert not report.ok
        assert len(report.violations) == 4
        assert report.violations[0] == ((-1, 2), (-1,))
        assert any("leaves its parent" in line for line in report.lines())

    def test_overlapping_circles_cannot_be_sampled(self):
        CA = SphereCircle.from_center_radius(0, 0.25)
        CAp = SphereCircle.from_center_radius(0, 4.0)
        CB = SphereCircle.from_center_radius(17 / 15, 8 / 15)
        blob = SphereCircle.from_center_radius(-17 / 15, 1.2)
        A = MoebiusMap(4, 0, 0, 0.25)
        B = MoebiusMap(17 / 8, -15 / 8, -15 / 8, 17 / 8)
        bad = PairingSystem([(CA, CAp, A), (CB, blob, B)])
        with pytest.raises(DegeneratePairingError):
            sample(bad, depth=3, require_verified=False)

    def test_report_needs_depth_two(self):
        s = sample(_rank2_system(), depth=1)
        with pytest.raises(ValueError):
            disconnectedness_report(s)


class TestDecay:
    def test_scaling_leaf_contraction(self):
        s = sample(make_basic("T2", lam=4), depth=10)
        report = disconnectedness_report(s)
        assert report.ok
        # |lambda|^(-depth) contraction up to a bounded constant
        assert report.max_terminal_diameter < 16.0 * 4.0 ** -10


def _root_class_count(genus, depth):
    """Classes {r^k : k != 0} among the nonempty reduced words, counted
    from the definition: w = u c u^-1, with c cyclically reduced, has
    the root u c0 u^-1 for the shortest c0 of which c is a power."""
    classes = set()
    for w in reduced_words(genus, depth):
        i = 0
        while w[i] == -w[-1 - i]:
            i += 1
        u, c = w[:i], w[i:len(w) - i]
        p = min(p for p in range(1, len(c) + 1)
                if c[:p] * (len(c) // p) == c)
        root = u + c[:p] + tuple(-x for x in reversed(u))
        classes.add(min(root, tuple(-x for x in reversed(root))))
    return len(classes)


class TestFixedPoints:
    def test_one_pair_of_points_per_root_class(self):
        # the rank-2 group is free and discrete, so two loxodromic words
        # share a fixed point exactly when they are powers of one root;
        # a 9-digit rounded key merged 8 of these points at depth 6
        s = sample(_rank2_system(), depth=6)
        assert len(s.points) == 2 * _root_class_count(2, 6) == 1332
        assert len(set(s.points)) == len(s.points)

    @pytest.mark.parametrize("verified", [True, False])
    def test_no_fixed_point_is_lost(self, verified):
        # powers and inverses share fixed points in any group, so even an
        # unverified system keeps every word's points
        system = _rank2_system() if verified \
            else TestNegativeControls()._corrupted()
        s = sample(system, depth=4, require_verified=verified)
        finite = [p for p in s.points if p is not INF]
        words = reduced_words(2, 4, system.generator,
                              lambda m, y: m * system.generator(y))
        for word, m in words:
            if classify(m).kind != "loxodromic":
                continue
            for p in fixed_points(m):
                assert p in s.points if p is INF else \
                    min(abs(p - q) for q in finite) <= 1e-9 * (1 + abs(p)), \
                    word


class TestRender:
    def test_deterministic_bytes(self):
        s = sample(_rank2_system(), depth=4)
        first = render(s)
        assert first == render(s)
        assert first.startswith("<svg ")
        assert first.rstrip().endswith("</svg>")
        assert first.count("<circle") == len(s.discs) \
            + len([p for p in s.points if p is not INF])

    def test_empty_canvas(self):
        svg = render(sample(make_basic("T1", n=4), depth=3))
        assert "empty sample" in svg and svg.startswith("<svg ")

    def test_point_dust_render(self):
        from vskit.combination import Leaf
        s = sample(Leaf(make_basic("T2", lam=4)), depth=5)
        svg = render(s)
        # one finite fixed point drawn, infinity tallied in the comment
        assert svg.count('fill="#1a1a1a"') == 1
        assert "1 unbounded elements omitted" in svg

    def test_all_unbounded_sample_keeps_its_tally(self):
        # a boundary line and the point at infinity: nothing is drawn,
        # but both are tallied, not called an empty sample
        line = SphereDisc(SphereCircle.from_line(0, 1j), 1)
        s = LimitSetSample(1, (((1,), line),), (INF,), (2.0,))
        assert render(s) == (
            '<svg xmlns="http://www.w3.org/2000/svg" '
            'viewBox="0 0 800.000000 800.000000">\n'
            "  <!-- 2 unbounded elements omitted -->\n"
            "</svg>\n")

    def test_export_lines(self):
        s = sample(make_basic("T2", lam=4), depth=2)
        lines = export_lines(s)
        assert lines[0] == "depth 2"
        assert len(lines) == 1 + len(s.discs) + len(s.points)
        assert lines == export_lines(s)
        assert any(line.startswith("disc 1 |") for line in lines)
        assert "point inf" in lines


# The rank-2 pairing of _rank2_system as (center, radius) of C and C'
# and the matrix pairing them, per generator.
_RANK2_PAIRS = (
    ((0, 0.25), (0, 4.0), (4, 0, 0, 0.25)),
    ((17 / 15, 8 / 15), (-17 / 15, 8 / 15),
     (17 / 8, -15 / 8, -15 / 8, 17 / 8)),
)


def _conjugated_pairs(s, t=0j):
    """_RANK2_PAIRS conjugated by the similarity z -> s z + t."""
    out = []
    for (c1, r1), (c2, r2), (a, b, c, d) in _RANK2_PAIRS:
        m = (s * a + t * c, s * b + t * d, c, d)
        m = (m[0], -m[0] * t + m[1] * s, m[2], -m[2] * t + m[3] * s)
        out.append(((s * c1 + t, abs(s) * r1), (s * c2 + t, abs(s) * r2), m))
    return out


def _symmetric_pairs(quarter_turn, swap, invert):
    """_RANK2_PAIRS turned by i, listed in either order, and with each
    pairing reversed (C' to C by the inverse) or not: every variant only
    swaps, negates or turns by i the input numbers."""
    pairs = _conjugated_pairs(1j if quarter_turn else 1)
    for j, flip in enumerate(invert):
        if flip:
            c, cp, (a, b, cc, d) = pairs[j]
            pairs[j] = (cp, c, (d, -b, -cc, a))
    return pairs[::-1] if swap else pairs


def _variant_system(pairs):
    return PairingSystem([(SphereCircle.from_center_radius(*c),
                           SphereCircle.from_center_radius(*cp),
                           MoebiusMap(*m)) for c, cp, m in pairs])


_VARIANTS = {
    **{f"q{q}s{s}i{i}{j}": _symmetric_pairs(q, s, (i, j))
       for q in (0, 1) for s in (0, 1) for i in (0, 1) for j in (0, 1)},
    "general-a": _conjugated_pairs(complex(0.7, 1.1), complex(-0.3, 0.45)),
    "general-b": _conjugated_pairs(complex(-1.6, 0.2), complex(0.8, -0.6)),
}

# SHA-256 over every disc's (word, A, B, C, side), the fixed points, the
# per-depth diameters, the render bytes and the audit lines of each
# variant sampled to depth 6; repr pins floats to the last bit.
_GOLDEN = {
    "general-a":
        "256d2a607b40dc2526b61183c4465976b183a4e1c5fb908b1572f60743f32fcf",
    "general-b":
        "ba4c98b7991782d8d43c2d28e78774bf7ce7c59eaaaa905325dbdf04dd31f6dc",
    "q0s0i00":
        "7fb129edf418b8a2eeeb6bc994a5c9a0632c084f4d22060f3af7904f49d114c8",
    "q0s0i01":
        "4a6d07982055891b2c779caa0020789a59ab66147b2aa163961ee4cb6c3234fb",
    "q0s0i10":
        "82506cf98337710c9b6250b6e19f20f4640fa3b32e10e9f8e32ea5f4ee5613b8",
    "q0s0i11":
        "22805328c06551a6b3c2698c379be28d83c226889a8c9ab13055cf087015ced6",
    "q0s1i00":
        "c3b9e32e4a5eb93ee96d182a25e2cf2daea577a965593c921872fef4a1716ae6",
    "q0s1i01":
        "441d33aba00d6f88021c0ea10990dc576a5c4df1caaa763854b418744511d7f4",
    "q0s1i10":
        "f0882fddae853dda5f533d279ec5d40206c1683ad0811304a6ee19f1c64e78f6",
    "q0s1i11":
        "a2aef02c23ab27a3b3663c42950b56225652a2f801041f108062a677291eb687",
    "q1s0i00":
        "9d6a6f2962c0ad7ad18e6a922bb684b2cc77d01a6886bc9f780fa003ef833811",
    "q1s0i01":
        "27a2e3a6af1ab84e9ca8528ab313c8091c0af881ccb5736ca4d930832ab983d2",
    "q1s0i10":
        "c058a6161bdea7772a78a437f0e735b447db628f361f499def0fa109d31c92b3",
    "q1s0i11":
        "1c39e8a0c5d755e159f7e05f442fed1f2c2eb5fb107ef22978ca581f4701891e",
    "q1s1i00":
        "030dec39d9a54c40965801cdfc7e0561e54f94e4a2277ae4d873ce15d174a831",
    "q1s1i01":
        "0b38e813b556445e48c3bb63456a87d12806dd4cd9b369e7c3de181a15efb7a6",
    "q1s1i10":
        "8239f03fbd7f41159c886bb08c09d4fb17da523cea93d44f9460be78a02dc911",
    "q1s1i11":
        "2abacd358ace3d1cc708de713d6cb0ccf4fe84728a92dc80eb7e8b8f2ba49e42",
}


@pytest.mark.parametrize("name", sorted(_VARIANTS))
def test_sample_audit_render_bits(name):
    s = sample(_variant_system(_VARIANTS[name]), depth=6)
    h = hashlib.sha256()
    for word, disc in s.discs:
        c = disc.circle
        h.update(repr((word, c.A, c.B, c.C, disc.side)).encode())
    h.update(repr(s.points).encode())
    h.update(repr(s.max_diameter_by_depth).encode())
    h.update(render(s).encode())
    h.update("\n".join(disconnectedness_report(s).lines()).encode())
    assert h.hexdigest() == _GOLDEN[name]


@pytest.mark.parametrize("depth, count", [(3, 4), (4, 13), (6, 121)])
def test_audit_makes_disc_contains_decisions(depth, count):
    # on the corrupted system the violations are disc_contains' own
    # per-disc decisions, and also the letter-pair rule: a word fails
    # exactly when its level-2 suffix does
    s = sample(TestNegativeControls()._corrupted(), depth=depth,
               require_verified=False)
    index = dict(s.discs)
    per_disc = tuple((word, word[:-1]) for word, disc in s.discs
                     if len(word) >= 2 and not disc_contains(
                         index[word[:-1]], disc))
    bad_pairs = {word for word, _ in per_disc if len(word) == 2}
    by_pair = tuple((word, word[:-1]) for word, _ in s.discs
                    if len(word) >= 2 and word[-2:] in bad_pairs)
    report = disconnectedness_report(s)
    assert report.violations == per_disc == by_pair
    assert len(report.violations) == count
    assert report.checked == len(s.discs) - 4


@pytest.mark.parametrize("system, depth", [
    (_rank2_system(), 9),
    (_variant_system(_conjugated_pairs(0.09 + 0.88j, 0.99 - 0.06j)), 8),
])
def test_deep_audit_reports_no_false_violation(system, depth):
    # discs this deep cancel digits in a per-disc inversive product;
    # the letter-pair audit never tests them, so it finds every one
    # nested
    s = sample(system, depth=depth)
    report = disconnectedness_report(s)
    assert report.violations == () and report.monotone
    assert report.checked == len(s.discs) - 4


def test_audit_decisions_inside_the_slack_band():
    # children of the unit disc within a few TOL of internal tangency,
    # inside it or around it, so both of disc_contains' thresholds
    # decide some of them
    parent = SphereDisc.from_center_radius(0, 1.0)
    discs = [((1,), parent)]
    for k in (-3, -1, -0.6, -0.4, 0, 0.4, 0.6, 1, 3):
        d = k * TOL
        for r in (0.3, 0.01):
            discs.append(((1, len(discs) + 1), SphereDisc.from_center_radius(
                cmath.rect(1 - r + d, 0.7), r)))
        discs.append(((1, len(discs) + 1),
                      SphereDisc.from_center_radius(-0.5, 1.5 + d)))
    s = LimitSetSample(2, tuple(discs), (), (2.0, 2.0))
    want = tuple((word, (1,)) for word, disc in discs[1:]
                 if not disc_contains(parent, disc))
    assert 0 < len(want) < len(discs) - 1
    assert disconnectedness_report(s).violations == want


# A hand-built sample mixing a boundary line, finite discs (one of them
# an outside disc), finite points and the point at infinity.
_MIXED = LimitSetSample(2, (
    ((1,), SphereDisc(SphereCircle.from_line(0, 1j), 1)),
    ((2,), SphereDisc.from_center_radius(0.5 + 0.25j, 0.125)),
    ((-2,), SphereDisc.from_center_radius(-3, 2.0, inside=False)),
    ((2, 2), SphereDisc.from_center_radius(0.55 + 0.25j, 0.01)),
), (0.5 + 0.3j, INF, -1.25 - 0.5j), (2.0, 0.1))

# SHA-256 of the render bytes of four variants sampled to depth 8
# (13120 discs and 12660 points, so render joins its lines over many
# chunks) and of _MIXED.
_RENDER_GOLDEN = {
    "general-a":
        "7209ab64582848e2be53cacb544f8b14a4d1168283f384ff6ece3699927a73ef",
    "general-b":
        "01071dec978bec7650ee2ec864e3201536c43dc9f3b5efb20ca25be5b4d83832",
    "q0s0i00":
        "fcd5c3155cef68cab72188753ccd87848fc76ccbd4fc43cc81ef95fe5a78a6d1",
    "q1s1i11":
        "1f20e3985fb912f88b09c72020ba79c4e145600b7ac855e078f5870ff5425f23",
    "mixed":
        "b03b7a6924878349ef5bdb3d4f45521bf5d879271a8ea722342f18d234fdc3fb",
}


@pytest.mark.parametrize("name", sorted(_RENDER_GOLDEN))
def test_render_bytes(name):
    s = _MIXED if name == "mixed" else \
        sample(_variant_system(_VARIANTS[name]), depth=8)
    svg = render(s).encode()
    assert hashlib.sha256(svg).hexdigest() == _RENDER_GOLDEN[name]


def test_render_memory_is_bounded():
    # the AC7 system to depth 8 renders 2.46 MB of SVG; the traced peak
    # while render runs, counting the sample it reads (about 4.9 MiB),
    # stays below 12 MiB: the lines are joined in chunks, and no
    # coordinate list or second full-size copy is made
    tracemalloc.start()
    try:
        s = sample(_rank2_system(), depth=8)
        tracemalloc.reset_peak()
        svg = render(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(svg) > 2_400_000
    assert peak < 12 * 2 ** 20
