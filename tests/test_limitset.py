"""Limit set sampling, nesting audits, and rendering."""

import pytest

from vskit.basic_groups import make_basic
from vskit.combination import assemble
from vskit.cyclic_case import CyclicSignature, build_cyclic
from vskit.limitset import (disconnectedness_report, export_lines, render,
                            sample)
from vskit.moebius import INF, MoebiusMap
from vskit.schottky import (DegeneratePairingError, PairingSystem,
                            count_reduced_words, is_nontrivial_to_depth,
                            ping_pong_disc, reduced_words, word_census)
from vskit.sphere_geometry import SphereCircle, discs_same


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
        assert s.is_empty
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
        total = count_reduced_words(2, 4)
        assert sum(word_census(system, 4).values()) == total
        ok, cert = is_nontrivial_to_depth(system, 4)
        assert ok and cert["words_checked"] == total

    def test_certified_tree_yields_points_only(self):
        built = build_cyclic(CyclicSignature(3, n_orders=(3, 3)))
        s = sample(built, depth=4)
        assert s.discs == () and len(s.points) == 40
        assert sample(assemble(built.tree), depth=4).points == s.points

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

    def test_export_lines(self):
        s = sample(make_basic("T2", lam=4), depth=2)
        lines = export_lines(s)
        assert lines[0] == "depth 2"
        assert len(lines) == 1 + len(s.discs) + len(s.points)
        assert lines == export_lines(s)
        assert any(line.startswith("disc 1 |") for line in lines)
        assert "point inf" in lines
