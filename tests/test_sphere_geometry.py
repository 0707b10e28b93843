"""Unit tests for circles and discs as Hermitian forms.

Frozen values: a circle |z| = r has normalized form (1/r, 0, -r), so its
chordal diameter is 4/(1/r + r); the inversive product of the closed
discs |z| <= 1/2 and |z| >= 2 is (0 - 2*2 - (-1/2)(-1/2))/2 = -2.125.
"""

import math
import random

import pytest

from vskit import sphere_geometry
from vskit.combination import station_boundary
from vskit.moebius import INF, TOL, MoebiusMap
from vskit.sphere_geometry import (SphereCircle, SphereDisc,
                            circles_disjoint, circles_equal, disc_contains,
                            disc_relation, discs_same, image_relation,
                            inversive_product, map_circle, disc_image)


V = MoebiusMap(0, 1j, 1j, 0)           # z -> 1/z
CONJ = MoebiusMap(1, 0, 0, 1, conformal=False)


class TestSphereCircle:
    def test_normalization(self):
        c = SphereCircle(2.0, 0.0, -0.5)    # |z| = 1/2 scaled by 1
        assert c.A == pytest.approx(2.0)
        assert c.C == pytest.approx(-0.5)

    def test_center_radius_roundtrip(self):
        c = SphereCircle.from_center_radius(3 - 1j, 0.25)
        center, radius = c.center_radius()
        assert center == pytest.approx(3 - 1j)
        assert radius == pytest.approx(0.25)

    def test_tiny_radius_preserved(self):
        # the naive form (1, -c, |c|^2 - r^2) loses r below 1e-8
        c = SphereCircle.from_center_radius(1.0, 1e-12)
        _, radius = c.center_radius()
        assert radius == pytest.approx(1e-12, rel=1e-6)

    def test_line_eval(self):
        line = SphereCircle.from_line(1, 1 + 1j)   # Re z = 1
        assert line.is_line()
        assert line.eval(0) == pytest.approx(-2)
        assert line.eval(2) == pytest.approx(2)
        assert line.eval(INF) == pytest.approx(0)

    def test_spherical_diameter(self):
        assert SphereCircle.from_center_radius(0, 1).spherical_diameter() \
            == pytest.approx(2)
        assert SphereCircle.from_center_radius(0, 2).spherical_diameter() \
            == pytest.approx(1.6)
        # great circles through INF have diameter 2
        assert SphereCircle.from_line(0, 1j).spherical_diameter() \
            == pytest.approx(2)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            SphereCircle(1.0, 0.0, 1.0)    # |z|^2 + 1 = 0 has no real points
        with pytest.raises(ValueError):
            SphereCircle.from_center_radius(0, -1)


class TestMapCircle:
    def test_scaling(self):
        c = SphereCircle.from_center_radius(0, 0.5)
        m = MoebiusMap(2, 0, 0, 0.5)       # 4z
        assert circles_equal(map_circle(m, c),
                             SphereCircle.from_center_radius(0, 2))

    def test_inversion(self):
        c = SphereCircle.from_center_radius(0, 0.25)
        assert circles_equal(map_circle(V, c),
                             SphereCircle.from_center_radius(0, 4))

    def test_translation(self):
        c = SphereCircle.from_center_radius(1, 1)
        m = MoebiusMap(1, 2, 0, 1)
        assert circles_equal(map_circle(m, c),
                             SphereCircle.from_center_radius(3, 1))

    def test_circle_to_line(self):
        # 1/z sends |z - 1| = 1 (through 0) to the line Re w = 1/2
        c = SphereCircle.from_center_radius(1, 1)
        image = map_circle(V, c)
        assert image.is_line()
        assert abs(image.eval(0.5)) <= 1e-9

    def test_anticonformal(self):
        c = SphereCircle.from_center_radius(1j, 0.5)
        assert circles_equal(map_circle(CONJ, c),
                             SphereCircle.from_center_radius(-1j, 0.5))


class TestDiscs:
    def test_membership(self):
        d = SphereDisc.from_center_radius(0, 0.5, inside=True)
        assert d.contains(0.2)
        assert not d.contains(1)
        assert not d.contains(INF)
        assert d.complement().contains(INF)

    def test_halfplane(self):
        line = SphereCircle.from_line(0, 1j)    # imaginary axis
        left = SphereDisc(line, 1) if SphereDisc(line, 1).contains(-1) \
            else SphereDisc(line, -1)
        assert left.contains(-5)
        assert not left.contains(2)

    def test_disc_image_inversion(self):
        d = SphereDisc.from_center_radius(0, 0.5, inside=True)
        image = disc_image(V, d)
        assert image.contains(INF)
        assert not image.contains(0)

    def test_disc_image_anticonformal(self):
        d = SphereDisc.from_center_radius(1j, 0.5, inside=True)
        image = disc_image(CONJ, d)
        assert image.contains(-1j)

    @pytest.mark.parametrize("conformal", [True, False])
    def test_disc_image_adjugate_transport(self, conformal):
        # a generic map, built as a product so its matrix is not exactly
        # det 1 in floating point; M^-1 is taken as its adjugate
        m = (MoebiusMap(1 + 2j, 0.5, 0.3j, 1, conformal=conformal)
             * MoebiusMap(0.7, -0.2j, 0.4, 1.1))
        center, radius = 0.3 + 0.2j, 0.5
        for inside in (True, False):
            d = SphereDisc.from_center_radius(center, radius, inside=inside)
            # a point inside d and one inside its complement
            into, away = center, center + 2 * radius
            if not inside:
                into, away = away, into
            image = disc_image(m, d)
            for angle in (0.0, 2.0, 4.0):
                p = center + radius * complex(math.cos(angle),
                                              math.sin(angle))
                assert abs(image.circle.eval(m(p))) <= 1e-9
            assert image.contains(m(into))
            assert not image.contains(m(away))


class TestTrustedDiscImage:
    """disc_image builds its disc from the pushed-forward oriented form;
    the reference is the raw-against-canonical coefficient scan it
    replaced."""

    @staticmethod
    def _scan_rule(m, disc):
        A2, B2, C2 = sphere_geometry._pushforward(m, *disc.oriented())
        circle = SphereCircle._from_normalized(A2, B2, C2)
        raw = (A2, B2.real, B2.imag, C2)
        canon = (circle.A, circle.B.real, circle.B.imag, circle.C)
        k = 0
        for i in range(1, 4):
            if abs(canon[i]) > abs(canon[k]):
                k = i
        return circle, 1 if raw[k] * canon[k] > 0 else -1

    def test_seeded_maps_agree_with_scan_rule(self):
        rng = random.Random(31)

        def point():
            return complex(rng.uniform(-3, 3), rng.uniform(-3, 3))

        discs = [SphereDisc.from_center_radius(0, 1, inside=False)]
        for _ in range(12):
            discs.append(SphereDisc.from_center_radius(
                point(), rng.uniform(0.01, 2), inside=rng.random() < 0.5))
            discs.append(SphereDisc(SphereCircle.from_line(point(), point()),
                                    rng.choice((1, -1))))
        factors = []
        while len(factors) < 10:
            try:
                factors.append(MoebiusMap(point(), point(), point(), point(),
                                          conformal=rng.random() < 0.5))
            except ValueError:
                continue
        # affine maps keep lines lines
        affine = [MoebiusMap(point(), point(), 0, 1,
                             conformal=rng.random() < 0.5)
                  for _ in range(4)]
        sides = set()
        for trial in range(300):
            pool = affine if trial % 3 == 0 else factors
            m = MoebiusMap.identity()
            for _ in range(rng.randint(1, 8)):
                m = m * rng.choice(pool)
            for disc in discs:
                image = disc_image(m, disc)
                circle, side = self._scan_rule(m, disc)
                assert repr((image.circle.A, image.circle.B, image.circle.C,
                             image.side)) == repr((circle.A, circle.B,
                                                   circle.C, side))
                assert repr(image.oriented()) == repr(
                    sphere_geometry._pushforward(m, *disc.oriented()))
                sides.add((image.side, image.circle.is_line()))
        assert len(sides) == 4


class TestInversiveProduct:
    def test_frozen_value(self):
        d1 = SphereDisc.from_center_radius(0, 0.5, inside=True)
        d2 = SphereDisc.from_center_radius(0, 2, inside=False)
        assert inversive_product(d1, d2) == pytest.approx(-2.125)

    def test_moebius_invariance(self):
        d1 = SphereDisc.from_center_radius(0, 0.5, inside=True)
        d2 = SphereDisc.from_center_radius(0, 2, inside=False)
        m = MoebiusMap(3, 1 + 2j, 1, 1)
        assert inversive_product(disc_image(m, d1), disc_image(m, d2)) \
            == pytest.approx(-2.125)

    def test_relations(self):
        inside_half = SphereDisc.from_center_radius(0, 0.5, inside=True)
        outside_two = SphereDisc.from_center_radius(0, 2, inside=False)
        assert disc_relation(inside_half, outside_two) == "disjoint"

        tangent_a = SphereDisc.from_center_radius(0, 1, inside=True)
        tangent_b = SphereDisc.from_center_radius(2, 1, inside=True)
        assert disc_relation(tangent_a, tangent_b) == "touching"

        crossing_a = SphereDisc.from_center_radius(0, 1, inside=True)
        crossing_b = SphereDisc.from_center_radius(1, 1, inside=True)
        assert disc_relation(crossing_a, crossing_b) == "meets"

    def test_covering_pair_is_not_disjoint(self):
        # complements of disjoint discs: same inversive product as the
        # disjoint pair, distinguished only by the boundary point test
        d1 = SphereDisc.from_center_radius(0, 0.5, inside=False)
        d2 = SphereDisc.from_center_radius(0, 2, inside=True)
        assert inversive_product(d1, d2) == pytest.approx(-2.125)
        assert disc_relation(d1, d2) == "meets"

    def test_containment(self):
        big = SphereDisc.from_center_radius(0, 2, inside=True)
        small = SphereDisc.from_center_radius(0.5, 1, inside=True)
        assert disc_contains(big, small)
        assert not disc_contains(small, big)
        assert inversive_product(small, big) > 1

    def test_containment_unbounded(self):
        outer = SphereDisc.from_center_radius(0, 0.5, inside=False)
        inner = SphereDisc.from_center_radius(0, 2, inside=False)
        assert disc_contains(outer, inner)
        assert not disc_contains(inner, outer)


class TestContainsKernel:
    """disc_contains(outer, inner) is the two-step containment test:
    inversive product at least 1 - TOL, then a point of inner's circle
    within TOL of outer's closed side."""

    @staticmethod
    def _reference(outer, inner):
        if inversive_product(inner, outer) < 1.0 - TOL:
            return False
        return outer.signed_eval(inner.circle.a_point()) <= TOL

    def test_seeded_discs_agree_with_reference(self):
        rng = random.Random(31)
        pool = TestImageRelation._pool()
        for _ in range(60):
            center = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            pool.append(SphereDisc.from_center_radius(
                center, rng.uniform(0.05, 3), inside=rng.random() < 0.7))
        # near internal tangency to the unit disc, inside and around it
        unit = SphereDisc.from_center_radius(0, 1.0)
        pool.append(unit)
        for k in (-3, -1, 0, 1, 3):
            d = k * 1e-7
            pool.append(SphereDisc.from_center_radius(0.7 + d, 0.3))
            pool.append(SphereDisc.from_center_radius(-0.5, 1.5 + d))
        seen = set()
        for outer in pool:
            for inner in pool:
                want = self._reference(outer, inner)
                assert disc_contains(outer, inner) == want
                seen.add(want)
        assert seen == {True, False}


class TestImageRelation:
    """image_relation(X, Y)(m) is disc_relation(disc_image(m, X), Y)."""

    @staticmethod
    def _pool():
        half = station_boundary(1.5)
        return [SphereDisc.from_center_radius(0, 0.5, inside=True),
                SphereDisc.from_center_radius(1 + 1j, 0.25, inside=True),
                SphereDisc.from_center_radius(-2 + 0.5j, 1.5, inside=True),
                SphereDisc.from_center_radius(0, 2, inside=False),
                SphereDisc.from_center_radius(3 - 1j, 0.75, inside=False),
                half, half.complement(), station_boundary(-4.0)]

    def test_seeded_maps_agree_with_composed_reference(self):
        rng = random.Random(20)

        def entry():
            return complex(rng.uniform(-3, 3), rng.uniform(-3, 3))

        factors = []
        while len(factors) < 12:
            try:
                factors.append(MoebiusMap(entry(), entry(), entry(), entry(),
                                          conformal=rng.random() < 0.5))
            except ValueError:
                continue
        pool = self._pool()
        seen = {}
        mismatches = 0
        for _ in range(150):
            m = MoebiusMap.identity()
            for _ in range(rng.randint(1, 6)):
                m = m * rng.choice(factors)
            for X in pool:
                for Y in pool:
                    got = image_relation(X, Y)(m)
                    seen[got] = seen.get(got, 0) + 1
                    mismatches += got != disc_relation(disc_image(m, X), Y)
        assert mismatches == 0
        assert seen["meets"] > 1000 and seen["disjoint"] > 1000

    def test_touching_pair(self):
        X = SphereDisc.from_center_radius(0, 1, inside=True)
        Y = SphereDisc.from_center_radius(3, 1, inside=True)
        shift = MoebiusMap(1, 1, 0, 1)              # z -> z + 1
        assert abs(inversive_product(disc_image(shift, X), Y) + 1.0) <= TOL
        assert image_relation(X, Y)(shift) == "touching"
        assert disc_relation(disc_image(shift, X), Y) == "touching"
        # half-planes Re z > 1.5 and Re z < -4 touch at infinity
        right, left = station_boundary(1.5), station_boundary(-4.0)
        assert image_relation(right, left.complement())(
            MoebiusMap.identity()) == "touching"

    def test_covering_pair_meets_through_boundary_point(self):
        # |z| >= 1/8 pushed by z -> 4z is |z| >= 1/2, which with |z| <= 2
        # covers the sphere: the inversive product reads disjoint, the
        # boundary point of Y inside the image says meets
        X = SphereDisc.from_center_radius(0, 0.125, inside=False)
        Y = SphereDisc.from_center_radius(0, 2, inside=True)
        scale = MoebiusMap(2, 0, 0, 0.5)
        assert inversive_product(disc_image(scale, X), Y) < -1.0 - TOL
        assert image_relation(X, Y)(scale) == "meets"
        assert disc_relation(disc_image(scale, X), Y) == "meets"


class TestPredicates:
    def test_circles_disjoint(self):
        c1 = SphereCircle.from_center_radius(0, 1)
        c2 = SphereCircle.from_center_radius(0, 2)
        c3 = SphereCircle.from_center_radius(1, 1)
        assert circles_disjoint(c1, c2)      # nested counts as disjoint curves
        assert not circles_disjoint(c1, c3)

    def test_circle_separates(self):
        # the line Re z = 1 splits 0 from 2, not 0 from -1; 1 lies on it
        line = SphereCircle.from_line(1, 1 + 1j)
        half = SphereDisc(line, 1)
        assert half.contains(0) != half.contains(2)
        assert half.contains(0) == half.contains(-1)
        assert abs(line.eval(1)) <= TOL
        assert not half.contains(1) and not half.complement().contains(1)

    def test_discs_same(self):
        d1 = SphereDisc.from_center_radius(0, 1, inside=True)
        d2 = SphereDisc.from_center_radius(0, 1, inside=False)
        assert discs_same(d1, d1)
        assert not discs_same(d1, d2)
