"""Unit tests for classical pairing systems and ping-pong certificates.

The workhorse examples:
  * rank 1: A(z) = 4z pairing |z| = 1/2 with |z| = 2;
  * rank 2: A(z) = 16z pairing |z| = 1/4 with |z| = 4, together with the
    hyperbolic B fixing +-1 with multiplier 16, whose isometric-circle
    pair is centered at +-17/15 with radius 8/15.
Reduced word counts are sum over k of 2g(2g-1)^(k-1): sixteen words for
g = 1 up to length 8, and 1456 for g = 2 up to length 6.
"""

import math

import pytest

from vskit.moebius import INF, MoebiusMap
from vskit.sphere_geometry import SphereCircle, disc_contains, map_circle
from vskit.schottky import (DegeneratePairingError, PairingSystem,
                            count_reduced_words, ping_pong_disc,
                            reduce_word, reduced_words, verify_pairing,
                            word_census)


def rank_one():
    A = MoebiusMap(2, 0, 0, 0.5)                     # 4z
    return PairingSystem([(SphereCircle.from_center_radius(0, 0.5),
                           SphereCircle.from_center_radius(0, 2), A)])


def rank_two():
    A = MoebiusMap(4, 0, 0, 0.25)                    # 16z
    B = MoebiusMap(17 / 8, -15 / 8, -15 / 8, 17 / 8)
    CB = SphereCircle.from_center_radius(17 / 15, 8 / 15)
    return PairingSystem([
        (SphereCircle.from_center_radius(0, 0.25),
         SphereCircle.from_center_radius(0, 4), A),
        (CB, map_circle(B, CB), B),
    ])


class TestWords:
    def test_reduce(self):
        assert reduce_word((1, -1)) == ()
        assert reduce_word((1, 2, -2, -1, 3)) == (3,)
        assert reduce_word((1, 1, -1)) == (1,)
        with pytest.raises(ValueError):
            reduce_word((1, 0))

    def test_counts(self):
        assert count_reduced_words(1, 8) == 16
        assert count_reduced_words(2, 6) == 1456
        assert count_reduced_words(2, 1) == 4
        assert count_reduced_words(0, 5) == 0
        assert sum(1 for _ in reduced_words(2, 6)) == 1456

    @pytest.mark.parametrize("depth", range(-1, 6))
    @pytest.mark.parametrize("genus", range(4))
    def test_walk_matches_count(self, genus, depth):
        assert len(list(reduced_words(genus, depth))) \
            == count_reduced_words(genus, depth)

    def test_reduced_word_maps(self):
        # a word's map, carried along the walk from its parent's
        ps = rank_one()
        maps = dict(reduced_words(1, 2, ps.generator,
                                  lambda m, y: m * ps.generator(y)))
        assert maps[(1, 1)](1) == pytest.approx(16)
        assert maps[(-1,)](1) == pytest.approx(0.25)


class TestVerification:
    def test_rank_one_passes(self):
        report = verify_pairing(rank_one())
        assert report.ok
        assert not report.failures()

    def test_rank_two_passes(self):
        assert verify_pairing(rank_two()).ok

    def test_side_inverting_generator_passes(self):
        # 6 + 2/z maps |z| = 1 onto |z - 6| = 2 sending the common region
        # (outside both) into the inside of the image circle
        f = MoebiusMap(6 / (1j * math.sqrt(2)), 2 / (1j * math.sqrt(2)),
                       1 / (1j * math.sqrt(2)), 0)
        ps = PairingSystem([(SphereCircle.from_center_radius(0, 1),
                             SphereCircle.from_center_radius(6, 2), f)])
        assert verify_pairing(ps).ok

    def test_wrong_image_circle(self):
        bad = MoebiusMap(math.sqrt(2), 0, 0, 1 / math.sqrt(2))   # 2z
        ps = PairingSystem([(SphereCircle.from_center_radius(0, 0.5),
                             SphereCircle.from_center_radius(0, 2), bad)])
        report = verify_pairing(ps)
        assert not report.ok
        assert any("maps C_1 onto" in c.name for c in report.failures())

    def test_wrong_side(self):
        # 2z + 6 maps |z| = 1 onto |z - 6| = 2 but keeps the common
        # region on the unbounded side: condition on regions must fail
        g = MoebiusMap(2 / math.sqrt(2), 6 / math.sqrt(2), 0, 1 / math.sqrt(2))
        ps = PairingSystem([(SphereCircle.from_center_radius(0, 1),
                             SphereCircle.from_center_radius(6, 2), g)])
        report = verify_pairing(ps)
        assert not report.ok
        assert any("throws the common region" in c.name
                   for c in report.failures())

    def test_elliptic_generator_rejected(self):
        ell = MoebiusMap(0, 1j, 1j, 0)                  # 1/z, order 2
        ps = PairingSystem([(SphereCircle.from_center_radius(0, 0.5),
                             SphereCircle.from_center_radius(0, 2), ell)])
        report = verify_pairing(ps)
        assert any("loxodromic" in c.name for c in report.failures())

    def test_no_common_region(self):
        # concentric chain: the middle circles see others on both sides
        A1 = MoebiusMap(math.sqrt(2), 0, 0, 1 / math.sqrt(2))
        s = math.sqrt(4 / 3)
        A2 = MoebiusMap(s, 0, 0, 1 / s)
        ps = PairingSystem([
            (SphereCircle.from_center_radius(0, 1),
             SphereCircle.from_center_radius(0, 2), A1),
            (SphereCircle.from_center_radius(0, 3),
             SphereCircle.from_center_radius(0, 4), A2),
        ])
        report = verify_pairing(ps)
        assert not report.ok
        assert any("common region" in c.name for c in report.failures())

    def test_tangent_circles_rejected(self):
        A = MoebiusMap(2, 0, 0, 0.5)
        ps = PairingSystem([(SphereCircle.from_center_radius(0, 0.5),
                             SphereCircle.from_center_radius(2.5, 2), A)])
        report = verify_pairing(ps)
        assert not report.ok

    def test_fixed_point_on_circle_degenerate(self):
        A = MoebiusMap(2, 0, 0, 0.5)                    # fixes 0 and INF
        C = SphereCircle.from_center_radius(0.5, 0.5)   # passes through 0
        with pytest.raises(DegeneratePairingError):
            verify_pairing(PairingSystem([(C, map_circle(A, C), A)]))


class TestPingPong:
    def test_letter_discs(self):
        ps = rank_one()
        d_pos = ping_pong_disc(ps, (1,))
        assert d_pos.contains(INF)            # outside |z| = 2
        assert not d_pos.contains(0)
        d_neg = ping_pong_disc(ps, (-1,))
        assert d_neg.contains(0)              # inside |z| = 1/2
        assert not d_neg.contains(INF)

    def test_nesting(self):
        ps = rank_one()
        assert disc_contains(ping_pong_disc(ps, (1,)),
                             ping_pong_disc(ps, (1, 1)))
        assert disc_contains(ping_pong_disc(ps, (-1,)),
                             ping_pong_disc(ps, (-1, -1)))
        inner = ping_pong_disc(ps, (1, 1))
        _, radius = inner.circle.center_radius()
        assert radius == pytest.approx(8)     # 4z pushes |z|=2 to |z|=8

    def test_nesting_chain_rank_two(self):
        ps = rank_two()
        word = (1, 2, -1, 2, 1, 1, -2, 1)
        for k in range(1, len(word)):
            outer = ping_pong_disc(ps, word[:k])
            inner = ping_pong_disc(ps, word[:k + 1])
            assert disc_contains(outer, inner)

    def test_deep_disc_stays_sane(self):
        ps = rank_two()
        d = ping_pong_disc(ps, (1,) * 8)
        assert d.circle.spherical_diameter() < 1e-6

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            ping_pong_disc(rank_one(), ())

    def test_unverifiable_system_raises(self):
        bad = MoebiusMap(math.sqrt(2), 0, 0, 1 / math.sqrt(2))
        ps = PairingSystem([(SphereCircle.from_center_radius(0, 0.5),
                             SphereCircle.from_center_radius(0, 2), bad)])
        with pytest.raises(ValueError):
            ping_pong_disc(ps, (1,))


class TestCertificates:
    def test_rank_one_nontrivial(self):
        # the 16 reduced words to depth 8, none the identity
        assert word_census(rank_one(), 8) == {"loxodromic": 16}

    def test_rank_two_census(self):
        census = word_census(rank_two(), 6)
        assert census == {"loxodromic": 1456}
