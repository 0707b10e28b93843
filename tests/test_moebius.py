"""Unit tests for Moebius and extended Moebius transformations.

Expected values are frozen from hand computation with the standard
matrices: rotations diag(e^{i pi/n}, e^{-i pi/n}), scalings
diag(sqrt(l), 1/sqrt(l)), the involutions z -> -z, 1/z, -1/z, and the
anticonformal families built on top of them.
"""

import cmath
import importlib
import inspect
import math
import random

import pytest

from vskit import moebius
from vskit.moebius import (INF, TOL, MoebiusMap, chordal, classify,
                           fixed_points, is_identity_map, projectively_equal,
                           sphere_point)


U = MoebiusMap(1j, 0, 0, -1j)          # z -> -z
V = MoebiusMap(0, 1j, 1j, 0)           # z -> 1/z
UV = MoebiusMap(0, -1, 1, 0)           # z -> -1/z
SCALE2 = MoebiusMap(math.sqrt(2), 0, 0, 1 / math.sqrt(2))   # z -> 2z
SHIFT = MoebiusMap(1, 1, 0, 1)         # z -> z + 1
CONJ = MoebiusMap(1, 0, 0, 1, conformal=False)              # z -> conj z


def rotation(n):
    w = cmath.exp(1j * math.pi / n)
    return MoebiusMap(w, 0, 0, 1 / w)   # z -> e^{2 pi i / n} z


class TestEvaluation:
    def test_basic_values(self):
        assert U(2) == -2
        assert V(2) == 0.5
        assert UV(1) == -1
        assert SHIFT(1j) == 1 + 1j

    def test_infinity_handling(self):
        assert V(0) is INF
        assert V(INF) == 0
        assert SHIFT(INF) is INF
        assert U(INF) is INF

    def test_pole(self):
        m = MoebiusMap(1, 0, 1, 1)      # z / (z + 1)
        assert m(-1) is INF
        assert m(INF) == 1

    def test_anticonformal_conjugates_first(self):
        assert CONJ(1 + 2j) == 1 - 2j
        half_turn = MoebiusMap(1j, 0, 0, -1j, conformal=False)  # -conj z
        assert half_turn(1 + 2j) == -1 + 2j

    def test_float_infinity_canonicalized(self):
        assert sphere_point(float("inf")) is INF
        assert U(float("inf")) is INF


class TestComposition:
    def test_conformal_product(self):
        m = SCALE2 * SHIFT      # 2(z + 1)
        assert m(1) == pytest.approx(4)
        assert m.conformal

    def test_orientation_xor(self):
        assert not (U * CONJ).conformal
        assert (CONJ * CONJ).conformal
        assert is_identity_map(CONJ * CONJ)

    def test_anticonformal_composition_value(self):
        shift_i = MoebiusMap(1, 1j, 0, 1)    # z + i
        m = CONJ * shift_i                   # conj(z + i) = conj(z) - i
        assert m(1) == pytest.approx(1 - 1j)
        n = shift_i * CONJ                   # conj(z) + i
        assert n(1) == pytest.approx(1 + 1j)

    def test_inverse(self):
        for m in (U, V, UV, SCALE2, SHIFT, CONJ, SHIFT * CONJ):
            assert is_identity_map(m * m.inverse())
            assert is_identity_map(m.inverse() * m)

    def test_anticonformal_inverse_orientation(self):
        assert not CONJ.inverse().conformal

    def test_power(self):
        assert (SCALE2 ** 3)(1) == pytest.approx(8)
        assert is_identity_map(rotation(5) ** 5)
        assert (SCALE2 ** -2)(4) == pytest.approx(1)

    def test_conjugated_by(self):
        t = MoebiusMap(1, 1, 0, 1)
        m = SCALE2.conjugated_by(t)     # fixed points move to 1, INF
        pts = fixed_points(m)
        assert pts[0] is INF
        assert pts[1] == pytest.approx(1)


class TestProjectiveEquality:
    def test_sign_ambiguity(self):
        m = MoebiusMap(-1j, 0, 0, 1j)
        assert projectively_equal(m, U)

    def test_identity_detection(self):
        assert is_identity_map(MoebiusMap(-1, 0, 0, -1))
        assert not is_identity_map(SHIFT)

    def test_identity_tolerance_band(self):
        assert is_identity_map(MoebiusMap.identity())
        for sign in (1, -1):
            near = MoebiusMap(sign, 0.5 * TOL, 0, sign)
            far = MoebiusMap(sign, 2 * TOL, 0, sign)
            assert is_identity_map(near)
            assert not is_identity_map(far)
        assert is_identity_map(MoebiusMap(1 + 0.5 * TOL, 0, 0, 1 - 0.5 * TOL))
        assert not is_identity_map(MoebiusMap(1 + 2 * TOL, 0, 0, 1))

    def test_reflection_is_not_identity(self):
        assert not is_identity_map(CONJ)      # matrix I, anticonformal


class TestClassification:
    def test_identity(self):
        assert classify(MoebiusMap.identity()).kind == "identity"

    def test_elliptic_orders(self):
        for n in (2, 3, 7, 12):
            c = classify(rotation(n))
            assert c.kind == "elliptic"
            assert c.order == n
        assert classify(V).order == 2
        assert classify(UV).order == 2

    def test_elliptic_order_is_the_least_rotation_order(self):
        # every rotation by 2 pi j / n with j prime to n, n <= 120, in
        # standard position and under a random conjugation: the order is
        # n, and no smaller q passes the eigenvalue reading
        rng = random.Random(22)
        for n in range(2, 121):
            for j in range(1, n):
                if math.gcd(j, n) != 1:
                    continue
                w = cmath.exp(1j * math.pi * j / n)
                m = MoebiusMap(w, 0, 0, 1 / w)
                t = MoebiusMap(*(complex(rng.uniform(-2, 2),
                                         rng.uniform(-2, 2))
                                 for _ in range(4)))
                for r in (m, m.conjugated_by(t)):
                    c = classify(r)
                    assert c.kind == "elliptic" and c.order == n
                    assert moebius._has_order(r, n)
                    assert not any(moebius._has_order(r, q)
                                   for q in range(2, n))

    def test_elliptic_order_past_the_bound_is_none(self):
        assert moebius.MAX_ELLIPTIC_ORDER == 120
        c = classify(rotation(121))
        assert c.kind == "elliptic" and c.order is None
        assert moebius._has_order(rotation(121), 121)
        w = cmath.exp(1j * math.pi * (math.sqrt(2) - 1))   # irrational turn
        c = classify(MoebiusMap(w, 0, 0, 1 / w))
        assert c.kind == "elliptic" and c.order is None

    def test_loxodromic_multiplier(self):
        c = classify(SCALE2)
        assert c.kind == "loxodromic"
        assert c.multiplier == pytest.approx(2)
        c = classify(SCALE2.inverse())
        assert c.multiplier == pytest.approx(2)   # normalized to |l| > 1

    def test_spiral_multiplier(self):
        w = cmath.sqrt(2 * cmath.exp(1j))
        c = classify(MoebiusMap(w, 0, 0, 1 / w))
        assert c.kind == "loxodromic"
        assert abs(c.multiplier) == pytest.approx(2)

    def test_parabolic(self):
        assert classify(SHIFT).kind == "parabolic"
        conj_parab = SHIFT.conjugated_by(V)
        assert classify(conj_parab).kind == "parabolic"

    def test_ambiguous_band(self):
        # trace^2 - 4 = (e(2+e)/(1+e))^2 ~ 1e-10: inside (1e-12, 1e-9)
        e = 5e-6
        m = MoebiusMap(1 + e, 1, 0, 1 / (1 + e))
        assert classify(m).kind == "ambiguous-parabolic"

    def test_reflection(self):
        assert classify(CONJ).kind == "reflection"
        circle_inv = MoebiusMap(0, 1, 1, 0, conformal=False)  # 1/conj z
        assert classify(circle_inv).kind == "reflection"

    def test_imaginary_reflection(self):
        antipode = MoebiusMap(0, -1, 1, 0, conformal=False)   # -1/conj z
        assert classify(antipode).kind == "imaginary-reflection"

    def test_pseudo_hyperbolic(self):
        m = SCALE2 * CONJ               # 2 conj z, square is 4z
        c = classify(m)
        assert c.kind == "pseudo-hyperbolic"
        assert c.multiplier == pytest.approx(2)

    def test_anticonformal_elliptic(self):
        w = cmath.exp(1j * math.pi / 3)
        m = MoebiusMap(0, w, 1, 0, conformal=False)   # square rotates by 2pi/3
        c = classify(m)
        assert c.kind == "anticonformal-elliptic"
        assert c.order == 6

    def test_pseudo_parabolic(self):
        m = MoebiusMap(1, 0.5, 0, 1, conformal=False)  # conj z + 1/2
        assert classify(m).kind == "pseudo-parabolic"


class TestFixedPoints:
    def test_diagonal(self):
        assert fixed_points(SCALE2) == (INF, 0)

    def test_involutions(self):
        assert fixed_points(V) == (-1, 1)
        p, q = fixed_points(UV)
        assert p == pytest.approx(-1j)
        assert q == pytest.approx(1j)

    def test_parabolic_single(self):
        assert fixed_points(SHIFT) == (INF,)

    def test_attracting(self):
        # iterates of a loxodromic map run to the fixed point it attracts
        assert set(fixed_points(SCALE2)) == {0, INF}
        assert abs((SCALE2 ** 60)(0.3 + 0.1j)) > 1e17
        assert (SCALE2.inverse() ** 60)(0.3 + 0.1j) == pytest.approx(0)
        t = MoebiusMap(1, 2, 1, 3)
        m = SCALE2.conjugated_by(t)
        attracting = t(INF)
        assert any(p == pytest.approx(attracting) for p in fixed_points(m))
        assert (m ** 60)(0.3 + 0.1j) == pytest.approx(attracting)


class TestKindOnlyHelpers:
    """_map_kind is classify's kind and _solve_fixed_points is
    fixed_points of the maps _map_kind calls loxodromic."""

    @staticmethod
    def _maps():
        e = 5e-6
        maps = [MoebiusMap.identity(), MoebiusMap(-1, 0, 0, -1),
                MoebiusMap(1 + 0.5 * TOL, 0, 0, 1 - 0.5 * TOL),
                SHIFT, SHIFT.conjugated_by(V),                    # parabolic
                MoebiusMap(1 + e, 1, 0, 1 / (1 + e)),             # ambiguous
                V, UV, U, rotation(3), rotation(7), rotation(200),  # elliptic
                SCALE2, SCALE2.inverse(), MoebiusMap(2, 1, 0, 0.5),
                MoebiusMap(2, 1, 1e-15, 0.5), MoebiusMap(2, 0, -1e-14, 0.5),
                *_AC7, _AC7[0] * _AC7[1] * _AC7[0].inverse(),
                CONJ, SCALE2 * CONJ, rotation(3) * CONJ, SHIFT * CONJ,
                MoebiusMap(0, -1, 1, 0, conformal=False),
                MoebiusMap(0, 1, 1, 0, conformal=False)]
        rng = random.Random(11)
        while len(maps) < 300:
            entries = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                       for _ in range(4)]
            if rng.random() < 0.2:
                entries[2] = 0j
            maps.append(MoebiusMap(*entries, conformal=rng.random() < 0.7))
        return maps

    def test_kind_is_classify_kind(self):
        for m in self._maps():
            for tol in (TOL, 1e-6):
                assert moebius._map_kind(m, tol) == classify(m, tol).kind

    def test_loxodromic_fixed_points_reference(self):
        kinds = set()
        for m in self._maps():
            kind = classify(m).kind
            kinds.add(kind)
            want = fixed_points(m) if kind == "loxodromic" else ()
            got = (moebius._solve_fixed_points(m)
                   if moebius._map_kind(m) == "loxodromic" else ())
            # repr pins the bits, the sign of zero included
            assert repr(got) == repr(want)
        assert {"identity", "parabolic", "ambiguous-parabolic", "elliptic",
                "loxodromic", "reflection", "pseudo-hyperbolic"} <= kinds

    def test_fixed_points_keep_the_stable_sort_order(self):
        for m in self._maps():
            if not m.conformal or classify(m).kind == "identity":
                continue
            points = fixed_points(m)
            finite = [p for p in points if p is not INF]
            assert list(points) == [INF] * (len(points) - len(finite)) \
                + sorted(finite, key=lambda z: (z.real, z.imag))


class TestChordal:
    def test_antipodes(self):
        assert chordal(0, INF) == pytest.approx(2)
        assert chordal(1, -1) == pytest.approx(2)

    def test_plain(self):
        assert chordal(0, 1) == pytest.approx(math.sqrt(2))
        assert chordal(3, INF) == pytest.approx(2 / math.sqrt(10))


class TestConditioning:
    def test_products_of_large_entries_stay_regular(self):
        # naive float determinants of such products cancel to noise;
        # construction must survive and stay projectively consistent
        t = MoebiusMap(1e5, 1, 1, 2e-5)
        g = MoebiusMap(2, 0, 0, 0.5)
        conj = t * g * t.inverse()
        assert abs(conj.a + conj.d - 2.5) < 1e-6
        assert is_identity_map(conj * conj.inverse())

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError):
            MoebiusMap(1, 2, 2, 4)
        with pytest.raises(ValueError):
            MoebiusMap(0, 0, 0, 0)

    @pytest.mark.parametrize("scale", [1e300, 1e-150, 2.0 ** 600,
                                       2.0 ** -600, 1e-20])
    def test_entries_far_from_one_normalize(self, scale):
        # the float determinant of such entries overflows or underflows;
        # rescaled by a power of two, they normalize to the entries of
        # the unscaled matrix, bit for bit
        assert MoebiusMap(scale, 0, 0, scale).entries == \
            MoebiusMap.identity().entries
        m = MoebiusMap(2 * scale, 0, 0, 0.5 * scale)
        assert m.entries == MoebiusMap(2, 0, 0, 0.5).entries
        z = complex(scale, scale)
        assert MoebiusMap(z, 0, 0, z).entries == \
            MoebiusMap(1 + 1j, 0, 0, 1 + 1j).entries

    @pytest.mark.parametrize("scale", [1e300, 1e-150])
    def test_singular_matrix_rejected_at_any_scale(self, scale):
        with pytest.raises(ValueError, match="singular"):
            MoebiusMap(scale, 2 * scale, 2 * scale, 4 * scale)
        with pytest.raises(ValueError, match="singular"):
            MoebiusMap(scale, 0, 0, 0)


# the AC7 rank-2 pairing conjugated by z -> 1.3 e^{0.7i} z + 0.2 + 0.1i,
# so that no entry of a word matrix is a dyadic rational
_T = MoebiusMap(1.3 * cmath.exp(0.7j), 0.2 + 0.1j, 0, 1)
_AC7 = [g.conjugated_by(_T) for g in
        (MoebiusMap(4, 0, 0, 0.25),
         MoebiusMap(17 / 8, -15 / 8, -15 / 8, 17 / 8))]


class TestTrustedProducts:
    """Products, inverses, powers and conjugates of det-1 maps are det-1
    by algebra and are built without re-normalizing."""

    def test_derived_maps_skip_exact_determinant(self, monkeypatch):
        big = MoebiusMap(1e5, 1, 1, 2e-5)    # float det cancels to noise
        g = MoebiusMap(2, 0, 0, 0.5)

        def refuse(*entries):
            raise AssertionError("derived map recomputed its determinant")

        monkeypatch.setattr(moebius, "_exact_det", refuse)
        conj = big * g * big.inverse()
        assert abs(conj.trace() - 2.5) < 1e-6
        assert is_identity_map(conj * conj.inverse())
        t = big.trace()
        assert (big ** 2).trace() == pytest.approx(t * t - 2, rel=1e-12)
        assert projectively_equal(big ** -1, big.inverse())
        assert is_identity_map(big ** 0)
        assert projectively_equal(g.conjugated_by(big), conj)
        assert is_identity_map(MoebiusMap.identity())
        anti = big * CONJ
        assert is_identity_map(anti * anti.inverse())

    def test_user_entries_still_normalize(self, monkeypatch):
        calls = []
        exact = moebius._exact_det

        def counting(*entries):
            calls.append(entries)
            return exact(*entries)

        monkeypatch.setattr(moebius, "_exact_det", counting)
        with pytest.raises(ValueError):
            MoebiusMap(1, 2, 2, 4)
        m = MoebiusMap(4e5, 2, 2, 2e-5)       # det 4, float det cancels
        assert len(calls) == 2
        assert m.a == pytest.approx(2e5)
        assert m.d == pytest.approx(1e-5)
        assert abs(exact(*m.entries) - 1) < 1e-9

    def test_long_words_stay_det_one(self):
        # letters g0, g0^-1, g1, g1^-1: index j ^ 1 is the inverse of j
        letters = [_AC7[0], _AC7[0].inverse(), _AC7[1], _AC7[1].inverse()]
        rng = random.Random(5)
        for _ in range(200):
            word = [rng.randrange(4)]
            while len(word) < 8:
                j = rng.randrange(4)
                if j != word[-1] ^ 1:
                    word.append(j)
            m = letters[word[0]]
            for j in word[1:]:
                m = m * letters[j]
            assert abs(moebius._exact_det(*m.entries) - 1) <= 1e-6
            scale = max(abs(e) for e in m.entries)
            assert projectively_equal(m, MoebiusMap(*m.entries),
                                      tol=1e-6 * scale)


class TestTolerancePolicy:
    # moebius.TOL decides every geometric question; only these Moebius
    # map tests take a tolerance
    KEPT = {("moebius.projectively_equal", "tol"),
            ("moebius.is_identity_map", "tol"),
            ("moebius.classify", "tol")}
    MODULES = ("moebius", "sphere_geometry", "schottky", "basic_groups",
               "combination", "group_algebra", "cyclic_case", "limitset",
               "cli")

    def _callables(self):
        for name in self.MODULES:
            module = importlib.import_module(f"vskit.{name}")
            for attr, value in vars(module).items():
                if attr.startswith("_") or \
                        getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    yield f"{name}.{attr}", value
                elif inspect.isclass(value):
                    for meth, fn in vars(value).items():
                        if isinstance(fn, (classmethod, staticmethod)):
                            fn = fn.__func__
                        if inspect.isfunction(fn) and (
                                not meth.startswith("_")
                                or meth == "__init__"):
                            yield f"{name}.{attr}.{meth}", fn

    def test_only_the_kept_predicates_take_a_tolerance(self):
        found = {(qualname, param)
                 for qualname, fn in self._callables()
                 for param in inspect.signature(fn).parameters
                 if param in ("tol", "slack")}
        assert found == self.KEPT
