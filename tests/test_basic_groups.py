"""Basic group types: matrices, invariants, circle pairings, B3 amalgams."""

from fractions import Fraction
import math

import pytest

from vskit import basic_groups
from vskit.moebius import MoebiusMap, classify, projectively_equal
from vskit.basic_groups import (BasicGroup, BasicGroupError,
                                PairingConstructionError, OrbifoldSignature,
                                make_basic, make_b3, orbifold_signature,
                                Gluing)
from vskit.group_algebra import kernel_rank
from vskit.combination import Leaf, assemble
from vskit.schottky import Check, CheckReport


# ---------------------------------------------------------------------------
# construction and validation


def test_parameter_validation():
    with pytest.raises(BasicGroupError):
        make_basic("T1", n=1)
    with pytest.raises(BasicGroupError):
        make_basic("T1", n=True)
    with pytest.raises(BasicGroupError):
        make_basic("T2", lam=0.5)
    with pytest.raises(BasicGroupError):
        make_basic("T9")
    with pytest.raises(BasicGroupError):
        make_basic("T6", lam1=4.0)          # lambda2 missing


@pytest.mark.parametrize("btype,kwargs", [
    ("T1", dict(n=3, lam=4.0)),
    ("T2", dict(lam1=4.0)),
    ("T3", dict(n=2)),
    ("T4", dict(n=3, lam1=4.0)),
    ("T6", dict(lam=4.0, lam2=3.0)),
])
def test_parameters_of_other_types_are_rejected(btype, kwargs):
    with pytest.raises(BasicGroupError, match="takes no parameter"):
        make_basic(btype, **kwargs)


def test_standard_matrices_act_as_documented():
    t3 = make_basic("T3")
    U, V = t3.gens["U"], t3.gens["V"]
    assert abs(U(3.0) - (-3.0)) < 1e-12
    assert abs(V(2.0) - 0.5) < 1e-12
    uv = U * V
    assert abs(uv(1j) - 1j) < 1e-12          # -1/z fixes +-i
    t2 = make_basic("T2", lam=4.0)
    assert abs(t2.gens["L"](1.0) - 4.0) < 1e-12


def test_classification_of_generators():
    e = make_basic("T1", n=5).gens["E"]
    cls = classify(e)
    assert cls.kind == "elliptic" and cls.order == 5
    a = make_basic("T2", lam=4.0).gens["L"]
    assert classify(a).kind == "loxodromic"


def test_relation_suites_hold_projectively():
    t5 = make_basic("T5", lam=4.0)
    A, U, V = t5.gens["A"], t5.gens["U"], t5.gens["V"]
    assert projectively_equal(V * A * V.inverse(), A.inverse())
    assert projectively_equal(U * A, A * U)
    t6 = make_basic("T6", lam1=30.0, lam2=4.0)
    B, U6 = t6.gens["B"], t6.gens["U"]
    assert projectively_equal(U6 * B * U6.inverse(), B.inverse())
    t7 = make_basic("T7", lam1=16.0, lam2=16.0, lam3=16.0)
    C = t7.gens["C"]
    UV = t7.gens["U"] * t7.gens["V"]
    assert projectively_equal(UV * C, C * UV)
    assert abs(C(1j) - 1j) < 1e-9 and abs(C(-1j) + 1j) < 1e-9


# ---------------------------------------------------------------------------
# invariants


INVARIANTS = [
    # (factory kwargs, rank, index, chi)
    (dict(btype="T1", n=5), 0, 5, Fraction(1, 5)),
    (dict(btype="T2", lam=4.0), 1, 1, Fraction(0)),
    (dict(btype="T3"), 0, 4, Fraction(1, 4)),
    (dict(btype="T4", n=3, lam=2.0), 1, 3, Fraction(0)),
    (dict(btype="T5", lam=4.0), 1, 4, Fraction(0)),
    (dict(btype="T6", lam1=30.0, lam2=4.0), 2, 4, Fraction(-1, 4)),
    (dict(btype="T7", lam1=16.0, lam2=16.0, lam3=16.0),
     3, 4, Fraction(-1, 2)),
]


@pytest.mark.parametrize("kwargs,rank,index,chi", INVARIANTS)
def test_rank_index_chi(kwargs, rank, index, chi):
    bg = make_basic(**kwargs)
    assert bg.rank == rank
    assert bg.index == index
    assert bg.chi == chi


SIGNATURES = [
    (dict(btype="T1", n=5), "(0;5,5)"),
    (dict(btype="T2", lam=4.0), "(1;)"),
    (dict(btype="T3"), "(0;2,2,2)"),
    (dict(btype="T4", n=3, lam=2.0), "(1;)"),
    (dict(btype="T5", lam=4.0), "(0;2,2,2,2)"),
    (dict(btype="T6", lam1=30.0, lam2=4.0), "(0;2,2,2,2,2)"),
    (dict(btype="T7", lam1=16.0, lam2=16.0, lam3=16.0), "(0;2,2,2,2,2,2)"),
]


@pytest.mark.parametrize("kwargs,sig", SIGNATURES)
def test_orbifold_signatures(kwargs, sig):
    assert str(orbifold_signature(make_basic(**kwargs))) == sig


def test_signature_sorts_cone_orders():
    assert str(OrbifoldSignature(0, (3, 2, 2))) == "(0;2,2,3)"


def test_labels():
    assert make_basic("T1", n=5).label == "T1(n=5)"
    assert make_basic("T3").label == "T3"
    assert make_basic("T4", n=3, lam=2.0).label == "T4(n=3, lambda=2)"
    assert make_basic("T6", lam1=30.0, lam2=4.0).label == \
        "T6(lambda1=30, lambda2=4)"
    shifted = make_basic("T2", lam=4.0).conjugated_by(MoebiusMap(1, 3, 0, 1))
    assert shifted.label == "T2(lambda=4) (conjugated)"
    assert not shifted.in_standard_position()


def test_standard_scale():
    assert make_basic("T3").standard_scale() == 1.0
    assert abs(make_basic("T2", lam=4.0).standard_scale() - 2.0) < 1e-12
    t6 = make_basic("T6", lam1=30.0, lam2=4.0)
    assert abs(t6.standard_scale() - math.sqrt(30.0)) < 1e-12
    t7 = make_basic("T7", lam1=16.0, lam2=16.0, lam3=16.0)
    assert abs(t7.standard_scale() - 4.0) < 1e-12


KERNEL_RANKS = [
    (dict(btype="T1", n=3), 0),
    (dict(btype="T2", lam=4.0), 1),
    (dict(btype="T3"), 0),
    (dict(btype="T4", n=3, lam=2.0), 1),
    (dict(btype="T5", lam=4.0), 1),
    (dict(btype="T6", lam1=30.0, lam2=4.0), 2),
    (dict(btype="T7", lam1=16.0, lam2=16.0, lam3=16.0), 3),
]


@pytest.mark.parametrize("kwargs,expected", KERNEL_RANKS)
def test_default_theta_kernel_rank_matches_schottky_rank(kwargs, expected):
    bg = make_basic(**kwargs)
    report = kernel_rank(Leaf(bg), bg.default_theta())
    assert report.ok
    assert report.kernel_rank == expected


# ---------------------------------------------------------------------------
# circle pairings


def test_t2_pairing_circles():
    ps = make_basic("T2", lam=4.0).pairing_system()
    assert ps.genus == 1
    circle, image, m = ps.pairs[0]
    c, r = circle.center_radius()
    assert abs(c) < 1e-12 and abs(r - 0.5) < 1e-12
    assert abs(image.center_radius()[1] - 2.0) < 1e-12


def test_t4_and_t5_pairings_verify():
    assert make_basic("T4", n=3, lam=2.0).pairing_system().genus == 1
    assert make_basic("T5", lam=4.0).pairing_system().genus == 1


def test_t2_pairing_with_complex_multiplier():
    ps = make_basic("T2", lam=2.0 + 2.0j).pairing_system()
    assert ps.genus == 1


def test_t6_pairing_above_threshold():
    ps = make_basic("T6", lam1=30.0, lam2=4.0).pairing_system()
    assert ps.genus == 2
    # the disc around +-1 is orthogonal to the unit circle
    c, r = ps.pairs[1][0].center_radius()
    assert abs(c - 5.0 / 3.0) < 1e-12 and abs(r - 4.0 / 3.0) < 1e-12
    assert abs(abs(c) ** 2 - (r * r + 1.0)) < 1e-9


def test_t6_threshold_rejection_message():
    t6 = make_basic("T6", lam1=8.0, lam2=4.0)       # matrices are fine
    with pytest.raises(PairingConstructionError) as err:
        t6.pairing_system()
    assert "concentric circle family needs lambda1 > 9 for lambda2 = 4" \
        in str(err.value)


def test_t7_pairing_needs_separated_cross_discs():
    assert make_basic("T7", lam1=16.0, lam2=16.0,
                      lam3=16.0).pairing_system().genus == 3
    cramped = make_basic("T7", lam1=100.0, lam2=4.0, lam3=4.0)
    with pytest.raises(PairingConstructionError) as err:
        cramped.pairing_system()
    assert "overlap" in str(err.value)


def test_t6_pairing_requires_real_multipliers():
    t6 = make_basic("T6", lam1=30.0 + 1.0j, lam2=4.0)
    with pytest.raises(PairingConstructionError):
        t6.pairing_system()


def test_failed_pairing_verification_names_the_witness(monkeypatch):
    failing = CheckReport([
        Check("generator 1 loxodromic", "pass"),
        Check("circles pairwise disjoint", "fail",
              witness="circles 0 and 1 are not disjoint"),
        Check("circles bound a common region", "fail")])
    monkeypatch.setattr(basic_groups, "verify_pairing",
                        lambda system: failing)
    with pytest.raises(PairingConstructionError) as err:
        make_basic("T2", lam=4.0).pairing_system()
    assert str(err.value) == (
        "pairing verification failed: circles 0 and 1 are not disjoint; "
        "circles bound a common region")


def test_finite_types_have_no_pairing():
    with pytest.raises(BasicGroupError):
        make_basic("T3").pairing_system()


def test_conjugated_pairing_transports_circles():
    t = MoebiusMap(1, 3, 0, 1)
    shifted = make_basic("T2", lam=4.0).conjugated_by(t)
    ps = shifted.pairing_system()
    assert ps.genus == 1
    assert abs(ps.pairs[0][0].center_radius()[0] - 3.0) < 1e-9


# ---------------------------------------------------------------------------
# B3 amalgams


def test_b3_two_t3s():
    a = make_basic("T3", prefix="a.")
    b = make_basic("T3", prefix="b.")
    g = make_b3([a, b], [("a.U", "b.U")])
    assert g.btype == "B3"
    assert g.rank == 1
    assert g.index == 4
    assert g.chi == 0
    assert g.cone_count == 4
    assert g.label == "B3[4 cones]"
    assert str(orbifold_signature(g)) == "(0;2,2,2,2)"
    assert projectively_equal(g.gens["a.U"], g.gens["b.U"])
    assert g.quotient.orders == (2, 2)


def test_b3_t3_with_t5():
    # T5's usable involutions avoid the loxodromic axis: V or U*V
    a = make_basic("T3", prefix="a.")
    b = make_basic("T5", lam=4.0, prefix="b.")
    g = make_b3([a, b], [Gluing("a.U", "b.V")])
    assert g.rank == 2
    assert g.cone_count == 5
    assert g.chi == Fraction(-1, 4)
    assert g.schottky_names == ("b.A",)


def test_b3_rejects_gluing_on_loxodromic_axis():
    # T5's U fixes the axis of A, so no disc is precisely invariant
    # under <U>: every placement attempt reports the witness
    a = make_basic("T3", prefix="a.")
    b = make_basic("T5", lam=4.0, prefix="b.")
    with pytest.raises(BasicGroupError) as err:
        make_b3([a, b], [("a.U", "b.U")])
    assert "auto-placement failed" in str(err.value)
    assert "b.A" in str(err.value)


def test_b3_t3_with_t6_over_product_involution():
    # in T6 both named involutions sit on a loxodromic axis; the
    # amalgam must use their product, which fixes +-i
    a = make_basic("T3", prefix="a.")
    b = make_basic("T6", lam1=30.0, lam2=4.0, prefix="b.")
    g = make_b3([a, b], [("a.U", ("b.U", "b.V"))])
    assert g.rank == 3
    assert g.cone_count == 6
    assert g.chi == Fraction(-1, 2)
    assert g.label == "B3[6 cones]"
    theta = g.default_theta()
    report = kernel_rank(g.tree, theta)
    assert report.ok and report.kernel_rank == 3


def test_b3_three_t3_chain():
    parts = [make_basic("T3", prefix=p) for p in ("a.", "b.", "c.")]
    g = make_b3(parts, [("a.U", "b.U"), ("b.V", "c.U")])
    assert g.rank == 2
    assert g.cone_count == 5
    assert projectively_equal(g.gens["b.V"], g.gens["c.U"])


def test_b3_rejects_shared_names_before_any_placement(monkeypatch):
    # a counter, not a clock: names shared across components are an
    # input error, so no placement is attempted
    calls = []
    real = basic_groups.free_product

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(basic_groups, "free_product", counted)
    a = make_basic("T3", prefix="a.")
    with pytest.raises(BasicGroupError) as err:
        make_b3([a, make_basic("T3", prefix="a.")], [Gluing("a.U", "a.V")])
    assert str(err.value) == ("generator names shared across components: "
                              "['a.U', 'a.V']")
    assert calls == []


def test_b3_rejects_consecutive_involution_reuse():
    parts = [make_basic("T3", prefix=p) for p in ("a.", "b.", "c.")]
    with pytest.raises(BasicGroupError) as err:
        make_b3(parts, [("a.U", "b.U"), ("b.U", "c.U")])
    assert "distinct involutions" in str(err.value)


def test_b3_input_validation():
    a = make_basic("T3", prefix="a.")
    b = make_basic("T3", prefix="b.")
    with pytest.raises(BasicGroupError):
        make_b3([make_basic("T1", n=3), a], [("E", "a.U")])
    with pytest.raises(BasicGroupError):
        make_b3([a, b], [])
    with pytest.raises(BasicGroupError):
        make_b3([a, b], [("a.X", "b.U")])
    t5 = make_basic("T5", lam=4.0, prefix="c.")
    with pytest.raises(BasicGroupError) as err:
        make_b3([t5, b], [("c.A", "b.U")])
    assert "not an involution" in str(err.value)
    # the identity word has no order 2
    with pytest.raises(BasicGroupError) as err:
        make_b3([a, b], [(("a.U", "a.U"), "b.U")])
    assert str(err.value) == "a.U*a.U is not an involution"
    with pytest.raises(BasicGroupError) as err:
        make_b3([a, b], [("a.U", ("b.U", "b.U"))])
    assert str(err.value) == "b.U*b.U is not an involution"


def test_b3_single_component_passthrough():
    a = make_basic("T3", prefix="a.")
    assert make_b3([a], []) is a


def test_b3_is_not_conjugatable_or_pairable():
    a = make_basic("T3", prefix="a.")
    b = make_basic("T3", prefix="b.")
    g = make_b3([a, b], [("a.U", "b.U")])
    with pytest.raises(BasicGroupError):
        g.conjugated_by(MoebiusMap(1, 1, 0, 1))
    with pytest.raises(PairingConstructionError):
        g.pairing_system()


def test_b3_theta_respects_identification():
    a = make_basic("T3", prefix="a.")
    b = make_basic("T5", lam=4.0, prefix="b.")
    g = make_b3([a, b], [("a.V", "b.V")])
    theta = g.default_theta()
    assert theta.images["a.V"] == theta.images["b.V"]
    report = kernel_rank(g.tree, theta)
    assert report.ok and report.kernel_rank == g.rank


# ---------------------------------------------------------------------------
# presentations: one golden per type, relation checks, large multipliers


def _conj(t, f, sign):
    """The relator t f t^-1 f^-sign as (name, exponent) letters."""
    return ((t, 1), (f, 1), (t, -1), (f, -sign))


PRESENTATIONS = [
    # (factory kwargs, gens, free names, torsion names, torsion orders,
    #  action, schottky names, rank, index, label, theta images, relations)
    (dict(btype="T1", n=5),
     ("x.E",), (), ("x.E",), (5,), ((),), (), 0, 5, "T1(n=5)",
     {"x.E": (1,)},
     ((("x.E", 5),),)),
    (dict(btype="T2", lam=4.0),
     ("x.L",), ("x.L",), (), (), (), ("x.L",), 1, 1, "T2(lambda=4)",
     {"x.L": ()},
     ()),
    (dict(btype="T3"),
     ("x.U", "x.V"), (), ("x.U", "x.V"), (2, 2), ((), ()), (), 0, 4, "T3",
     {"x.U": (1, 0), "x.V": (0, 1)},
     ((("x.U", 2),), (("x.V", 2),), _conj("x.U", "x.V", 1))),
    (dict(btype="T4", n=3, lam=2.0),
     ("x.A", "x.E"), ("x.A",), ("x.E",), (3,), ((1,),), ("x.A",), 1, 3,
     "T4(n=3, lambda=2)",
     {"x.A": (0,), "x.E": (1,)},
     ((("x.E", 3),), _conj("x.E", "x.A", 1))),
    (dict(btype="T5", lam=4.0),
     ("x.A", "x.U", "x.V"), ("x.A",), ("x.U", "x.V"), (2, 2),
     ((1,), (-1,)), ("x.A",), 1, 4, "T5(lambda=4)",
     {"x.A": (0, 0), "x.U": (1, 0), "x.V": (0, 1)},
     ((("x.U", 2),), (("x.V", 2),), _conj("x.U", "x.V", 1),
      _conj("x.U", "x.A", 1), _conj("x.V", "x.A", -1))),
    (dict(btype="T6", lam1=30.0, lam2=4.0),
     ("x.A", "x.B", "x.U", "x.V"), ("x.A", "x.B"), ("x.U", "x.V"), (2, 2),
     ((1, -1), (-1, 1)), ("x.A", "x.B"), 2, 4, "T6(lambda1=30, lambda2=4)",
     {"x.A": (0, 0), "x.B": (0, 0), "x.U": (1, 0), "x.V": (0, 1)},
     ((("x.U", 2),), (("x.V", 2),), _conj("x.U", "x.V", 1),
      _conj("x.U", "x.A", 1), _conj("x.U", "x.B", -1),
      _conj("x.V", "x.A", -1), _conj("x.V", "x.B", 1))),
    (dict(btype="T7", lam1=16.0, lam2=16.0, lam3=16.0),
     ("x.A", "x.B", "x.C", "x.U", "x.V"), ("x.A", "x.B", "x.C"),
     ("x.U", "x.V"), (2, 2), ((1, -1, -1), (-1, 1, -1)),
     ("x.A", "x.B", "x.C"), 3, 4, "T7(lambda1=16, lambda2=16, lambda3=16)",
     {"x.A": (0, 0), "x.B": (0, 0), "x.C": (0, 0), "x.U": (1, 0),
      "x.V": (0, 1)},
     ((("x.U", 2),), (("x.V", 2),), _conj("x.U", "x.V", 1),
      _conj("x.U", "x.A", 1), _conj("x.U", "x.B", -1),
      _conj("x.U", "x.C", -1), _conj("x.V", "x.A", -1),
      _conj("x.V", "x.B", 1), _conj("x.V", "x.C", -1))),
]


@pytest.mark.parametrize("case", PRESENTATIONS, ids=lambda c: c[0]["btype"])
def test_presentation_golden(case):
    (kwargs, gens, free, torsion, orders, action, schottky, rank, index,
     label, images, relations) = case
    g = make_basic(prefix="x.", **kwargs)
    assert tuple(g.gens) == gens
    sym = g.symbolic
    assert sym.free_names == free
    assert sym.torsion_names == torsion
    assert sym.torsion.orders == orders
    assert sym.action == action
    assert g.quotient.orders == orders
    assert (g.rank, g.index, g.schottky_names) == (rank, index, schottky)
    assert g.label == label
    assert g.default_theta().images == images
    assert assemble(Leaf(g)).relations == relations


@pytest.mark.parametrize("btype,kwargs", [
    ("T6", dict(lam1=30.0, lam2=4.0)),
    ("T7", dict(lam1=16.0, lam2=16.0, lam3=16.0)),
])
def test_relation_check_catches_a_commuting_axis_loxodromic(
        monkeypatch, btype, kwargs):
    # a scaling commutes with U, which must invert B
    monkeypatch.setattr(basic_groups, "_axis_loxodromic",
                        basic_groups._scaling)
    with pytest.raises(RuntimeError,
                       match="internal relation check failed"):
        make_basic(btype, **kwargs)


def test_relation_check_catches_a_wrong_rotation_order(monkeypatch):
    rotation = basic_groups._rotation
    monkeypatch.setattr(basic_groups, "_rotation", lambda n: rotation(n + 1))
    with pytest.raises(RuntimeError,
                       match="internal relation check failed"):
        make_basic("T1", n=5)


@pytest.mark.parametrize("n", [121, 1000, 10**5])
def test_t4_rotation_orders_past_the_elliptic_search_bound(n):
    g = make_basic("T4", n=n, lam=4.0)
    assert (g.rank, g.index, g.quotient.orders) == (1, n, (n,))
    assert classify(g.gens["E"]).kind == "elliptic"


@pytest.mark.parametrize("n", [121, 1000, 10**5])
def test_t1_rotation_orders_past_the_elliptic_search_bound(n):
    g = make_basic("T1", n=n)
    assert g.quotient.orders == (n,)
    assert classify(g.gens["E"]).kind == "elliptic"


@pytest.mark.parametrize("btype,kwargs", [("T1", {}), ("T4", {"lam": 4.0})])
@pytest.mark.parametrize("n,kind", [(10**6, "ambiguous-parabolic"),
                                    (10**9, "parabolic")])
def test_rotation_too_fine_to_classify_as_elliptic_is_rejected(btype, kwargs,
                                                               n, kind):
    with pytest.raises(BasicGroupError) as err:
        make_basic(btype, n=n, prefix="L.", **kwargs)
    assert str(err.value) == f"L.E classifies as {kind}, not elliptic"


@pytest.mark.parametrize("btype,kwargs,wrong", [
    ("T1", dict(n=5), lambda n: n - 1),
    ("T1", dict(n=6), lambda n: 2 * n),
    ("T4", dict(n=121, lam=4.0), lambda n: n + 1),
    ("T4", dict(n=1000, lam=4.0), lambda n: n // 2),
])
def test_relation_check_catches_wrong_orders_at_any_n(monkeypatch, btype,
                                                      kwargs, wrong):
    rotation = basic_groups._rotation
    monkeypatch.setattr(basic_groups, "_rotation",
                        lambda n: rotation(wrong(n)))
    with pytest.raises(RuntimeError,
                       match="internal relation check failed: E must have"):
        make_basic(btype, **kwargs)


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), -float("inf"),
                                 complex(4, float("nan")),
                                 complex(float("inf"), 1)])
@pytest.mark.parametrize("btype,key,extra", [
    ("T2", "lam", {}), ("T4", "lam", {"n": 3}), ("T5", "lam", {}),
    ("T6", "lam2", {"lam1": 30.0}), ("T7", "lam3", {"lam1": 16.0,
                                                    "lam2": 16.0}),
])
def test_non_finite_multiplier_is_rejected(btype, key, extra, lam):
    with pytest.raises(BasicGroupError) as err:
        make_basic(btype, **extra, **{key: lam})
    assert str(err.value) == f"lambda{key[3:]} must be finite"


@pytest.mark.parametrize("btype,kwargs,name,kind", [
    ("T2", dict(lam=1.00001), "L", "ambiguous-parabolic"),
    ("T4", dict(n=3, lam=1.00003), "A", "ambiguous-parabolic"),
    ("T5", dict(lam=1 + 1e-8), "A", "parabolic"),
    ("T6", dict(lam1=1.00002, lam2=4.0), "A", "ambiguous-parabolic"),
    ("T7", dict(lam1=16.0, lam2=16.0, lam3=-1.00001), "C", "elliptic"),
])
def test_free_generator_read_as_not_loxodromic_is_rejected(btype, kwargs,
                                                           name, kind):
    with pytest.raises(BasicGroupError) as err:
        make_basic(btype, prefix="L.", **kwargs)
    assert str(err.value) == f"L.{name} classifies as {kind}, not loxodromic"


@pytest.mark.parametrize("lam", [1e4, 1e6, 1e8, 1e10, 1e12, -1e8, 1e10j,
                                 3e11 + 4e11j])
def test_large_multipliers_construct(lam):
    assert make_basic("T4", n=3, lam=lam).rank == 1
    assert make_basic("T5", lam=lam).rank == 1
    assert make_basic("T6", lam1=lam, lam2=1e4).rank == 2
    assert make_basic("T6", lam1=1e4, lam2=lam).rank == 2
    assert make_basic("T7", lam1=lam, lam2=lam, lam3=lam).rank == 3
    assert make_basic("T7", lam1=4 * lam, lam2=lam, lam3=lam).rank == 3
