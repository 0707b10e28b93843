"""Symbolic models: normal forms, Euler characteristics, kernel ranks."""

from fractions import Fraction
import hashlib

import pytest

from vskit.group_algebra import (FiniteAbelianGroup, LeafSymbolic,
                                 FreeProductModel, HnnModel, QuotientMap,
                                 UnsupportedSymbolicError,
                                 reduce_word, enumerate_elements,
                                 euler_characteristic, normal_form,
                                 validate_theta, kernel_rank,
                                 symbolic_model)
from vskit.combination import (FreeProductNode, GroupData, Leaf,
                               format_word, resolve_generator_word,
                               uncertified_free_product)
from vskit.basic_groups import make_b3, make_basic


# ---------------------------------------------------------------------------
# finite abelian groups


def test_finite_abelian_basics():
    H = FiniteAbelianGroup((2, 4))
    assert H.order == 8
    assert H.zero() == (0, 0)
    assert H.add((1, 3), (1, 2)) == (0, 1)
    assert H.neg((1, 3)) == (1, 1)
    assert H.element_order((1, 0)) == 2
    assert H.element_order((0, 1)) == 4
    assert H.element_order((1, 2)) == 2
    assert H.label() == "Z_2 x Z_4"
    assert len(list(H.elements())) == 8


def test_subgroup_generation():
    H = FiniteAbelianGroup((2, 2))
    sub = H.subgroup([(1, 1)])
    assert sorted(sub) == [(0, 0), (1, 1)]
    assert len(H.subgroup([(1, 0), (0, 1)])) == 4
    assert FiniteAbelianGroup(()).order == 1


def test_reduce_free_word():
    assert reduce_word((1, -1)) == ()
    assert reduce_word((1, 2, -2, -1)) == ()
    assert reduce_word((1, 2, -1)) == (1, 2, -1)
    assert reduce_word((2, -2, 1)) == (1,)


# ---------------------------------------------------------------------------
# leaf models


def _t5_model():
    # rank-1 leaf with Klein four torsion; U commutes with the free
    # generator, V inverts it
    return LeafSymbolic(("A",), FiniteAbelianGroup((2, 2)), ("U", "V"),
                        ((1,), (-1,)))


def test_leaf_involution_squares_to_identity():
    m = _t5_model()
    U = m.generators()["U"]
    assert m.is_identity(m.multiply(U, U))


def test_leaf_action_twists_words():
    m = _t5_model()
    g = m.generators()
    # V A V^-1 A should reduce to the identity since V inverts A
    x = m.multiply(m.multiply(g["V"], g["A"]), m.multiply(g["V"], g["A"]))
    assert m.is_identity(x)
    # U A U^-1 A^-1 = 1 (commuting)
    y = m.multiply(m.multiply(g["U"], g["A"]),
                   m.multiply(g["U"], m.inverse(g["A"])))
    assert m.is_identity(y)


def test_leaf_inverse_roundtrip():
    m = _t5_model()
    g = m.generators()
    mixed = m.multiply(m.multiply(g["A"], g["V"]), m.multiply(g["U"], g["A"]))
    assert m.is_identity(m.multiply(mixed, m.inverse(mixed)))
    assert m.is_identity(m.multiply(m.inverse(mixed), mixed))


def test_leaf_finiteness():
    torsion_only = LeafSymbolic((), FiniteAbelianGroup((3,)), ("E",), ((),))
    assert torsion_only.rank == 0
    assert _t5_model().rank > 0


def test_enumerate_exhausts_finite_groups():
    torsion = LeafSymbolic((), FiniteAbelianGroup((2, 2)), ("U", "V"),
                           ((), ()))
    result = enumerate_elements(torsion, 6)
    assert result.exhausted
    assert len(result.elements) == 4
    cyclic = LeafSymbolic((), FiniteAbelianGroup((5,)), ("E",), ((),))
    result = enumerate_elements(cyclic, 6)
    assert result.exhausted and len(result.elements) == 5


def test_enumerate_budget_reports_partial_depth():
    m = _t5_model()
    result = enumerate_elements(m, 6, max_count=30)
    assert not result.exhausted
    assert 1 <= result.depth_completed < 6


# ---------------------------------------------------------------------------
# free products with amalgam


def _two_t3_leaves():
    H = FiniteAbelianGroup((2, 2))
    left = LeafSymbolic((), H, ("a.U", "a.V"), ((), ()))
    right = LeafSymbolic((), H, ("b.U", "b.V"), ((), ()))
    return left, right


def test_amalgam_identifies_involutions():
    left, right = _two_t3_leaves()
    u1 = left.generators()["a.U"]
    u2 = right.generators()["b.U"]
    model = FreeProductModel((left, right), (u1, u2))
    g = model.generators()
    assert g["a.U"] == g["b.U"]
    # sliding the amalgam across a syllable keeps the normal form stable:
    # a.V * b.V equals (a.V a.U) * (b.U b.V)
    lhs = model.multiply(g["a.V"], g["b.V"])
    rhs = model.multiply(model.multiply(g["a.V"], g["a.U"]),
                         model.multiply(g["b.U"], g["b.V"]))
    assert lhs == rhs
    assert model.is_identity(model.multiply(lhs, model.inverse(lhs)))


def test_plain_free_product_keeps_factors_apart():
    left, right = _two_t3_leaves()
    model = FreeProductModel((left, right))
    g = model.generators()
    assert g["a.U"] != g["b.U"]
    w = model.multiply(g["a.U"], g["b.U"])
    assert not model.is_identity(w)
    assert model.is_identity(model.multiply(w, model.inverse(w)))


def test_amalgamated_product_enumeration_counts():
    # Z2 * Z2 = infinite dihedral: elements to length k grow linearly
    H2 = FiniteAbelianGroup((2,))
    left = LeafSymbolic((), H2, ("x",), ((),))
    right = LeafSymbolic((), H2, ("y",), ((),))
    model = FreeProductModel((left, right))
    result = enumerate_elements(model, 5)
    # identity plus alternating words of each length 1..5: 1 + 2k
    assert len(result.elements) == 11
    assert not result.exhausted


# ---------------------------------------------------------------------------
# HNN shapes


def test_hnn_free_shape():
    model = HnnModel(None, "L", False)
    g = model.generators()["L"]
    x = model.multiply(g, g)
    assert not model.is_identity(x)
    assert model.is_identity(model.multiply(x, model.inverse(x)))


def test_hnn_central_shape_commutes():
    base = LeafSymbolic((), FiniteAbelianGroup((3,)), ("E",), ((),))
    model = HnnModel(base, "A", True)
    g = model.generators()
    lhs = model.multiply(g["A"], g["E"])
    rhs = model.multiply(g["E"], g["A"])
    assert lhs == rhs
    assert not model.is_identity(lhs)
    cube = model.multiply(g["E"], model.multiply(g["E"], g["E"]))
    assert model.is_identity(cube)


def test_hnn_unsupported_shape_raises():
    base = _t5_model()
    with pytest.raises(UnsupportedSymbolicError):
        HnnModel(base, "B", False)


# ---------------------------------------------------------------------------
# trees: chi, normal forms, theta, kernel rank


def test_chi_of_leaves():
    assert make_basic("T1", n=5).chi == Fraction(1, 5)
    assert make_basic("T2", lam=4.0).chi == 0
    assert make_basic("T3").chi == Fraction(1, 4)
    assert make_basic("T6", lam1=30.0, lam2=4.0).chi == Fraction(-1, 4)


def test_chi_of_free_product_tree():
    a = Leaf(make_basic("T1", n=3, prefix="a."))
    b = Leaf(make_basic("T1", n=3, prefix="b."))
    tree = uncertified_free_product(a, b)
    assert euler_characteristic(tree) == Fraction(-1, 3)


def test_normal_form_word_interface():
    t4 = make_basic("T4", n=3, lam=2.0)
    tree = Leaf(t4)
    model = symbolic_model(tree)
    assert model.is_identity(
        normal_form(tree, [("A", 1), ("E", 1), ("A", -1), ("E", -1)]))
    assert model.is_identity(normal_form(tree, ["E", "E", "E"]))
    assert not model.is_identity(normal_form(tree, ["E", "A"]))
    with pytest.raises(KeyError):
        normal_form(tree, ["missing"])


def test_kernel_rank_z3_star_z3():
    a = Leaf(make_basic("T1", n=3, prefix="a."))
    b = Leaf(make_basic("T1", n=3, prefix="b."))
    tree = uncertified_free_product(a, b)
    H = FiniteAbelianGroup((3,))
    theta = QuotientMap(H, {"a.E": (1,), "b.E": (1,)})
    report = kernel_rank(tree, theta)
    assert report.ok
    assert report.kernel_rank == 2
    assert report.order_h == 3


def test_kernel_rank_t4_default():
    t4 = make_basic("T4", n=3, lam=2.0)
    report = kernel_rank(Leaf(t4), t4.default_theta())
    assert report.ok and report.kernel_rank == 1


def test_theta_torsion_order_must_divide():
    t1 = make_basic("T1", n=3)
    H = FiniteAbelianGroup((2,))
    theta = QuotientMap(H, {"E": (1,)})
    problems, torsion_free = validate_theta(Leaf(t1), theta)
    assert problems


def test_theta_missing_image_is_reported():
    t4 = make_basic("T4", n=3, lam=2.0)
    theta = QuotientMap(FiniteAbelianGroup((3,)), {"E": (1,)})
    problems, _ = validate_theta(Leaf(t4), theta)
    assert any("A" in p for p in problems)


def test_theta_inverted_generator_needs_two_torsion_image():
    t5 = make_basic("T5", lam=4.0)
    H = FiniteAbelianGroup((4,))
    theta = QuotientMap(H, {"U": (2,), "V": (2,), "A": (1,)})
    problems, _ = validate_theta(Leaf(t5), theta)
    assert any("A" in p for p in problems)


def test_theta_must_be_injective_on_leaf_torsion():
    t3 = make_basic("T3")
    H = FiniteAbelianGroup((2, 2))
    collapsing = QuotientMap(H, {"U": (1, 0), "V": (1, 0)})
    problems, torsion_free = validate_theta(Leaf(t3), collapsing)
    assert not torsion_free
    report = kernel_rank(Leaf(t3), collapsing, force=True)
    assert not report.kernel_torsion_free


def test_kernel_rank_requires_surjectivity_unless_forced():
    t3 = make_basic("T3")
    H = FiniteAbelianGroup((2, 2))
    theta = QuotientMap(H, {"U": (1, 0), "V": (1, 0)})
    report = kernel_rank(Leaf(t3), theta)
    assert not report.surjective
    assert any("surjective" in p for p in report.problems)
    forced = kernel_rank(Leaf(t3), theta, force=True)
    # image has order 2, chi = 1/4: kernel rank 1 - 2/4 is not an integer
    assert forced.kernel_rank == -1
    assert not forced.ok


def test_kernel_rank_ignores_images_of_non_generators():
    a = Leaf(make_basic("T1", n=2, prefix="a."))
    b = Leaf(make_basic("T2", lam=4.0, prefix="b."))
    tree = uncertified_free_product(a, b)
    H = FiniteAbelianGroup((4,))
    own = {"a.E": (2,), "b.L": (0,)}
    stray = kernel_rank(tree, QuotientMap(H, {**own, "x.E": (1,)}))
    assert not stray.surjective and stray.order_h == 2
    assert "theta has an image for 'x.E', which is not a generator" \
        in stray.problems
    plain = kernel_rank(tree, QuotientMap(H, own), force=True)
    forced = kernel_rank(tree, QuotientMap(H, {**own, "x.E": (1,)}),
                         force=True)
    assert (forced.order_h, forced.kernel_rank) == \
        (plain.order_h, plain.kernel_rank) == (2, 2)
    assert not forced.ok


def _composite_t3_pair():
    return make_b3([make_basic("T3", prefix="a."),
                    make_basic("T3", prefix="b.")], [("a.U", "b.U")])


def test_theta_is_checked_on_amalgams_inside_a_composite_leaf():
    composite = _composite_t3_pair()
    theta = QuotientMap(FiniteAbelianGroup((2, 2)),
                        {"a.U": (1, 0), "a.V": (0, 1),
                         "b.U": (0, 1), "b.V": (1, 0)})
    unequal = ["amalgamated generators have unequal images"]
    for tree in (composite.tree, Leaf(composite)):
        assert validate_theta(tree, theta) == (unequal, True)
        report = kernel_rank(tree, theta)
        assert report.problems == unequal and not report.ok


def test_theta_missing_amalgam_image_is_reported_not_raised():
    composite = _composite_t3_pair()
    theta = QuotientMap(FiniteAbelianGroup((2, 2)),
                        {"a.V": (0, 1), "b.U": (0, 1), "b.V": (1, 0)})
    for tree in (composite.tree, Leaf(composite)):
        assert validate_theta(tree, theta) == \
            (["generator 'a.U' has no image"], True)


def test_theta_problems_list_leaves_then_amalgams_then_strays():
    composite = _composite_t3_pair()
    theta = QuotientMap(FiniteAbelianGroup((2, 2)),
                        {"x.E": (1, 1), "a.U": (1, 0), "a.V": (1, 0),
                         "b.U": (0, 1), "b.V": (1, 0)})
    expected = (["theta is not injective on the torsion of leaf T3: "
                 "kernel would contain torsion",
                 "amalgamated generators have unequal images",
                 "theta has an image for 'x.E', which is not a generator"],
                False)
    for tree in (composite.tree, Leaf(composite)):
        assert validate_theta(tree, theta) == expected


def test_quotient_map_word_application():
    t6 = make_basic("T6", lam1=30.0, lam2=4.0)
    theta = t6.default_theta()
    assert theta.apply([("U", 1), ("V", 1)]) == (1, 1)
    zero = theta.target.zero()
    assert theta.apply([("U", 2)]) == zero
    assert theta.apply([("A", 5), ("B", -2)]) == zero
    assert theta.apply([("U", 1), ("A", 1)]) != zero


def test_symbolic_model_of_composite_leaf_expands():
    a = make_basic("T3", prefix="a.")
    b = make_basic("T3", prefix="b.")
    from vskit.basic_groups import make_b3
    composite = make_b3([a, b], [("a.U", "b.U")])
    tree = Leaf(composite)
    # the glued involutions are one element in the composite's own model
    assert symbolic_model(composite.tree).is_identity(
        normal_form(composite.tree, [("a.U", 1), ("b.U", -1)]))
    report = kernel_rank(composite.tree, composite.default_theta())
    assert report.ok and report.kernel_rank == 1


# ---------------------------------------------------------------------------
# enumeration order: the shortest word BFS picks for each element


def _shortest_words(tree, depth=4):
    model = symbolic_model(tree)
    letters = [(name, exp) for name in model.generators() for exp in (1, -1)]
    listed = enumerate_elements(model, depth)
    words = [()]
    for parent, step in zip(listed.parents, listed.steps):
        words.append(words[parent] + (letters[step],))
    return [format_word(word) for word in words]


def _digest(words):
    return hashlib.sha256("\n".join(words).encode()).hexdigest()


def test_chain_enumeration_order_is_pinned():
    # Z_2 * Z_3 * Z_2, nested either way: the same words in the same order
    a, b, c = (Leaf(make_basic("T1", n=n, prefix=p))
               for n, p in ((2, "a."), (3, "b."), (2, "c.")))
    for tree in (uncertified_free_product(uncertified_free_product(a, b), c),
                 uncertified_free_product(a, uncertified_free_product(b, c))):
        words = _shortest_words(tree)
        assert len(words) == 107
        assert words[:20] == [
            "<identity>", "a.E", "b.E", "b.E^-1", "c.E",
            "a.E * b.E", "a.E * b.E^-1", "a.E * c.E", "b.E * a.E",
            "b.E * c.E", "b.E^-1 * a.E", "b.E^-1 * c.E", "c.E * a.E",
            "c.E * b.E", "c.E * b.E^-1", "a.E * b.E * a.E",
            "a.E * b.E * c.E", "a.E * b.E^-1 * a.E", "a.E * b.E^-1 * c.E",
            "a.E * c.E * a.E"]
        assert _digest(words) == ("f8cc0bd46623dc43f0f19fe319c0a988"
                                  "e5506eaa4164ffecfa5e21156b32602d")


def test_amalgam_enumeration_order_is_pinned():
    b3 = make_b3([make_basic("T3", prefix="a."),
                  make_basic("T3", prefix="b.")], [("a.U", "b.U")])
    assert _shortest_words(Leaf(b3)) == [
        "<identity>", "a.U", "a.V", "b.V", "a.U * a.V", "a.U * b.V",
        "a.V * b.V", "b.V * a.V", "a.U * a.V * b.V", "a.U * b.V * a.V",
        "a.V * b.V * a.V", "b.V * a.V * b.V", "a.U * a.V * b.V * a.V",
        "a.U * b.V * a.V * b.V", "a.V * b.V * a.V * b.V",
        "b.V * a.V * b.V * a.V"]
    # an amalgam whose left factor is itself a free product
    left = uncertified_free_product(Leaf(make_basic("T3", prefix="a.")),
                                    Leaf(make_basic("T1", n=3, prefix="b.")))
    right = Leaf(make_basic("T3", prefix="c."))
    elements = (resolve_generator_word(GroupData.from_node(left), "a.U")[2],
                resolve_generator_word(GroupData.from_node(right), "c.U")[2])
    node = FreeProductNode((left, right), ("a.U", "c.U"), 2, elements,
                           ((("a.U", 1),), (("c.U", 1),)), (None,))
    words = _shortest_words(node)
    assert len(words) == 228 and "c.U" not in words
    assert _digest(words) == ("9f4303b3c9dd5250757bf55159b91302"
                              "220711ac8f0e320622b25e21c164b59b")
