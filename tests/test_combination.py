"""Combination certificates: precise invariance, products, HNN, placement."""

import cmath
from fractions import Fraction
import hashlib
import random

import pytest

from vskit import combination, sphere_geometry
from vskit.moebius import MoebiusMap, INF, is_identity_map, projectively_equal
from vskit.sphere_geometry import (SphereCircle, SphereDisc, disc_image,
                                   disc_relation)
from vskit.combination import (CombinationError, Leaf, GroupData,
                               check_precisely_invariant,
                               resolve_generator_word, free_product,
                               uncertified_free_product, hnn_extension,
                               assemble, collect_matrices,
                               node_certificates, format_word,
                               station_frame, station_boundary,
                               PlacementChain, chain_leaves)
from vskit import group_algebra
from vskit.group_algebra import (enumerate_elements, euler_characteristic,
                                 normal_form, symbolic_model, walk_expanded,
                                 walk_tree)
from vskit.limitset import sample
from vskit.basic_groups import make_b3, make_basic
from vskit.cyclic_case import CyclicSignature, build_cyclic


def _disc(center, radius, inside=True):
    circle = SphereCircle.from_center_radius(center, radius)
    probe = complex(center) + 0.5 * radius
    side = 1 if circle.eval(probe) < 0 else -1
    return SphereDisc(circle, side if inside else -side)


# ---------------------------------------------------------------------------
# precise invariance


def test_precise_invariance_exact_in_finite_group():
    t3 = make_basic("T3")
    report = check_precisely_invariant(_disc(0, 0.5), "U", t3)
    assert report.status == "pass"
    assert report.ok


def test_precise_invariance_bounded_in_infinite_group():
    t2 = make_basic("T2", lam=4.0)
    report = check_precisely_invariant(_disc(1.0, 0.25), None, t2, depth=4)
    assert report.status == "bounded-pass"
    assert report.depth == 4


def test_precise_invariance_failure_names_witness():
    t2 = make_basic("T2", lam=4.0)
    report = check_precisely_invariant(_disc(0, 2.0), None, t2)
    assert report.status == "fail"
    assert (report.witness, report.depth) == ("L", 6)


@pytest.mark.parametrize("btype, params, center, radius, witness", [
    ("T5", {"lam": 4.0}, 0.3, 0.1, "A^-1 * A^-1 * V"),
    ("T6", {"lam1": 30.0, "lam2": 4.0}, 0.7, 0.05, "B^-1 * A^-1 * B * V"),
    ("T6", {"lam1": 30.0, "lam2": 4.0}, 1.2, 0.05,
     "A * B^-1 * A^-1 * B * B"),
])
def test_precise_invariance_failure_pins_first_witness(btype, params, center,
                                                        radius, witness):
    # the witness is the first failing element in BFS order, so these
    # words pin both the listing order and each element's verdict
    group = make_basic(btype, **params)
    report = check_precisely_invariant(_disc(center, radius), None, group)
    assert (report.status, report.witness, report.depth) == \
        ("fail", witness, 6)


def test_precise_invariance_under_product_subgroup():
    # in T5 the involution U*V fixes +-i; an Apollonius disc around i
    # that is narrow enough stays clear of the A-orbit
    t5 = make_basic("T5", lam=4.0)
    X = _disc(17j / 15, 8.0 / 15)
    report = check_precisely_invariant(X, ("U", "V"), t5, depth=5)
    assert report.ok
    # the same disc is not U-invariant
    report = check_precisely_invariant(X, "U", t5, depth=3)
    assert report.status == "fail"
    assert "does not fix" in report.witness


def test_resolve_generator_word():
    t5 = make_basic("T5", lam=4.0)
    display, matrix, elem = resolve_generator_word(t5, ("U", "V"))
    assert display == "U*V"
    assert projectively_equal(matrix, t5.gens["U"] * t5.gens["V"])
    with pytest.raises(KeyError):
        resolve_generator_word(t5, "X")
    with pytest.raises(KeyError):
        resolve_generator_word(t5, ())


# ---------------------------------------------------------------------------
# free products


def _pushed_t3(sigma):
    push = MoebiusMap(sigma * sigma, 0, 0, 1)
    return make_basic("T3", prefix="b.").conjugated_by(push)


def test_amalgamated_free_product_of_two_t3():
    left = make_basic("T3", prefix="a.")
    right = _pushed_t3(2.0)                 # b.V becomes z -> 16/z
    B1 = _disc(0, 2.0, inside=False)
    node = free_product(Leaf(left), Leaf(right), ("a.U", "b.U"),
                        B1, B1.complement())
    assert node.amalgam_order == 2
    assert node.certificates[-1].ok
    assert "amalgam over a.U ~ b.U" in node.label
    assert euler_characteristic(node) == 0
    model = symbolic_model(node)
    assert model.is_identity(normal_form(node, [("a.U", 1), ("b.U", 1)]))
    assert not model.is_identity(
        normal_form(node, [("a.V", 1), ("b.V", 1)]))


def test_amalgam_identification_relation_is_recorded():
    left = make_basic("T3", prefix="a.")
    right = _pushed_t3(2.0)
    B1 = _disc(0, 2.0, inside=False)
    node = free_product(Leaf(left), Leaf(right), ("a.U", "b.U"),
                        B1, B1.complement())
    assembled = assemble(node)
    assert (("a.U", 1), ("b.U", -1)) in assembled.relations
    assert any("exact-pass" in line for line in assembled.summary_lines())

    # walk order on a mixed tree: an HNN over an amalgam of a B3
    # composite with a T3 whose c.U is carried onto b.V (fixed at +-9)
    b3 = make_b3([make_basic("T3", prefix="a."),
                  make_basic("T3", prefix="b.")], [("a.U", "b.U")])
    Q = MoebiusMap(1, 9, 1, -9)
    c = make_basic("T3", prefix="c.").conjugated_by(
        Q.inverse() * MoebiusMap(9, 0, 0, 1))
    B1 = disc_image(Q.inverse(), _disc(0, 3.0, inside=False))
    product = free_product(Leaf(b3), Leaf(c), ("b.V", "c.U"),
                           B1, B1.complement())
    c1, c2, r = 3 + 1j, 3 - 1j, 0.2
    node = hnn_extension(product, MoebiusMap(c2, r * r - c1 * c2, 1, -c1),
                         _disc(c1, r), _disc(c2, r), stable_name="s")
    assert list(collect_matrices(node)) == \
        ["a.U", "a.V", "b.U", "b.V", "c.U", "c.V", "s"]
    # the trivial edge group adds no relation (and has no symbolic
    # model, so the HNN itself does not assemble)
    assert assemble(product).relations == (
        (("a.U", 2),), (("a.V", 2),),
        (("a.U", 1), ("a.V", 1), ("a.U", -1), ("a.V", -1)),
        (("b.U", 2),), (("b.V", 2),),
        (("b.U", 1), ("b.V", 1), ("b.U", -1), ("b.V", -1)),
        (("a.U", 1), ("b.U", -1)),
        (("c.U", 2),), (("c.V", 2),),
        (("c.U", 1), ("c.V", 1), ("c.U", -1), ("c.V", -1)),
        (("b.V", 1), ("c.U", -1)))
    assert [report.name for cert in node_certificates(node)
            for report in cert.checks] == [
        "B1, B2 complementary discs with common boundary",
        "amalgamated generators agree (matrices, order 2)",
        "B1 precise invariance under <b.V> in left factor",
        "B2 precise invariance under <c.U> in right factor",
        "stable letter is loxodromic", "A(Sigma1) = Sigma2",
        "A(B1) disjoint from B2", "closed B1, B2 disjoint",
        "B1 precise invariance in base", "B2 precise invariance in base",
        "no base word drags closed B1 onto closed B2"]
    assert [leaf.label for leaf in walk_expanded(node)
            if leaf.kind == "leaf"] == \
        ["T3", "T3 (conjugated)", "T3 (conjugated)"]
    assert euler_characteristic(node) == Fraction(-5, 4)
    assert node.label == ("HNN((B3[4 cones]) * (T3 (conjugated)) "
                          "[amalgam over b.V ~ c.U]; stable s)")


def test_free_product_rejects_shared_names():
    left = make_basic("T3", prefix="a.")
    right = make_basic("T3", prefix="a.")
    B1 = _disc(0, 2.0, inside=False)
    with pytest.raises(CombinationError) as err:
        free_product(Leaf(left), Leaf(right), None, B1, B1.complement())
    assert "shared across factors" in str(err.value)


def test_free_product_requires_complementary_discs():
    left = make_basic("T3", prefix="a.")
    right = _pushed_t3(2.0)
    with pytest.raises(CombinationError) as err:
        free_product(Leaf(left), Leaf(right), None,
                     _disc(0, 2.0, inside=False), _disc(0, 1.9))
    assert "complement" in str(err.value)


def test_free_product_rejects_mismatched_amalgam_matrices():
    left = make_basic("T3", prefix="a.")
    shifted = make_basic("T3", prefix="b.").conjugated_by(
        MoebiusMap(1, 5, 0, 1))
    B1 = _disc(0, 2.0, inside=False)
    with pytest.raises(CombinationError) as err:
        free_product(Leaf(left), Leaf(shifted), ("a.U", "b.U"),
                     B1, B1.complement())
    assert "differ" in str(err.value)


def test_free_product_reports_invariance_failure_with_witness():
    left = make_basic("T3", prefix="a.")
    right = _pushed_t3(2.0)
    B1 = _disc(0, 0.4, inside=False)        # a.V drags it onto itself
    with pytest.raises(CombinationError) as err:
        free_product(Leaf(left), Leaf(right), ("a.U", "b.U"),
                     B1, B1.complement())
    assert err.value.report is not None
    assert err.value.report.status == "fail"


# ---------------------------------------------------------------------------
# HNN extensions


def _rotation_hnn():
    base = Leaf(make_basic("T1", n=3, prefix="e."))
    A = MoebiusMap(2, 0, 0, 0.5)            # z -> 4z commutes with e.E
    return hnn_extension(base, A, _disc(0, 0.5), _disc(0, 2.0, inside=False),
                         H1="e.E", H2="e.E", stable_name="e.A")


def test_hnn_extension_of_rotation_group():
    node = _rotation_hnn()
    assert node.edge_order == 3
    assert node.edge_is_full_base
    assert node.certificates[-1].ok
    assert all(r.status == "pass" for r in node.certificates[-1].checks)
    assert euler_characteristic(node) == 0
    assert symbolic_model(node).is_identity(normal_form(
        node, [("e.A", 1), ("e.E", 1), ("e.A", -1), ("e.E", -1)]))
    assembled = assemble(node)
    assert any(len(rel) == 4 and rel[0][0] == "e.A"
               for rel in assembled.relations)


def test_hnn_extension_lists_its_base_once(monkeypatch):
    lines = [c.line() for c in _rotation_hnn().certificates[-1].checks]
    calls = []
    real_elements = GroupData.elements

    def elements(self, depth, max_count=None):
        calls.append(depth)
        return real_elements(self, depth, max_count)

    monkeypatch.setattr(GroupData, "elements", elements)
    # the B1 and B2 invariance checks and the drag sweep share one listing
    assert [c.line() for c in _rotation_hnn().certificates[-1].checks] == lines
    assert calls == [6]
    assert lines == [
        "[exact-pass] stable letter is loxodromic",
        "[exact-pass] A(Sigma1) = Sigma2",
        "[exact-pass] A(B1) disjoint from B2",
        "[exact-pass] closed B1, B2 disjoint",
        "[exact-pass] A^-1 H2 A = H1",
        "[exact-pass] B1 precise invariance under <e.E> in base",
        "[exact-pass] B2 precise invariance under <e.E> in base",
        "[exact-pass] no base word drags closed B1 onto closed B2"]


def test_hnn_with_trivial_base_is_z():
    node = hnn_extension(None, MoebiusMap(2, 0, 0, 0.5),
                         _disc(0, 0.5), _disc(0, 2.0, inside=False),
                         stable_name="t")
    assert euler_characteristic(node) == 0
    model = symbolic_model(node)
    g = model.generators()["t"]
    x = model.multiply(g, g)
    assert not model.is_identity(x)


def test_hnn_rejects_elliptic_stable_letter():
    base = Leaf(make_basic("T1", n=3, prefix="e."))
    E4 = make_basic("T1", n=4, prefix="x.").gens["x.E"]
    with pytest.raises(CombinationError) as err:
        hnn_extension(base, E4, _disc(0, 0.5), _disc(0, 2.0, inside=False),
                      H1="e.E", H2="e.E", stable_name="e.A")
    assert "loxodromic" in str(err.value)


def test_hnn_rejects_meeting_discs():
    base = Leaf(make_basic("T1", n=3, prefix="e."))
    A = MoebiusMap(0.8, 0, 0, 1)            # contracts |z|<2.5 onto |z|<2
    with pytest.raises(CombinationError) as err:
        hnn_extension(base, A, _disc(0, 2.5), _disc(0, 2.0, inside=False),
                      H1="e.E", H2="e.E", stable_name="e.A")
    assert "closed B1, B2 disjoint" in str(err.value)


def _inversion_letter(c1, c2, r):
    """z -> c2 + r^2 / (z - c1): the circle |z - c1| = r onto |z - c2| = r,
    throwing the inside of the first onto the outside of the second."""
    return MoebiusMap(c2, r * r - c1 * c2, 1, -c1)


def test_hnn_drag_sweep_names_first_dragging_word():
    base = Leaf(make_basic("T4", n=3, lam=2.0, prefix="e."))
    c1, c2, r = 3 + 2j, -2 + 1j, 0.5
    with pytest.raises(CombinationError) as err:
        hnn_extension(base, _inversion_letter(c1, c2, r), _disc(c1, r),
                      _disc(c2, r), depth=4, stable_name="s")
    report = err.value.report
    assert report.name == "no base word drags closed B1 onto closed B2"
    assert (report.status, report.witness, report.depth) == \
        ("fail", "e.A^-1 * e.E", 4)


def test_hnn_drag_sweep_fails_on_touching_image():
    # e.E (z -> -z) carries B1 onto a disc externally tangent to B2:
    # tangency is not disjointness, so the sweep fails on that word
    base = Leaf(make_basic("T1", n=2, prefix="e."))
    c1, c2, r = 3 + 1j, -2 - 1j, 0.5
    B1, B2 = _disc(c1, r), _disc(c2, r)
    E = base.group.gens["e.E"]
    assert disc_relation(disc_image(E, B1), B2) == "touching"
    with pytest.raises(CombinationError) as err:
        hnn_extension(base, _inversion_letter(c1, c2, r), B1, B2,
                      stable_name="s")
    report = err.value.report
    assert report.name == "no base word drags closed B1 onto closed B2"
    assert (report.status, report.witness, report.depth) == \
        ("fail", "e.E", 6)


def test_hnn_checks_edge_conjugation():
    # z -> 4z conjugates V to 1/(16z), which generates neither <U> nor <V>
    base = Leaf(make_basic("T3"))
    A = MoebiusMap(2, 0, 0, 0.5)
    with pytest.raises(CombinationError) as err:
        hnn_extension(base, A, _disc(0, 0.5), _disc(0, 2.0, inside=False),
                      H1="U", H2="V", stable_name="s")
    assert "A^-1 H2 A = H1" in str(err.value)


def test_hnn_rejects_stable_name_collision():
    base = Leaf(make_basic("T1", n=3))
    with pytest.raises(CombinationError) as err:
        hnn_extension(base, MoebiusMap(2, 0, 0, 0.5),
                      _disc(0, 0.5), _disc(0, 2.0, inside=False),
                      H1="E", H2="E", stable_name="E")
    assert "already used" in str(err.value)


# ---------------------------------------------------------------------------
# placement


def test_station_frame_compactifies_the_leaf():
    phi = station_frame(5.0, 2.0)
    assert abs(phi(0.0) - 4.0) < 1e-12
    assert abs(phi(INF) - 6.0) < 1e-12
    # everything in |z| <= scale lands within 1 + 2/(pull-1) of x
    bound = 1.0 + 2.0 / 7.0
    for k in range(12):
        z = 2.0 * cmath.exp(1j * cmath.pi * k / 6.0)
        assert abs(phi(z) - 5.0) <= bound + 1e-9
    for k in range(8):
        z = 0.5 * cmath.exp(1j * cmath.pi * k / 4.0)
        assert abs(phi(z) - 5.0) <= bound + 1e-9


def test_station_frame_validation():
    with pytest.raises(ValueError):
        station_frame(0.0, -1.0)
    with pytest.raises(ValueError):
        station_frame(0.0, 1.0, pull=0.5)


def test_station_boundary_is_right_half_plane():
    D = station_boundary(3.0)
    assert D.contains(4.0)
    assert not D.contains(2.0)
    assert D.complement().contains(2.0)


def test_placement_chain_positions_and_retry():
    chain = PlacementChain()
    chain.append(make_basic("T2", lam=4.0, prefix="p."))
    assert chain.right_edge == 0.0
    chain.append(make_basic("T2", lam=1.5, prefix="s."))
    # the slow multiplier fails at gap 3 and succeeds after one doubling
    assert chain.right_edge == 12.0
    assert chain.node.certificates[-1].ok


def test_placement_chain_raises_shared_names_at_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return free_product(*args, **kwargs)

    monkeypatch.setattr(combination, "free_product", counted)
    group = make_basic("T1", n=3, prefix="q.")
    chain = PlacementChain()
    chain.append(group)
    with pytest.raises(CombinationError) as info:
        chain.append(group)
    assert str(info.value) == "generator names shared across factors: ['q.E']"
    assert len(calls) == 1

def test_placement_chain_six_leaf_mix():
    groups = [make_basic("T2", lam=2.0, prefix="p1."),
              make_basic("T1", n=7, prefix="p2."),
              make_basic("T5", lam=4.0, prefix="p3."),
              make_basic("T2", lam=1.5, prefix="p4."),
              make_basic("T4", n=3, lam=2.0, prefix="p5."),
              make_basic("T6", lam1=30.0, lam2=4.0, prefix="p6.")]
    chain = PlacementChain()
    node = None
    for g in groups:
        node = chain.append(g)
    assert chain.right_edge == 60.0
    assert euler_characteristic(node) == Fraction(-143, 28)
    reports = [r for cert in node_certificates(node) for r in cert.checks]
    assert len(reports) == 15
    assert all(r.ok for r in reports)
    # junctions 2-3 are derived by ping-pong to depth 6; the slow p4.L
    # moves the next separator onto B2, so junction 4 lists the whole
    # chain (cut by the budget at depth 4) and junction 5 inherits that
    assert [r.depth for r in reports if r.name.endswith("left factor")] \
        == [6, 6, 6, 4, 4]
    # a wide listing hits the enumeration budget; the check says so
    X = station_boundary(chain.right_edge + chain.spacing)
    wide = check_precisely_invariant(X, None, GroupData.from_node(node))
    assert wide.line() == "[pass to depth 3] precise invariance"


def test_placement_respects_rotation_groups():
    node = chain_leaves([make_basic("T1", n=24, prefix="r1."),
                         make_basic("T1", n=36, prefix="r2.")])
    reports = [r for cert in node_certificates(node) for r in cert.checks]
    assert all(r.ok for r in reports)
    assert euler_characteristic(node) == \
        Fraction(1, 24) + Fraction(1, 36) - 1


def test_chain_input_validation():
    with pytest.raises(ValueError):
        PlacementChain(spacing=0.0)
    with pytest.raises(ValueError):
        chain_leaves([])


# ---------------------------------------------------------------------------
# a chain of k groups is one product node over k factors


_CHAIN_GROUPS = (("T1", {"n": 2}), ("T1", {"n": 3}), ("T2", {"lam": 4.0}),
                 ("T4", {"n": 3, "lam": 2.0}))


def _chain_groups():
    return [make_basic(btype, prefix=f"k{i}.", **params)
            for i, (btype, params) in enumerate(_CHAIN_GROUPS)]


def test_certified_chain_is_one_node_with_a_certificate_per_junction():
    chain = PlacementChain()
    for group in _chain_groups():
        chain.append(group)
    node = chain.node
    assert node.kind == "product"
    assert [f.kind for f in node.factors] == ["leaf"] * 4
    assert [f.group for f in node.factors] == chain.groups
    assert len(node.certificates) == 3
    # the junctions' reports are the verify lines, in order
    assert list(node.certificates) == node_certificates(node)
    assert all(cert.checks[0].name.startswith("B1, B2 complementary")
               for cert in node.certificates)
    assert sum(n.kind == "product" for n in walk_tree(node)) == 1


def test_uncertified_chain_is_one_node_without_certificates():
    sig = CyclicSignature(6, a=1, m_orders=(2,), c=1, n_orders=(3,))
    node = build_cyclic(sig, certify=False).tree
    assert len(node.factors) == 4
    assert node.certificates == (None, None, None)
    assert [n.kind for n in walk_tree(node)] == ["leaf"] * 4 + ["product"]
    with pytest.raises(ValueError, match="at least two factors"):
        uncertified_free_product(node.factors[0])


def test_certified_junction_on_an_uncertified_chain_stays_uncertified():
    *head, last = _chain_groups()
    chain = PlacementChain()
    for group in head:
        chain.append(group)
    chain.node = uncertified_free_product(*chain.groups)
    node = chain.append(last)
    assert len(node.factors) == 4
    assert node.certificates[:2] == (None, None)
    assert node.certificates[-1].ok
    assert node_certificates(node) == [node.certificates[-1]]
    with pytest.raises(ValueError, match="uncertified tree rejected: "
                       "product node carries no certificate"):
        sample(node)


def test_euler_characteristic_of_an_n_ary_node():
    leaves = [Leaf(group) for group in _chain_groups()]
    node = uncertified_free_product(*leaves)
    assert euler_characteristic(node) == \
        sum(leaf.group.chi for leaf in leaves) - 3
    assert euler_characteristic(node) == euler_characteristic(
        uncertified_free_product(uncertified_free_product(*leaves[:2]),
                                 *leaves[2:]))


def test_junction_certificates_follow_the_factor_they_join():
    # a chain joined to an HNN factor stays one factor of a new node, so
    # the HNN's certificate comes before the junction that added it
    head = chain_leaves([make_basic("T1", n=2, prefix="a."),
                         make_basic("T1", n=3, prefix="b.")])
    frame = MoebiusMap(101, 99, 1, 1)            # 0 -> 99, inf -> 101
    A = frame * MoebiusMap(4, 0, 0, 0.25) * frame.inverse()
    D1 = disc_image(frame, _disc(0, 0.25))
    hnn = hnn_extension(None, A, D1, disc_image(A, D1).complement(),
                        stable_name="t")
    B1 = _disc(100, 10)
    node = free_product(head, hnn, None, B1, B1.complement())
    assert node.factors == (head, hnn)
    assert node_certificates(node) == [head.certificates[0],
                                       hnn.certificates[0],
                                       node.certificates[0]]
    assert node.label == ("((T1(n=2) (conjugated)) * (T1(n=3) (conjugated)) "
                          "[free product]) * (HNN(trivial; stable t)) "
                          "[free product]")
    # a leaf joined to that node extends it
    group = make_basic("T1", n=2, prefix="c.")
    leaf = Leaf(group.conjugated_by(
        station_frame(200.0, group.standard_scale())))
    B1 = _disc(200, 10)
    extended = free_product(node, leaf, None, B1, B1.complement())
    assert extended.factors == (head, hnn, leaf)
    assert node_certificates(extended) == \
        node_certificates(node) + [extended.certificates[-1]]


# ---------------------------------------------------------------------------
# assembled groups stay faithful and well-conditioned


def test_assembled_words_are_faithful_to_depth_three():
    groups = [make_basic("T3", prefix="a."),
              make_basic("T2", lam=4.0, prefix="b."),
              make_basic("T1", n=3, prefix="c.")]
    node = chain_leaves(groups)
    assembled = assemble(node)
    model = assembled.model
    listed = GroupData(model, assembled.generators).elements(3)
    seen = 0
    for elem, word, matrix in listed.triples:
        if not model.is_identity(elem):
            assert not is_identity_map(matrix), format_word(word)
            seen += 1
    assert seen > 100


def _word_matrix(matrices, word):
    """The product of a word's generator matrices, left to right."""
    m = MoebiusMap.identity()
    for name, exp in word:
        m = m * matrices[name] ** exp
    return m


def test_normal_forms_agree_with_faithful_matrices():
    # the combination theorem makes a certified chain the free product of
    # its leaves, so its matrices represent it faithfully: a word's normal
    # form is the identity exactly when its matrix is +-I
    groups = [make_basic("T4", n=2, lam=4.0, prefix="a."),
              make_basic("T1", n=3, prefix="b."),
              make_basic("T2", lam=4.0, prefix="c."),
              make_basic("T1", n=2, prefix="d.")]
    node = chain_leaves(groups)
    data = GroupData.from_node(node)
    model = data.model
    names = list(data.matrices)
    rng = random.Random(7)

    def word(length):
        return tuple((rng.choice(names), rng.choice((1, -1)))
                     for _ in range(length))

    def inverse(w):
        return tuple((name, -exp) for name, exp in reversed(w))

    relators = [(("a.E", 2),), (("b.E", 3),), (("b.E", -3),),
                (("d.E", 2),),
                (("a.E", 1), ("a.A", 1), ("a.E", -1), ("a.A", -1))]
    words = []
    for _ in range(60):
        w = word(rng.randint(1, 4))
        words.append(w + inverse(w))
        for rel in relators:
            u = word(rng.randint(0, 2))
            words.append(u + rel + inverse(u))
    words.extend(word(rng.randint(1, 8)) for _ in range(400))
    identities = 0
    for w in words:
        assert sum(abs(exp) for _, exp in w) <= 8
        trivial = model.is_identity(normal_form(node, w))
        # entries reach ~300, so identity words land within 3e-7 of
        # +-I; no other word here comes within 0.7 of it
        assert trivial == is_identity_map(_word_matrix(data.matrices, w),
                                          1e-5), \
            format_word(w)
        identities += trivial
    assert identities >= 360 and len(words) - identities >= 350

def test_certified_chain_builds_no_disc_per_listed_element(monkeypatch):
    # the element sweeps decide on transported forms (image_relation), so
    # the disc objects built grow with the checks made, not with the
    # elements listed; the T6 leaf's listing grows ~3x per level
    calls = {"disc_image": 0, "disc_relation": 0}
    listed = []

    def counting(name, function):
        def counted(*args):
            calls[name] += 1
            return function(*args)
        return counted

    def elements(self, depth, max_count=None):
        out = real_elements(self, depth, max_count)
        listed.append(len(out.triples))
        return out

    real_elements = GroupData.elements
    for name in calls:
        monkeypatch.setattr(combination, name,
                            counting(name, getattr(combination, name)))
    monkeypatch.setattr(GroupData, "elements", elements)

    def build(depth):
        for name in calls:
            calls[name] = 0
        listed.clear()
        chain_leaves([make_basic("T6", lam1=30.0, lam2=4.0, prefix="a."),
                      make_basic("T2", lam=4.0, prefix="b."),
                      make_basic("T1", n=3, prefix="c.")], depth=depth)
        return dict(calls), sum(listed)

    shallow_calls, shallow_listed = build(3)
    deep_calls, deep_listed = build(5)
    assert deep_listed > 4 * shallow_listed > 0
    assert deep_calls == shallow_calls
    assert shallow_calls == {"disc_image": 0, "disc_relation": 0}


def test_enumeration_budget_reports_honest_depth():
    groups = [make_basic("T3", prefix="a."),
              make_basic("T2", lam=4.0, prefix="b."),
              make_basic("T1", n=3, prefix="c.")]
    node = chain_leaves(groups)
    data = GroupData.from_node(node)
    listed = data.elements(6, max_count=500)
    assert not listed.exhausted
    assert 1 <= listed.depth_completed < 6
    assert len(listed.triples) <= 500


# ---------------------------------------------------------------------------
# chain junctions derived by ping-pong


def _compare_junctions(monkeypatch):
    """At each junction whose left factor is a certified product, record
    (ping-pong check or None, listing of the whole left factor)."""
    seen = []
    derive = combination._ping_pong_invariance

    def both_ways(left, X, depth):
        derived = derive(left, X, depth)
        if left.kind == "product" and left.discs is not None:
            seen.append((derived, check_precisely_invariant(
                X, None, GroupData.from_node(left), depth)))
        return derived

    monkeypatch.setattr(combination, "_ping_pong_invariance", both_ways)
    return seen


# the certified chains built elsewhere in the suite, CLI scenes included
SUITE_CHAINS = [
    ("CHAIN3", [("T1", {"n": 2}), ("T1", {"n": 3}), ("T2", {"lam": 4.0})]),
    ("CHAIN4", [("T4", {"n": 2, "lam": 4.0}), ("T4", {"n": 2, "lam": 4.0}),
                ("T1", {"n": 3}), ("T1", {"n": 3})]),
    ("six-leaf-mix", [("T2", {"lam": 2.0}), ("T1", {"n": 7}),
                      ("T5", {"lam": 4.0}), ("T2", {"lam": 1.5}),
                      ("T4", {"n": 3, "lam": 2.0}),
                      ("T6", {"lam1": 30.0, "lam2": 4.0})]),
    ("faithful-depth-3", [("T3", {}), ("T2", {"lam": 4.0}),
                          ("T1", {"n": 3})]),
    ("normal-forms", [("T4", {"n": 2, "lam": 4.0}), ("T1", {"n": 3}),
                      ("T2", {"lam": 4.0}), ("T1", {"n": 2})]),
    ("disc-count", [("T6", {"lam1": 30.0, "lam2": 4.0}),
                    ("T2", {"lam": 4.0}), ("T1", {"n": 3})]),
]


@pytest.mark.parametrize("leaves", [leaves for _, leaves in SUITE_CHAINS],
                         ids=[name for name, _ in SUITE_CHAINS])
def test_ping_pong_agrees_with_listing_on_suite_chains(monkeypatch, leaves):
    seen = _compare_junctions(monkeypatch)
    chain_leaves([make_basic(btype, prefix=f"x{k}.", **params)
                  for k, (btype, params) in enumerate(leaves)])
    assert seen and any(derived for derived, _ in seen)
    for derived, full in seen:
        assert derived is None or full.ok, full.line()


@pytest.mark.parametrize("sig", [CyclicSignature(2, a=2, c=7),
                                 CyclicSignature(4, a=1, c=2,
                                                 n_orders=(4,))],
                         ids=["9-leaf", "4-leaf"])
def test_ping_pong_agrees_with_listing_on_cyclic_builds(monkeypatch, sig):
    seen = _compare_junctions(monkeypatch)
    build_cyclic(sig)
    assert len(seen) == sig.a + sig.b + sig.c + sig.d - 2
    for derived, full in seen:
        assert derived is not None and full.ok, full.line()


def _random_leaf(rng, prefix):
    btype = rng.choice(["T1", "T2", "T3", "T4"])
    if btype == "T1":
        return make_basic("T1", n=rng.randint(2, 6), prefix=prefix)
    if btype == "T2":
        return make_basic("T2", lam=rng.choice([1.5, 2.0, 4.0, 8.0]),
                          prefix=prefix)
    if btype == "T3":
        return make_basic("T3", prefix=prefix)
    return make_basic("T4", n=rng.randint(2, 4),
                      lam=rng.choice([1.5, 2.0, 4.0]), prefix=prefix)


def test_ping_pong_never_passes_where_listing_finds_a_witness(monkeypatch):
    # tight spacings make many junctions fail (and the chain retry with
    # wider gaps), so both verdicts of the listing are exercised
    seen = _compare_junctions(monkeypatch)
    for seed in range(10):
        rng = random.Random(seed)
        chain = PlacementChain(spacing=rng.choice([0.2, 0.3, 0.4, 1.0, 3.0]),
                               depth=4)
        try:
            for k in range(rng.randint(3, 5)):
                chain.append(_random_leaf(rng, f"x{k}."))
        except CombinationError:
            pass
    derived_passes = [full for derived, full in seen if derived is not None]
    listing_fails = [full for derived, full in seen
                     if derived is None and not full.ok]
    assert len(derived_passes) >= 10 and len(listing_fails) >= 10
    for full in derived_passes:
        assert full.ok, full.line()


def test_failed_ping_pong_falls_back_to_the_whole_listing():
    # a.E * b.A^-1 moves X onto itself: the witness spans both leaves of
    # the left factor, so only the listing of the whole chain can name it
    chain = PlacementChain()
    chain.append(make_basic("T1", n=3, prefix="a."))
    chain.append(make_basic("T4", n=2, lam=4.0, prefix="b."))
    X = station_boundary(chain.right_edge + 2.0)
    assert combination._ping_pong_invariance(chain.node, X, 6) is None
    placed = chain._placed(make_basic("T1", n=2, prefix="c."),
                           chain.right_edge + 4.0)
    with pytest.raises(CombinationError) as err:
        free_product(chain.node, Leaf(placed), None, X, X.complement())
    listed = check_precisely_invariant(X, None,
                                       GroupData.from_node(chain.node))
    assert err.value.report.witness == listed.witness == "a.E * b.A^-1"
    assert str(err.value) == err.value.report.line() == (
        "[FAIL] B1 precise invariance in left factor: "
        "witness a.E * b.A^-1")
    assert err.value.report.depth == listed.depth == 6


def test_junction_leaves_its_left_node_unchanged():
    # free_product reads left's listing of its last factor but does not
    # take it: a second junction on the same left node certifies alike
    chain = PlacementChain()
    for k, (btype, params) in enumerate(SUITE_CHAINS[0][1][:3]):
        chain.append(make_basic(btype, prefix=f"x{k}.", **params))
    left = chain.node
    kept = left.right_listing
    assert kept is not None
    X = station_boundary(chain.right_edge + chain.spacing)
    certified = []
    for prefix in ("y.", "z."):
        placed = chain._placed(make_basic("T1", n=3, prefix=prefix),
                               chain.right_edge + 2 * chain.spacing)
        node = free_product(left, Leaf(placed), None, X, X.complement())
        assert left.right_listing is kept
        certified.append([c.line() for c in node.certificates[-1].checks])
    assert certified[0] == certified[1]


def test_ping_pong_pushes_each_element_once(monkeypatch):
    # a counter, not a clock: relations (a) and (b) are decided from one
    # push of X through each non-identity element of L, not one each
    chain = PlacementChain()
    for k, (btype, params) in enumerate(SUITE_CHAINS[0][1]):
        chain.append(make_basic(btype, prefix=f"x{k}.", **params))
    # the separator the next append would place
    X = station_boundary(chain.right_edge + chain.spacing)
    listed_depth, listed = chain.node.right_listing
    pushes = [0]
    push = sphere_geometry._pushforward

    def counted(*args):
        pushes[0] += 1
        return push(*args)

    monkeypatch.setattr(sphere_geometry, "_pushforward", counted)
    check = combination._ping_pong_invariance(chain.node, X, listed_depth)
    assert check is not None and check.ok
    elements = sum(1 for _, word, _ in listed.triples if word)
    assert elements > 0 and pushes[0] == elements


def test_certified_chain_lists_one_leaf_per_listing(monkeypatch):
    # a counter, not a clock: a regression to whole-chain listings of
    # the left factor lists several leaves' generators at once
    listed = []
    real_elements = GroupData.elements

    def elements(self, depth, max_count=None):
        listed.append(frozenset(self.matrices))
        return real_elements(self, depth, max_count)

    monkeypatch.setattr(GroupData, "elements", elements)
    built = build_cyclic(CyclicSignature(2, a=2, c=7))
    leaves = {frozenset(group.gens) for group in built.groups}
    assert len(leaves) == 9
    assert listed and all(names in leaves for names in listed)
    lines = [c.line() for cert in node_certificates(built.tree)
             for c in cert.checks if c.name.endswith("left factor")]
    assert lines == ["[pass to depth 6] B1 precise invariance in left "
                     "factor"] * 8


# ---------------------------------------------------------------------------
# leaf listings shared by presentation


def _direct_listing(group, depth, max_count):
    """A fresh listing of one group: enumerate_elements on its own model,
    then one letter and one product per element from its BFS parent's
    word and matrix."""
    result = enumerate_elements(group.symbolic, depth, max_count=max_count)
    moves = []
    for name in group.symbolic.generators():
        m = group.gens[name]
        moves += (((name, 1), m), ((name, -1), m.inverse()))
    triples = [(result.elements[0], (), MoebiusMap.identity())]
    for elem, parent, step in zip(result.elements[1:], result.parents,
                                  result.steps):
        _, word, m = triples[parent]
        letter, move = moves[step]
        triples.append((elem, word + (letter,), m * move))
    return triples, result.exhausted, result.depth_completed


def _bits(triples):
    return [(elem, word, repr((m.a, m.b, m.c, m.d, m.conformal)))
            for elem, word, m in triples]


def _fresh_intern(monkeypatch):
    intern = combination._ListingIntern(2 * combination.ENUMERATION_BUDGET)
    monkeypatch.setattr(combination, "_LEAF_LISTINGS", intern)
    return intern


def _counting_enumerations(monkeypatch):
    models = []
    real = combination.enumerate_elements

    def counted(model, depth, max_count=None):
        models.append(model)
        return real(model, depth, max_count=max_count)

    monkeypatch.setattr(combination, "enumerate_elements", counted)
    return models


BASIC_SAMPLES = [("T1", {"n": 3}), ("T2", {"lam": 4.0}), ("T3", {}),
                 ("T4", {"n": 3, "lam": 4.0}), ("T5", {"lam": 4.0}),
                 ("T6", {"lam1": 30.0, "lam2": 4.0}),
                 ("T7", {"lam1": 4, "lam2": 7, "lam3": 11})]


@pytest.mark.parametrize("btype, params, max_count", [
    *((btype, params, combination.ENUMERATION_BUDGET)
      for btype, params in BASIC_SAMPLES),
    ("T6", {"lam1": 30.0, "lam2": 4.0}, 500)],
    ids=[btype for btype, _ in BASIC_SAMPLES] + ["T6-cut"])
def test_shared_listing_is_the_direct_listing(monkeypatch, btype, params,
                                              max_count):
    # the second leaf has other names and another frame but the first
    # leaf's presentation, so its symbolic listing is the shared one;
    # elements, words, order and matrices match a fresh listing bit for bit
    _fresh_intern(monkeypatch)
    models = _counting_enumerations(monkeypatch)
    first = make_basic(btype, prefix="p.", **params)
    second = make_basic(btype, prefix="q.", **params).conjugated_by(
        station_frame(7.0, first.standard_scale()))
    GroupData.coerce(first).elements(6, max_count=max_count)
    listed = GroupData.coerce(second).elements(6, max_count=max_count)
    assert models == [first.symbolic]
    triples, exhausted, depth_completed = _direct_listing(second, 6,
                                                          max_count)
    assert _bits(listed.triples) == _bits(triples)
    assert (listed.exhausted, listed.depth_completed) \
        == (exhausted, depth_completed)
    if max_count == 500 or btype == "T7":
        assert depth_completed < 6 and not exhausted


def test_certified_chain_lists_each_leaf_once(monkeypatch):
    # counters, not a clock: a k-leaf chain makes one GroupData.elements
    # call per placed leaf, one symbolic enumeration per distinct leaf
    # presentation, and tree walks linear in k (a whole-chain model or
    # matrix dict at each junction would make them quadratic)
    listed = []
    walked = [0]
    real_elements = GroupData.elements

    def elements(self, depth, max_count=None):
        listed.append(frozenset(self.matrices))
        return real_elements(self, depth, max_count)

    def counting(walk):
        def counted(tree):
            for node in walk(tree):
                walked[0] += 1
                yield node
        return counted

    monkeypatch.setattr(GroupData, "elements", elements)
    monkeypatch.setattr(group_algebra, "walk_tree",
                        counting(group_algebra.walk_tree))
    monkeypatch.setattr(combination, "walk_tree",
                        counting(combination.walk_tree))
    models = _counting_enumerations(monkeypatch)
    kinds = [("T2", {"lam": 4.0}), ("T1", {"n": 3}),
             ("T4", {"n": 2, "lam": 4.0})]
    for k in (6, 12, 24):
        _fresh_intern(monkeypatch)
        listed.clear()
        models.clear()
        walked[0] = 0
        groups = [make_basic(kinds[i % 3][0], prefix=f"x{i}.",
                             **kinds[i % 3][1]) for i in range(k)]
        chain = PlacementChain()
        for group in groups:
            chain.append(group)
        assert sorted(listed, key=sorted) \
            == sorted((frozenset(g.gens) for g in chain.groups), key=sorted)
        assert len(models) == 3
        assert walked[0] <= 3 * k


def test_listing_intern_holds_its_bound(monkeypatch):
    # least recently used first out: under a 2610-element bound the T6
    # listing (2588 elements) evicts the T4 one (35) but not the T2 one
    # (13), which was used since; a listing larger than the bound is
    # never held
    intern = combination._ListingIntern(2610)
    monkeypatch.setattr(combination, "_LEAF_LISTINGS", intern)
    models = _counting_enumerations(monkeypatch)
    t2 = make_basic("T2", lam=4.0)
    t4 = make_basic("T4", n=3, lam=4.0)
    t6 = make_basic("T6", lam1=30.0, lam2=4.0)
    t7 = make_basic("T7", lam1=4, lam2=7, lam3=11)
    for group in (t2, t4, t2, t6, t2, t4, t7, t7):
        GroupData.coerce(group).elements(6, combination.ENUMERATION_BUDGET)
        assert intern.held <= intern.bound
    assert models == [t2.symbolic, t4.symbolic, t6.symbolic, t4.symbolic,
                      t7.symbolic, t7.symbolic]
    assert intern.held == 13 + 35


# ---------------------------------------------------------------------------
# listings that bypass the leaf intern or are cut by a budget, pinned


def _sha(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _listing_digests(listed):
    """(count, exhausted, depth_completed, words, elements, matrix bits)
    of an EnumeratedElements, each sequence as a SHA-256 digest."""
    return (len(listed.triples), listed.exhausted, listed.depth_completed,
            _sha(format_word(word) for _, word, _ in listed.triples),
            _sha(repr(elem) for elem, _, _ in listed.triples),
            _sha(bits for _, _, bits in _bits(listed.triples)))


def _pinned_cases():
    """Key -> (GroupData, depth, max_count) of each pinned listing."""
    chain = build_cyclic(CyclicSignature(12, a=1, m_orders=(2, 2), c=1))
    assert chain.tree.certificates[-1].ok
    t6 = make_basic("T6", lam1=30.0, lam2=4.0)
    return {
        "chain": (GroupData.from_node(chain.tree), 6,
                  combination.ENUMERATION_BUDGET),
        "hnn": (GroupData.from_node(_rotation_hnn()), 5, None),
        "t6-cut": (GroupData.coerce(t6), 6, 500),
    }


PINNED_LISTINGS = {
    "chain": (4446, False, 4,
              ("8a20110524e8b7ed7dc69f71ad694808"
               "38e14c75a52a32a1e5200df0ea70e505"),
              ("9eedcc44f608095dae6bb59d7e98bc32"
               "3f7b101efdd982e7742c02f71f80727e"),
              ("daa22dfce36cd03ebdc2044945f9f585"
               "334f056a3a2bf05a8ab2fe1f5d2dd619")),
    "hnn": (29, False, 5,
            ("819758434dabd52971e5556f1ecef831"
             "21cb6272503eef4e526af1bae3a674f9"),
            ("bbfca6e03882120892efd6201fb1fcab"
             "c40a1d5eb037822bc9c9a0cdacb13a42"),
            ("233f4c1e4181ca15880fb91cae197e8f"
             "4be547ff7f7f905b715cbfd3083de6b2")),
    "t6-cut": (92, False, 3,
               ("cfa7bea181b00a24cffe990fe9e54ba7"
                "d8c468105c1e51da91651945f3dafc04"),
               ("78ca6e38d786e5ff487644cdeebc865d"
                "deadc4a868995d0767ff459f45fbc163"),
               ("b41513821b67d966d8bc2ef48949f2a6"
                "d24b747de07377b7f231fee48d6180fb")),
}


def test_listings_are_pinned(monkeypatch):
    # a chain and an HNN node list through their whole model, the T6
    # leaf through the intern with a budget that stops it after depth 3
    _fresh_intern(monkeypatch)
    digests = {key: _listing_digests(data.elements(depth, max_count))
               for key, (data, depth, max_count) in _pinned_cases().items()}
    assert digests == PINNED_LISTINGS


def test_parents_and_steps_rebuild_the_pinned_words():
    # enumerate_elements alone, with no intern and no GroupData: each
    # element is its parent times its step in the model, and the words
    # spelled by following parents are the pinned ones
    for key, (data, depth, max_count) in _pinned_cases().items():
        model = data.model
        listed = enumerate_elements(model, depth, max_count=max_count)
        letters = []
        moves = []
        for name, g in model.generators().items():
            letters += ((name, 1), (name, -1))
            moves += (g, model.inverse(g))
        words = [()]
        for i, (parent, step) in enumerate(zip(listed.parents,
                                               listed.steps)):
            assert parent <= i
            assert model.multiply(listed.elements[parent], moves[step]) \
                == listed.elements[i + 1]
            words.append(words[parent] + (letters[step],))
        assert (len(listed.elements), listed.exhausted,
                listed.depth_completed, _sha(map(format_word, words)),
                _sha(map(repr, listed.elements))) == PINNED_LISTINGS[key][:5]
