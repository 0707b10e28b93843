"""Signature enumeration and realization for cyclic quotients."""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from vskit import cyclic_case
from vskit.cli import _tree_signature
from vskit.combination import (CombinationError, GroupData, assemble,
                               node_certificates)
from vskit.cyclic_case import (CyclicSignature, build_cyclic, describe,
                               enumerate_signatures, isomorphism_type,
                               kernel_genus, stream_signatures)
from vskit.group_algebra import (FreeProductModel, enumerate_elements,
                                 normal_form, symbolic_model)
from vskit.limitset import sample
from vskit.moebius import classify, projectively_equal


def _sort_key(sig):
    return (sig.g, sig.a, sig.b, sig.c, sig.d, sig.m_orders, sig.n_orders)


# The formatters as they were before their text was cached per order
# tuple: the reference the cached ones must match character for character.
def _reference_isomorphism_type(sig):
    parts = ["Z"] * sig.a
    parts += [f"(Z + Z_{m})" for m in sig.m_orders]
    parts += ["Z_2"] * sig.c
    parts += [f"Z_{v}" for v in sig.n_orders]
    return " * ".join(parts)


def _reference_describe(sig):
    m_orders, n_orders, g = sig.m_orders, sig.n_orders, sig._g
    line = (f"g={g} a={sig.a} b={len(m_orders)} c={sig.c} d={len(n_orders)} "
            f"m_orders=[{','.join(map(str, m_orders))}] "
            f"n_orders=[{','.join(map(str, n_orders))}] "
            f"K = {_reference_isomorphism_type(sig)}")
    return line + " [elementary]" if g <= 1 else line


class TestSignature:
    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            CyclicSignature(1, a=1)
        with pytest.raises(ValueError):
            CyclicSignature(True, a=1)
        with pytest.raises(ValueError):
            CyclicSignature(2, a=-1)
        with pytest.raises(ValueError):
            CyclicSignature(12, a=1, m_orders=(5,))  # 5 does not divide 12
        with pytest.raises(ValueError):
            CyclicSignature(12, a=1, m_orders=(1,))
        with pytest.raises(ValueError):
            CyclicSignature(12, a=1, n_orders=(2,))  # epsilon orders >= 3
        with pytest.raises(ValueError):
            CyclicSignature(3, a=1, c=1)  # involutions need even n

    def test_rejects_inadmissible_counts(self):
        with pytest.raises(ValueError, match="GCD"):
            CyclicSignature(6, n_orders=(3,))
        with pytest.raises(ValueError, match="GCD"):
            CyclicSignature(4, c=1)
        with pytest.raises(ValueError, match="GCD"):
            CyclicSignature(4)

    def test_normalizes_order_tuples(self):
        sig = CyclicSignature(12, a=1, m_orders=(6, 2), n_orders=(12, 3))
        assert sig.m_orders == (2, 6)
        assert sig.n_orders == (3, 12)
        assert sig.b == 2 and sig.d == 2
        assert sig.a + sig.b + sig.c + sig.d == 5

    def test_genus_values(self):
        assert CyclicSignature(2, a=1).g == 1
        assert CyclicSignature(3, n_orders=(3, 3)).g == 2
        assert CyclicSignature(4, m_orders=(4,)).g == 1
        assert CyclicSignature(2, c=1).g == 0
        mixed = CyclicSignature(12, a=1, m_orders=(2, 6), c=1,
                                n_orders=(4,))
        assert mixed.g == 40

    def test_kernel_genus_is_exact(self):
        assert kernel_genus(3, 0, 0, 0, (3, 3)) == 2
        assert kernel_genus(2, 0, 0, 1, ()) == 0
        # total function: exact rational even off the admissible domain
        assert kernel_genus(4, 0, 0, 0, (3,)) == Fraction(-1, 3)

    def test_clause_and_elementary_flags(self):
        assert CyclicSignature(2, a=1).clause == 1
        assert CyclicSignature(2, c=1).clause == 2
        assert CyclicSignature(3, n_orders=(3,)).clause == 3
        assert CyclicSignature(2, c=1).elementary
        assert CyclicSignature(2, a=1).elementary
        assert not CyclicSignature(3, n_orders=(3, 3)).elementary


class TestEnumeration:
    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            enumerate_signatures(1, 5)
        with pytest.raises(ValueError):
            enumerate_signatures(3, -1)
        with pytest.raises(ValueError):
            enumerate_signatures(3.0, 5)

    @pytest.mark.parametrize("n,g_max", [(1, 5), (3, -1), (3.0, 5)])
    def test_stream_validates_at_the_call(self, n, g_max):
        # raised by the call itself, before any record is asked for
        with pytest.raises(ValueError):
            stream_signatures(n, g_max)

    def test_stream_is_one_shell_at_a_time(self, monkeypatch):
        # work before the first record must not grow with g_max: count
        # the records built (through the enumerator's trusted
        # constructor) and the order tuples drawn until it arrives
        built = []
        drawn = []
        trusted = CyclicSignature._trusted.__func__

        def counted_trusted(cls, *fields):
            built.append(fields)
            return trusted(cls, *fields)

        def counted_combinations(items, k):
            for combo in combinations_with_replacement(items, k):
                drawn.append(combo)
                yield combo

        monkeypatch.setattr(CyclicSignature, "_trusted",
                            classmethod(counted_trusted))
        monkeypatch.setattr(cyclic_case, "combinations_with_replacement",
                            counted_combinations)
        before_first = []
        for g_max in (60, 120):
            del built[:], drawn[:]
            first = next(stream_signatures(12, g_max))
            before_first.append((len(built), len(drawn)))
            assert first.g == 0
        g0_shell = len(enumerate_signatures(12, 0))
        assert before_first[0] == before_first[1]
        # the first record itself is counted, so the bound is not vacuous
        assert 1 <= before_first[0][0] <= g0_shell

    def test_streamed_records_equal_validated_ones(self):
        # the stream builds its records without re-validating them; over
        # AC3's exact range each must equal the record the public
        # constructor validates, so AC3's `kernel_rank != sig.g` stays a
        # check against the genus formula
        total = 0
        for n in range(2, 13):
            for sig in stream_signatures(n, 50):
                checked = CyclicSignature(n, a=sig.a, c=sig.c,
                                          m_orders=sig.m_orders,
                                          n_orders=sig.n_orders)
                assert sig == checked and hash(sig) == hash(checked)
                assert sig.g == checked.g == kernel_genus(
                    n, sig.a, sig.b, sig.c, sig.n_orders)
                assert describe(sig) == describe(checked)
                total += 1
        assert total == 73407

    def test_records_keep_no_instance_dict(self):
        # validated and streamed records hold their fields in slots, with
        # the genus left out of repr, equality and hash as before
        validated = CyclicSignature(12, a=1, m_orders=(6, 2), c=1,
                                    n_orders=(4,))
        streamed = next(sig for sig in stream_signatures(12, 40)
                        if sig == validated)
        for sig in (validated, streamed):
            assert not hasattr(sig, "__dict__")
            assert sig.g == 40
            assert repr(sig) == ("CyclicSignature(n=12, a=1, c=1, "
                                 "m_orders=(2, 6), n_orders=(4,))")

    def test_shell_fields_come_in_order(self):
        # the enumerator sorts nothing: each shell's field tuples must
        # already be in (a, b, c, d, m_orders, n_orders) order
        for n in range(2, 14):
            shells = list(cyclic_case._shell_fields(n, 60))
            assert len(shells) == 61
            for g, shell in enumerate(shells):
                assert shell == sorted(shell)
                assert len(set(shell)) == len(shell)
                for a, b, c, d, m_orders, n_orders in shell:
                    assert (b, d) == (len(m_orders), len(n_orders))
                    assert kernel_genus(n, a, b, c, n_orders) == g

    def test_only_a_equal_b_equal_zero_can_be_inadmissible(self):
        # the enumerator checks admissibility only when a = b = 0: every
        # candidate with a + b > 0 passes, given c > 0 only for even n,
        # and odd n with c > 0 is the one clause that could fail
        for n in range(2, 14):
            e_divs = [v for v in range(3, n + 1) if n % v == 0]
            for a, b in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
                for c in range(4 if n % 2 == 0 else 1):
                    for d in range(4):
                        for n_orders in combinations_with_replacement(
                                e_divs, d):
                            assert cyclic_case._admissibility_problems(
                                n, a, b, c, n_orders) == []
            if n % 2:
                assert cyclic_case._admissibility_problems(n, 1, 0, 1, ())

    def test_full_listing_small_n(self):
        assert [describe(s) for s in enumerate_signatures(2, 1)] == [
            "g=0 a=0 b=0 c=1 d=0 m_orders=[] n_orders=[] K = Z_2"
            " [elementary]",
            "g=1 a=0 b=0 c=2 d=0 m_orders=[] n_orders=[] K = Z_2 * Z_2"
            " [elementary]",
            "g=1 a=0 b=1 c=0 d=0 m_orders=[2] n_orders=[] K = (Z + Z_2)"
            " [elementary]",
            "g=1 a=1 b=0 c=0 d=0 m_orders=[] n_orders=[] K = Z"
            " [elementary]",
        ]
        assert [describe(s) for s in enumerate_signatures(3, 2)] == [
            "g=0 a=0 b=0 c=0 d=1 m_orders=[] n_orders=[3] K = Z_3"
            " [elementary]",
            "g=1 a=0 b=1 c=0 d=0 m_orders=[3] n_orders=[] K = (Z + Z_3)"
            " [elementary]",
            "g=1 a=1 b=0 c=0 d=0 m_orders=[] n_orders=[] K = Z"
            " [elementary]",
            "g=2 a=0 b=0 c=0 d=2 m_orders=[] n_orders=[3,3] K = Z_3 * Z_3",
        ]

    def test_counts_frozen(self):
        assert len(enumerate_signatures(2, 6)) == 39
        assert len(enumerate_signatures(6, 4)) == 12
        assert len(enumerate_signatures(12, 11)) == 38

    def test_sorted_and_unique(self):
        sigs = enumerate_signatures(8, 9)
        assert sigs == sorted(sigs, key=_sort_key)
        assert len(set(sigs)) == len(sigs)

    def test_matches_brute_force(self):
        # independent filter over a raw grid wide enough for g <= 4:
        # every count and order tuple is offered, the constructor's own
        # validation decides admissibility
        divisors = [v for v in range(2, 7) if 6 % v == 0]
        found = set()
        for a in range(5):
            for b in range(5):
                for m_orders in combinations_with_replacement(divisors, b):
                    for c in range(6):
                        for d in range(5):
                            for n_orders in combinations_with_replacement(
                                    divisors, d):
                                try:
                                    sig = CyclicSignature(
                                        6, a=a, c=c, m_orders=m_orders,
                                        n_orders=n_orders)
                                except ValueError:
                                    continue
                                if sig.g <= 4:
                                    found.add(sig)
        assert sorted(found, key=_sort_key) == enumerate_signatures(6, 4)


class TestIsomorphismType:
    def test_frozen_strings(self):
        assert isomorphism_type(CyclicSignature(2, a=2)) == "Z * Z"
        assert isomorphism_type(CyclicSignature(2, c=2)) == "Z_2 * Z_2"
        assert isomorphism_type(
            CyclicSignature(3, m_orders=(3,))) == "(Z + Z_3)"
        mixed = CyclicSignature(12, a=1, m_orders=(2, 6), c=1, n_orders=(4,))
        assert isomorphism_type(mixed) \
            == "Z * (Z + Z_2) * (Z + Z_6) * Z_2 * Z_4"

    def test_describe_record(self):
        mixed = CyclicSignature(12, a=1, m_orders=(2, 6), c=1, n_orders=(4,))
        assert describe(mixed) == (
            "g=40 a=1 b=2 c=1 d=1 m_orders=[2,6] n_orders=[4] "
            "K = Z * (Z + Z_2) * (Z + Z_6) * Z_2 * Z_4")

    def test_cached_text_equals_the_reference(self):
        # every record with n = 2..12 and g <= 20, formatted after a
        # cleared cache and again from a warm one
        records = 0
        for n in range(2, 13):
            for warm in (False, True):
                if not warm:
                    cyclic_case._order_text.cache_clear()
                g = 0
                for sig in stream_signatures(n, 20):
                    assert g <= sig.g <= 20
                    g = sig.g
                    assert describe(sig) == _reference_describe(sig)
                    assert isomorphism_type(sig) \
                        == _reference_isomorphism_type(sig)
                    records += 1
        assert records == 2 * sum(len(enumerate_signatures(n, 20))
                                  for n in range(2, 13))

    def test_text_cache_is_bounded(self):
        info = cyclic_case._order_text.cache_info()
        assert info.maxsize is not None and 0 < info.maxsize <= 4096
        cyclic_case._order_text.cache_clear()
        for n in (12, 9):
            for sig in stream_signatures(n, 40):
                describe(sig)
        info = cyclic_case._order_text.cache_info()
        assert info.currsize <= info.maxsize and info.hits > info.misses


class TestBuild:
    def test_single_loxodromic_leaf(self):
        built = build_cyclic(CyclicSignature(2, a=1))
        assert built.tree.kind == "leaf"
        report = built.rank_report()
        assert report.ok and report.kernel_rank == 1
        zero = built.theta.target.zero()
        assert built.theta.apply((("t1.L", 2),)) == zero
        assert built.theta.apply((("t1.L", 1),)) != zero

    def test_rank_one_abelian_leaf(self):
        built = build_cyclic(CyclicSignature(4, m_orders=(4,)))
        assert built.tree.kind == "leaf"
        report = built.rank_report()
        assert report.ok and report.kernel_rank == 1
        H = built.theta.target
        assert H.element_order(built.theta.images["h1.E"]) == 4
        # eta and theta_1 have the same exponent image, so eta theta^-1
        # descends to the kernel
        assert built.theta.apply((("h1.A", 1), ("h1.E", -1))) \
            == built.theta.target.zero()

    def test_two_elliptic_factors_certified(self):
        built = build_cyclic(CyclicSignature(3, n_orders=(3, 3)))
        assert built.tree.kind == "product"
        assert built.tree.certificates[-1].ok
        report = built.rank_report()
        assert report.ok and report.kernel_rank == 2

    def test_mixed_certified_build(self):
        sig = CyclicSignature(4, a=1, c=2, n_orders=(4,))
        built = build_cyclic(sig)
        assert len(built.groups) == sig.a + sig.b + sig.c + sig.d == 4
        report = built.rank_report()
        assert report.ok and report.kernel_rank == sig.g == 8
        assembled = assemble(built.tree)
        assert set(assembled.generators) \
            == {"t1.L", "g1.E", "g2.E", "e1.E"}
        # commutators die in the abelian quotient but not in the group
        word = (("t1.L", 1), ("e1.E", 1), ("t1.L", -1), ("e1.E", -1))
        assert built.theta.apply(word) == built.theta.target.zero()
        data = GroupData(assembled.model, assembled.generators)
        matrices = {elem: m for elem, _, m in data.elements(4).triples}
        for w in (word, (("t1.L", 4),)):
            elem = normal_form(built.tree, w)
            assert classify(matrices[elem]).kind == "loxodromic"

    def test_theta_orders_match_factor_orders(self):
        sig = CyclicSignature(12, a=1, m_orders=(2, 6), c=1, n_orders=(4,))
        built = build_cyclic(sig, certify=False)
        H = built.theta.target
        assert H.element_order(built.theta.images["h1.E"]) == 2
        assert H.element_order(built.theta.images["h2.E"]) == 6
        assert H.element_order(built.theta.images["g1.E"]) == 2
        assert H.element_order(built.theta.images["e1.E"]) == 4
        report = built.rank_report()
        assert report.ok and report.kernel_rank == 40

    def test_certified_and_fast_paths_agree(self):
        sig = CyclicSignature(4, a=1, c=2, n_orders=(4,))
        cert = build_cyclic(sig)
        fast = build_cyclic(sig, certify=False)
        for gc, gf in zip(cert.groups, fast.groups):
            assert set(gc.gens) == set(gf.gens)
            for name in gc.gens:
                assert projectively_equal(gc.gens[name], gf.gens[name])

    def test_fast_path_interns_leaves(self):
        sig = CyclicSignature(3, n_orders=(3, 3))
        first = build_cyclic(sig, certify=False)
        second = build_cyclic(sig, certify=False)
        assert all(x is y for x, y in zip(first.groups, second.groups))
        assert build_cyclic(sig).groups[0] is not first.groups[0]

    def test_over_tight_spacing_raises(self):
        with pytest.raises(CombinationError, match="placement failed"):
            build_cyclic(CyclicSignature(2, a=2), spacing=0.005)

    def test_certified_battery_small_domain(self):
        for n in range(2, 6):
            for sig in enumerate_signatures(n, 4):
                report = build_cyclic(sig).rank_report()
                assert report.ok, (sig, report.problems)
                assert report.kernel_rank == sig.g

    def test_rank_matches_genus_medium_domain(self):
        total = 0
        for n in range(2, 13):
            for sig in enumerate_signatures(n, 8):
                report = build_cyclic(sig, certify=False).rank_report()
                assert report.ok, (sig, report.problems)
                assert report.kernel_rank == sig.g
                total += 1
        assert total == 274

    def test_long_chain_walks_without_recursion(self):
        # a left-deep chain of 5001 leaves, far past the recursion limit
        sig = CyclicSignature(2, a=1, c=5000)
        built = build_cyclic(sig, certify=False)
        report = built.rank_report()
        assert report.ok and report.kernel_rank == sig.g == 5001
        assembled = assemble(built.tree)
        assert len(assembled.generators) == 5001
        assert len(assembled.relations) == 5000
        assert node_certificates(built.tree) == []
        assert str(_tree_signature(built.tree)) == \
            "(1;" + ",".join(["2"] * 10000) + ")"
        text = repr(built.tree)
        assert text.count("T1(n=2) (conjugated)") == 5000
        assert text.endswith("[free product])")
        with pytest.raises(ValueError,
                           match="product node carries no certificate"):
            sample(built.tree)

    def test_long_chain_normal_forms_without_recursion(self):
        # the 5001-leaf chain is one free product over 5001 factors, so
        # normal forms and depth-1 listings never nest 5000 models deep
        tree = build_cyclic(CyclicSignature(2, a=1, c=5000),
                            certify=False).tree
        model = symbolic_model(tree)
        assert isinstance(model, FreeProductModel)
        assert len(model.children) == 5001
        x = normal_form(tree, ["t1.L", "g1.E", "g5000.E", ("g5000.E", -1)])
        assert x == model.multiply(model.generators()["t1.L"],
                                   model.generators()["g1.E"])
        assert model.is_identity(
            normal_form(tree, ["g5000.E", "g1.E", "g1.E", "g5000.E"]))
        # identity, t1.L and its inverse, one element per involution
        assert len(enumerate_elements(model, 1).elements) == 5003
        listed = GroupData.from_node(tree).elements(1)
        assert len(listed.triples) == 5003 and not listed.exhausted
