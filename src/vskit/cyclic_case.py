"""Cyclic-quotient signatures and their geometric realizations.

A virtual Schottky group K whose quotient by its Schottky kernel is
Z_n splits, by Klein-Maskit combination, as a free product of four
kinds of factors: `a` loxodromic cyclic groups <tau_j>, `b` rank-one
abelian groups <eta_j, theta_j> = Z + Z_{m_j}, `c` involution groups
<gamma_j>, and `d` elliptic cyclic groups <epsilon_j> of order n_j.
The kernel is then a free (Schottky) group of rank

    g = n (a + b + c/2 + d - 1) + 1 - n sum_j 1/n_j,

and surjectivity of the exponent map K -> Z_n pins the counts to one
of three admissibility clauses.  This module enumerates the admissible
signatures for a given n and realizes each one as a chain of basic
groups along the real axis, with the exponent map attached.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product

from .basic_groups import make_basic
from .combination import (Leaf, PlacementChain, station_frame,
                          uncertified_free_product)
from .group_algebra import FiniteAbelianGroup, QuotientMap, kernel_rank

__all__ = ["CyclicSignature", "CyclicConstruction", "kernel_genus",
           "stream_signatures", "enumerate_signatures",
           "build_cyclic", "isomorphism_type", "describe"]


def _check_count(value, tag, low=0):
    if not isinstance(value, int) or isinstance(value, bool) or value < low:
        raise ValueError(f"{tag} must be an integer >= {low}")
    return value


def kernel_genus(n, a, b, c, n_orders):
    """Exact rank n(a+b+c/2+d-1) + 1 - sum_j n/n_j of the kernel.

    d is the length of n_orders; the m-orders of the rank-one abelian
    factors enter only through their count b.
    """
    g = Fraction(2 * n * (a + b + len(n_orders) - 1) + n * c + 2, 2)
    for v in n_orders:
        g -= Fraction(n, v)
    return g


def _admissibility_problems(n, a, b, c, n_orders):
    problems = []
    if c > 0 and n % 2:
        problems.append("involution count c > 0 requires even n")
    if a + b > 0:
        return problems
    cofactors = [n // v for v in n_orders]
    if c > 0:
        if math.gcd(n // 2, *cofactors) != 1:
            problems.append(
                "a = b = 0 < c needs GCD(n/2, n/n_1, ..., n/n_d) = 1")
    elif math.gcd(*cofactors) != 1:
        problems.append("a = b = c = 0 needs GCD(n/n_1, ..., n/n_d) = 1")
    return problems


@dataclass(frozen=True, slots=True)
class CyclicSignature:
    """Admissible factor counts for a virtual Schottky group over Z_n.

    `a` counts loxodromic cyclic factors, m_orders lists the torsion
    orders of the rank-one abelian factors Z + Z_m (so b is its length),
    `c` counts involution factors, and n_orders lists elliptic factor
    orders in {3, ..., n} (so d is its length); every listed order must
    divide n.  Admissibility requires exactly one of: (1) a + b > 0;
    (2) a = b = 0 < c and GCD(n/2, n/n_1, ..., n/n_d) = 1; (3)
    a = b = c = 0 and GCD(n/n_1, ..., n/n_d) = 1, with c > 0 only for
    even n.  These are the conditions making the exponent map onto Z_n
    surjective with torsion-free kernel; they also force the genus g to
    be a nonnegative integer.

    The constructor validates all of this and sorts the order tuples.
    Records from `stream_signatures` are built without that step, from
    fields the enumerator has already established; they equal the
    records the constructor would build.
    """

    n: int
    a: int = 0
    c: int = 0
    m_orders: tuple = ()
    n_orders: tuple = ()
    _g: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_count(self.n, "n", 2)
        _check_count(self.a, "a")
        _check_count(self.c, "c")
        for attr, low, tag in (("m_orders", 2, "m"), ("n_orders", 3, "n")):
            orders = tuple(sorted(getattr(self, attr)))
            for v in orders:
                _check_count(v, f"{tag}_j")
                if not low <= v <= self.n or self.n % v:
                    raise ValueError(
                        f"{tag}_j = {v} must lie in {{{low}, ..., {self.n}}}"
                        f" and divide n = {self.n}")
            object.__setattr__(self, attr, orders)
        problems = _admissibility_problems(self.n, self.a, self.b, self.c,
                                           self.n_orders)
        # orders divide n here, so twice the genus is an even integer
        twice = 2 * self.n * (self.a + self.b + self.d - 1) \
            + self.n * self.c + 2 - 2 * sum(self.n // v
                                            for v in self.n_orders)
        if twice % 2 or twice < 0:
            problems.append(
                f"genus {Fraction(twice, 2)} is not a nonnegative integer")
        if problems:
            raise ValueError("; ".join(problems))
        object.__setattr__(self, "_g", twice // 2)

    @classmethod
    def _trusted(cls, n, a, c, m_orders, n_orders, g):
        """Build a record from fields already known to be admissible.

        Skips __post_init__; for the enumerator only (see
        `stream_signatures` for why its fields need no check).
        """
        obj = cls.__new__(cls)
        set_slot = object.__setattr__
        set_slot(obj, "n", n)
        set_slot(obj, "a", a)
        set_slot(obj, "c", c)
        set_slot(obj, "m_orders", m_orders)
        set_slot(obj, "n_orders", n_orders)
        set_slot(obj, "_g", g)
        return obj

    @property
    def b(self):
        return len(self.m_orders)

    @property
    def d(self):
        return len(self.n_orders)

    @property
    def g(self):
        return self._g

    @property
    def clause(self):
        """Which admissibility clause the counts satisfy (1, 2 or 3)."""
        if self.a + self.b > 0:
            return 1
        return 2 if self.c > 0 else 3

    @property
    def elementary(self):
        """Kernel rank 0 or 1; the group is elementary, not Schottky-like."""
        return self.g <= 1


def stream_signatures(n, g_max):
    """Every admissible signature over Z_n with genus at most g_max, lazily.

    The arguments are checked at the call, before any record.  Records
    then come in (g, a, b, c, d, m_orders, n_orders) order, one genus
    shell g = 0, ..., g_max at a time as `_shell_fields` generates it (no
    shell is sorted), so the stream holds the field tuples of one shell,
    and of the next while that is built.

    Each record is built once, without re-running the constructor's
    validation: its order tuples are drawn sorted from the divisors of n
    in range, its counts pass the admissibility clauses before it is
    kept, and its genus is the shell's g, so the checks could only pass.
    """
    _check_count(n, "n", 2)
    _check_count(g_max, "g_max")
    make = CyclicSignature._trusted
    return (make(n, a, c, m_orders, n_orders, g)
            for g, fields in enumerate(_shell_fields(n, g_max))
            for a, _, c, _, m_orders, n_orders in fields)


def _shell_fields(n, g_max):
    """Each genus shell's (a, b, c, d, m_orders, n_orders) tuples, in order.

    One list per g = 0, ..., g_max, generated already sorted: a, then b,
    then c ascend in the loops, and for one (a, b, c) the elliptic-order
    tuples making up the rest of twice the genus are kept grouped by d,
    each group in lexicographic order, so the records run d group by d
    group, m_orders within d, n_orders within m_orders.  Complete: each
    unit of a or b adds n to the genus, each involution adds n/2 and
    each elliptic factor of order v adds n - n/v.  The elliptic-order
    combinations are built only up to the d that the current shell
    needs.  Only a = b = 0 can fail admissibility: with a + b > 0 the
    one clause left is "c > 0 needs even n", and odd n has no c > 0.
    """
    m_divs = [m for m in range(2, n + 1) if n % m == 0]
    e_divs = [v for v in range(3, n + 1) if n % v == 0]
    # share of twice the genus -> [(d, the d-tuples of elliptic orders
    # adding it, in lexicographic order)], ascending in d
    e_groups = {0: [(0, [()])]}
    built_d = 0
    m_combos = {}
    for g in range(g_max + 1):
        shell = []  # the previous shell dropped before this one is built
        # a d-tuple's share is at least d * 2 (n - n/min order), and a
        # shell needs shares up to 2g + 2n - 2 (a = b = c = 0)
        need_d = (g + n - 1) // (n - n // e_divs[0]) if e_divs else 0
        while built_d < need_d:
            built_d += 1
            for orders in combinations_with_replacement(e_divs, built_d):
                share = 2 * n * built_d - 2 * sum(n // v for v in orders)
                groups = e_groups.setdefault(share, [])
                if not groups or groups[-1][0] != built_d:
                    groups.append((built_d, []))
                groups[-1][1].append(orders)
        amax = (g - 1) // n + 1
        # per a + b: the (c, d, elliptic-order tuples) completing twice
        # the genus, ascending in c then d
        rests = []
        for s in range(amax + 1):
            base = 2 * n * (s - 1) + 2  # twice the c=d=0 genus
            cmax = (2 * g - base) // n if n % 2 == 0 else 0
            rests.append([(c, d, group) for c in range(cmax + 1)
                          for d, group in e_groups.get(2 * g - base - n * c,
                                                       ())])
        # a = b = 0, the one case the admissibility clauses can reject
        shell += [(0, 0, c, d, (), orders) for c, d, group in rests[0]
                  for orders in group
                  if not _admissibility_problems(n, 0, 0, c, orders)]
        for a in range(amax + 1):
            for b in range(1 if a == 0 else 0, amax - a + 1):
                if b not in m_combos:
                    m_combos[b] = list(
                        combinations_with_replacement(m_divs, b))
                m_list = m_combos[b]
                for c, d, group in rests[a + b]:
                    shell += product((a,), (b,), (c,), (d,), m_list, group)
        yield shell


def enumerate_signatures(n, g_max):
    """Every admissible signature over Z_n with genus at most g_max.

    The list of `stream_signatures(n, g_max)`: complete, deterministic,
    in (g, a, b, c, d, m_orders, n_orders) order.  Built one genus shell
    at a time, each generated in order; use the stream itself to keep
    memory bounded by a shell.
    """
    return list(stream_signatures(n, g_max))


@lru_cache(maxsize=4096)
def _order_text(orders, kind):
    """The comma list of one order tuple and its factors of K.

    kind is "m" for the orders of the rank-one abelian factors Z + Z_m,
    "n" for the elliptic ones.  Each factor comes followed by " * ", so
    `_k_text` joins the pieces by concatenation; an empty tuple gives
    two empty strings.  An enumeration repeats few order tuples across
    many records (at most 1548 for `enumerate-cyclic 12 80`, against
    111k records), so the text is built once per tuple; the bound keeps
    a long-running process from holding every tuple ever formatted.
    """
    form = "(Z + Z_{}) * " if kind == "m" else "Z_{} * "
    return ",".join(map(str, orders)), "".join(map(form.format, orders))


def _k_text(a, m_factors, c, n_factors):
    """K as "Z" a times, the m factors, "Z_2" c times, the n factors.

    The factor texts are `_order_text`'s, each factor ending in " * ";
    an admissible signature has at least one factor, so the last
    separator is there to cut.
    """
    return f"{'Z * ' * a}{m_factors}{'Z_2 * ' * c}{n_factors}"[:-3]


def isomorphism_type(sig):
    """Canonical free-product expression for the group, as a string."""
    return _k_text(sig.a, _order_text(sig.m_orders, "m")[1], sig.c,
                   _order_text(sig.n_orders, "n")[1])


def _line(g, a, b, c, d, m_orders, n_orders):
    """The enumeration record of one signature's fields, without newline.

    The order lists and the factors they contribute to K come from a
    bounded cache keyed on the order tuple, so a listing formats each
    distinct tuple once.
    """
    m_list, m_factors = _order_text(m_orders, "m")
    n_list, n_factors = _order_text(n_orders, "n")
    line = (f"g={g} a={a} b={b} c={c} d={d} m_orders=[{m_list}] "
            f"n_orders=[{n_list}] K = {_k_text(a, m_factors, c, n_factors)}")
    return line + " [elementary]" if g <= 1 else line


def describe(sig):
    """One-line record for enumeration listings."""
    return _line(sig._g, sig.a, len(sig.m_orders), sig.c, len(sig.n_orders),
                 sig.m_orders, sig.n_orders)


@dataclass(frozen=True)
class CyclicConstruction:
    """A realized signature: placed leaves, their tree, the exponent map."""

    signature: CyclicSignature
    tree: object
    theta: QuotientMap
    groups: tuple

    def rank_report(self):
        return kernel_rank(self.tree, self.theta)


# the multiplier lambda of every loxodromic generator placed
LEAF_MULTIPLIER = 4.0


def _leaf_specs(sig):
    """(make_basic kwargs, theta images) per leaf, in order."""
    specs = []
    for j in range(1, sig.a + 1):
        specs.append((dict(btype="T2", lam=LEAF_MULTIPLIER, prefix=f"t{j}."),
                      {f"t{j}.L": (1,)}))
    for j, m in enumerate(sig.m_orders, start=1):
        specs.append((dict(btype="T4", n=m, lam=LEAF_MULTIPLIER,
                           prefix=f"h{j}."),
                      {f"h{j}.A": (1,), f"h{j}.E": (sig.n // m,)}))
    for j in range(1, sig.c + 1):
        specs.append((dict(btype="T1", n=2, prefix=f"g{j}."),
                      {f"g{j}.E": (sig.n // 2,)}))
    for j, v in enumerate(sig.n_orders, start=1):
        specs.append((dict(btype="T1", n=v, prefix=f"e{j}."),
                      {f"e{j}.E": (sig.n // v,)}))
    return specs


# Placed leaves recur endlessly across an enumeration sweep (same type,
# same prefix, same station), so the uncertified path interns them.  The
# nodes are immutable and conjugated copies, safe to share between trees.
_STATION_CACHE = {}


def _station_leaf(kwargs, station, spacing):
    key = (tuple(sorted(kwargs.items())), station, spacing)
    node = _STATION_CACHE.get(key)
    if node is None:
        group = make_basic(**kwargs)
        frame = station_frame(2.0 * spacing * station,
                              group.standard_scale())
        node = Leaf(group.conjugated_by(frame))
        _STATION_CACHE[key] = node
    return node


def build_cyclic(sig, spacing=3.0, depth=6, certify=True):
    """Realize the signature as a chain of basic groups along the real axis.

    Leaves are placed left to right: `a` loxodromic cyclic leaves (the
    tau_j), `b` rank-one abelian leaves with torsion orders m_j (the
    eta_j, theta_j pairs), `c` involution leaves (the gamma_j), `d`
    elliptic leaves of orders n_j (the epsilon_j).  The exponent map
    sends every loxodromic generator to 1 and a torsion generator of
    order k to n/k, which has order exactly k in Z_n, so the kernel
    stays torsion-free; the admissibility clauses make the map onto.
    Certified placement retries with doubled gaps on certificate
    failure, then raises CombinationError; certify=False skips the
    hypothesis checks and shares interned leaves between builds.
    Unchecked, it uses the certified first-attempt placement as is, and
    that placement fails a junction for about 7% of AC3 chains (54 of
    every hundredth signature's 735), so such a tree need not be a
    Klein-Maskit combination; its kernel rank, being symbolic, is the
    same either way.
    """
    specs = _leaf_specs(sig)
    images = {}
    for _, leaf_images in specs:
        images.update(leaf_images)
    theta = QuotientMap(FiniteAbelianGroup((sig.n,)), images)
    if certify:
        chain = PlacementChain(spacing=spacing, depth=depth)
        for kwargs, _ in specs:
            chain.append(make_basic(**kwargs))
        return CyclicConstruction(sig, chain.node, theta,
                                  tuple(chain.groups))
    leaves = [_station_leaf(kwargs, station, spacing)
              for station, (kwargs, _) in enumerate(specs)]
    node = leaves[0] if len(leaves) == 1 else uncertified_free_product(*leaves)
    return CyclicConstruction(sig, node, theta,
                              tuple([leaf.group for leaf in leaves]))
