"""Symbolic layer: words, normal forms, quotients, and kernel ranks.

Groups are modeled structurally.  A leaf group is a semidirect product
F_r x| T of a free group by a finite abelian group acting by inverting
some free generators; its elements (w, t) are already normal forms.
Internal nodes are free products and HNN extensions.  A
trivial-amalgam product node is one free product over all its factors,
as the paper writes K = K_1 * ... * K_k: its elements are alternating
(factor index, syllable) sequences.  A product amalgamated over a
shared involution has two factors and uses coset representatives.
Either way the normal form is canonical, so identity testing and
deduplication are exact, not numerical.

Ranks of kernels of quotient maps onto finite abelian groups come from
the Euler characteristic: chi is additive over free products (minus the
amalgam's chi) and an HNN extension subtracts the edge group's chi; for
a finite-index subgroup, chi multiplies by the index, and a free group
of rank r has chi = 1 - r.  Hence kernel_rank = 1 - |H| * chi.
"""

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
import itertools
import math


class UnsupportedSymbolicError(NotImplementedError):
    """The symbolic model does not cover this construction shape."""


# ---------------------------------------------------------------------------
# finite abelian groups


class FiniteAbelianGroup:
    """Z_{d1} x ... x Z_{dk}; elements are exponent tuples mod d_i.

    >>> H = FiniteAbelianGroup((2, 2))
    >>> H.add((1, 0), (1, 1))
    (0, 1)
    >>> H.order
    4
    >>> H.element_order((1, 1))
    2
    >>> FiniteAbelianGroup((6,)).label()
    'Z_6'
    """

    def __init__(self, orders):
        orders = tuple(int(d) for d in orders)
        if any(d < 2 for d in orders):
            raise ValueError("cyclic orders must be at least 2")
        self.orders = orders

    @property
    def order(self):
        return math.prod(self.orders)

    def zero(self):
        return (0,) * len(self.orders)

    def add(self, x, y):
        return tuple((a + b) % d for a, b, d in zip(x, y, self.orders))

    def neg(self, x):
        return tuple((-a) % d for a, d in zip(x, self.orders))

    def scale(self, k, x):
        return tuple((k * a) % d for a, d in zip(x, self.orders))

    def element(self, x):
        x = tuple(int(a) for a in x)
        if len(x) != len(self.orders):
            raise ValueError("wrong exponent-vector length")
        return tuple(a % d for a, d in zip(x, self.orders))

    def elements(self):
        return itertools.product(*(range(d) for d in self.orders))

    def element_order(self, x):
        out = 1
        for a, d in zip(x, self.orders):
            out = math.lcm(out, d // math.gcd(a, d))
        return out

    def subgroup(self, generators):
        """All elements generated by the given ones (BFS closure)."""
        generators = set(generators)     # repeats add nothing to the closure
        seen = {self.zero()}
        frontier = [self.zero()]
        while frontier:
            nxt = []
            for x in frontier:
                for g in generators:
                    y = self.add(x, g)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return seen

    def label(self):
        if not self.orders:
            return "trivial"
        return " x ".join(f"Z_{d}" for d in self.orders)

    def __eq__(self, other):
        return isinstance(other, FiniteAbelianGroup) and \
            self.orders == other.orders

    def __hash__(self):
        return hash(self.orders)

    def __repr__(self):
        return f"FiniteAbelianGroup({self.orders})"


# ---------------------------------------------------------------------------
# leaf groups: F_r x| T with T acting by inversions


def reduce_word(letters):
    """Freely reduce a sequence of nonzero signed generator indices."""
    out = []
    for x in letters:
        if x == 0:
            raise ValueError("letters are nonzero signed indices")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


class LeafSymbolic:
    """Symbolic group F_r x| T, T finite abelian acting by sign flips.

    Elements are pairs (word, t): a reduced word over signed free-generator
    indices (1-based) times a torsion exponent vector.  Multiplication is
    (w1, t1)(w2, t2) = (w1 * phi_{t1}(w2), t1 + t2), where phi_t inverts
    the free generators whose action sign under t is -1.  The pair itself
    is a normal form, so equality is structural.
    """

    def __init__(self, free_names, torsion, torsion_names, action):
        self.free_names = tuple(free_names)
        self.torsion = torsion
        self.torsion_names = tuple(torsion_names)
        if len(self.torsion_names) != len(torsion.orders):
            raise ValueError("one name per cyclic factor required")
        action = tuple(tuple(row) for row in action)
        if len(action) != len(torsion.orders):
            raise ValueError("one action row per torsion generator")
        for row in action:
            if len(row) != len(self.free_names) or \
                    any(s not in (1, -1) for s in row):
                raise ValueError("action rows are +-1 signs per free generator")
        self.action = action

    @property
    def rank(self):
        return len(self.free_names)

    def identity(self):
        return ((), self.torsion.zero())

    def is_identity(self, x):
        return not x[0] and not any(x[1])

    def signs(self, t):
        """Per-free-generator sign of the action of torsion element t."""
        out = [1] * self.rank
        for row, e in zip(self.action, t):
            if e % 2:
                for j, s in enumerate(row):
                    if s < 0:
                        out[j] = -out[j]
        return out

    def _twist(self, t, word):
        signs = self.signs(t)
        return tuple(x * signs[abs(x) - 1] for x in word)

    def multiply(self, x, y):
        w1, t1 = x
        w2, t2 = y
        if w2:
            w1 = reduce_word(w1 + self._twist(t1, w2))
        return (w1, self.torsion.add(t1, t2))

    def inverse(self, x):
        w, t = x
        nt = self.torsion.neg(t)
        back = tuple(-l for l in reversed(w))
        return (self._twist(nt, back), nt)

    def generators(self):
        """Name -> element for the free and torsion generators."""
        out = {}
        for j, name in enumerate(self.free_names, start=1):
            out[name] = ((j,), self.torsion.zero())
        for i, name in enumerate(self.torsion_names):
            t = [0] * len(self.torsion.orders)
            t[i] = 1
            out[name] = ((), tuple(t))
        return out

    def relations(self):
        """Defining relators as words of (name, exponent) letters: (t, d)
        for each torsion generator t of order d, the commutator of each
        pair of torsion generators, then t f t^-1 f^-s for each torsion
        generator t and free generator f on which t acts by the sign s.
        Every relator but the first kind is t x t^-1 x^e: t x t^-1 = x^-e.
        """
        names = self.torsion_names
        rels = [((t, d),) for t, d in zip(names, self.torsion.orders)]
        for i, t1 in enumerate(names):
            for t2 in names[i + 1:]:
                rels.append(((t1, 1), (t2, 1), (t1, -1), (t2, -1)))
        for t, row in zip(names, self.action):
            for f, sign in zip(self.free_names, row):
                rels.append(((t, 1), (f, 1), (t, -1), (f, -sign)))
        return rels

    def __repr__(self):
        return (f"LeafSymbolic(free={self.free_names}, "
                f"torsion={self.torsion.label()})")


# ---------------------------------------------------------------------------
# free products: n factors, or two amalgamated over an involution


class FreeProductModel:
    """Normal forms in K_1 * ... * K_k, or in K_1 *_H K_2 with H of order 2.

    An element is (syllables, pend).  syllables is a tuple of (factor
    index, syllable) pairs, each syllable a nontrivial element of its
    factor and neighbouring indices distinct: the free-product normal
    form (R. Lyndon and P. Schupp, Combinatorial Group Theory, IV.1).
    Multiplying by a generator only touches the last syllable, so a
    chain of k leaves is one model over k factors, not k nested ones.
    An amalgamated product has two factors; each syllable is the smaller
    of {g, g*u}, the canonical representative of its coset of H = <u>,
    and pend marks a trailing factor u (J.-P. Serre, Trees, I.1).
    Without an amalgam pend is always 0.
    """

    def __init__(self, factors, amalgam=None):
        self.children = tuple(factors)
        self.amalgam = amalgam        # None or (u_left, u_right)
        if amalgam is not None:
            if len(self.children) != 2:
                raise ValueError("an amalgamated product has two factors")
            for child, u in zip(self.children, amalgam):
                if child.is_identity(u):
                    raise ValueError("amalgam element must be nontrivial")
                if not child.is_identity(child.multiply(u, u)):
                    raise ValueError("amalgam element must be an involution")

    def identity(self):
        return ((), 0)

    def is_identity(self, x):
        return x == ((), 0)

    def _fold(self, out, pend, stream):
        """Append (index, element) syllables to the normal form (out, pend)."""
        children = self.children
        amalgam = self.amalgam
        for side, g in stream:
            child = children[side]
            if pend:
                g = child.multiply(amalgam[side], g)
                pend = 0
            if out and out[-1][0] == side:
                g = child.multiply(out.pop()[1], g)
            if child.is_identity(g):
                continue
            if amalgam is not None:
                # elements of one factor are tuples of one shape, so plain
                # tuple order picks the same member of each coset every time
                alt = child.multiply(g, amalgam[side])
                if alt < g:
                    g, pend = alt, 1
                    if child.is_identity(g):
                        continue
            out.append((side, g))
        return (tuple(out), pend)

    def multiply(self, x, y):
        syllables, pend = y
        if pend:
            syllables += ((0, self.amalgam[0]),)
        return self._fold(list(x[0]), x[1], syllables)

    def inverse(self, x):
        syllables, pend = x
        stream = [(0, self.amalgam[0])] if pend else []
        for side, g in reversed(syllables):
            stream.append((side, self.children[side].inverse(g)))
        return self._fold([], 0, stream)

    def embed(self, side, g):
        return self._fold([], 0, ((side, g),))

    def generators(self):
        out = {}
        for side, child in enumerate(self.children):
            for name, g in child.generators().items():
                if name in out:
                    raise ValueError(f"duplicate generator name {name!r}")
                out[name] = self.embed(side, g)
        return out

    def __repr__(self):
        kind = "amalgamated" if self.amalgam else "free"
        return f"FreeProductModel({kind}, {len(self.children)} factors)"


class HnnModel:
    """Normal forms for the HNN shapes the toolkit constructs.

    Covered: trivial base with trivial edge (the group is Z), and a purely
    torsion abelian base with the full base as edge group and a stable
    letter acting trivially (the group is Z x T).  Anything else raises
    UnsupportedSymbolicError; geometric certificates are unaffected.
    """

    def __init__(self, base, stable_name, edge_is_full_base):
        self.base = base
        self.stable_name = stable_name
        if base is None:
            self.shape = "free"
        elif isinstance(base, LeafSymbolic) and base.rank == 0 \
                and edge_is_full_base:
            self.shape = "central"
        else:
            raise UnsupportedSymbolicError(
                "symbolic normal forms cover only trivial bases or full "
                "torsion edge groups with a commuting stable letter")

    def identity(self):
        if self.shape == "free":
            return 0
        return (0, self.base.identity())

    def is_identity(self, x):
        return x == self.identity()

    def multiply(self, x, y):
        if self.shape == "free":
            return x + y
        return (x[0] + y[0], self.base.multiply(x[1], y[1]))

    def inverse(self, x):
        if self.shape == "free":
            return -x
        return (-x[0], self.base.inverse(x[1]))

    def generators(self):
        if self.shape == "free":
            return {self.stable_name: 1}
        out = {name: (0, g) for name, g in self.base.generators().items()}
        if self.stable_name in out:
            raise ValueError(f"duplicate generator name {self.stable_name!r}")
        out[self.stable_name] = (1, self.base.identity())
        return out

    def __repr__(self):
        return f"HnnModel(shape={self.shape})"


# ---------------------------------------------------------------------------
# construction-tree walks


def walk_tree(tree):
    """Yield every node of a construction tree once, without recursion.

    Order guarantee: post-order, children before their parent and
    factors in order (an HNN node after its base).  Composite leaves
    (groups carrying their own .tree, like the B3 amalgams) are yielded
    as leaves and not entered; walk_expanded enters them.  This is the
    only code that goes down a tree through .factors and .base; every
    other walk is a loop over it.  Folds keep a stack of values: a leaf
    pushes, a product pops one per factor, an HNN node pops its base if
    it has one.
    """
    # a pre-order that visits the factors last to first, reversed, is the
    # first-to-last post-order
    order = []
    stack = [tree]
    while stack:
        node = stack.pop()
        order.append(node)
        kind = node.kind
        if kind == "product":
            stack.extend(node.factors)
        elif kind == "hnn":
            if node.base is not None:
                stack.append(node.base)
        elif kind != "leaf":
            raise ValueError(f"unknown node kind {kind!r}")
    yield from reversed(order)


def symbolic_model(tree):
    """Build the group model for a construction tree.

    Leaves carry their own LeafSymbolic.  A product node becomes one
    FreeProductModel over its factors' models, with an amalgam's
    involution embedded on each side; HNN nodes use the covered shapes.
    """
    values = []
    for node in walk_tree(tree):
        if node.kind == "leaf":
            values.append(node.group.symbolic)
        elif node.kind == "product":
            k = len(node.factors)
            values[-k:] = [FreeProductModel(values[-k:],
                                            node.amalgam_elements)]
        elif node.base is None:
            values.append(HnnModel(None, node.stable_name, False))
        else:
            values.append(HnnModel(values.pop(), node.stable_name,
                                   node.edge_is_full_base))
    return values.pop()


def walk_expanded(tree):
    """walk_tree, with each composite leaf (a group built from its own
    sub-tree, like the B3 amalgams) replaced by the walk of that sub-tree.
    A stack holds one walk per composite leaf entered, not a recursion.
    """
    walks = [walk_tree(tree)]
    while walks:
        for node in walks[-1]:
            inner = getattr(node.group, "tree", None) \
                if node.kind == "leaf" else None
            if inner is not None:
                walks.append(walk_tree(inner))
                break
            yield node
        else:
            walks.pop()


def euler_characteristic(tree):
    """Rational chi of the tree group.

    Free product of k factors over amalgam H: chi = the sum of the
    factors' chi - (k - 1) chi(H); HNN over edge H: chi = chi_base -
    chi(H); chi(trivial) = 1 and chi(Z_m) = 1/m.  Leaves carry
    chi = (1 - rank)/index directly.  Unrolled, chi is the sum of the
    leaf terms minus one edge term per junction (plus 1 per HNN over the
    trivial base), so the walk sums integer numerators per denominator
    and forms one Fraction sum.
    """
    numerators = defaultdict(int)
    for node in walk_tree(tree):
        if node.kind == "leaf":
            chi = node.group.chi
            numerators[chi.denominator] += chi.numerator
        elif node.kind == "product":
            numerators[node.amalgam_order] -= len(node.factors) - 1
        else:
            if node.base is None:
                numerators[1] += 1
            numerators[node.edge_order] -= 1
    return sum(Fraction(n, d) for d, n in numerators.items())


def normal_form(tree, word):
    """Canonical form of a word given as (name, exponent) pairs.

    The empty form is exactly the identity.  Plain generator names are
    accepted as shorthand for exponent 1.
    """
    model = symbolic_model(tree)
    gens = model.generators()
    x = model.identity()
    for item in word:
        if isinstance(item, str):
            name, exp = item, 1
        else:
            name, exp = item
        if name not in gens:
            raise KeyError(f"unknown generator {name!r}")
        g = gens[name]
        if exp < 0:
            g = model.inverse(g)
            exp = -exp
        for _ in range(exp):
            x = model.multiply(x, g)
    return x


@dataclass(frozen=True)
class EnumerationResult:
    """BFS listing of group elements by shortest word, by position.

    elements are canonical elements in BFS order, the identity first.
    Element i + 1 is element parents[i] times step steps[i], where step
    2j is generator j of the model's generators() and 2j + 1 its inverse,
    so following parents back to the identity spells a shortest word.
    """

    elements: tuple
    parents: tuple
    steps: tuple
    exhausted: bool
    depth_completed: int


def enumerate_elements(model, depth, max_count=None):
    """BFS over products of generators, deduplicated by normal form.

    Each level multiplies the previous level's elements, in order, by
    each generator and then its inverse, in generators() order, and keeps
    the products not seen before.  exhausted means the BFS closed before
    the depth bound, i.e. the generated group is finite and fully listed.
    With max_count set, the walk stops after the last fully completed
    level that fits the budget; depth_completed records how far it got.
    """
    moves = []
    for g in model.generators().values():
        moves += (g, model.inverse(g))
    elements = [model.identity()]
    seen = set(elements)
    parents = []
    steps = []
    begin = 0                   # the last level is elements[begin:]
    exhausted = False
    depth_completed = 0
    for level in range(1, depth + 1):
        end = len(elements)
        if max_count is not None and \
                end + (end - begin) * len(moves) > max_count:
            break
        for parent in range(begin, end):
            x = elements[parent]
            for step, g in enumerate(moves):
                y = model.multiply(x, g)
                if y not in seen:
                    seen.add(y)
                    elements.append(y)
                    parents.append(parent)
                    steps.append(step)
        depth_completed = level
        if len(elements) == end:
            exhausted = True
            depth_completed = depth
            break
        begin = end
    return EnumerationResult(tuple(elements), tuple(parents), tuple(steps),
                             exhausted, depth_completed)


# ---------------------------------------------------------------------------
# quotient maps and kernel rank


@dataclass
class QuotientMap:
    """Generator-name -> element of a finite abelian target group."""

    target: FiniteAbelianGroup
    images: dict

    def image_of(self, name):
        if name not in self.images:
            raise KeyError(f"unknown generator {name!r}")
        return self.images[name]

    def apply(self, word):
        total = self.target.zero()
        for item in word:
            if isinstance(item, str):
                name, exp = item, 1
            else:
                name, exp = item
            total = self.target.add(
                total, self.target.scale(exp, self.image_of(name)))
        return total


@dataclass
class RankReport:
    chi: Fraction
    order_h: int
    kernel_rank: int
    surjective: bool
    kernel_torsion_free: bool
    problems: list = field(default_factory=list)

    @property
    def ok(self):
        return self.surjective and self.kernel_torsion_free \
            and not self.problems

    def lines(self):
        out = [f"chi(K) = {self.chi}",
               f"|H| = {self.order_h}",
               f"kernel rank = {self.kernel_rank}",
               f"theta surjective: {'yes' if self.surjective else 'NO'}",
               "kernel torsion-free: "
               + ("yes" if self.kernel_torsion_free else "NO")]
        out.extend(f"problem: {p}" for p in self.problems)
        return out


def validate_theta(tree, theta):
    """Check theta against the tree's relations.

    Verifies: every generator has an image, and every image belongs to a
    generator of the tree (a leaf generator or a stable letter); torsion
    generators map to elements of compatible order; free generators
    inverted by some torsion element map to elements of order at most 2;
    amalgamated generators have equal images; theta is injective on every
    leaf's torsion subgroup (otherwise the kernel has torsion and cannot
    be free).  Returns (problems, torsion_free).
    """
    problems, torsion_free, _ = _theta_check(tree, theta)
    return problems, torsion_free


def _theta_check(tree, theta):
    """validate_theta's (problems, torsion_free), plus the images of the
    tree's own generators, in the order theta lists them.  One walk, with
    composite leaves expanded so that their amalgams are checked too;
    leaf problems come first, then amalgam problems, then stray images.
    """
    problems = []
    amalgam_problems = []
    torsion_free = True
    H = theta.target
    generators = set()
    for node in walk_expanded(tree):
        if node.kind == "hnn":
            generators.add(node.stable_name)
            continue
        if node.kind == "product":
            if node.amalgam_images is None:
                continue
            words = node.amalgam_images
            # a missing image is reported with its leaf
            if all(name in theta.images
                   for word in words for name, _ in word) and \
                    theta.apply(words[0]) != theta.apply(words[1]):
                amalgam_problems.append(
                    "amalgamated generators have unequal images")
            continue
        sym = node.group.symbolic
        names = node.group.generator_names
        generators.update(names)
        for name in names:
            if name not in theta.images:
                problems.append(f"generator {name!r} has no image")
        if any(name not in theta.images for name in names):
            continue
        # torsion orders must be respected
        for i, tname in enumerate(sym.torsion_names):
            d = sym.torsion.orders[i]
            if d % H.element_order(theta.images[tname]) != 0:
                problems.append(
                    f"theta({tname}) has order not dividing {d}")
        # inverted free generators must land in 2-torsion
        for j, fname in enumerate(sym.free_names):
            inverted = any(row[j] < 0 for row in sym.action)
            img = theta.images[fname]
            if inverted and H.add(img, img) != H.zero():
                problems.append(
                    f"theta({fname}) must be 2-torsion: some torsion "
                    f"generator conjugates {fname} to its inverse")
        # injectivity on the leaf's torsion subgroup
        seen = {}
        for t in sym.torsion.elements():
            img = H.zero()
            for i, e in enumerate(t):
                img = H.add(
                    img, H.scale(e, theta.images[sym.torsion_names[i]]))
            if img in seen and seen[img] != t:
                torsion_free = False
                problems.append(
                    f"theta is not injective on the torsion of leaf "
                    f"{node.group.label}: kernel would contain torsion")
                break
            seen[img] = t
    problems.extend(amalgam_problems)
    images = []
    for name, img in theta.images.items():
        if name in generators:
            images.append(img)
        else:
            problems.append(f"theta has an image for {name!r}, which is "
                            "not a generator")
    return problems, torsion_free, images


def kernel_rank(tree, theta, force=False):
    """RankReport for the kernel of theta on the tree group.

    kernel_rank = 1 - |H| * chi(K).  Refuses non-surjective theta unless
    force is set, in which case H is replaced by the image subgroup.
    Only the images of the tree's own generators count towards the
    image subgroup.
    """
    problems, torsion_free, images = _theta_check(tree, theta)
    H = theta.target
    order_h = len(H.subgroup(images))
    surjective = order_h == H.order
    if not surjective and not force:
        problems.append("theta is not surjective; use force to compute "
                        "against the image subgroup")
    chi = euler_characteristic(tree)
    rank = 1 - order_h * chi
    if rank.denominator != 1:
        problems.append(f"kernel rank {rank} is not an integer")
        rank_int = -1
    else:
        rank_int = int(rank)
        if rank_int < 0:
            problems.append(f"kernel rank {rank_int} is negative")
    return RankReport(chi=chi, order_h=order_h, kernel_rank=rank_int,
                      surjective=surjective, kernel_torsion_free=torsion_free,
                      problems=problems)
