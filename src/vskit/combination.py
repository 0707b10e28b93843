"""Combination engine: amalgamated free products and HNN extensions.

Groups are joined along disc certificates.  Every hypothesis is checked
by machine: exact disc geometry where possible (shared boundaries, image
circles), bounded word enumeration where not (precise invariance).  A
successful check is a certificate of inspection up to the stated depth,
not a proof; a failed check always carries a concrete witness.
"""

import cmath
import math
from collections import OrderedDict
from dataclasses import dataclass, field, replace

from .moebius import (MoebiusMap, _map_kind, projectively_equal,
                      is_identity_map)
from .sphere_geometry import (SphereCircle, SphereDisc, circles_equal,
                              discs_same, disc_contains, disc_image,
                              disc_relation, image_relation, image_relations,
                              map_circle)
from . import group_algebra
from .group_algebra import (LeafSymbolic, symbolic_model, enumerate_elements,
                            walk_tree, walk_expanded)
from .schottky import Check, CheckReport


class CombinationError(ValueError):
    """A combination hypothesis failed; carries the failing check."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


def _require(check):
    """A failed hypothesis stops the combination, carrying its check."""
    if not check.ok:
        raise CombinationError(check.line(), check)
    return check


def word_names(spec):
    """A generator name, or a tuple of names, as a tuple of names."""
    return (spec,) if isinstance(spec, str) else tuple(spec)


def format_word(word):
    """Human-readable form of a word of (name, exponent) pairs."""
    if not word:
        return "<identity>"
    parts = []
    for name, exp in word:
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return " * ".join(parts)


# ---------------------------------------------------------------------------
# construction-tree nodes


class Leaf:
    kind = "leaf"
    certificates = ()

    def __init__(self, group, label=None):
        self.group = group
        self.label = label if label is not None else group.label

    def __repr__(self):
        return f"Leaf({self.label})"


class FreeProductNode:
    kind = "product"
    # certified nodes only: ((B1, its precise-invariance check),
    # (B2, its check)), read by a later junction's ping-pong check
    discs = None
    # certified nodes only: the frozenset of the tree's generator names
    names = None
    # certified trivial-amalgam nodes only: (depth, listing) of factors[-1]
    # from its B2 check, read by a junction built on this node
    right_listing = None

    def __init__(self, factors, amalgam, amalgam_order, amalgam_elements,
                 amalgam_images, certificates):
        self.factors = factors                  # two if amalgamated
        self.amalgam = amalgam                  # None or (name_left, name_right)
        self.amalgam_order = amalgam_order      # 1 for the trivial amalgam
        self.amalgam_elements = amalgam_elements
        self.amalgam_images = amalgam_images
        self.certificates = certificates        # per junction, or None

    @property
    def label(self):
        return _tree_label(self)

    def __repr__(self):
        return f"FreeProductNode({self.label})"


class HnnNode:
    kind = "hnn"

    def __init__(self, base, stable_name, stable, edge_order,
                 edge_is_full_base, certificate):
        self.base = base                        # node or None (trivial base)
        self.stable_name = stable_name
        self.stable = stable
        self.edge_order = edge_order
        self.edge_is_full_base = edge_is_full_base
        self.certificates = (certificate,)

    @property
    def label(self):
        return _tree_label(self)

    def __repr__(self):
        return f"HnnNode({self.label})"


def _tree_label(tree):
    labels = []
    for node in walk_tree(tree):
        if node.kind == "leaf":
            labels.append(node.label)
        elif node.kind == "product":
            if node.amalgam is None:
                tag = "free product"
            else:
                sides = ["*".join(word_names(s)) for s in node.amalgam]
                tag = f"amalgam over {sides[0]} ~ {sides[1]}"
            k = len(node.factors)
            joined = " * ".join([f"({label})" for label in labels[-k:]])
            labels[-k:] = [f"{joined} [{tag}]"]
        else:
            inner = "trivial" if node.base is None else labels.pop()
            labels.append(f"HNN({inner}; stable {node.stable_name})")
    return labels.pop()


def as_node(group_or_node):
    if hasattr(group_or_node, "kind"):
        return group_or_node
    return Leaf(group_or_node)


def collect_matrices(node):
    """Generator-name -> MoebiusMap over the whole tree."""
    out = {}
    for n in walk_tree(node):
        if n.kind == "leaf":
            gens = n.group.gens.items()
        elif n.kind == "hnn":
            gens = ((n.stable_name, n.stable),)
        else:
            continue
        for name, m in gens:
            if name in out:
                raise ValueError(f"duplicate generator name {name!r}")
            out[name] = m
    return out


def node_certificates(node):
    return [c for n in walk_tree(node) for c in n.certificates
            if c is not None]


@dataclass
class EnumeratedElements:
    """(canonical element, word, matrix) triples from a bounded BFS."""

    triples: list
    exhausted: bool
    depth_completed: int


# elements beyond this stop a bounded sweep at the last full word length
ENUMERATION_BUDGET = 20000


class GroupData:
    """A group presented for checking: symbolic model plus matrices."""

    def __init__(self, model, matrices):
        self.model = model
        self.matrices = matrices

    @classmethod
    def from_node(cls, node):
        return cls(symbolic_model(node), collect_matrices(node))

    @classmethod
    def coerce(cls, source):
        if isinstance(source, cls):
            return source
        if hasattr(source, "kind"):
            return cls.from_node(source)
        # a BasicGroup-like object
        return cls(source.symbolic, dict(source.gens))

    def elements(self, depth, max_count=None):
        """EnumeratedElements over the group to the given depth.

        The symbolic listing (enumerate_elements: normal forms with BFS
        parents and steps) is by generator position; a leaf's is shared
        by every leaf of its presentation (see _LEAF_LISTINGS).  Words
        and matrices are this group's own, built here: each element's
        word and matrix are its BFS parent's times one generator or
        inverse, so every triple is what a fresh listing of this group
        gives, bit for bit.
        """
        names, listing = _symbolic_listing(self.model, depth, max_count)
        letters = []
        moves = []
        for name in names:
            m = self.matrices[name]
            letters += ((name, 1), (name, -1))
            moves += (m, m.inverse())
        words = [()]
        matrices = [MoebiusMap.identity()]
        for parent, step in zip(listing.parents, listing.steps):
            words.append(words[parent] + (letters[step],))
            matrices.append(matrices[parent] * moves[step])
        return EnumeratedElements(
            list(zip(listing.elements, words, matrices)),
            listing.exhausted, listing.depth_completed)


class _ListingIntern:
    """Symbolic leaf listings keyed on the presentation, least recently
    used evicted first so that at most `bound` elements are held.

    A LeafSymbolic's multiplication depends on its rank, torsion orders
    and action only, and its generators() come free names first, then
    torsion names, so one listing by position serves every leaf of the
    presentation, whatever its names or frame.
    """

    def __init__(self, bound):
        self.bound = bound
        self.held = 0
        self._entries = OrderedDict()

    def get(self, key):
        listing = self._entries.get(key)
        if listing is not None:
            self._entries.move_to_end(key)
        return listing

    def put(self, key, listing):
        size = len(listing.elements)
        if size > self.bound:
            return
        self._entries[key] = listing
        self.held += size
        while self.held > self.bound:
            _, old = self._entries.popitem(last=False)
            self.held -= len(old.elements)


_LEAF_LISTINGS = _ListingIntern(2 * ENUMERATION_BUDGET)


def _symbolic_listing(model, depth, max_count):
    """(generator names, EnumerationResult) of the model to the depth;
    leaf presentations come from _LEAF_LISTINGS."""
    if not isinstance(model, LeafSymbolic):
        return tuple(model.generators()), \
            enumerate_elements(model, depth, max_count=max_count)
    key = (model.rank, model.torsion.orders, model.action, depth, max_count)
    listing = _LEAF_LISTINGS.get(key)
    if listing is None:
        listing = enumerate_elements(model, depth, max_count=max_count)
        _LEAF_LISTINGS.put(key, listing)
    return model.free_names + model.torsion_names, listing


def _cyclic_closure(model, g, cap=64):
    """All powers of g as canonical elements, each mapped to its least
    exponent, so g's order is the length; None past cap."""
    out = {model.identity(): 0}
    x = g
    k = 1
    while not model.is_identity(x):
        if k > cap:
            return None
        out[x] = k
        x = model.multiply(x, g)
        k += 1
    return out


def resolve_generator_word(K, spec):
    """A generator name, or tuple of names, as (display, matrix, element).

    Tuples denote the product of the named generators, so torsion
    elements that are not themselves generators (such as the product of
    two commuting involutions) can name a subgroup.
    """
    K = GroupData.coerce(K)
    names = word_names(spec)
    if not names:
        raise KeyError("empty generator word")
    gens = K.model.generators()
    matrix = MoebiusMap.identity()
    elem = K.model.identity()
    for name in names:
        if name not in K.matrices:
            raise KeyError(f"unknown generator {name!r}")
        matrix = matrix * K.matrices[name]
        elem = K.model.multiply(elem, gens[name])
    return "*".join(names), matrix, elem


def check_precisely_invariant(X, H, K, depth=6):
    """Is the disc X precisely invariant under H in K, to the given depth?

    H is named by a generator of K, or a tuple of generator names whose
    product generates it (None for the trivial subgroup).  Every element
    of H must fix X as a set; every enumerated element outside H must
    move X off itself (open-disc disjointness, so tangency passes).
    Exhausting a finite group upgrades the outcome to an exact pass.

    free_product may instead derive the trivial-H case for K = G * L,
    a certified product with discs B1 (precisely invariant in G) and
    B2 (in L), by ping-pong (see _ping_pong_invariance): X lies inside
    B1, and no non-identity element of L moves X to meet X or B2.  The
    derived [pass to depth d] means that each factor was checked to
    depth d (G through its recorded check, L by one listing), not that
    words of length d in G * L were listed.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    return _invariance(X, H, GroupData.coerce(K), depth)


def _invariance(X, H, K, depth, listed=None):
    """check_precisely_invariant on GroupData K, optionally reusing a
    listing of K already made to this depth."""
    if H is None:
        name = "precise invariance"
        h_set = {K.model.identity(): 0}
    else:
        display, h_matrix, h_elem = resolve_generator_word(K, H)
        name = f"precise invariance under <{display}>"
        h_set = _cyclic_closure(K.model, h_elem)
        if h_set is None:
            raise group_algebra.UnsupportedSymbolicError(
                "precise invariance needs a finite cyclic (or trivial) H")
        power = h_matrix
        for k in range(1, len(h_set)):
            if not discs_same(disc_image(power, X), X):
                return Check(name, "fail",
                             f"{display}^{k} does not fix the disc", depth)
            power = power * h_matrix
    if listed is None:
        listed = K.elements(depth, max_count=ENUMERATION_BUDGET)
    moved = image_relation(X, X)
    return _sweep(name, listed, lambda elem, word, matrix:
                  moved(matrix) == "meets" and elem not in h_set)


def _sweep(name, listed, fails):
    """The check that fails(element, word, matrix) holds for no listed
    triple: the first word for which it holds is the witness; else an
    exhausted listing passes and a cut one passes to the depth it
    completed."""
    for elem, word, matrix in listed.triples:
        if fails(elem, word, matrix):
            return Check(name, "fail", format_word(word),
                         listed.depth_completed)
    status = "pass" if listed.exhausted else "bounded-pass"
    return Check(name, status, depth=listed.depth_completed)


def _ping_pong_invariance(left, X, depth):
    """X precisely invariant under {1} in `left`, derived by ping-pong.

    left must be a certified trivial-amalgam product G * L with discs
    B1 (precisely invariant in G) and B2, the complement of B1
    (precisely invariant in L).  If X lies in B1 and no non-identity
    element l of L has l(X) meeting X (a) or B2 (b), then every reduced
    word g moves X off itself.  A letter from G carries B1 into B2; one
    from L carries B2 into B1 and, by (b), X into B1.  So g(X) lies in
    B2 when g's first letter (leftmost) is from G; in l(B2), which
    misses X by (b) for l^-1, when it is l followed by other letters;
    and off X by (a) when g = l.  Only L, left.factors[-1], is listed,
    to `depth`: the listing left's own B2 check made (left.right_listing)
    when it was made to this depth, else a new one.

    The status is the weakest of the two recorded checks and the sweep
    of this listing, the depth the smallest.  Returns None when left is
    not such a node, X is not in B1, or (a) or (b) fails: the caller
    then lists the whole of left.
    """
    if left.kind != "product" or left.discs is None \
            or left.amalgam is not None:
        return None
    (B1, b1_check), (B2, b2_check) = left.discs
    if not disc_contains(B1, X):
        return None
    listed_depth, listed = left.right_listing or (None, None)
    if listed_depth != depth:
        listed = GroupData.from_node(left.factors[-1]).elements(
            depth, max_count=ENUMERATION_BUDGET)
    # (a) and (b) from one push of X through each element
    onto_x_and_b2 = image_relations(X, (X, B2))
    sweep = _sweep("precise invariance", listed, lambda elem, word, matrix:
                   word and "meets" in onto_x_and_b2(matrix))
    if not sweep.ok:
        return None
    checks = (b1_check, b2_check, sweep)
    status = "pass" if all(c.status == "pass" for c in checks) \
        else "bounded-pass"
    return Check(sweep.name, status, depth=min(c.depth for c in checks))


def _require_invariant(report, disc, check, where):
    """Record the precise invariance of a disc in a factor; return it."""
    check = _require(replace(check, name=f"{disc} {check.name} in {where}"))
    report.checks.append(check)
    return check


def _word_of_names(spec):
    return tuple((name, 1) for name in word_names(spec))


def free_product(left, right, amalgam, B1, B2, depth=6):
    """Join two groups along complementary discs B1, B2 sharing boundary.

    amalgam is None for the plain free product, or a pair of generator
    names (one per side) whose matrices must agree projectively; either
    side may also be a tuple of names denoting their product, for
    torsion elements that are not generators themselves.  B1 must be
    precisely invariant under the amalgam in the left group and B2 in
    the right group.  Any failed hypothesis raises CombinationError with
    the failing check attached.

    A trivial-amalgam junction of a leaf onto a trivial-amalgam product
    extends it by one factor and one certificate; any other junction
    makes a node over left and right.  The added factors carry no
    certificates, so a walk meets every certificate in the order made.

    When the amalgam is trivial and left is itself a certified
    trivial-amalgam product G * L (L its last factor) with discs
    (C1, C2), B1's invariance in left is derived by ping-pong from C1's
    and C2's recorded checks and the listing of L that left's B2 check
    made, provided B1 lies in C1 and no non-identity element of L moves
    B1 to meet B1 or C2.
    Otherwise, and whenever that derivation fails, the whole left group
    is listed.  So a chain built leaf by leaf lists each leaf once: the
    new node keeps its right factor's listing for the next junction.
    left is not changed, so a second junction built on it reads the
    same listing and certifies alike.

    Neither factor's symbolic model or matrices are built for the whole
    left tree unless an amalgam or that fallback needs them: generator
    names are checked against left's recorded names, which a certified
    node carries, so a k-leaf chain does O(k) tree work.
    """
    left = as_node(left)
    right = as_node(right)
    right_data = GroupData.from_node(right)
    left_names = _generator_names(left)
    dupes = left_names & right_data.matrices.keys()
    if dupes:
        raise CombinationError(
            f"generator names shared across factors: {sorted(dupes)}")

    report = CheckReport()
    _require(report.add("B1, B2 complementary discs with common boundary",
                        discs_same(B2, B1.complement()),
                        lambda: "B2 is not the complement of B1"))

    amalgam_order = 1
    amalgam_elements = None
    amalgam_images = None
    h_left = h_right = None
    left_data = right_listed = None
    if amalgam is not None:
        left_data = GroupData.from_node(left)
        h_left, h_right = amalgam
        try:
            disp_l, m_left, e_left = resolve_generator_word(left_data, h_left)
        except KeyError as err:
            raise CombinationError(f"left amalgam: {err.args[0]}")
        try:
            disp_r, m_right, e_right = resolve_generator_word(right_data,
                                                              h_right)
        except KeyError as err:
            raise CombinationError(f"right amalgam: {err.args[0]}")
        if not projectively_equal(m_left, m_right):
            _require(Check("amalgamated generators agree as matrices",
                           "fail", f"{disp_l} and {disp_r} differ"))
        order_left, order_right = (closure and len(closure) for closure in (
            _cyclic_closure(left_data.model, e_left),
            _cyclic_closure(right_data.model, e_right)))
        if order_left is None or order_left != order_right:
            _require(Check("amalgamated generators have equal finite order",
                           "fail", f"orders {order_left} vs {order_right}"))
        amalgam_order = order_left
        amalgam_elements = (e_left, e_right)
        amalgam_images = (_word_of_names(h_left), _word_of_names(h_right))
        report.add("amalgamated generators agree (matrices, order "
                   f"{amalgam_order})", True)

    b1_check = (_ping_pong_invariance(left, B1, depth)
                if h_left is None else None)
    if b1_check is None:
        b1_check = _invariance(B1, h_left,
                               left_data or GroupData.from_node(left), depth)
    b1_check = _require_invariant(report, "B1", b1_check, "left factor")
    if h_right is None:
        right_listed = right_data.elements(depth,
                                           max_count=ENUMERATION_BUDGET)
    b2_check = _require_invariant(
        report, "B2", _invariance(B2, h_right, right_data, depth,
                                  right_listed),
        "right factor")
    factors, certificates = (left,), ()
    if amalgam is None and right.kind == "leaf" and left.kind == "product" \
            and left.amalgam is None:
        factors, certificates = left.factors, left.certificates
    node = FreeProductNode(factors + (right,), amalgam, amalgam_order,
                           amalgam_elements, amalgam_images,
                           certificates + (report,))
    node.discs = ((B1, b1_check), (B2, b2_check))
    node.names = left_names | right_data.matrices.keys()
    if right_listed is not None:
        node.right_listing = (depth, right_listed)
    return node


def _generator_names(node):
    """The tree's generator names: a certified product's record, else a
    walk (which rejects names used twice)."""
    if node.kind == "product" and node.names is not None:
        return node.names
    return frozenset(collect_matrices(node))


def uncertified_free_product(*factors):
    """One trivial-amalgam product node over the factors, unchecked.

    Used for bulk symbolic work (rank sweeps) where only chi and theta
    matter; each certificate is None so downstream consumers can tell.
    """
    if len(factors) < 2:
        raise ValueError("a free product needs at least two factors")
    return FreeProductNode(tuple([as_node(f) for f in factors]), None, 1,
                           None, None, (None,) * (len(factors) - 1))


def hnn_extension(base, A, B1, B2, H1=None, H2=None, depth=6,
                  stable_name="stable"):
    """Adjoin a stable letter A throwing disc B1's complement across B2.

    Hypotheses checked: A loxodromic; A maps the boundary of B1 onto the
    boundary of B2 with A(B1) on the far side of B2; closed B1, B2
    disjoint; A conjugates H1 to H2 (cyclic subgroups of the base, named
    by generators); each B_j precisely invariant under H_j in the base;
    no base word to the given depth drags closed B1 onto closed B2.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    base_node = as_node(base) if base is not None else None
    base_data = GroupData.from_node(base_node) if base_node else None
    if base_data and stable_name in base_data.matrices:
        raise CombinationError(
            f"stable letter name {stable_name!r} already used in the base")

    report = CheckReport()
    kind = _map_kind(A)
    _require(report.add("stable letter is loxodromic",
                        kind == "loxodromic",
                        lambda: f"classified {kind}"))
    sigma2 = map_circle(A, B1.circle)
    _require(report.add(
        "A(Sigma1) = Sigma2", circles_equal(sigma2, B2.circle),
        lambda: f"A(Sigma1) = {sigma2!r}, Sigma2 = {B2.circle!r}"))
    _require(report.add("A(B1) disjoint from B2",
                        discs_same(disc_image(A, B1), B2.complement()),
                        lambda: "A maps B1 onto B2 (wrong side)"))
    relation = disc_relation(B1, B2)
    _require(report.add("closed B1, B2 disjoint", relation == "disjoint",
                        lambda: f"discs {relation}: B1 = {B1!r}, B2 = {B2!r}"))

    edge_order = 1
    edge_is_full_base = base_node is None
    if (H1 is None) != (H2 is None):
        raise CombinationError("H1 and H2 must both be given or both omitted")
    if H1 is not None:
        if base_data is None:
            raise CombinationError("edge groups need a nontrivial base")
        for name in (H1, H2):
            if name not in base_data.matrices:
                raise CombinationError(f"unknown edge generator {name!r}")
        m1 = base_data.matrices[H1]
        m2 = base_data.matrices[H2]
        model = base_data.model
        order, order2 = (closure and len(closure) for closure in (
            _cyclic_closure(model, model.generators()[H]) for H in (H1, H2)))
        if order is None or order != order2:
            raise CombinationError(
                f"edge generators must have equal finite order, got "
                f"{order} vs {order2}")
        edge_order = order
        # symbolic coverage: stable letter commuting with a fully torsion
        # base whose torsion equals the edge group
        edge_is_full_base = (getattr(model, "rank", None) == 0
                             and order == model.torsion.order
                             and all(projectively_equal(A * m, m * A)
                                     for m in base_data.matrices.values()))
        conj = A.inverse() * m2 * A
        power = m1
        generates = False
        for k in range(1, order + 1):
            if math.gcd(k, order) == 1 and projectively_equal(conj, power):
                generates = True
                break
            power = power * m1
        _require(report.add(
            "A^-1 H2 A = H1", generates,
            lambda: f"A^-1 {H2} A is not a generator of <{H1}>"))

    if base_data is not None:
        # one listing serves both invariance checks and the drag sweep
        listed = base_data.elements(depth, max_count=ENUMERATION_BUDGET)
        _require_invariant(report, "B1",
                           _invariance(B1, H1, base_data, depth, listed),
                           "base")
        _require_invariant(report, "B2",
                           _invariance(B2, H2, base_data, depth, listed),
                           "base")

        drag = image_relation(B1, B2)
        report.checks.append(_require(_sweep(
            "no base word drags closed B1 onto closed B2", listed,
            lambda elem, word, matrix: drag(matrix) != "disjoint")))

    return HnnNode(base_node, stable_name, A, edge_order,
                   edge_is_full_base, report)


# ---------------------------------------------------------------------------
# assembly


@dataclass
class AssembledGroup:
    tree: object
    generators: dict
    relations: tuple
    certificates: tuple
    model: object = field(repr=False, default=None)

    def summary_lines(self):
        out = [f"generators: {' '.join(self.generators)}"]
        out.append(f"relations: {len(self.relations)}")
        for rel in self.relations:
            out.append(f"  {format_word(rel)} = 1")
        checks = [c for cert in self.certificates for c in cert.checks]
        out.append(f"certificates: {len(checks)} checks")
        for c in checks:
            out.append(f"  {c.line()}")
        return out


def _tree_relations(tree):
    rels = []
    for node in walk_expanded(tree):
        if node.kind == "leaf":
            rels.extend(node.group.symbolic.relations())
        elif node.kind == "product":
            if node.amalgam is not None:
                left_word, right_word = node.amalgam_images
                inverted = tuple((name, -exp) for name, exp
                                 in reversed(right_word))
                rels.append(left_word + inverted)
        elif node.base is not None and node.edge_is_full_base:
            for name in collect_matrices(node.base):
                rels.append(((node.stable_name, 1), (name, 1),
                             (node.stable_name, -1), (name, -1)))
    return rels


def assemble(tree):
    """Flatten a certified tree into generators, relations, certificates."""
    tree = as_node(tree)
    generators = collect_matrices(tree)
    relations = tuple(_tree_relations(tree))
    certificates = tuple(node_certificates(tree))
    model = symbolic_model(tree)
    return AssembledGroup(tree=tree, generators=generators,
                          relations=relations, certificates=certificates,
                          model=model)


# ---------------------------------------------------------------------------
# auto-placement helpers

STATION_PULL = 8.0       # compactifying pole distance, in leaf scales
PLACEMENT_RETRIES = 5    # gap doublings after a failed certificate


def station_frame(x, scale, pull=STATION_PULL, angle=1.0):
    """Moebius map carrying a leaf's standard geometry near the real point x.

    The leaf's fixed points and pairing circles live in |z| <= scale with
    axes reaching infinity, so the frame first compactifies through
    z -> z / (z - P) with P = pull * scale * e^(i angle), landing
    everything (infinity included) within distance 1 + 2/(pull - 1) of x
    (9/7 for the default pull).  Separator half-planes pull back to small
    discs hugging P; placing P off every axis and orbit ray of the
    standard types (generic angle) keeps those discs wandering under the
    leaf, with no depth at which a loxodromic orbit sweeps a disc
    across P.
    """
    if scale <= 0 or pull <= 1:
        raise ValueError("scale must be positive and pull > 1")
    P = pull * scale * cmath.exp(1j * angle)
    compactify = MoebiusMap(1.0, 0.0, 1.0, -P)
    carry = MoebiusMap(2.0, x - 1.0, 0.0, 1.0)
    return carry * compactify


def station_boundary(x):
    """The open right half-plane Re z > x as a separating disc."""
    circle = SphereCircle.from_line(complex(x, 0.0), complex(x, 1.0))
    probe = complex(x + 1.0, 0.0)
    return SphereDisc(circle, -1 if circle.eval(probe) > 0 else 1)


class PlacementChain:
    """Assemble leaf groups left to right along the real axis.

    Each appended group is conjugated into its own station; stations are
    separated by vertical lines at gap midpoints and joined by trivial
    free products.  When a combination certificate fails, the gap doubles
    (up to PLACEMENT_RETRIES times) before giving up; any other
    CombinationError, such as generator names shared with the chain, is
    raised at once.
    """

    def __init__(self, spacing=3.0, depth=6):
        if spacing <= 0:
            raise ValueError("spacing must be positive")
        self.spacing = float(spacing)
        self.depth = depth
        self.node = None
        self.groups = []
        self.right_edge = 0.0

    def _placed(self, group, x, attempt=0):
        frame = station_frame(x, group.standard_scale(),
                              angle=1.0 + 0.7 * attempt)
        return group.conjugated_by(frame)

    def append(self, group):
        """Place `group` at the next station and return the new tree."""
        if self.node is None:
            placed = self._placed(group, 0.0)
            self.node = Leaf(placed)
            self.groups.append(placed)
            self.right_edge = 0.0
            return self.node
        last_error = None
        for attempt in range(PLACEMENT_RETRIES + 1):
            gap = self.spacing * (2.0 ** attempt)
            x = self.right_edge + 2.0 * gap
            placed = self._placed(group, x, attempt)
            B1 = station_boundary(self.right_edge + gap)
            try:
                node = free_product(self.node, Leaf(placed), None,
                                    B1, B1.complement(), self.depth)
            except CombinationError as err:
                if err.report is None:
                    raise       # not a failed check: no gap can mend it
                last_error = err
                continue
            self.node = node
            self.groups.append(placed)
            self.right_edge = x
            return node
        raise CombinationError(
            f"placement failed for {getattr(group, 'label', group)!r} "
            f"after {PLACEMENT_RETRIES + 1} attempts: {last_error}")


def chain_leaves(groups, spacing=3.0, depth=6):
    """Place the groups along the real axis; returns the final tree."""
    chain = PlacementChain(spacing=spacing, depth=depth)
    node = None
    for group in groups:
        node = chain.append(group)
    if node is None:
        raise ValueError("at least one group required")
    return node
