"""Limit set samples: nested word-image discs and fixed-point dust.

For a verified pairing system the limit set is approximated by the
ping-pong discs of all reduced words up to a depth: each word's disc
nests strictly inside its parent's, so the terminal discs cover the
limit set by shrinking closed discs, a numerical witness of total
disconnectedness.  Assembled trees carry no global circle system, so
they are sampled through the loxodromic fixed points of enumerated
elements instead.  Diameters are spherical
(chordal) throughout, since infinity may be a limit point.

The nesting audit reads a sample as the ping-pong tree sample builds:
the disc of a word u x is m_u(D_x), its prefix's map applied to its
last letter's disc.  Pulling a word u x y and its parent u x back by
m_u shows that the child nests in the parent exactly when m_x(D_y)
nests in D_x, so the audit decides the 2g(2g-1) level-2 words once and
judges every deeper word by its last two letters.

Each word of a pairing sample costs one Moebius product (its map, from
its parent's) and one pushforward of its last letter's disc through the
parent's map (disc_image).  A word adds fixed points only when it is the
first of its root class in BFS order (not a proper power, and before its
inverse), decided from its letters; only then does it cost one kind
decision and one fixed-point solve (moebius._map_kind, then
moebius._solve_fixed_points).  The image disc's side is the sign that
made its circle canonical, so its oriented form is the pushed-forward
form itself, and the fixed points are those of fixed_points for exactly
the maps classify calls loxodromic: both are bit for bit what classify,
fixed_points and a sign test of the raw against the canonical
coefficients give.

render reads a sample in one pass for its view box, kept as a running
box with no coordinate lists, and joins its SVG lines in fixed chunks
as it makes them, the closing tag carrying the final newline.  Its
working memory is about twice the output (the chunks and the joined
result) plus one (tail, x, y, r) tuple per circle, and those tuples are
freed before the final join.
"""

import math
from dataclasses import dataclass
from itertools import chain, islice

from .combination import GroupData
from .group_algebra import walk_tree
from .moebius import INF, TOL, _map_kind, _solve_fixed_points
from .schottky import (PairingSystem, count_reduced_words, letter_discs,
                       reduced_words)
from .sphere_geometry import disc_contains, disc_image

__all__ = ["LimitSetSample", "DisconnectednessReport", "sample",
           "disconnectedness_report", "render", "export_lines"]

CIRCLE_BUDGET = 10 ** 6
IMAGE_SIZE = 800.0      # nominal side of the SVG view box
IMAGE_MARGIN = 0.06     # blank border, as a share of IMAGE_SIZE
_CHUNK = 1024           # SVG lines per chunk that render joins


@dataclass(frozen=True)
class LimitSetSample:
    """Word-disc and fixed-point approximation of a limit set.

    discs holds (reduced word, SphereDisc) pairs in breadth-first order,
    words as tuples of signed generator indices; points holds projective
    fixed points (complex numbers or the infinity sentinel), first-seen
    order; max_diameter_by_depth[k-1] is the largest spherical diameter
    among the depth-k discs.
    """

    depth: int
    discs: tuple
    points: tuple
    max_diameter_by_depth: tuple


@dataclass(frozen=True)
class DisconnectednessReport:
    """Nesting audit of a sample's disc tree."""

    depth: int
    checked: int
    violations: tuple
    max_terminal_diameter: float
    monotone: bool

    @property
    def ok(self):
        return not self.violations

    def lines(self):
        out = [f"depth {self.depth}: {self.checked} nested discs checked, "
               f"{len(self.violations)} violations"]
        for child, parent in self.violations[:10]:
            out.append(f"  disc of {_word_text(child)} leaves its parent "
                       f"{_word_text(parent)}")
        out.append("max terminal spherical diameter "
                   f"{self.max_terminal_diameter:.6e}")
        out.append("diameters non-increasing: "
                   + ("yes" if self.monotone else "NO"))
        return out


def _word_text(word):
    return " ".join(str(x) for x in word)


def _collect_fixed_points(m, out, seen):
    if _map_kind(m) != "loxodromic":
        return
    for p in _solve_fixed_points(m):
        key = "inf" if p is INF else (round(p.real, 9), round(p.imag, 9))
        if key not in seen:
            seen.add(key)
            out.append(p)


def _first_of_root_class(word, rank, primes):
    """Does this reduced word add fixed points no earlier word added?

    Write the word as w = u c u^-1 with c cyclically reduced.  w is a
    proper power exactly when c = c0^k with k >= 2 (k may be taken
    prime), and then its root u c0 u^-1 is shorter, so comes first in
    BFS order; w^-1 has w's length and comes after w exactly when w's
    letter ranks lower where the two first differ, which is where u
    ends.  A map shares its fixed points with its powers and its
    inverse, so only the first word of each class {r^k : k != 0} of a
    root r adds them, and no point is lost.  In a free discrete group
    two loxodromic words share a fixed point only within such a class
    (their roots generate a cyclic group), so none is repeated either;
    an unverified system may repeat points.
    """
    n = len(word)
    i = 0
    while word[i] == -word[n - 1 - i]:
        i += 1
    if rank[word[i]] > rank[-word[n - 1 - i]]:
        return False
    c = word[i:n - i]
    for k in primes[len(c)]:
        if c[:len(c) // k] * k == c:
            return False
    return True


def _prime_divisors(n):
    return tuple(k for k in range(2, n + 1)
                 if n % k == 0 and all(k % j for j in range(2, k)))


def _sample_pairing(system, depth, require_verified, budget):
    discs_by_letter = letter_discs(system, strict=require_verified)
    genus = system.genus
    if genus == 0:
        return LimitSetSample(depth, (), (), ())
    eff = depth
    while eff > 1 and count_reduced_words(genus, eff) > budget:
        eff -= 1
    gens = {x: system.generator(x) for x in discs_by_letter}
    # reduced_words' letter order within a length, and each length's
    # prime divisors
    rank = {x: r for r, x in enumerate(
        x for j in range(1, genus + 1) for x in (j, -j))}
    primes = [_prime_divisors(n) for n in range(eff + 1)]

    def extend(value, y):
        m, _ = value
        return m * gens[y], disc_image(m, discs_by_letter[y])

    discs, points, maxdiam = [], [], []
    for word, (m, disc) in reduced_words(
            genus, eff, lambda x: (gens[x], discs_by_letter[x]), extend):
        if len(word) > len(maxdiam):
            maxdiam.append(0.0)
        discs.append((word, disc))
        maxdiam[-1] = max(maxdiam[-1], disc.circle.spherical_diameter())
        if _first_of_root_class(word, rank, primes) \
                and _map_kind(m) == "loxodromic":
            points.extend(_solve_fixed_points(m))
    return LimitSetSample(eff, tuple(discs), tuple(points), tuple(maxdiam))


def _uncertified_nodes(node):
    problems = []
    for n in walk_tree(node):
        for certificate in n.certificates:
            if certificate is None:
                problems.append(f"{n.kind} node carries no certificate")
            elif not certificate.ok:
                problems.append(f"{n.kind} node certificate has failures")
    return problems


def _sample_elements(data, depth, budget):
    enum = data.elements(depth, max_count=budget)
    points, seen = [], set()
    for _, _, m in enum.triples:
        _collect_fixed_points(m, points, seen)
    return LimitSetSample(enum.depth_completed, (), tuple(points), ())


def sample(source, depth=8, require_verified=True,
           circle_budget=CIRCLE_BUDGET):
    """Approximate the limit set of a pairing system, leaf, or tree.

    Pairing systems yield the full disc tree to the requested depth
    (capped by circle_budget) plus the fixed points of the word maps,
    each root class of words adding its pair once (see
    _first_of_root_class): every point, and for a verified system no
    point twice; an unverified system may repeat points.
    Basic groups with a standard pairing are sampled through it; other
    leaves, and any source that carries a construction tree (assembled
    groups, composite B3 groups), yield the fixed points of their
    elements only.  Uncertified trees and unverified pairings are
    rejected unless require_verified=False.

    Element samples drop a point equal to an earlier one in 9 decimal
    digits, not by root class: an element with torsion can share its
    fixed points with one of another root class, when a torsion element
    commutes with a loxodromic one, and the two solves differ in the
    last bits.  In a T4 leaf (n = 2, lambda = 4) placed at station 6,
    A and A*E both fix 5 and 7, and their float fixed points differ.

    A word of a pairing sample costs one product, one pushforward and,
    if it adds points, one fixed-point solve.  Its disc's side is the
    sign that made the pushed-forward form canonical (the sign of raw
    times canonical coefficients), and its fixed points come from
    fixed_points' own solve after classify's own kind decision, so both
    are bit-identical to what those functions return.
    """
    if isinstance(source, PairingSystem):
        return _sample_pairing(source, depth, require_verified, circle_budget)
    tree = getattr(source, "tree", None)
    if tree is None and hasattr(source, "pairing_system"):
        if source.schottky_names:
            system = source.pairing_system(verify=require_verified)
            return _sample_pairing(system, depth, require_verified,
                                   circle_budget)
        # finite leaf: no loxodromic pairing, fixed points only
        return _sample_elements(GroupData.coerce(source), depth, circle_budget)
    node = source if tree is None else tree
    if not hasattr(node, "kind"):
        raise TypeError(f"cannot sample a {type(source).__name__}")
    problems = _uncertified_nodes(node)
    if require_verified and problems:
        raise ValueError("uncertified tree rejected: " + problems[0])
    return _sample_elements(GroupData.from_node(node), depth, circle_budget)


def disconnectedness_report(sample):
    """Audit nesting of the disc tree and report terminal diameters.

    Every disc of a word of length >= 2 must sit inside its parent's
    closed disc, and the largest diameter per depth must not grow by
    more than TOL.  Point-only samples audit vacuously.

    The sample must be a ping-pong tree as sample builds it: a word's
    disc is its prefix's map applied to its last letter's disc.  Then
    the disc of u x y is m_u(m_x(D_y)) and its parent's is m_u(D_x), so
    pulling both back by m_u shows that the child nests exactly when
    the level-2 disc m_x(D_y) nests in D_x.  Each level-2 disc is
    tested once by disc_contains, and a deeper word fails exactly when
    its last two letters do; deep discs, whose inversive products
    cancel, are never tested.
    """
    if sample.depth < 2:
        raise ValueError("need a sample of depth >= 2")
    letters, pairs = {}, {}
    violations = []
    checked = 0
    for word, disc in sample.discs:
        if len(word) == 1:
            letters[word] = disc
            continue
        if len(word) == 2:
            pairs[word] = disc_contains(letters[word[:1]], disc)
        checked += 1
        if not pairs[word[-2:]]:
            violations.append((word, word[:-1]))
    diam = sample.max_diameter_by_depth
    terminal = diam[-1] if diam else 0.0
    monotone = all(diam[k + 1] <= diam[k] + TOL
                   for k in range(len(diam) - 1))
    return DisconnectednessReport(sample.depth, checked, tuple(violations),
                                  terminal, monotone)


def export_lines(sample):
    """Structured text: one line per disc (word, coefficients, diameter)
    and one per fixed point."""
    out = [f"depth {sample.depth}"]
    for word, disc in sample.discs:
        c = disc.circle
        out.append(f"disc {_word_text(word)} | "
                   f"A={c.A:.6e} B={c.B.real:.6e}{c.B.imag:+.6e}j "
                   f"C={c.C:.6e} side={disc.side:+d} | "
                   f"diam={c.spherical_diameter():.6e}")
    for p in sample.points:
        if p is INF:
            out.append("point inf")
        else:
            out.append(f"point {p.real:.6e}{p.imag:+.6e}j")
    return out


def _svg_header(width, height):
    return (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="0 0 {width:.6f} {height:.6f}">')


def render(sample):
    """Deterministic vector image of a sample, as an SVG string.

    Discs are stroked circles colored by word length, fixed points are
    filled dots.  Boundary lines and the point at infinity have no
    planar image; they are tallied in a comment instead, also when
    nothing else is drawn.  Identical samples produce identical bytes.

    Memory: one pass over the discs and points keeps the view box as a
    running x0, x1, y0, y1 and one (tail, x, y, r) tuple per drawable
    circle.  The lines are joined _CHUNK at a time as they are made and
    the chunks once, the closing tag carrying the final newline, so no
    full-size copy follows the join.  The peak is about twice the
    output (the chunks and the result), the per-circle tuples being
    held while the chunks are made and freed before the join.
    """
    circles = []
    tails = {}  # the fill, hue and stroke text after r, once per level
    stroke = IMAGE_SIZE / 640.0
    skipped = 0
    x0 = y0 = math.inf
    x1 = y1 = -math.inf
    for word, disc in sample.discs:
        c = disc.circle
        if c.is_line():
            skipped += 1
            continue
        center, r = c.center_radius()
        x, y = center.real, center.imag
        if x - r < x0:
            x0 = x - r
        if x + r > x1:
            x1 = x + r
        if y - r < y0:
            y0 = y - r
        if y + r > y1:
            y1 = y + r
        level = len(word)
        tail = tails.get(level)
        if tail is None:
            hue = (37 + 53 * (level - 1)) % 360
            tail = tails[level] = (f'" fill="none" '
                                   f'stroke="hsl({hue},65%,38%)" '
                                   f'stroke-width="{stroke:.6f}"/>')
        circles.append((tail, x, y, r))
    finite = [p for p in sample.points if p is not INF]
    skipped += len(sample.points) - len(finite)
    for p in finite:
        x, y = p.real, p.imag
        if x < x0:
            x0 = x
        if x > x1:
            x1 = x
        if y < y0:
            y0 = y
        if y > y1:
            y1 = y
    omitted = f"  <!-- {skipped} unbounded elements omitted -->"
    if not circles and not finite:
        return "\n".join([_svg_header(IMAGE_SIZE, IMAGE_SIZE),
                          omitted if skipped else "  <!-- empty sample -->",
                          "</svg>\n"])
    span = max(x1 - x0, y1 - y0, 1e-12)
    scale = IMAGE_SIZE * (1.0 - 2.0 * IMAGE_MARGIN) / span
    pad = IMAGE_SIZE * IMAGE_MARGIN
    width = (x1 - x0) * scale + 2.0 * pad
    height = (y1 - y0) * scale + 2.0 * pad
    out = [_svg_header(width, height)]
    if skipped:
        out.append(omitted)
    dot_tail = f'" r="{IMAGE_SIZE / 320.0:.6f}" fill="#1a1a1a"/>'
    lines = chain((f'  <circle cx="{(x - x0) * scale + pad:.6f}" '
                   f'cy="{(y1 - y) * scale + pad:.6f}" '
                   f'r="{r * scale:.6f}{tail}' for tail, x, y, r in circles),
                  (f'  <circle cx="{(p.real - x0) * scale + pad:.6f}" '
                   f'cy="{(y1 - p.imag) * scale + pad:.6f}{dot_tail}'
                   for p in finite))
    while chunk := "\n".join(islice(lines, _CHUNK)):
        out.append(chunk)
    del circles  # the exhausted lines no longer holds it
    out.append("</svg>\n")
    return "\n".join(out)
