"""Classical Schottky pairing systems and their ping-pong certificates.

A pairing system is a list of triples (C_j, C'_j, A_j): 2g circles that
bound a common region D of the sphere, with A_j mapping C_j onto C'_j
and throwing D off itself.  Reduced words in the pairing maps are
written as tuples of nonzero signed generator indices, +j for A_j and
-j for A_j^-1, with 1-based j.

Check and CheckReport, the record of one machine-checked hypothesis
and the list of them, are shared with the combination certificates.
"""

from dataclasses import dataclass, field

from .group_algebra import reduce_word
from .moebius import _map_kind, fixed_points, TOL
from . import sphere_geometry
from .sphere_geometry import SphereDisc, circles_equal, discs_same, disc_image


class DegeneratePairingError(ValueError):
    """A generator's fixed point lies on a pairing circle."""


@dataclass(frozen=True)
class Check:
    """Outcome of one machine-checked hypothesis.

    status is 'pass', 'bounded-pass' (checked only up to a word depth)
    or 'fail'; a failure carries a human-readable witness.
    """

    name: str
    status: str
    witness: str = ""
    depth: int | None = None

    @property
    def ok(self):
        return self.status in ("pass", "bounded-pass")

    def line(self):
        """The bracketed certificate line of a combination hypothesis."""
        if self.status == "pass":
            return f"[exact-pass] {self.name}"
        if self.status == "bounded-pass":
            return f"[pass to depth {self.depth}] {self.name}"
        return f"[FAIL] {self.name}: witness {self.witness}"


@dataclass
class CheckReport:
    """The checks of one verification or combination, in the order run."""

    checks: list = field(default_factory=list)

    def add(self, name, passed, witness=None):
        """Append a pass or a fail of the named check and return it.

        witness() gives the failure witness; it is called only on
        failure, since many witnesses format circles.
        """
        if passed:
            check = Check(name, "pass")
        else:
            check = Check(name, "fail", witness() if witness else "")
        self.checks.append(check)
        return check

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]

    def failure_message(self):
        """Each failure's witness (or name), joined into one line."""
        return "; ".join(c.witness or c.name for c in self.failures())


class PairingSystem:
    """The data of a classical Schottky group of rank g."""

    def __init__(self, pairs):
        self.pairs = tuple((c, cp, m) for c, cp, m in pairs)
        self._discs = None

    @property
    def genus(self):
        return len(self.pairs)

    def generator(self, j):
        """The pairing map for 1-based index j; negative j for inverses."""
        if j > 0:
            return self.pairs[j - 1][2]
        return self.pairs[-j - 1][2].inverse()

    def all_circles(self):
        out = []
        for c, cp, _ in self.pairs:
            out.append(c)
            out.append(cp)
        return out


def _other_side_assignment(circles):
    """For each circle, the sign of the side where all other circles sit.

    Returns (signs, problem) where problem is a witness string when the
    circles fail to bound a common region.
    """
    signs = []
    for i, ci in enumerate(circles):
        seen = set()
        for j, cj in enumerate(circles):
            if i == j:
                continue
            value = ci.eval(cj.a_point())
            if abs(value) <= TOL:
                return None, f"circle {j} touches circle {i}"
            seen.add(1 if value > 0 else -1)
        if len(seen) > 1:
            return None, f"circles sit on both sides of circle {i}"
        signs.append(seen.pop() if seen else 1)
    return signs, ""


def verify_pairing(system):
    """Machine-check the three classical Schottky conditions.

    (i) the 2g circles are pairwise disjoint and bound a common region D,
    (ii) each A_j maps C_j onto C'_j, (iii) each A_j maps the D-side of
    C_j onto the non-D side of C'_j, so A_j(D) misses D.  Generators must
    be loxodromic, and fixed points on pairing circles are rejected as
    degenerate input.
    """
    report = CheckReport()
    circles = system.all_circles()
    for j, (c, cp, m) in enumerate(system.pairs, start=1):
        kind = _map_kind(m)
        if report.add(f"generator {j} loxodromic", kind == "loxodromic",
                      lambda: f"classified {kind}").ok:
            for p in fixed_points(m):
                for k, circle in enumerate(circles):
                    if abs(circle.eval(p)) <= TOL:
                        raise DegeneratePairingError(
                            f"fixed point of generator {j} lies on circle {k}")

    disjoint = True
    for i in range(len(circles)):
        for j in range(i + 1, len(circles)):
            if not sphere_geometry.circles_disjoint(circles[i], circles[j]):
                report.add("circles pairwise disjoint", False,
                           lambda: f"circles {i} and {j} are not disjoint")
                disjoint = False
    if disjoint:
        report.add("circles pairwise disjoint", True)

    signs = None
    if disjoint and circles:
        signs, problem = _other_side_assignment(circles)
        report.add("circles bound a common region", signs is not None,
                   lambda: problem)
    elif not circles:
        report.add("circles bound a common region", True)

    if signs is not None:
        # signs[k] is the sign of eval on the D side of circle k, and a
        # disc is the locus side*eval < 0, so side=+signs[k] cuts off
        # the non-D disc that ping-pong needs.
        discs = []
        for k, circle in enumerate(circles):
            discs.append(SphereDisc(circle, signs[k]))
        for i in range(len(discs)):
            for j in range(i + 1, len(discs)):
                if sphere_geometry.disc_relation(discs[i], discs[j]) != "disjoint":
                    report.add("paired discs pairwise disjoint", False,
                               lambda: f"discs {i} and {j} meet")
                    signs = None
        if signs is not None:
            report.add("paired discs pairwise disjoint", True)

    for j, (c, cp, m) in enumerate(system.pairs, start=1):
        image = sphere_geometry.map_circle(m, c)
        if (not report.add(f"A_{j} maps C_{j} onto C'_{j}",
                           circles_equal(image, cp),
                           lambda: f"image is {image!r}").ok
                or signs is None):
            continue
        d_side = SphereDisc(c, -signs[2 * (j - 1)])       # the D side of C_j
        target = SphereDisc(cp, signs[2 * (j - 1) + 1])   # non-D side of C'_j
        report.add(f"A_{j} throws the common region into C'_{j}-disc",
                   discs_same(disc_image(m, d_side), target),
                   lambda: "image disc is on the wrong side")

    if report.ok and signs is not None:
        system._discs = _letter_discs(system, signs)
    return report


def pairing_lines(report):
    """verify_pairing's table: one status-column line per check."""
    return [f"{c.status.upper():12s} {c.name}"
            + (f" -- {c.witness}" if c.witness else "")
            for c in report.checks]


def _letter_discs(system, signs):
    discs = {}
    for j in range(1, system.genus + 1):
        c, cp, _ = system.pairs[j - 1]
        discs[-j] = SphereDisc(c, signs[2 * (j - 1)])
        discs[j] = SphereDisc(cp, signs[2 * (j - 1) + 1])
    return discs


def _require_verified(system):
    if system._discs is None:
        report = verify_pairing(system)
        if not report.ok:
            raise ValueError("pairing system failed verification: "
                             + report.failure_message())
    return system._discs


def letter_discs(system, strict=True):
    """Per-letter ping-pong target discs, keyed by signed index.

    strict=True requires the full verification to pass.  With
    strict=False only the side assignment must succeed, so deliberately
    broken systems can still be sampled to exhibit their violations;
    nothing is cached on the system in that case.
    """
    if strict:
        return dict(_require_verified(system))
    if system._discs is not None:
        return dict(system._discs)
    signs, problem = _other_side_assignment(system.all_circles())
    if signs is None:
        raise DegeneratePairingError(problem)
    return _letter_discs(system, signs)


def reduced_words(genus, depth, start=None, extend=None):
    """All nonempty reduced words of length <= depth, in BFS order.

    Letters run 1, -1, 2, -2, ... within each length.  Given start(x),
    the value of the one-letter word (x,), and extend(value, y), the
    value of a word followed by y computed from the word's own value,
    the walk yields (word, value) pairs instead of bare words; each
    value is built once, from its parent's, in the same pass.
    """
    letters = [x for j in range(1, genus + 1) for x in (j, -j)]
    carry = start is not None
    for length in range(1, depth + 1):
        if length == 1:
            frontier = [((x,), start(x) if carry else None) for x in letters]
        else:
            frontier = [(word + (y,), extend(value, y) if carry else None)
                        for word, value in frontier
                        for y in letters if y != -word[-1]]
        if carry:
            yield from frontier
        else:
            yield from (word for word, _ in frontier)


def count_reduced_words(genus, depth):
    """Number of nonempty reduced words of length <= depth."""
    if genus == 0 or depth <= 0:
        return 0
    total = 0
    level = 2 * genus
    for _ in range(depth):
        total += level
        level *= 2 * genus - 1
    return total


def ping_pong_disc(system, word):
    """The disc guaranteed to contain the image of the common region.

    For a reduced word w = x1 x2 ... xn the disc is the image of the
    last letter's disc under the prefix x1 ... x(n-1); extending a word
    nests its disc strictly inside the shorter word's disc.
    """
    word = reduce_word(word)
    if not word:
        raise ValueError("empty word has no ping-pong disc")
    discs = _require_verified(system)
    disc = discs[word[-1]]
    for letter in reversed(word[:-1]):
        disc = disc_image(system.generator(letter), disc)
    return disc


def word_census(system, depth):
    """Classification counts over all nonempty reduced words up to depth."""
    maps = {x: system.generator(x)
            for j in range(1, system.genus + 1) for x in (j, -j)}
    counts = {}
    for _, m in reduced_words(system.genus, depth, maps.__getitem__,
                              lambda m, y: m * maps[y]):
        kind = _map_kind(m)
        counts[kind] = counts.get(kind, 0) + 1
    return counts
