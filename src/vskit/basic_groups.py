"""The seven basic group types T1-T7 and their B3 amalgams.

Each type is built from explicit matrices in a standard position:

  T1  E(z) = e^(2 pi i/n) z, a finite cyclic rotation group;
  T2  L(z) = lambda z, infinite cyclic loxodromic;
  T3  U(z) = -z and V(z) = 1/z, the Klein four group;
  T4  A(z) = lambda z with E as in T1 (commuting pair);
  T5  T4's loxodromic normalized by the T3 pair (V inverts A);
  T6  adds B fixing +-1, so <A, B> is Schottky of rank two;
  T7  adds C fixing +-i, so <A, B, C> is Schottky of rank three;
  B3  chains of T3/T5/T6 components amalgamated over shared involutions.

Each type is declared once, by its generators and the action of its
torsion on its free generators; make_basic derives from that the symbolic
leaf used by the algebra layer, the distinguished Schottky generators,
the finite abelian quotient H, and the relation suite it verifies.
"""

from dataclasses import dataclass
from fractions import Fraction
import cmath
import math

from .moebius import (MoebiusMap, _has_order, _map_kind, projectively_equal,
                      is_identity_map, fixed_points, INF)
from .sphere_geometry import SphereCircle, SphereDisc, map_circle, disc_image
from .schottky import PairingSystem, verify_pairing
from .group_algebra import (FiniteAbelianGroup, LeafSymbolic, QuotientMap,
                            euler_characteristic, symbolic_model)
from .combination import (Leaf, free_product, CombinationError,
                          word_names)

# type -> the make_basic keywords (and scene fields) it takes
BASIC_PARAMETERS = {"T1": ("n",), "T2": ("lam",), "T3": (), "T4": ("n", "lam"),
                    "T5": ("lam",), "T6": ("lam1", "lam2"),
                    "T7": ("lam1", "lam2", "lam3")}
BASIC_TYPES = tuple(BASIC_PARAMETERS)

_LAMBDA_MARGIN = 1e-9


class BasicGroupError(ValueError):
    pass


class PairingConstructionError(BasicGroupError):
    """No circle family for the requested parameters (or none known)."""


@dataclass(frozen=True)
class OrbifoldSignature:
    genus: int
    cone_orders: tuple

    def __post_init__(self):
        object.__setattr__(self, "cone_orders",
                           tuple(sorted(int(m) for m in self.cone_orders)))

    def __str__(self):
        cones = ",".join(str(m) for m in self.cone_orders)
        return f"({self.genus};{cones})"


# ---------------------------------------------------------------------------
# matrices


def _rotation(n):
    w = cmath.exp(1j * math.pi / n)
    return MoebiusMap(w, 0, 0, 1 / w)


def _scaling(lam):
    s = cmath.sqrt(lam)
    return MoebiusMap(s, 0, 0, 1 / s)


def _axis_loxodromic(lam):
    """Multiplier-lam loxodromic fixing -1 (attracting) and +1."""
    return MoebiusMap(lam + 1, 1 - lam, 1 - lam, lam + 1)


def _imaginary_axis_loxodromic(lam):
    """Multiplier-lam loxodromic fixing -i (attracting) and +i."""
    return MoebiusMap(lam + 1, 1j * (1 - lam), 1j * (lam - 1), lam + 1)


_NEGATE = MoebiusMap(1, 0, 0, -1)      # z -> -z
_INVERT = MoebiusMap(0, 1, 1, 0)       # z -> 1/z


def _check_n(n):
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise BasicGroupError("n must be an integer >= 2")
    return n


def _check_lambda(lam, tag="lambda"):
    if lam is None:
        raise BasicGroupError(f"{tag} is required")
    lam = complex(lam)
    if not cmath.isfinite(lam):
        raise BasicGroupError(f"{tag} must be finite")
    if abs(lam) <= 1.0 + _LAMBDA_MARGIN:
        raise BasicGroupError(f"{tag} must satisfy |{tag}| > 1")
    return lam


# ---------------------------------------------------------------------------
# the BasicGroup value


class BasicGroup:
    """A basic virtual Schottky group: named matrices plus structure data.

    Immutable by convention.  `gens` maps full generator names to
    MoebiusMaps, `schottky_names` lists the generators of the
    distinguished free normal subgroup G, `quotient` is H = K/G, and
    `symbolic` is the exact algebraic model of the leaf.  Composite
    groups built from a construction tree (B3) also carry `tree`.
    """

    def __init__(self, btype, params, gens, schottky_names, symbolic,
                 quotient, rank, index, prefix="", frame=None, tree=None,
                 cone_count=None, theta=None):
        self.btype = btype
        self.params = dict(params)
        self.gens = dict(gens)
        self.schottky_names = tuple(schottky_names)
        self.symbolic = symbolic
        self.quotient = quotient
        self.rank = int(rank)
        self.index = int(index)
        self.chi = Fraction(1 - self.rank, self.index)
        self.prefix = prefix
        self.frame = frame if frame is not None else MoebiusMap.identity()
        self.tree = tree
        self.cone_count = cone_count
        self._theta = theta

    # -- descriptive -------------------------------------------------------

    @property
    def label(self):
        if self.btype == "B3" and self.tree is not None:
            return f"B3[{self.cone_count} cones]"
        items = []
        for key, value in self.params.items():
            if isinstance(value, complex) and value.imag == 0:
                value = value.real
            if isinstance(value, float) and value.is_integer():
                value = int(value)
            items.append(f"{key}={value}")
        inner = ", ".join(items)
        tag = f"{self.btype}({inner})" if inner else self.btype
        if not is_identity_map(self.frame):
            tag += " (conjugated)"
        return tag

    @property
    def generator_names(self):
        return tuple(self.gens)

    def in_standard_position(self):
        return is_identity_map(self.frame)

    def __repr__(self):
        return f"BasicGroup({self.label})"

    # -- transport ---------------------------------------------------------

    def conjugated_by(self, t):
        if self.tree is not None:
            raise BasicGroupError(
                "conjugation of composite (B3) groups is not supported")
        gens = {name: m.conjugated_by(t) for name, m in self.gens.items()}
        return BasicGroup(self.btype, self.params, gens, self.schottky_names,
                          self.symbolic, self.quotient, self.rank, self.index,
                          prefix=self.prefix, frame=t * self.frame,
                          theta=self._theta)

    def standard_scale(self):
        """Radius bound of the standard-position geometry (fixed points
        and pairing circles), used by auto-placement."""
        lam_abs = [abs(complex(v)) for k, v in self.params.items()
                   if k.startswith("lambda")]
        scale = 1.0
        for i, x in enumerate(lam_abs):
            s = math.sqrt(x)
            scale = max(scale, s)
            if self.btype in ("T6", "T7") and i >= 1:
                scale = max(scale, (s + 1.0) / (s - 1.0))
        return scale

    # -- algebra -----------------------------------------------------------

    def default_theta(self):
        """The canonical projection onto H: torsion generators to the
        standard basis, free generators to zero."""
        if self._theta is not None:
            return self._theta
        images = {}
        k = len(self.quotient.orders)
        for name in self.gens:
            images[name] = self.quotient.zero()
        for i, tname in enumerate(self.symbolic.torsion_names):
            e = [0] * k
            e[i] = 1
            images[tname] = tuple(e)
        return QuotientMap(self.quotient, images)

    # -- geometry ----------------------------------------------------------

    def _standard_pairing_circles(self):
        """(name, C, C') triples in standard position."""
        if self.btype == "B3":
            raise PairingConstructionError(
                "no standard circle family for composite groups")
        if not self.schottky_names:
            raise BasicGroupError(f"{self.btype} has no Schottky generators")
        for key, value in self.params.items():
            if key.startswith("lambda"):
                value = complex(value)
                if self.btype in ("T6", "T7") and abs(value.imag) > 0:
                    raise PairingConstructionError(
                        "circle certificates for T6/T7 need real multipliers")
        out = []
        lam1 = abs(complex(self.params.get("lambda")
                           or self.params.get("lambda1")))
        root = math.sqrt(lam1)
        first = self.schottky_names[0]
        circle = SphereCircle.from_center_radius(0.0, 1.0 / root)
        out.append((first, circle))
        if self.btype in ("T6", "T7"):
            lam2 = complex(self.params["lambda2"]).real
            edge = _annulus_threshold(lam2)
            if lam1 <= edge + _LAMBDA_MARGIN:
                raise PairingConstructionError(
                    f"concentric circle family needs lambda1 > {edge:.6g} "
                    f"for lambda2 = {lam2:.6g}")
            out.append((self.schottky_names[1], _apollonius_circle(lam2)))
        if self.btype == "T7":
            lam3 = complex(self.params["lambda3"]).real
            edge = _annulus_threshold(lam3)
            if lam1 <= edge + _LAMBDA_MARGIN:
                raise PairingConstructionError(
                    f"concentric circle family needs lambda1 > {edge:.6g} "
                    f"for lambda3 = {lam3:.6g}")
            lam2 = complex(self.params["lambda2"]).real
            c2, r2 = _apollonius_center_radius(lam2)
            c3, r3 = _apollonius_center_radius(lam3)
            if math.hypot(c2, c3) <= r2 + r3 + 1e-9:
                raise PairingConstructionError(
                    "the discs around +-1 and +-i overlap for "
                    f"lambda2 = {lam2:.6g}, lambda3 = {lam3:.6g}")
            out.append((self.schottky_names[2],
                        _apollonius_circle(lam3, imaginary=True)))
        return out

    def pairing_system(self, verify=True):
        """A verified circle pairing for the Schottky generators.

        Uses the concentric family: |z| = lambda1^(-1/2) paired with
        |z| = lambda1^(1/2), plus symmetric discs around the fixed pairs
        +-1 (and +-i).  Raises PairingConstructionError when that family
        cannot exist for the parameters.
        """
        triples = self._standard_pairing_circles()
        pairs = []
        for name, circle in triples:
            m = self.gens[name]
            if not self.in_standard_position():
                circle = map_circle(self.frame, circle)
            pairs.append((circle, map_circle(m, circle), m))
        system = PairingSystem(pairs)
        if verify:
            report = verify_pairing(system)
            if not report.ok:
                raise PairingConstructionError(
                    "pairing verification failed: "
                    + report.failure_message())
        return system


def _annulus_threshold(lam):
    s = math.sqrt(lam)
    return ((s + 1.0) / (s - 1.0)) ** 2


def _apollonius_center_radius(lam):
    return (lam + 1.0) / (lam - 1.0), 2.0 * math.sqrt(lam) / (lam - 1.0)


def _apollonius_circle(lam, imaginary=False):
    c, r = _apollonius_center_radius(lam)
    return SphereCircle.from_center_radius(1j * c if imaginary else c, r)


# ---------------------------------------------------------------------------
# constructors


def _presentation(btype, params):
    """The declaration of one basic type: (values, free, torsion).

    params holds the make_basic keywords; an absent one reads as None and
    is reported by its check.  values are the checked parameters under
    their label names; free maps each free generator's name to its
    matrix; torsion maps each torsion generator's name to (matrix, order,
    action), with one action sign per free generator: +1 where the
    torsion generator commutes with it, -1 where it conjugates it to its
    inverse.
    """
    if btype == "T1":
        n = _check_n(params.get("n"))
        return {"n": n}, {}, {"E": (_rotation(n), n, ())}
    if btype == "T2":
        lam = _check_lambda(params.get("lam"))
        return {"lambda": lam}, {"L": _scaling(lam)}, {}
    if btype == "T3":
        return {}, {}, {"U": (_NEGATE, 2, ()), "V": (_INVERT, 2, ())}
    if btype == "T4":
        n = _check_n(params.get("n"))
        lam = _check_lambda(params.get("lam"))
        return ({"n": n, "lambda": lam}, {"A": _scaling(lam)},
                {"E": (_rotation(n), n, (1,))})
    if btype == "T5":
        lam = _check_lambda(params.get("lam"))
        return ({"lambda": lam}, {"A": _scaling(lam)},
                {"U": (_NEGATE, 2, (1,)), "V": (_INVERT, 2, (-1,))})
    lam1 = _check_lambda(params.get("lam1"), "lambda1")
    lam2 = _check_lambda(params.get("lam2"), "lambda2")
    free = {"A": _scaling(lam1), "B": _axis_loxodromic(lam2)}
    if btype == "T6":
        return ({"lambda1": lam1, "lambda2": lam2}, free,
                {"U": (_NEGATE, 2, (1, -1)), "V": (_INVERT, 2, (-1, 1))})
    lam3 = _check_lambda(params.get("lam3"), "lambda3")
    free["C"] = _imaginary_axis_loxodromic(lam3)
    return ({"lambda1": lam1, "lambda2": lam2, "lambda3": lam3}, free,
            {"U": (_NEGATE, 2, (1, -1, -1)), "V": (_INVERT, 2, (-1, 1, -1))})


def _check_presentation(symbolic, gens):
    """Verify projectively that the matrices satisfy the presentation.

    Torsion generators must be distinct maps; of the relations, t^d asks
    t to have order exactly d (checked by _has_order, for any d), and
    every other relator t x t^-1 x^e asks t x t^-1 to equal x^-e.  Sides
    are compared as maps, never as a relator product against the
    identity, which loses digits to cancellation at large multipliers.

    Every free generator must also classify as loxodromic, and every
    torsion generator as elliptic.  A real multiplier with |lambda| below
    about 1 + 3e-5, or a rotation by a tiny angle (n past about 10^5),
    has a trace that classify reads as parabolic or elliptic, so no check
    downstream could tell the generator from one; that is the
    parameters' fault, reported as a BasicGroupError.
    """
    def check(condition, message):
        if not condition:
            raise RuntimeError(f"internal relation check failed: {message}")

    names = symbolic.torsion_names
    for want, group in (("loxodromic", symbolic.free_names),
                        ("elliptic", names)):
        for name in group:
            kind = _map_kind(gens[name])
            if kind != want:
                raise BasicGroupError(
                    f"{name} classifies as {kind}, not {want}")
    for i, first in enumerate(names):
        for second in names[i + 1:]:
            check(not projectively_equal(gens[first], gens[second]),
                  f"{first} and {second} must be distinct")
    for relation in symbolic.relations():
        if len(relation) == 1:
            (name, order), = relation
            check(_has_order(gens[name], order),
                  f"{name} must have order {order}")
            continue
        (t, _), (x, _), _, (_, e) = relation
        m = gens[x]
        check(projectively_equal(gens[t] * m * gens[t].inverse(),
                                 m.inverse() if e > 0 else m),
              f"{t} must {'invert' if e > 0 else 'commute with'} {x}")


def make_basic(btype, *, prefix="", **params):
    """Construct a basic group of the given type in standard position.

    params are the keywords BASIC_PARAMETERS lists for the type; any other
    is rejected.  Multipliers may be complex with |lambda| > 1; n is an
    integer >= 2.  _presentation declares the type once; from it follow
    the generator names (prefixed with `prefix`, free before torsion), the
    LeafSymbolic, the Schottky generators (the free ones), the quotient H
    (the torsion group), rank, index, and the relation suite, verified
    projectively here and listed by `assemble`.
    """
    if btype not in BASIC_PARAMETERS:
        raise BasicGroupError(f"unknown basic type {btype!r}")
    for key in params:
        if key not in BASIC_PARAMETERS[btype]:
            raise BasicGroupError(f"{btype} takes no parameter {key!r}")
    values, free, torsion = _presentation(btype, params)
    p = prefix
    symbolic = LeafSymbolic(
        [p + name for name in free],
        FiniteAbelianGroup([order for _, order, _ in torsion.values()]),
        [p + name for name in torsion],
        [action for _, _, action in torsion.values()])
    gens = {p + name: m for name, m in free.items()}
    gens.update((p + name, m) for name, (m, _, _) in torsion.items())
    _check_presentation(symbolic, gens)
    return BasicGroup(btype, values, gens, symbolic.free_names, symbolic,
                      symbolic.torsion, symbolic.rank, symbolic.torsion.order,
                      prefix=p)


_CONE_TABLE = {"T1": None, "T2": (), "T3": (2, 2, 2), "T4": (),
               "T5": (2, 2, 2, 2), "T6": (2, 2, 2, 2, 2),
               "T7": (2, 2, 2, 2, 2, 2)}


def orbifold_signature(bg):
    """Signature of the quotient orbifold (Riemann sphere or torus with
    cone points) associated with the basic group."""
    if bg.btype == "T1":
        n = bg.params["n"]
        return OrbifoldSignature(0, (n, n))
    if bg.btype in ("T2", "T4"):
        return OrbifoldSignature(1, ())
    if bg.btype == "B3":
        return OrbifoldSignature(0, (2,) * bg.cone_count)
    return OrbifoldSignature(0, _CONE_TABLE[bg.btype])


# ---------------------------------------------------------------------------
# B3: amalgams of T3/T5/T6 components over shared involutions


@dataclass(frozen=True)
class Gluing:
    """One amalgam edge: full generator names on each side, plus an
    optional explicit disc certificate (B1 for the left factor)."""
    left: str
    right: str
    disc: object = None


def _two_point_frame(points):
    """Moebius map sending the two given sphere points to 0 and INF."""
    pp, q = points
    if pp is INF:
        pp, q = q, pp
    if q is INF:
        return MoebiusMap(1, -complex(pp), 0, 1)
    return MoebiusMap(1, -complex(pp), 1, -complex(q))


def _glue_display(spec):
    return "*".join(word_names(spec))


def make_b3(components, gluings, spacing=3.0, depth=6):
    """Amalgamate T3/T5/T6 components over shared involutions.

    Components must carry distinct generator names; a shared name is
    rejected before any placement.  gluings[k] joins the running
    assembly (at components[k]) with components[k+1]; each side names
    an order-2 generator, or a tuple of generators whose product has
    order 2 (the only usable involution of T6, U*V, is such a product;
    so is T5's).  Consecutive gluings must use distinct involutions of
    the shared middle component.  The right factor is conjugated so the
    named matrices agree, with discs auto-placed around the involution
    axis (growing retries), unless the gluing carries an explicit disc.
    """
    if not components:
        raise BasicGroupError("at least one component required")
    for bg in components:
        if bg.btype not in ("T3", "T5", "T6"):
            raise BasicGroupError(
                f"B3 components must be T3/T5/T6, got {bg.btype}")
    if len(gluings) != len(components) - 1:
        raise BasicGroupError("need exactly one gluing per added component")
    if len(components) == 1:
        return components[0]
    names = [name for bg in components for name in bg.gens]
    shared = sorted({name for name in names if names.count(name) > 1})
    if shared:
        raise BasicGroupError(
            f"generator names shared across components: {shared}")

    gluings = [g if isinstance(g, Gluing) else Gluing(*g) for g in gluings]
    for k in range(1, len(gluings)):
        if set(word_names(gluings[k].left)) == \
                set(word_names(gluings[k - 1].right)):
            raise BasicGroupError(
                "consecutive amalgams must use distinct involutions "
                f"({_glue_display(gluings[k].left)} reused)")

    assembly = Leaf(components[0])
    gens = dict(components[0].gens)     # the assembly's, in walk order
    placed = [components[0]]
    theta = components[0].default_theta()
    images = dict(theta.images)
    H = components[0].quotient

    for k, glue in enumerate(gluings):
        right = components[k + 1]
        for name in word_names(glue.left):
            if name not in gens:
                raise BasicGroupError(f"unknown left generator {name!r}")
        for name in word_names(glue.right):
            if name not in right.gens:
                raise BasicGroupError(f"unknown right generator {name!r}")
        u_left = math.prod((gens[n] for n in word_names(glue.left)),
                           start=MoebiusMap.identity())
        u_right = math.prod((right.gens[n] for n in word_names(glue.right)),
                            start=MoebiusMap.identity())
        if not _has_order(u_left, 2):
            raise BasicGroupError(
                f"{_glue_display(glue.left)} is not an involution")
        if not _has_order(u_right, 2):
            raise BasicGroupError(
                f"{_glue_display(glue.right)} is not an involution")

        if glue.disc is not None:
            if not projectively_equal(u_left, u_right):
                raise BasicGroupError(
                    "explicit-disc gluing requires pre-aligned components "
                    f"({_glue_display(glue.left)} != "
                    f"{_glue_display(glue.right)} as matrices)")
            node = free_product(assembly, Leaf(right),
                                (glue.left, glue.right),
                                glue.disc, glue.disc.complement(), depth)
            placed_right = right
        else:
            node = None
            last_error = None
            Q = _two_point_frame(fixed_points(u_left))
            Qinv = Q.inverse()
            for attempt in range(4):
                sigma = spacing * (2.0 ** attempt)
                push = MoebiusMap(sigma * sigma, 0, 0, 1)
                F = Qinv * push * _two_point_frame(fixed_points(u_right))
                candidate = right.conjugated_by(F)
                disc_w = SphereDisc(
                    SphereCircle.from_center_radius(0.0, sigma), -1)
                B1 = disc_image(Qinv, disc_w)
                try:
                    node = free_product(assembly, Leaf(candidate),
                                        (glue.left, glue.right),
                                        B1, B1.complement(), depth)
                    placed_right = candidate
                    break
                except CombinationError as err:
                    last_error = err
            if node is None:
                raise BasicGroupError(
                    "auto-placement failed for gluing "
                    f"{_glue_display(glue.left)} ~ "
                    f"{_glue_display(glue.right)}: {last_error}")

        # merge theta: remap the right component's images so the glued
        # involutions agree in H.  a and b are nonzero (theta is injective
        # on each component's torsion), so swapping them, and fixing 0 and
        # a + b, is an automorphism of Z2 x Z2
        right_theta = placed_right.default_theta()
        a = H.zero()
        for name in word_names(glue.left):
            a = H.add(a, images[name])
        b = H.zero()
        for name in word_names(glue.right):
            b = H.add(b, right_theta.images[name])
        swap = {a: b, b: a}
        for name, img in right_theta.images.items():
            images[name] = swap.get(img, img)
        placed.append(placed_right)
        gens.update(placed_right.gens)
        assembly = node

    chi = euler_characteristic(assembly)
    rank = 1 - 4 * chi
    if rank.denominator != 1:
        raise RuntimeError("internal error: non-integer B3 rank")
    cone_count = sum(len(_CONE_TABLE[bg.btype]) for bg in components) \
        - 2 * len(gluings)
    schottky = tuple(n for bg in placed for n in bg.schottky_names)
    theta = QuotientMap(H, images)
    return BasicGroup("B3", {}, gens, schottky, symbolic_model(assembly), H,
                      int(rank), 4, tree=assembly, cone_count=cone_count,
                      theta=theta)
