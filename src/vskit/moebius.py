"""Moebius and extended Moebius transformations of the Riemann sphere.

Matrices have determinant one and are compared projectively, i.e. up to
a global sign.  Normalization happens once, when a map is built from
user entries; products, inverses, powers and conjugates of det-1
matrices are det-1 by algebra and are stored without re-normalizing.
An anticonformal map with matrix M acts as
z -> (a*conj(z) + b) / (c*conj(z) + d).
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

TOL = 1e-9                # tolerance of every geometric decision in vskit
PARABOLIC_BAND = 1e-12    # |tr^2 - 4| below this is treated as honestly parabolic
MAX_ELLIPTIC_ORDER = 120  # search bound for elliptic orders


class _Infinity:
    """Singleton for the point at infinity."""

    __slots__ = ()

    def __repr__(self):
        return "inf"


INF = _Infinity()


def _exact_det(a, b, c, d):
    """Determinant of a float-entry complex matrix, free of cancellation.

    For products of large normalized matrices, a*d and b*c agree to many
    digits and the float difference is mostly rounding noise; rational
    arithmetic on the exact float values recovers the true determinant.
    """
    ar, ai = Fraction(a.real), Fraction(a.imag)
    br, bi = Fraction(b.real), Fraction(b.imag)
    cr, ci = Fraction(c.real), Fraction(c.imag)
    dr, di = Fraction(d.real), Fraction(d.imag)
    re = (ar * dr - ai * di) - (br * cr - bi * ci)
    im = (ar * di + ai * dr) - (br * ci + bi * cr)
    return complex(re, im)


def sphere_point(value):
    """Canonicalize a point of the sphere: a finite complex number or INF.

    Float infinities collapse to the single canonical INF; NaN is rejected.
    """
    if value is INF:
        return INF
    z = complex(value)
    if cmath.isnan(z):
        raise ValueError("point of the sphere cannot be NaN")
    if cmath.isinf(z):
        return INF
    return z


def chordal(p, q):
    """Chordal distance between two sphere points (unit sphere, diameter 2)."""
    p = sphere_point(p)
    q = sphere_point(q)
    if p is INF and q is INF:
        return 0.0
    if p is INF:
        return 2.0 / (1.0 + abs(q) ** 2) ** 0.5
    if q is INF:
        return 2.0 / (1.0 + abs(p) ** 2) ** 0.5
    return 2.0 * abs(p - q) / ((1.0 + abs(p) ** 2) * (1.0 + abs(q) ** 2)) ** 0.5


class MoebiusMap:
    """A (possibly orientation-reversing) Moebius transformation.

    Stored as a 2x2 complex matrix with determinant 1 plus an orientation
    flag.  Two maps are the same transformation exactly when their flags
    agree and their matrices agree up to sign.

    The constructor takes user entries of any nonzero determinant and
    divides them by its square root, first scaling entries of extreme
    size by a power of two; singular matrices are rejected.
    Products, inverses, powers and conjugates are built from det-1
    factors and skip that step (see _from_det1).
    """

    __slots__ = ("a", "b", "c", "d", "conformal")

    def __init__(self, a, b, c, d, conformal=True):
        a, b, c, d = complex(a), complex(b), complex(c), complex(d)
        scale = max(abs(a), abs(b), abs(c), abs(d))
        if not 2.0 ** -48 < scale < 2.0 ** 48:
            # bring the largest entry into [1/2, 1) by an exact power of
            # two, so that the determinant neither overflows nor falls
            # under the singular bound; normalizing cancels the shift
            shift = -math.frexp(scale)[1]
            a, b, c, d = (complex(math.ldexp(z.real, shift),
                                  math.ldexp(z.imag, shift))
                          for z in (a, b, c, d))
            scale = math.ldexp(scale, shift)
        det = a * d - b * c
        if scale > 0.0 and abs(det) < 1e-9 * scale * scale:
            det = _exact_det(a, b, c, d)
        if abs(det) < 1e-30:
            raise ValueError("matrix is singular")
        s = cmath.sqrt(det)
        self.a = a / s
        self.b = b / s
        self.c = c / s
        self.d = d / s
        self.conformal = bool(conformal)

    @classmethod
    def _from_det1(cls, a, b, c, d, conformal):
        """Build from complex entries already known to have determinant 1.

        Products and adjugates of det-1 matrices are det-1 by algebra.
        Re-normalizing them only divides by the square root of a rounded
        1, and once entries grow large the float determinant cancels and
        needs an exact rational recomputation, so the algebra is trusted.
        """
        obj = cls.__new__(cls)
        obj.a = a
        obj.b = b
        obj.c = c
        obj.d = d
        obj.conformal = conformal
        return obj

    @classmethod
    def identity(cls):
        return cls._from_det1(1 + 0j, 0j, 0j, 1 + 0j, True)

    @property
    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __call__(self, p):
        p = sphere_point(p)
        if not self.conformal and p is not INF:
            p = p.conjugate()
        if p is INF:
            if self.c == 0:
                return INF
            return sphere_point(self.a / self.c)
        den = self.c * p + self.d
        if den == 0:
            return INF
        return sphere_point((self.a * p + self.b) / den)

    def __mul__(self, other):
        """Composition: (self * other)(z) = self(other(z))."""
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        if not self.conformal:
            a2, b2, c2, d2 = (a2.conjugate(), b2.conjugate(),
                              c2.conjugate(), d2.conjugate())
        return MoebiusMap._from_det1(
            self.a * a2 + self.b * c2,
            self.a * b2 + self.b * d2,
            self.c * a2 + self.d * c2,
            self.c * b2 + self.d * d2,
            self.conformal == other.conformal,
        )

    def inverse(self):
        """The adjugate matrix; conjugated for an anticonformal map."""
        if self.conformal:
            return MoebiusMap._from_det1(self.d, -self.b, -self.c, self.a,
                                         True)
        return MoebiusMap._from_det1(self.d.conjugate(), -self.b.conjugate(),
                                     -self.c.conjugate(), self.a.conjugate(),
                                     False)

    def conjugated_by(self, t):
        """Return t * self * t^-1."""
        return t * self * t.inverse()

    def trace(self):
        return self.a + self.d

    def __pow__(self, k):
        if k == 0:
            return MoebiusMap.identity()
        base = self if k > 0 else self.inverse()
        out = base
        for _ in range(abs(k) - 1):
            out = out * base
        return out

    def __repr__(self):
        tag = "" if self.conformal else ", anticonformal"
        return (f"MoebiusMap({self.a:.6g}, {self.b:.6g}, "
                f"{self.c:.6g}, {self.d:.6g}{tag})")


def _projective_gap(m1, m2):
    e1 = m1.entries
    e2 = m2.entries
    diff = max(abs(x - y) for x, y in zip(e1, e2))
    summ = max(abs(x + y) for x, y in zip(e1, e2))
    return min(diff, summ)


def projectively_equal(m1, m2, tol=TOL):
    """Whether two maps agree as transformations (matrices equal up to sign)."""
    if m1.conformal != m2.conformal:
        return False
    return _projective_gap(m1, m2) <= tol


def is_identity_map(m, tol=TOL):
    """Whether m is conformal with matrix within tol of +I or -I."""
    if not m.conformal or abs(m.b) > tol or abs(m.c) > tol:
        return False
    a, d = m.a, m.d
    return ((abs(a - 1.0) <= tol and abs(d - 1.0) <= tol)
            or (abs(a + 1.0) <= tol and abs(d + 1.0) <= tol))


@dataclass(frozen=True)
class MapClass:
    """Classification outcome of a Moebius map.

    kind is one of: identity, elliptic, parabolic, ambiguous-parabolic,
    loxodromic for conformal maps; reflection, imaginary-reflection,
    pseudo-hyperbolic, anticonformal-elliptic, pseudo-parabolic for
    anticonformal ones.  order is set for elliptics: the least q <=
    MAX_ELLIPTIC_ORDER whose rotations 2 pi j / q, j prime to q, include
    the one read off the eigenvalue (twice that for an anticonformal
    elliptic), None when there is no such q.  multiplier is set for
    loxodromic, elliptic and pseudo-hyperbolic maps.
    """

    kind: str
    order: int | None = None
    multiplier: complex | None = None


def _has_order(t, order, tol=TOL):
    """Whether t rotates by 2 pi j / order, within tol, for some j prime
    to order.

    The rotation is read off an eigenvalue of t's matrix, taken through
    the discriminant (a - d)^2 + 4bc, which is exact on diagonal matrices.
    Powering t instead gains rounding error in proportion to the order:
    by order 10^8, the order-th power of a rotation of that order is no
    longer the identity within TOL.
    """
    if not t.conformal:
        return False
    k = (t.a + t.d + cmath.sqrt((t.a - t.d) ** 2 + 4 * t.b * t.c)) / 2
    mu = k * k
    turn = cmath.phase(mu) / (2 * math.pi)
    j = round(turn * order)
    return (abs(abs(mu) - 1.0) <= tol
            and 2 * math.pi * abs(turn - j / order) <= tol
            and math.gcd(j, order) == 1)


def _map_kind(m, tol=TOL):
    """classify(m, tol).kind, decided alone.

    Builds no MapClass, computes no multiplier and searches for no
    elliptic order, for callers that read only the kind.
    """
    if not m.conformal:
        return _classify_anticonformal(m, tol).kind
    if is_identity_map(m, tol):
        return "identity"
    t = m.a + m.d
    t2 = t * t
    dev = abs(t2 - 4.0)
    if dev <= PARABOLIC_BAND:
        return "parabolic"
    if dev < tol:
        return "ambiguous-parabolic"
    if abs(t2.imag) <= tol and -tol < t2.real < 4.0:
        return "elliptic"
    return "loxodromic"


def classify(m, tol=TOL):
    """Classify a map by its squared trace.

    Squared traces within PARABOLIC_BAND of 4 are called parabolic; the
    wider band up to tol is reported as ambiguous-parabolic instead of
    silently picking a class.  An elliptic's order is read off its
    eigenvalue by _has_order, trying q = 2, ..., MAX_ELLIPTIC_ORDER.
    """
    if not m.conformal:
        return _classify_anticonformal(m, tol)
    kind = _map_kind(m, tol)
    if kind == "elliptic":
        t = m.trace()
        k = (t + cmath.sqrt(t * t - 4.0)) / 2.0
        lam = k * k
        if lam.imag < 0:
            lam = 1.0 / lam
        order = next((q for q in range(2, MAX_ELLIPTIC_ORDER + 1)
                      if _has_order(m, q, tol)), None)
        return MapClass(kind, order=order, multiplier=lam)
    if kind == "loxodromic":
        t = m.trace()
        t2 = t * t
        k1 = (t + cmath.sqrt(t2 - 4.0)) / 2.0
        k2 = (t - cmath.sqrt(t2 - 4.0)) / 2.0
        k = k1 if abs(k1) >= abs(k2) else k2
        lam = k * k
        if abs(lam) <= 1.0:
            lam = 1.0 / lam
        return MapClass(kind, multiplier=lam)
    return MapClass(kind)


def _classify_anticonformal(m, tol):
    square = m * m
    if is_identity_map(square, tol):
        # the sign of M * conj(M) distinguishes the two involutions:
        # +I has a circle of fixed points, -I has none
        if abs(square.a - 1.0) <= tol and abs(square.d - 1.0) <= tol:
            return MapClass("reflection")
        return MapClass("imaginary-reflection")
    inner = classify(square, tol)
    if inner.kind == "loxodromic":
        lam = cmath.sqrt(inner.multiplier)
        if abs(lam) <= 1.0:
            lam = 1.0 / lam
        return MapClass("pseudo-hyperbolic", multiplier=lam)
    if inner.kind == "elliptic":
        order = 2 * inner.order if inner.order is not None else None
        return MapClass("anticonformal-elliptic", order=order,
                        multiplier=inner.multiplier)
    if inner.kind == "parabolic":
        return MapClass("pseudo-parabolic")
    return MapClass("ambiguous-parabolic")


def fixed_points(m):
    """Fixed points of a conformal non-identity map, one or two sphere points.

    Points are returned sorted with INF first, finite points by
    (real, imag); a parabolic map yields a single point.
    """
    if not m.conformal:
        raise ValueError("fixed points only computed for conformal maps")
    if is_identity_map(m):
        raise ValueError("identity fixes everything")
    return _solve_fixed_points(m)


def _solve_fixed_points(m):
    a, b, c, d = m.a, m.b, m.c, m.d
    if abs(c) <= 1e-14:
        if abs(a - d) <= 1e-14:
            return (INF,)
        return (INF, b / (d - a))
    disc = (a - d) ** 2 + 4.0 * b * c
    if abs(disc) <= PARABOLIC_BAND:
        return (sphere_point((a - d) / (2.0 * c)),)
    root = cmath.sqrt(disc)
    p1 = (a - d + root) / (2.0 * c)
    p2 = (a - d - root) / (2.0 * c)
    # the one comparison a stable sort of two points makes
    if (p2.real, p2.imag) < (p1.real, p1.imag):
        return (p2, p1)
    return (p1, p2)
