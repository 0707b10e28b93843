"""Circles and discs on the Riemann sphere via Hermitian forms.

A circle is the zero set of  A|z|^2 + 2 Re(conj(B) z) + C  with A, C real
and B complex, subject to |B|^2 - A*C > 0.  A = 0 gives a line, i.e. a
circle through infinity.  Coefficients are normalized so the discriminant
|B|^2 - A*C equals 1, with a canonical overall sign, which makes circle
comparison a plain coefficient comparison.

Disjointness questions are answered through the inversive product of the
oriented forms; it is invariant under Moebius maps, so no special cases
for lines or discs containing infinity are needed.
"""

import cmath
import math

from .moebius import INF, TOL, MoebiusMap, sphere_point, chordal  # noqa: F401

_LINE_BAND = 1e-12   # |A| below this counts as a line


class SphereCircle:
    """A circle on the sphere, stored as a normalized Hermitian form."""

    __slots__ = ("A", "B", "C")

    def __init__(self, A, B, C):
        A = float(A)
        B = complex(B)
        C = float(C)
        disc = abs(B) ** 2 - A * C
        if disc <= 1e-24:
            raise ValueError("form does not define a real circle")
        s = math.sqrt(disc)
        self._store(A / s, B / s, C / s)

    def _store(self, A, B, C):
        """Store the form with its canonical sign; return that sign.

        The stored coefficients are the returned sign times (A, B, C).
        """
        # canonical sign: first sufficiently nonzero coefficient positive,
        # judged relative to the coefficient scale
        scale = max(abs(A), abs(B.real), abs(B.imag), abs(C), 1e-300)
        sign = 1
        for lead in (A, B.real, B.imag, C):
            if abs(lead) > 1e-9 * scale:
                if lead < 0:
                    A, B, C = -A, -B, -C
                    sign = -1
                break
        self.A = A
        self.B = B
        self.C = C
        return sign

    @classmethod
    def _from_normalized(cls, A, B, C):
        """Build from coefficients already known to have discriminant 1.

        Recomputing |B|^2 - A*C cancels catastrophically once the circle
        is tiny (coefficients ~1/radius), while the det-1 congruence that
        produces such forms preserves the discriminant exactly, so the
        algebra is trusted instead.
        """
        obj = cls.__new__(cls)
        obj._store(float(A), complex(B), float(C))
        return obj

    @classmethod
    def from_center_radius(cls, center, radius):
        center = complex(center)
        radius = float(radius)
        if radius <= 0:
            raise ValueError("radius must be positive")
        # write the normalized form directly: dividing by the radius here
        # avoids the cancellation |center|^2 - (|center|^2 - radius^2)
        A = 1.0 / radius
        B = -center / radius
        C = (center.real ** 2 + center.imag ** 2) / radius - radius
        obj = cls.__new__(cls)
        obj._store(A, B, C)
        return obj

    @classmethod
    def from_line(cls, p, q):
        """The line through two finite points (a circle through INF)."""
        p = complex(p)
        q = complex(q)
        if abs(p - q) <= 1e-14:
            raise ValueError("need two distinct points")
        direction = (q - p) / abs(q - p)
        normal = 1j * direction
        return cls(0.0, normal, -2.0 * (normal.conjugate() * p).real)

    def eval(self, point):
        """Value of the form at a sphere point; at INF this is A."""
        point = sphere_point(point)
        if point is INF:
            return self.A
        return (self.A * abs(point) ** 2
                + 2.0 * (self.B.conjugate() * point).real + self.C)

    def is_line(self):
        return abs(self.A) <= _LINE_BAND

    def center_radius(self):
        if self.is_line():
            raise ValueError("line has no finite center")
        center = -self.B / self.A
        radius = 1.0 / abs(self.A)   # sqrt(disc)/|A| with disc normalized to 1
        return center, radius

    def a_point(self):
        """Some point on the circle."""
        if self.is_line():
            return sphere_point(-self.C * self.B / (2.0 * abs(self.B) ** 2))
        center, radius = self.center_radius()
        return sphere_point(center + radius)

    def spherical_diameter(self):
        """Chordal diameter of the circle (the unit circle has diameter 2)."""
        return 4.0 / math.sqrt(4.0 * abs(self.B) ** 2 + (self.A - self.C) ** 2)

    def __repr__(self):
        if self.is_line():
            return f"SphereCircle(line, B={self.B:.6g}, C={self.C:.6g})"
        center, radius = self.center_radius()
        return f"SphereCircle(center={center:.6g}, radius={radius:.6g})"


def circles_equal(c1, c2):
    return (abs(c1.A - c2.A) <= TOL and abs(c1.B - c2.B) <= TOL
            and abs(c1.C - c2.C) <= TOL)


def _pushforward(m, A, B, C):
    """Transport a Hermitian form through m by the inverse congruence.

    Returns the raw (un-renormalized) image coefficients.  The values of
    the form are carried over pointwise up to a positive factor, so the
    sign of the form is preserved, not just its zero set.  M^-1 is the
    adjugate (d, -b, -c, a) of the det-1 matrix M, for either
    orientation; an anticonformal map pushes the conjugated form.  B is
    complex, as every form stores it.
    """
    n1, n2, n3, n4 = m.d, -m.b, -m.c, m.a
    if not m.conformal:
        B = B.conjugate()
    Bc = B.conjugate()
    n1c = n1.conjugate()
    n3c = n3.conjugate()
    t12 = A * n2 + B * n4
    t22 = Bc * n2 + C * n4
    A2 = (n1c * (A * n1 + B * n3) + n3c * (Bc * n1 + C * n3)).real
    B2 = n1c * t12 + n3c * t22
    C2 = (n2.conjugate() * t12 + n4.conjugate() * t22).real
    return A2, B2, C2


def map_circle(m, circle):
    """Image of a circle under a Moebius map (conformal or not)."""
    A2, B2, C2 = _pushforward(m, circle.A, circle.B, circle.C)
    return SphereCircle._from_normalized(A2, B2, C2)


class SphereDisc:
    """One of the two discs bounded by a circle.

    A point p is inside exactly when side * circle.eval(p) < 0.
    """

    __slots__ = ("circle", "side")

    def __init__(self, circle, side):
        if side not in (1, -1):
            raise ValueError("side must be +1 or -1")
        self.circle = circle
        self.side = side

    @classmethod
    def _from_oriented(cls, A, B, C):
        """The disc whose oriented form is (A, B, C): float A and C,
        complex B, discriminant already 1.

        The circle stores the canonical form s * (A, B, C) and the side
        is that same s, so oriented() gives back (A, B, C) bit for bit
        (negation is exact); nothing is validated, as in
        SphereCircle._from_normalized.
        """
        circle = SphereCircle.__new__(SphereCircle)
        obj = cls.__new__(cls)
        obj.circle = circle
        obj.side = circle._store(A, B, C)
        return obj

    @classmethod
    def from_center_radius(cls, center, radius, inside=True):
        circle = SphereCircle.from_center_radius(center, radius)
        probe = circle.eval(complex(center))
        side = -_sign(probe) if inside else _sign(probe)
        return cls(circle, side)

    def oriented(self):
        """Coefficients of the form that is negative exactly inside."""
        return (self.side * self.circle.A, self.side * self.circle.B,
                self.side * self.circle.C)

    def signed_eval(self, point):
        return self.side * self.circle.eval(point)

    def contains(self, point):
        """Whether the point lies strictly inside (a sign test, no band)."""
        return self.signed_eval(point) < 0.0

    def complement(self):
        return SphereDisc(self.circle, -self.side)

    def __repr__(self):
        word = "inside" if self.side * self.circle.A > 0 else "outside-or-half"
        return f"SphereDisc({self.circle!r}, {word})"


def _sign(x):
    return 1 if x > 0 else -1


def discs_same(d1, d2):
    if not circles_equal(d1.circle, d2.circle):
        return False
    A1, B1, C1 = d1.oriented()
    A2, B2, C2 = d2.oriented()
    return abs(A1 - A2) <= TOL and abs(B1 - B2) <= TOL and abs(C1 - C2) <= TOL


def disc_image(m, disc):
    """Image disc under a Moebius map.

    The side is read off the transported oriented form rather than from a
    witness point: evaluating the form at an interior point of a tiny disc
    cancels catastrophically, while the congruence keeps the sign exact at
    any scale.  The pushed-forward form is the image's oriented form
    (_pushforward keeps the sign of the form), so the image is built from
    it by SphereDisc._from_oriented: its side is the sign that makes the
    circle's coefficients canonical.
    """
    return SphereDisc._from_oriented(*_pushforward(m, *disc.oriented()))


def _inversive(A1, B1, C1, A2, B2c, C2):
    """Inversive product of two oriented forms, the second's B conjugated."""
    return ((B1 * B2c).real * 2.0 - A1 * C2 - A2 * C1) / 2.0


def inversive_product(d1, d2):
    """Inversive product of two oriented discs.

    For normalized oriented forms: < -1 disjoint closed discs, exactly -1
    externally tangent, in (-1, 1) crossing boundaries, exactly 1
    internally tangent, > 1 nested.  Moebius-invariant.
    """
    A1, B1, C1 = d1.oriented()
    A2, B2, C2 = d2.oriented()
    return _inversive(A1, B1, C1, A2, B2.conjugate(), C2)


def _relation(p, A, B, C, boundary):
    """The three-way decision of disc_relation.

    p is the inversive product of d1 and d2, (A, B, C) the oriented form
    of d1 and boundary a point of d2's circle.  The inversive product
    alone cannot tell two disjoint discs from two discs that jointly
    cover the sphere (the product is invariant under flipping both
    sides), so the low band is resolved by d1's form at that point.
    """
    if p > -1.0 + TOL:
        return "meets"
    if boundary is INF:
        value = A
    else:
        value = (A * abs(boundary) ** 2
                 + 2.0 * (B.conjugate() * boundary).real + C)
    if value < -TOL:
        return "meets"            # boundary of d2 inside d1: covering pair
    if p < -1.0 - TOL:
        return "disjoint"
    return "touching"


def disc_relation(d1, d2):
    """One of 'disjoint', 'touching', 'meets' for closed discs.

    'touching' means externally tangent: interiors disjoint, boundaries
    sharing one point.  It is reported separately and never folded into
    either other answer.
    """
    A, B, C = d1.oriented()
    return _relation(inversive_product(d1, d2), A, B, C,
                     d2.circle.a_point())


def _target(other):
    """other's oriented form, its B conjugated, and a point of its circle."""
    A2, B2, C2 = other.oriented()
    return A2, B2.conjugate(), C2, other.circle.a_point()


def image_relation(disc, other):
    """The function m -> disc_relation(disc_image(m, disc), other).

    disc's and other's oriented forms and other's boundary point are
    read once, here.  Each call pushes disc's oriented form through m and
    decides on the raw image coefficients, building no circle or disc:
    those are the oriented form of disc_image's result, bit for bit
    (SphereDisc._from_oriented), so every answer is disc_relation's.
    """
    A, B, C = disc.oriented()
    A2, B2c, C2, boundary = _target(other)

    def relation(m):
        A1, B1, C1 = _pushforward(m, A, B, C)
        return _relation(_inversive(A1, B1, C1, A2, B2c, C2), A1, B1, C1,
                         boundary)

    return relation


def image_relations(disc, others):
    """The function m -> the list of image_relation(disc, o)(m), o in others.

    disc's form is pushed through m once for all of others, and each
    answer is decided from those same raw coefficients, so it is the
    answer image_relation gives, bit for bit.
    """
    A, B, C = disc.oriented()
    targets = tuple(map(_target, others))

    def relations(m):
        A1, B1, C1 = _pushforward(m, A, B, C)
        return [_relation(_inversive(A1, B1, C1, A2, B2c, C2), A1, B1, C1,
                          boundary)
                for A2, B2c, C2, boundary in targets]

    return relations


def disc_contains(outer, inner):
    """Whether the closed inner disc sits inside the closed outer disc:
    their inversive product is at least 1 - TOL, and a point of inner's
    circle lies within TOL of outer's closed side."""
    if inversive_product(inner, outer) < 1.0 - TOL:
        return False
    return outer.signed_eval(inner.circle.a_point()) <= TOL


def circles_disjoint(c1, c2):
    """Whether two circles are disjoint as curves (tangency is not disjoint)."""
    d1 = SphereDisc(c1, 1)
    d2 = SphereDisc(c2, 1)
    return abs(inversive_product(d1, d2)) > 1.0 + TOL
