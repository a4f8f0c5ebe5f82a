"""Spherical trigonometry kernel: closed-form triangle solvers on the unit 2-sphere.

Every length and angle is a plain radian value; there is no degree support
anywhere.  A valid triangle has all three sides in (0, pi), satisfies the
three triangle inequalities with margin VALIDITY_MARGIN, and has perimeter
below 2*pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PI = math.pi
TWO_PI = 2.0 * math.pi

# Inverse-trig arguments may leave [-1, 1] by roundoff; anything beyond
# CLAMP_TOL signals real trouble rather than noise.
CLAMP_TOL = 1e-12
# Margin applied to every triangle inequality; boundary-degenerate
# triangles are rejected so downstream solvers see a uniform interior.
VALIDITY_MARGIN = 1e-10


class SphericalGeometryError(ValueError):
    """Base error for the kernel."""


class NumericalCorruptionError(SphericalGeometryError):
    """An inverse-trig argument left [-1, 1] by more than CLAMP_TOL."""


class NoTriangleError(SphericalGeometryError):
    """The given data cannot be realized by any spherical triangle."""


class InvalidTriangleError(SphericalGeometryError):
    """A triangle violates a validity invariant; ``violation`` names it."""

    def __init__(self, message: str, violation: str):
        super().__init__(message)
        self.violation = violation


def clamped_acos(x: float) -> float:
    """acos with a CLAMP_TOL guard band outside [-1, 1]."""
    if x > 1.0:
        if x > 1.0 + CLAMP_TOL:
            raise NumericalCorruptionError(
                f"acos argument {x!r} exceeds 1 beyond the roundoff clamp")
        return 0.0
    if x < -1.0:
        if x < -1.0 - CLAMP_TOL:
            raise NumericalCorruptionError(
                f"acos argument {x!r} is below -1 beyond the roundoff clamp")
        return PI
    return math.acos(x)


def clamped_asin(x: float) -> float:
    """asin with a CLAMP_TOL guard band outside [-1, 1]."""
    if x > 1.0:
        if x > 1.0 + CLAMP_TOL:
            raise NumericalCorruptionError(
                f"asin argument {x!r} exceeds 1 beyond the roundoff clamp")
        return PI / 2.0
    if x < -1.0:
        if x < -1.0 - CLAMP_TOL:
            raise NumericalCorruptionError(
                f"asin argument {x!r} is below -1 beyond the roundoff clamp")
        return -PI / 2.0
    return math.asin(x)


def clamp_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Array form of the clamp: x clipped to [-1, 1], and a mask of the
    entries inside the CLAMP_TOL guard band.

    An entry outside the band (or nan) is False in the mask where
    clamped_acos and clamped_asin would raise NumericalCorruptionError.
    """
    return np.clip(x, -1.0, 1.0), np.abs(x) <= 1.0 + CLAMP_TOL


def _require_range(name: str, value: float, lo: float = 0.0, hi: float = PI) -> None:
    if not (lo < value < hi):
        raise SphericalGeometryError(
            f"{name} = {value!r} outside the open interval ({lo}, {hi})")


def triangle_violations(a: float, b: float, c: float) -> list[str]:
    """The validity rule: every violated invariant of sides (a, b, c)."""
    margin = VALIDITY_MARGIN
    out = []
    if not (margin < a < PI - margin):
        out.append(f"side a = {a!r} outside (0, pi)")
    if not (margin < b < PI - margin):
        out.append(f"side b = {b!r} outside (0, pi)")
    if not (margin < c < PI - margin):
        out.append(f"side c = {c!r} outside (0, pi)")
    if a >= b + c - margin:
        out.append(f"triangle inequality a < b + c violated by {a - (b + c)!r}")
    if b >= a + c - margin:
        out.append(f"triangle inequality b < a + c violated by {b - (a + c)!r}")
    if c >= a + b - margin:
        out.append(f"triangle inequality c < a + b violated by {c - (a + b)!r}")
    if a + b + c >= TWO_PI - margin:
        out.append(f"perimeter {a + b + c!r} not below 2*pi")
    return out


@dataclass(frozen=True)
class SphericalTriangle:
    """Three side lengths of a spherical triangle, in radians."""

    a: float
    b: float
    c: float

    def sides(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)

    @property
    def is_valid(self) -> bool:
        return not triangle_violations(self.a, self.b, self.c)


@dataclass(frozen=True)
class TriangleAngles:
    """Interior angles, A opposite side a and so on."""

    A: float
    B: float
    C: float

    def angles(self) -> tuple[float, float, float]:
        return (self.A, self.B, self.C)

    @property
    def excess(self) -> float:
        return self.A + self.B + self.C - PI


def side_from_sas(a: float, b: float, C: float) -> float:
    """Third side from two sides and the included angle (spherical cosine law)."""
    _require_range("side a", a)
    _require_range("side b", b)
    _require_range("angle C", C)
    arg = math.cos(a) * math.cos(b) + math.sin(a) * math.sin(b) * math.cos(C)
    return clamped_acos(arg)


def sss_angles(a: float, b: float, c: float) -> tuple[float, float, float]:
    """Angles (A, B, C) opposite sides (a, b, c) by the inverse cosine law.

    The sides are checked against the validity rule first; an invalid
    triangle raises InvalidTriangleError naming its first violation.
    """
    bad = triangle_violations(a, b, c)
    if bad:
        raise InvalidTriangleError(
            f"invalid spherical triangle {(a, b, c)}: {bad[0]}", violation=bad[0])
    ca, cb, cc = math.cos(a), math.cos(b), math.cos(c)
    sa, sb, sc = math.sin(a), math.sin(b), math.sin(c)
    return (clamped_acos((ca - cb * cc) / (sb * sc)),
            clamped_acos((cb - ca * cc) / (sa * sc)),
            clamped_acos((cc - ca * cb) / (sa * sb)))


def sss_differentials(a: float, b: float, c: float) -> tuple[tuple[float, float, float], ...]:
    """Exact Jacobian of sss_angles (which checks validity): rows A, B, C.

    The differential of the cosine law (Todhunter, Spherical Trigonometry,
    small variations of a triangle's parts): dA/da = sin a/(sin b sin c sin A),
    dA/db = -cos C dA/da, dA/dc = -cos B dA/da, and cyclically for B and C.
    """
    A, B, C = sss_angles(a, b, c)
    sa, sb, sc = math.sin(a), math.sin(b), math.sin(c)
    cA, cB, cC = math.cos(A), math.cos(B), math.cos(C)
    dAa = sa / (sb * sc * math.sin(A))
    dBb = sb / (sa * sc * math.sin(B))
    dCc = sc / (sa * sb * math.sin(C))
    return ((dAa, -cC * dAa, -cB * dAa),
            (-cC * dBb, dBb, -cA * dBb),
            (-cB * dCc, -cA * dCc, dCc))


def angles_from_sss(t: SphericalTriangle) -> TriangleAngles:
    """All three angles of a valid triangle (inverse cosine law)."""
    return TriangleAngles(*sss_angles(t.a, t.b, t.c))


def dual_cosine_angle(A: float, B: float, c: float) -> float:
    """Angle opposite side c from the two angles adjacent to it.

    Uses the dual (polar) cosine law cos C = -cos A cos B + sin A sin B cos c.
    An argument outside [-1, 1] beyond the roundoff clamp means no triangle
    carries these data, which is reported as NoTriangleError rather than as
    numerical corruption.
    """
    _require_range("angle A", A)
    _require_range("angle B", B)
    _require_range("side c", c)
    arg = -math.cos(A) * math.cos(B) + math.sin(A) * math.sin(B) * math.cos(c)
    if arg > 1.0 + CLAMP_TOL or arg < -1.0 - CLAMP_TOL:
        raise NoTriangleError(
            f"no triangle with angles ({A!r}, {B!r}) across side {c!r}")
    return clamped_acos(arg)


def sine_rule_side(A: float, a: float, B: float, branch: str) -> float:
    """Side opposite B from the sine rule, with an explicit branch choice.

    branch selects the acute solution in (0, pi/2] or the obtuse one in
    [pi/2, pi); the rule alone cannot disambiguate.
    """
    _require_range("angle A", A)
    _require_range("angle B", B)
    _require_range("side a", a)
    if branch not in ("acute", "obtuse"):
        raise ValueError(f"branch must be 'acute' or 'obtuse', got {branch!r}")
    ratio = math.sin(B) * math.sin(a) / math.sin(A)
    if ratio > 1.0 + CLAMP_TOL:
        raise NoTriangleError(
            f"sine-rule ratio {ratio!r} exceeds 1: no such triangle")
    if ratio <= 0.0:
        raise SphericalGeometryError(f"sine-rule ratio {ratio!r} not positive")
    b = clamped_asin(min(ratio, 1.0))
    return b if branch == "acute" else PI - b


def triangle_excess(t: SphericalTriangle) -> float:
    """Spherical area of the triangle via the angle excess."""
    return angles_from_sss(t).excess
