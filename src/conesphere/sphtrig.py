"""Spherical trigonometry kernel: closed-form triangle solvers on the unit 2-sphere.

Every length and angle is a plain radian value; there is no degree support
anywhere.  A valid triangle meets the three triangle inequalities and has
perimeter below 2*pi, each with margin VALIDITY_MARGIN.  Its SSS solve is the
half-angle rule on f = sin(s) and fa, fb, fc = sin(s - a), sin(s - b),
sin(s - c), s = (a + b + c)/2, positive when valid: it needs no acos or clamp.
"""

from __future__ import annotations

import math

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


def _clamped(fn, name: str, x: float) -> float:
    """fn(x), with x in a CLAMP_TOL guard band outside [-1, 1] clipped."""
    if abs(x) > 1.0:
        if abs(x) > 1.0 + CLAMP_TOL:
            raise NumericalCorruptionError(
                f"{name} argument {x!r} leaves [-1, 1] beyond the roundoff clamp")
        x = math.copysign(1.0, x)
    return fn(x)


def clamped_acos(x: float) -> float:
    """acos with a CLAMP_TOL guard band outside [-1, 1]."""
    return _clamped(math.acos, "acos", x)


def clamped_asin(x: float) -> float:
    """asin with a CLAMP_TOL guard band outside [-1, 1]."""
    return _clamped(math.asin, "asin", x)


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
    """The validity rule: every violated inequality of sides (a, b, c).

    Each check is "not (x < y - margin)", so a nan side fails it.  The four
    imply margin < a < pi - margin: b < a + c - m and c < a + b - m add to
    a > m, and a < b + c - m with the perimeter to a < pi - m.
    """
    m = VALIDITY_MARGIN
    out = []
    if not (a < b + c - m):
        out.append(f"triangle inequality a < b + c violated by {a - (b + c)!r}")
    if not (b < a + c - m):
        out.append(f"triangle inequality b < a + c violated by {b - (a + c)!r}")
    if not (c < a + b - m):
        out.append(f"triangle inequality c < a + b violated by {c - (a + b)!r}")
    if not (a + b + c < TWO_PI - m):
        out.append(f"perimeter {a + b + c!r} not below 2*pi")
    return out


def half_angle_sines(a, b, c, sin):
    """(sin(s), sin(s - a), sin(s - b), sin(s - c)), s = (a + b + c)/2, each
    argument taken from the sides directly: 0.5*(b + c - a), not s - a.
    sin is math.sin for floats, np.sin for arrays: the same operations."""
    return (sin(0.5 * (a + b + c)), sin(0.5 * (b + c - a)),
            sin(0.5 * (a + c - b)), sin(0.5 * (a + b - c)))


def _checked_sines(a: float, b: float, c: float) -> tuple[float, float, float, float]:
    """half_angle_sines, or InvalidTriangleError naming the first violation."""
    bad = triangle_violations(a, b, c)
    if bad:
        raise InvalidTriangleError(
            f"invalid spherical triangle {(a, b, c)}: {bad[0]}", violation=bad[0])
    return half_angle_sines(a, b, c, math.sin)


def side_from_sas(a: float, b: float, C: float) -> float:
    """Third side from two sides and the included angle (spherical cosine law)."""
    _require_range("side a", a)
    _require_range("side b", b)
    _require_range("angle C", C)
    arg = math.cos(a) * math.cos(b) + math.sin(a) * math.sin(b) * math.cos(C)
    return clamped_acos(arg)


def sss_angles(a: float, b: float, c: float) -> tuple[float, float, float]:
    """Angles (A, B, C) opposite sides (a, b, c) by the half-angle rule:
    tan(A/2) = sqrt(fb fc/(f fa)) = root/(f fa), root = sqrt(f fa fb fc), and
    cyclically.  Tiny sides keep their digits, where the cosine law's
    numerator cancels.  Invalid sides raise InvalidTriangleError.
    """
    f, fa, fb, fc = _checked_sines(a, b, c)
    root = math.sqrt(f * fa * fb * fc)
    return (2.0 * math.atan2(root, f * fa), 2.0 * math.atan2(root, f * fb),
            2.0 * math.atan2(root, f * fc))


def sss_differentials(a: float, b: float, c: float) -> tuple[tuple[float, float, float], ...]:
    """Exact Jacobian of sss_angles: rows A, B, C, columns a, b, c.

    The differential of the cosine law (Todhunter, Spherical Trigonometry,
    small variations of a triangle's parts): dA/da = sin a/(sin b sin c sin A),
    dA/db = -cos C dA/da, dA/dc = -cos B dA/da, and cyclically for B and C.
    No angle is solved: sin A = 2 sqrt(f fa fb fc)/(sin b sin c) makes each
    denominator W = 2 sqrt(f fa fb fc), twice sss_angles' root, and tan^2(A/2) =
    fb fc/(f fa) gives cos A = (f fa - fb fc)/(f fa + fb fc).  Invalid sides
    raise as in sss_angles.
    """
    f, fa, fb, fc = _checked_sines(a, b, c)
    W = 2.0 * math.sqrt(f * fa * fb * fc)
    cA = (f * fa - fb * fc) / (f * fa + fb * fc)
    cB = (f * fb - fa * fc) / (f * fb + fa * fc)
    cC = (f * fc - fa * fb) / (f * fc + fa * fb)
    dAa, dBb, dCc = math.sin(a) / W, math.sin(b) / W, math.sin(c) / W
    return ((dAa, -cC * dAa, -cB * dAa),
            (-cC * dBb, dBb, -cA * dBb),
            (-cB * dCc, -cA * dCc, dCc))


def angles_from_sss(a: float, b: float, c: float) -> tuple[float, float, float]:
    """sss_angles(a, b, c), under the name perfbench traces.  A function of
    its own, not an alias: the tracer wraps every name bound to the same
    object, and would then wrap each triangle solve of the cone angles."""
    return sss_angles(a, b, c)


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

