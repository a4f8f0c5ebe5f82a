"""Spherical trigonometry kernel: closed-form triangle solvers on the unit 2-sphere.

Every length and angle is a plain radian value; there is no degree support
anywhere.  A valid triangle meets the three triangle inequalities and has
perimeter below 2*pi, each with margin VALIDITY_MARGIN.  Its SSS solve
(sss_solve) gives the angles and their exact Jacobian from one set of
half-angle sines f = sin(s), fa, fb, fc = sin(s - a), sin(s - b),
sin(s - c), s = (a + b + c)/2, positive when valid.  Its SAS solve sums
non-negative terms for sides in [0, pi] (sas_half_sides).  Neither takes an
acos, and nothing is clamped: each scalar asin or acos left in the package
notes why its argument is in [-1, 1].
An invalid triangle raises InvalidTriangleError with its sides and first
violation; metric.validate names every violation of T1..T4 by its triangle.
"""

from __future__ import annotations

import math

PI = math.pi
TWO_PI = 2.0 * math.pi

# Margin applied to every triangle inequality; boundary-degenerate
# triangles are rejected so downstream solvers see a uniform interior.
VALIDITY_MARGIN = 1e-10


class InvalidTriangleError(ValueError):
    """A triangle violates a validity invariant."""


def triangle_violations(a: float, b: float, c: float) -> list[str]:
    """The validity rule: every violated inequality of sides (a, b, c).

    Each check is "not (x < y - margin)", so a nan side fails it.  The four
    imply margin < a < pi - margin: b < a + c - m and c < a + b - m add to
    a > m, and a < b + c - m with the perimeter to a < pi - m.  Each
    message writes its number as a float, whatever the sides' type.
    sss_solve and metric.validate make the same four comparisons inline and
    call this only to name a violation; metric.cone_angle_rows makes them
    elementwise.
    """
    m = VALIDITY_MARGIN
    out = []
    if not (a < b + c - m):
        out.append(f"triangle inequality a < b + c violated by {float(a - (b + c))!r}")
    if not (b < a + c - m):
        out.append(f"triangle inequality b < a + c violated by {float(b - (a + c))!r}")
    if not (c < a + b - m):
        out.append(f"triangle inequality c < a + b violated by {float(c - (a + b))!r}")
    if not (a + b + c < TWO_PI - m):
        out.append(f"perimeter {float(a + b + c)!r} not below 2*pi")
    return out


def half_angle_sines(a, b, c, sin):
    """(sin(s), sin(s - a), sin(s - b), sin(s - c)), s = (a + b + c)/2, each
    argument taken from the sides directly: 0.5*(b + c - a), not s - a.
    sin is math.sin for floats, np.sin for arrays: the same operations."""
    return (sin(0.5 * (a + b + c)), sin(0.5 * (b + c - a)),
            sin(0.5 * (a + c - b)), sin(0.5 * (a + b - c)))


def sas_half_sides(a, b, C, sin, cos):
    """(sin^2(c/2), cos^2(c/2)) of the side c opposite the angle C between
    sides a and b: sin^2((a - b)/2) + sin a sin b sin^2(C/2) and
    cos^2((a + b)/2) + sin a sin b cos^2(C/2), the cosine law in half
    angles.  For sides in [0, pi] every term is non-negative, so c/2 is an
    atan2 of their roots, with no cancellation as c shrinks.  sin, cos are
    math's for floats, numpy's for arrays (which broadcast)."""
    p = sin(a) * sin(b)
    d, e = sin(0.5 * (a - b)), cos(0.5 * (a + b))
    u, v = sin(0.5 * C), cos(0.5 * C)
    return d * d + p * u * u, e * e + p * v * v


def side_from_sas(a: float, b: float, C: float) -> float:
    """Third side from two sides and the included angle (sas_half_sides)."""
    for name, v in (("side a", a), ("side b", b), ("angle C", C)):
        if not (0.0 < v < PI):
            raise ValueError(f"{name} = {v!r} outside (0, pi)")
    h, k = sas_half_sides(a, b, C, math.sin, math.cos)
    return 2.0 * math.atan2(math.sqrt(h), math.sqrt(k))


def sss_solve(a: float, b: float, c: float) -> tuple[tuple[float, ...], tuple[tuple[float, ...], ...]]:
    """((A, B, C), J) of sides (a, b, c): the angles opposite them and their
    exact Jacobian J, rows A, B, C and columns a, b, c, from one set of
    half-angle sines.  Invalid sides raise InvalidTriangleError.
    tan(A/2) = root/(f fa), root = sqrt(f fa fb fc), keeps the digits of
    tiny sides, where the cosine law's numerator cancels.  Its differential
    (Todhunter, Spherical Trigonometry, small variations of a triangle's
    parts) is dA/da = sin a/(sin b sin c sin A) = sin a/(2 root), dA/db =
    -cos C dA/da, dA/dc = -cos B dA/da, with cos A = (f fa - fb fc)/(f fa +
    fb fc) from tan^2(A/2) = fb fc/(f fa); all of it holds cyclically.
    """
    m = VALIDITY_MARGIN
    # triangle_violations inline: it names the violation only on failure.
    if not (a < b + c - m and b < a + c - m and c < a + b - m
            and a + b + c < TWO_PI - m):
        raise InvalidTriangleError(f"invalid spherical triangle {(a, b, c)}: "
                                   f"{triangle_violations(a, b, c)[0]}")
    f, fa, fb, fc = half_angle_sines(a, b, c, math.sin)
    root = math.sqrt(f * fa * fb * fc)
    cA = (f * fa - fb * fc) / (f * fa + fb * fc)
    cB = (f * fb - fa * fc) / (f * fb + fa * fc)
    cC = (f * fc - fa * fb) / (f * fc + fa * fb)
    W = 2.0 * root
    dAa, dBb, dCc = math.sin(a) / W, math.sin(b) / W, math.sin(c) / W
    return ((2.0 * math.atan2(root, f * fa), 2.0 * math.atan2(root, f * fb),
             2.0 * math.atan2(root, f * fc)),
            ((dAa, -cC * dAa, -cB * dAa),
             (-cC * dBb, dBb, -cA * dBb),
             (-cB * dCc, -cA * dCc, dCc)))


def angles_from_sss(a: float, b: float, c: float) -> tuple[float, float, float]:
    """The angles (A, B, C) of sss_solve, under the name perfbench traces."""
    return sss_solve(a, b, c)[0]
