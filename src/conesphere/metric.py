"""Triangulated cone metrics on the sphere and the glued-football family.

A metric is encoded by six geodesic edge lengths l1..l6 of a four-triangle
decomposition: an isosceles triangle T1 = (l1, l1, l5) hanging off cone point
A, its partner T3 = (l2, l2, l6) off B, and two slit triangles
T2 = (l3, l4, l5) and T4 = (l4, l3, l6) meeting at cone point D.  The eight
remaining corners collect at the 4*pi cone point C.

The one-parameter family glued_football(alpha, beta, t) cross-glues two
spherical footballs of cone angles alpha and beta along a meridian slit of
length t and realizes cone angles (alpha, beta, alpha + beta, 4*pi) exactly.

validate, cone_angle_pass and serialize read any sequence of the six
lengths: a tuple, a list, an ndarray row, or the TriangulatedMetric that
glued_football and deserialize return.  validate alone names a violated
inequality, by its triangle T1..T4; the triangle solvers raise
InvalidTriangleError without naming the triangle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .sphtrig import (
    PI,
    TWO_PI,
    VALIDITY_MARGIN,
    InvalidTriangleError,
    half_angle_sines,
    sss_solve,
    triangle_violations,
)

LENGTH_FIELDS = ("l1", "l2", "l3", "l4", "l5", "l6")


class MetricDocumentError(ValueError):
    """Malformed metric document; ``location`` points at the offending field."""

    def __init__(self, message: str, location: str = ""):
        super().__init__(message)
        self.location = location


class MetricRangeError(ValueError):
    """A metric document field is outside its legal range."""

    def __init__(self, message: str, location: str = ""):
        super().__init__(message)
        self.location = location


@dataclass(frozen=True)
class ConeAngleSpec:
    """Target cone angles (alpha, beta, alpha + beta, 4*pi), alpha/beta in (0, pi).

    half_sines is (sin(alpha/2), sin(beta/2)), computed once here for
    glued_football, family_distance and defect_scan.  It is derived, so it
    takes no part in equality, hashing or repr.
    """

    alpha: float
    beta: float
    half_sines: tuple[float, float] = field(init=False, repr=False,
                                            compare=False)

    def __post_init__(self):
        for name, v in (("alpha", self.alpha), ("beta", self.beta)):
            if not (0.0 < v < PI):
                raise ValueError(f"{name} = {v!r} outside the supported range (0, pi)")
        object.__setattr__(self, "half_sines", (math.sin(0.5 * self.alpha),
                                                math.sin(0.5 * self.beta)))

    def cone_vector(self) -> tuple[float, float, float, float]:
        """Cone angles (theta_A, theta_B, theta_D, theta_C) in radians."""
        return (self.alpha, self.beta, self.alpha + self.beta, 2.0 * TWO_PI)

    def normalized(self) -> tuple[float, float, float, float]:
        """Cone angles divided by 2*pi."""
        return (self.alpha / TWO_PI, self.beta / TWO_PI,
                (self.alpha + self.beta) / TWO_PI, 2.0)


@dataclass(frozen=True, slots=True)
class GluedFootballParams:
    """A cone-angle target plus the slit length t in (0, pi).

    Slotted: a slotted record is cheaper to construct, about 0.45 us, a
    third of a build with its record (best of timeit repeats on a 2-vCPU
    Xeon host).  family_distance builds its coarse scan's 200 records once
    per spec and one per Newton probe.
    """

    spec: ConeAngleSpec
    t: float

    def __post_init__(self):
        if not (0.0 < self.t < PI):
            raise ValueError(f"slit length t = {self.t!r} outside (0, pi)")


class TriangulatedMetric(NamedTuple):
    """Six edge lengths of the four-triangle decomposition, radians in (0, pi).

    An immutable tuple of the six lengths: it compares equal to a plain
    tuple of the same values.
    """

    l1: float
    l2: float
    l3: float
    l4: float
    l5: float
    l6: float

    def lengths(self) -> tuple[float, ...]:
        return (self.l1, self.l2, self.l3, self.l4, self.l5, self.l6)


# The layout of T1..T4: the sides (a, b, c) as indices into l1..l6, and the
# cone point, as an index into (theta_A, theta_B, theta_D, theta_C), that
# collects the corner opposite a, b and c.  Each third side c faces its
# apex, the cone point A, D, B or D in turn; every other corner is at C.
TRIANGLE_LAYOUT = (
    ((0, 0, 4), (3, 3, 0)),
    ((2, 3, 4), (3, 3, 2)),
    ((1, 1, 5), (3, 3, 1)),
    ((3, 2, 5), (3, 3, 2)),
)


def _validity_rows() -> tuple[np.ndarray, np.ndarray]:
    """The validity region as rows c . (l1..l6) < b, for max_feasible_radius.

    Each triangle of TRIANGLE_LAYOUT contributes the four inequalities of
    sphtrig.triangle_violations on its sides (a, b, c): a - b - c < -margin,
    its two cyclic versions, and a + b + c < 2*pi - margin.  A length that is
    two sides of one triangle (T1 and T3 are isosceles) sums both coefficients.
    """
    tri = np.vstack([2.0 * np.eye(3) - 1.0, np.ones((1, 3))])
    m = VALIDITY_MARGIN
    bound = [-m] * 3 + [TWO_PI - m]
    rows = np.zeros((len(TRIANGLE_LAYOUT), len(tri), 6))
    for t, (sides, _) in enumerate(TRIANGLE_LAYOUT):
        for k, side in enumerate(sides):
            rows[t, :, side] += tri[:, k]
    return rows.reshape(-1, 6), np.tile(bound, len(TRIANGLE_LAYOUT))


VALIDITY_ROWS, VALIDITY_BOUNDS = _validity_rows()

# TRIANGLE_LAYOUT with the nine flat Jacobian indices 6*point + side of each
# triangle, in row (corner) then column (side) order, for cone_angle_pass.
_PASS_PLAN = tuple(
    (sides, points, tuple(6 * p + s for p in points for s in sides))
    for sides, points in TRIANGLE_LAYOUT)

# Each triangle's message prefix with its sides, for validate.
_NAMED_SIDES = tuple((f"T{idx}: ", sides)
                    for idx, (sides, _) in enumerate(TRIANGLE_LAYOUT, start=1))

# The perimeter bound of triangle_violations, TWO_PI - m, as one double.
_PERIMETER_BOUND = TWO_PI - VALIDITY_MARGIN


def validate(lengths) -> list[str]:
    """Every violated inequality of T1..T4 in l1..l6, each named by its
    triangle: the one place a violation is named.

    Empty means valid.  Every length is a side of some triangle, so a
    length outside (0, pi) is flagged there.  The valid case is one
    expression: the 16 comparisons of triangle_violations on
    TRIANGLE_LAYOUT's sides, each with its operands in the rule's order, so
    a nan fails it.  In T1 = (l1, l1, l5) and T3 = (l2, l2, l6) the first
    two are one comparison, made once.  Only an invalid metric walks the
    triangles to name its violations.  A valid metric takes about 0.49 us,
    best of timeit repeats on a 2-vCPU Xeon host.
    """
    l1, l2, l3, l4, l5, l6 = lengths
    m, p = VALIDITY_MARGIN, _PERIMETER_BOUND
    if (l1 < l1 + l5 - m and l5 < l1 + l1 - m and l1 + l1 + l5 < p
            and l3 < l4 + l5 - m and l4 < l3 + l5 - m and l5 < l3 + l4 - m
            and l3 + l4 + l5 < p
            and l2 < l2 + l6 - m and l6 < l2 + l2 - m and l2 + l2 + l6 < p
            and l4 < l3 + l6 - m and l3 < l4 + l6 - m and l6 < l4 + l3 - m
            and l4 + l3 + l6 < p):
        return []
    issues = []
    for name, (i, j, k) in _NAMED_SIDES:
        issues.extend(name + v for v in triangle_violations(
            lengths[i], lengths[j], lengths[k]))
    return issues


# TriangulatedMetric's fields in one call, without the named tuple's
# Python-level __new__ (which makes this same call).
_new_metric = tuple.__new__


def glued_football(p: GluedFootballParams) -> TriangulatedMetric:
    """Cross-glue two footballs of angles (alpha, beta) along a slit of length t.

    Closed forms: l1 = l2 = pi - t, l3 = l4 = t, and the chord across each
    opened slit is l5 = 2*asin(sin t * sin(alpha/2)) (l6 with beta), the
    sines read from p.spec.half_sines.  The result realizes the cone angles
    of p.spec exactly.  A build with its validate is about 0.9 us, 1.4 us
    with a new params record, best of timeit repeats on a 2-vCPU Xeon host.
    """
    t = p.t
    half_alpha, half_beta = p.spec.half_sines
    sin_t, u = math.sin(t), PI - t
    # Each asin argument is a product of two sines, so in [-1, 1].
    m = _new_metric(TriangulatedMetric, (
        u, u, t, t, 2.0 * math.asin(sin_t * half_alpha),
        2.0 * math.asin(sin_t * half_beta)))
    issues = validate(m)
    if issues:
        raise InvalidTriangleError(
            f"glued football at t = {t!r} degenerates: {'; '.join(issues)}")
    return m


def cone_angle_pass(lengths) -> tuple[tuple[float, ...], list[float]]:
    """(theta_A, theta_B, theta_D, theta_C) of l1..l6 and their exact Jacobian,
    a flat list with d theta_p/d l at 6*p + l, from one sss_solve per
    triangle; an invalid one raises InvalidTriangleError (validate names
    every violation).  Each sum runs from 0.0 along TRIANGLE_LAYOUT, in
    triangle (T1 first), corner and side order."""
    x = np.asarray(lengths, dtype=float).tolist()
    theta, J = [0.0] * 4, [0.0] * 24
    for (i, j, k), (p, q, r), (e0, e1, e2, e3, e4, e5, e6, e7, e8) in _PASS_PLAN:
        (A, B, C), ((d0, d1, d2), (d3, d4, d5), (d6, d7, d8)) = sss_solve(
            x[i], x[j], x[k])
        theta[p] += A
        theta[q] += B
        theta[r] += C
        J[e0] += d0
        J[e1] += d1
        J[e2] += d2
        J[e3] += d3
        J[e4] += d4
        J[e5] += d5
        J[e6] += d6
        J[e7] += d7
        J[e8] += d8
    return tuple(theta), J


def cone_angle_tuple(lengths) -> tuple[float, float, float, float]:
    """The cone angles of cone_angle_pass."""
    return cone_angle_pass(lengths)[0]


def cone_angle_rows(lengths) -> tuple[np.ndarray, np.ndarray]:
    """Cone angles of many length rows at once: ((n, 4), valid (n,)).

    lengths has shape (n, 6).  Validity and angles are those of
    cone_angle_tuple, in the same operations: the four comparisons of
    triangle_violations, then the half-angle rule of sphtrig.sss_solve,
    summed in the same order.  An invalid row's angles are nan.
    """
    x = np.asarray(lengths, dtype=float)
    m = VALIDITY_MARGIN
    valid = np.ones(len(x), dtype=bool)
    theta = np.zeros((len(x), 4))
    with np.errstate(invalid="ignore"):
        for sides, (p, q, r) in TRIANGLE_LAYOUT:
            a, b, c = (x[:, s] for s in sides)
            valid &= ((a < b + c - m) & (b < a + c - m) & (c < a + b - m)
                      & (a + b + c < TWO_PI - m))
            f, fa, fb, fc = half_angle_sines(a, b, c, np.sin)
            root = np.sqrt(f * fa * fb * fc)
            theta[:, p] += 2.0 * np.arctan2(root, f * fa)
            theta[:, q] += 2.0 * np.arctan2(root, f * fb)
            theta[:, r] += 2.0 * np.arctan2(root, f * fc)
    theta[~valid] = np.nan
    return theta, valid


def serialize(lengths, spec: ConeAngleSpec) -> str:
    """Render the metric document of l1..l6 (JSON, full double precision)."""
    doc = {
        "spec": {"alpha": spec.alpha, "beta": spec.beta},
        "lengths": dict(zip(LENGTH_FIELDS, lengths)),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _number(section: dict, where: str, field: str) -> float:
    """section[field], a number; where names the section in messages."""
    location = f"{where}.{field}"
    if field not in section:
        raise MetricDocumentError(f"missing field {location}",
                                  location=location)
    if not isinstance(section[field], float):
        raise MetricDocumentError(f"{location} must be a number",
                                  location=location)
    return section[field]


def deserialize(text: str) -> tuple[TriangulatedMetric, ConeAngleSpec]:
    """Parse a metric document; structural and range errors are distinguished."""
    try:
        # Every number reads as a float, so an integer beyond the double
        # range is infinite, as the literal 1e400 is, and out of range.
        doc = json.loads(text, parse_int=float)
    except json.JSONDecodeError as err:
        raise MetricDocumentError(f"not valid JSON: {err}", location="") from err
    if not isinstance(doc, dict):
        raise MetricDocumentError("document root must be an object", location="")
    for section in ("spec", "lengths"):
        if section not in doc or not isinstance(doc[section], dict):
            raise MetricDocumentError(f"missing section {section!r}",
                                      location=section)
    alpha, beta = [_number(doc["spec"], "spec", f) for f in ("alpha", "beta")]
    vals = [_number(doc["lengths"], "lengths", f) for f in LENGTH_FIELDS]
    for field, v in zip(LENGTH_FIELDS, vals):
        if not (0.0 < v < PI):
            raise MetricRangeError(
                f"lengths.{field} = {v!r} outside (0, pi)",
                location=f"lengths.{field}")
    try:
        spec = ConeAngleSpec(alpha, beta)
    except ValueError as err:
        raise MetricRangeError(f"spec out of range: {err}", location="spec") from err
    return TriangulatedMetric(*vals), spec
