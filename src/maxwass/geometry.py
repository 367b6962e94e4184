"""Point geometry of the plane under the maximum metric.

The distance between two points is the larger coordinate gap,
``max(|x1-y1|, |x2-y2|)``.  Its unit balls are axis-aligned squares,
which makes the two diagonal directions (slope +1 and -1) the
distinguished lines of the geometry: they are the only lines whose
points are joined by unique geodesics, and projection onto them hits
the corner of the growing ball, hence is single-valued.

Everything here works unchanged for exact (int / Fraction) and float
coordinates.  Only apply_isometry takes ``square_mode=True``: it then
allows the symmetries of Q = [-1, 1]^2 alone, with no shift, and raises
ConstraintError for an image point outside Q.  The command line holds
every other measure to Q in its square mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .scalars import (
    ConstraintError,
    ParseError,
    Scalar,
    for_message,
    halve,
    is_exact,
    parse_scalar,
    scalar_to_json,
    shown,
)


class Point2(NamedTuple):
    x1: Scalar
    x2: Scalar

    def __add__(self, other):
        return Point2(self.x1 + other.x1, self.x2 + other.x2)

    def __sub__(self, other):
        return Point2(self.x1 - other.x1, self.x2 - other.x2)

    def scale(self, k):
        return Point2(k * self.x1, k * self.x2)

    @property
    def exact(self) -> bool:
        return is_exact(self.x1) and is_exact(self.x2)

    def to_json(self):
        return [scalar_to_json(self.x1), scalar_to_json(self.x2)]

    @classmethod
    def from_json(cls, data) -> "Point2":
        if not isinstance(data, (list, tuple)) or len(data) != 2:
            raise ParseError(f"a point must be a two-element array, got {shown(data)}")
        return cls(parse_scalar(data[0]), parse_scalar(data[1]))


def dm(x: Point2, y: Point2) -> Scalar:
    """Maximum-metric distance max(|x1-y1|, |x2-y2|)."""
    return max(abs(x.x1 - y.x1), abs(x.x2 - y.x2))


def in_square(x: Point2) -> bool:
    return -1 <= x.x1 <= 1 and -1 <= x.x2 <= 1


def require_in_square(x: Point2, what: str):
    """A ConstraintError naming `what` x unless x lies in [-1,1]^2."""
    if not in_square(x):
        raise ConstraintError(f"{what} {point_for_message(x)} lies outside [-1,1]^2")


def point_for_message(x: Point2) -> str:
    """The text of x in an error message."""
    return f"({for_message(x.x1)}, {for_message(x.x2)})"


@dataclass(frozen=True)
class DiagonalLine:
    """The line x2 = eps*x1 + a with eps in {-1, +1}."""

    eps: int
    a: Scalar = 0

    def __post_init__(self):
        if self.eps not in (-1, 1):
            raise ConstraintError(f"diagonal slope must be -1 or +1, got {self.eps!r}")

    def contains(self, x: Point2) -> bool:
        return x.x2 == self.eps * x.x1 + self.a

    def point_at(self, t: Scalar) -> Point2:
        """The line point with first coordinate t."""
        return Point2(t, self.eps * t + self.a)

    @classmethod
    def parse(cls, text: str) -> "DiagonalLine":
        """Parse '+,a' / '-,a' shorthand, e.g. '+,0' or '-,1/2'."""
        parts = text.split(",", 1)
        if len(parts) != 2 or parts[0] not in ("+", "-"):
            raise ParseError(f"expected '+,<a>' or '-,<a>', got {shown(text)}")
        return cls(1 if parts[0] == "+" else -1, parse_scalar(parts[1]))


L_PLUS = DiagonalLine(1, 0)
L_MINUS = DiagonalLine(-1, 0)


def diagonal_line_through(points) -> DiagonalLine | None:
    """The diagonal line through points[0] that carries every point, or
    None.  Slope +1 is tried first, so a single point gets it."""
    x0 = points[0]
    for eps in (1, -1):
        line = DiagonalLine(eps, x0.x2 - eps * x0.x1)
        if all(line.contains(x) for x in points):
            return line
    return None


def project_point(line: DiagonalLine, y: Point2) -> Point2:
    """Closest point of the diagonal line to y (unique in this metric).

    The ball around y grows until a corner touches the line, which gives
    the closed forms below; optimality is covered by the test suite via
    a one-dimensional search oracle.
    """
    if line.eps == 1:
        return Point2(halve(y.x1 + y.x2 - line.a), halve(y.x1 + y.x2 + line.a))
    return Point2(halve(y.x1 - y.x2 + line.a), halve(y.x2 - y.x1 + line.a))


def direction_alloc(line: DiagonalLine, y: Point2) -> Point2:
    """Unit-speed escape direction e(y) away from the diagonal line.

    Points on or above the line move along (-eps, 1), points below along
    (eps, -1).  Moving time t takes y exactly t farther from every point
    of the line: dm(x, y + t*e(y)) = dm(x, y) + t for all x on the line.
    """
    if y.x2 >= line.eps * y.x1 + line.a:
        return Point2(-line.eps, 1)
    return Point2(line.eps, -1)


def dilate(center: Point2, y: Point2) -> Point2:
    """Dilation with ratio 2 about center: y -> center + 2*(y - center)."""
    return Point2(2 * y.x1 - center.x1, 2 * y.x2 - center.x2)


def same_diagonal(x: Point2, y: Point2) -> bool:
    """True iff x and y lie on a common diagonal line (|dx1| == |dx2|).

    Exactly these pairs are joined by a unique geodesic; equivalently
    their metric midpoint is unique (see midpoint_box).
    """
    return abs(x.x1 - y.x1) == abs(x.x2 - y.x2)


def midpoint_box(x: Point2, y: Point2) -> tuple[Point2, Point2]:
    """Corners (lo, hi) of the axis-aligned box of metric midpoints.

    The midpoint set {w : dm(x,w) = dm(w,y) = dm(x,y)/2} is the
    intersection of the two balls of radius dm(x,y)/2, a (possibly
    degenerate) box.  It is a single point iff same_diagonal(x, y).
    """
    r = halve(dm(x, y))
    lo = Point2(max(x.x1, y.x1) - r, max(x.x2, y.x2) - r)
    hi = Point2(min(x.x1, y.x1) + r, min(x.x2, y.x2) + r)
    return lo, hi


def triangle_saturates(x: Point2, y: Point2, z: Point2) -> bool:
    """True iff y sits on a geodesic from x to z: dm(x,z) = dm(x,y) + dm(y,z).

    The p > 1 characterizations use the same additive saturation
    pointwise.
    """
    return dm(x, z) == dm(x, y) + dm(y, z)


# ---------------------------------------------------------------------------
# isometries

# The linear isometry group of the maximum metric fixing the origin is the
# symmetry group of the square: signed coordinate permutations.
SQUARE_SYMMETRIES = {
    "identity": ((1, 0), (0, 1)),
    "rot90": ((0, -1), (1, 0)),
    "rot180": ((-1, 0), (0, -1)),
    "rot270": ((0, 1), (-1, 0)),
    "mirror_x1": ((-1, 0), (0, 1)),
    "mirror_x2": ((1, 0), (0, -1)),
    "swap": ((0, 1), (1, 0)),
    "swap_neg": ((0, -1), (-1, 0)),
}

_MATRIX_NAMES = {m: name for name, m in SQUARE_SYMMETRIES.items()}


@dataclass(frozen=True)
class MaxIsometry:
    """A plane isometry of the maximum metric: square symmetry + shift."""

    linear: str = "identity"
    shift: Point2 = Point2(0, 0)

    def __post_init__(self):
        if self.linear not in SQUARE_SYMMETRIES:
            raise ConstraintError(
                f"unknown square symmetry {self.linear!r}; "
                f"choose one of {sorted(SQUARE_SYMMETRIES)}"
            )

    @property
    def matrix(self):
        return SQUARE_SYMMETRIES[self.linear]


def apply_isometry(iso: MaxIsometry, x: Point2, square_mode: bool = False) -> Point2:
    if square_mode and (iso.shift.x1 != 0 or iso.shift.x2 != 0):
        raise ConstraintError("square-mode isometries cannot shift")
    (a, b), (c, d) = iso.matrix
    out = Point2(a * x.x1 + b * x.x2 + iso.shift.x1, c * x.x1 + d * x.x2 + iso.shift.x2)
    if square_mode:
        require_in_square(out, "image point")
    return out


def compose(s: MaxIsometry, t: MaxIsometry) -> MaxIsometry:
    """The isometry x -> s(t(x))."""
    (a, b), (c, d) = s.matrix
    (e, f), (g, h) = t.matrix
    prod = ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))
    shift = apply_isometry(MaxIsometry(s.linear, s.shift), t.shift)
    return MaxIsometry(_MATRIX_NAMES[prod], shift)


def invert(t: MaxIsometry) -> MaxIsometry:
    (a, b), (c, d) = t.matrix
    # orthogonal integer matrix: inverse is the transpose
    inv = ((a, c), (b, d))
    name = _MATRIX_NAMES[inv]
    neg = apply_isometry(MaxIsometry(name), Point2(-t.shift.x1, -t.shift.x2))
    return MaxIsometry(name, neg)
