"""Finitely supported probability measures and their constructions.

A DiscreteMeasure is a canonical list of (point, weight) atoms: sorted
lexicographically by coordinates, duplicate points merged (exact
equality in exact mode, tolerance 1e-12 in float mode), weights
strictly positive and summing to one, float coordinates finite (a
construction that overflows the float range fails with a
ConstraintError).  Canonical form makes equality of measures plain
tuple equality.

An exact measure also carries its `IntegerForm`, decided once when it
is built: every coordinate and weight over the least common
denominator of its kind.  One walk over the atoms decides whether they
are all exact and reads each scalar's numerator and denominator once;
the constructor then sorts and merges exact atoms on those integer
keys and checks their integer weights against that denominator.  At
the first inexact scalar the walk stops and the atoms take the float
merge; if all that merge keeps is exact, as when a float point merged
into an exact one, it gets its form all the same.
`transport._integer_instance` builds every exact transport problem
from two such forms by rescaling ints alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import pairwise
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple

from .geometry import (
    L_PLUS,
    DiagonalLine,
    Point2,
    diagonal_line_through,
    point_for_message,
)
from .scalars import (
    ConstraintError,
    MERGE_TOL,
    ParseError,
    Scalar,
    for_message,
    halve,
    is_exact,
    parse_scalar,
    scalar_to_json,
    shown,
)

Atom = tuple[Point2, Scalar]


def _negative_weight(x: Point2, w: Scalar) -> ConstraintError:
    """The error for an atom of negative weight w at x."""
    return ConstraintError(f"negative weight {for_message(w)} at {point_for_message(x)}")


def _merge_atoms(atoms: Iterable[Atom]) -> tuple[Atom, ...]:
    """The atoms sorted, zero weights dropped and points merged: exact
    pairs when equal, others within MERGE_TOL.  A float coordinate
    beyond the float range is a ConstraintError."""
    kept: list[list] = []
    for x, w in sorted(atoms, key=lambda a: (a[0].x1, a[0].x2)):
        if w < 0:
            raise _negative_weight(x, w)
        if w == 0:
            continue
        if any(isinstance(c, float) and not math.isfinite(c) for c in x):
            raise ConstraintError(
                f"atom {point_for_message(x)} lies beyond the float range; "
                "--exact computes it exactly"
            )
        if kept:
            px, pw = kept[-1]
            exact_pair = px.exact and x.exact
            if exact_pair:
                same = px == x
            else:
                same = (
                    abs(float(x.x1) - float(px.x1)) <= MERGE_TOL
                    and abs(float(x.x2) - float(px.x2)) <= MERGE_TOL
                )
            if same:
                kept[-1][1] = pw + w
                continue
        kept.append([x, w])
    return tuple((x, w) for x, w in kept)


class IntegerForm(NamedTuple):
    """An exact measure at integer scale: atom k sits at
    coords[k] / coord_scale and carries weights[k] / weight_scale.  Each
    scale is the least common denominator of its values, so the weights
    sum to weight_scale."""

    coord_scale: int
    coords: tuple[tuple[int, int], ...]
    weight_scale: int
    weights: tuple[int, ...]


def _merge_exact(atoms: Iterable[Atom]) -> tuple[tuple[Atom, ...], IntegerForm] | None:
    """_merge_atoms for atoms whose coordinates and weights are all exact,
    sorting and merging on integer keys, with the integer form of the
    result; None as soon as a coordinate or a weight is not exact.

    One walk over the atoms decides exactness and reads each scalar's
    numerator and denominator once, with `as_integer_ratio`.  Merged
    weights add as `_merge_atoms` adds them; every other atom keeps its
    own point and weight objects."""
    live = []
    coord_dens, weight_dens = set(), set()
    for x, w in atoms:
        x1, x2 = x
        if not (is_exact(x1) and is_exact(x2) and is_exact(w)):
            return None
        wn, wd = w.as_integer_ratio()
        if not wn:
            continue
        n1, d1 = x1.as_integer_ratio()
        n2, d2 = x2.as_integer_ratio()
        coord_dens.add(d1)
        coord_dens.add(d2)
        weight_dens.add(wd)
        live.append((n1, d1, n2, d2, wn, wd, x, w))
    coord_scale = math.lcm(*coord_dens)
    weight_scale = math.lcm(*weight_dens)
    keyed = [
        (
            (n1 * (coord_scale // d1), n2 * (coord_scale // d2)),
            wn * (weight_scale // wd),
            x,
            w,
        )
        for n1, d1, n2, d2, wn, wd, x, w in live
    ]
    # stable: atoms at one point keep their input order, as in _merge_atoms
    keyed.sort(key=itemgetter(0))
    kept, coords, weights = [], [], []
    for key, k, x, w in keyed:
        if k < 0:
            raise _negative_weight(x, w)
        if coords and coords[-1] == key:
            kept[-1] = (kept[-1][0], kept[-1][1] + w)
            weights[-1] += k
        else:
            kept.append((x, w))
            coords.append(key)
            weights.append(k)
    # merged weights may share a factor with the scale: 1/6 + 1/6 is 1/3
    common = math.gcd(weight_scale, *weights)
    if common > 1:
        weight_scale //= common
        weights = [k // common for k in weights]
    form = IntegerForm(coord_scale, tuple(coords), weight_scale, tuple(weights))
    return tuple(kept), form


@dataclass(frozen=True)
class DiscreteMeasure:
    atoms: tuple[Atom, ...]
    #: the integer form of an exact measure, None for any other; set
    #: once, measures are frozen
    integer: IntegerForm | None = field(init=False, compare=False, repr=False)

    def __init__(self, atoms: Iterable[Atom]):
        atoms = list(atoms)
        canonical = _merge_exact(atoms)
        if canonical is None:
            merged = _merge_atoms(atoms)
            # float points merged into exact ones, or carried no mass
            canonical = _merge_exact(merged) or (merged, None)
        merged, form = canonical
        if not merged:
            raise ConstraintError("a measure needs at least one atom of positive mass")
        if form is not None:
            if sum(form.weights) != form.weight_scale:
                total = Fraction(sum(form.weights), form.weight_scale)
                raise ConstraintError(f"weights sum to {for_message(total)}, expected 1")
        else:
            total = sum(w for _, w in merged)
            if all(is_exact(w) for _, w in merged):
                if total != 1:
                    raise ConstraintError(f"weights sum to {for_message(total)}, expected 1")
            elif abs(float(total) - 1.0) > 1e-12:
                raise ConstraintError(f"weights sum to {float(total)!r}, expected 1")
        object.__setattr__(self, "atoms", merged)
        object.__setattr__(self, "integer", form)

    @property
    def exact(self) -> bool:
        """Every coordinate and weight is exact."""
        return self.integer is not None

    @classmethod
    def dirac(cls, x: Point2) -> "DiscreteMeasure":
        return cls([(x, Fraction(1))])

    def points(self) -> tuple[Point2, ...]:
        return tuple(x for x, _ in self.atoms)

    def weights(self) -> tuple[Scalar, ...]:
        return tuple(w for _, w in self.atoms)

    @property
    def support_size(self) -> int:
        return len(self.atoms)

    @property
    def is_dirac(self) -> bool:
        return len(self.atoms) == 1

    def supported_on(self, line: DiagonalLine) -> bool:
        return all(line.contains(x) for x, _ in self.atoms)

    def diagonal_line(self):
        """The diagonal line carrying the whole support, or None."""
        return diagonal_line_through(self.points())

    def to_json_dict(self) -> dict:
        return {
            "atoms": [
                {"x": x.to_json(), "w": scalar_to_json(w)} for x, w in self.atoms
            ]
        }

    @classmethod
    def from_json_dict(cls, data) -> "DiscreteMeasure":
        if not isinstance(data, dict) or not isinstance(data.get("atoms"), list):
            raise ParseError("measure JSON must be an object with an 'atoms' array")
        atoms = []
        for entry in data["atoms"]:
            try:
                x = Point2.from_json(entry["x"])
                w = parse_scalar(entry["w"])
            except (KeyError, TypeError) as exc:
                raise ParseError(f"bad atom entry {shown(entry)}") from exc
            atoms.append((x, w))
        return cls(atoms)


def push_forward(
    transform: Callable[[Point2], Point2], mu: DiscreteMeasure
) -> DiscreteMeasure:
    """Image measure: mass of each atom moves to its transformed point.

    Collisions merge, so the support can shrink but total mass cannot.
    """
    return DiscreteMeasure([(transform(x), w) for x, w in mu.atoms])


# ---------------------------------------------------------------------------
# the two-atom family on the main diagonal

@dataclass(frozen=True)
class KloecknerParam:
    """Coordinates (m, sigma, r) for a measure with at most two atoms on
    the main diagonal: mean position m, spread sigma >= 0 and shape r.

    sigma == 0 is the Dirac at (m, m), with r fixed at 0 by convention.
    """

    m: Scalar
    sigma: Scalar
    r: Scalar

    def __post_init__(self):
        if self.sigma < 0:
            raise ConstraintError(f"sigma must be >= 0, got {self.sigma!r}")
        if self.sigma == 0 and self.r != 0:
            raise ConstraintError("a Dirac (sigma == 0) must carry r == 0")


def kloeckner_measure(param: KloecknerParam, exp_r: Scalar | None = None) -> DiscreteMeasure:
    """The measure with shape parameters (m, sigma, r).

    With u = e^r the two atoms sit at m - sigma*u and m + sigma/u on the
    main diagonal, carrying weights 1/(u^2+1) and u^2/(u^2+1).  Passing
    exp_r supplies u directly (e.g. an exact Fraction when e^r is
    rational), keeping the whole measure exact; otherwise u = math.exp(r)
    in float.
    """
    m, sigma = param.m, param.sigma
    if sigma == 0:
        return DiscreteMeasure.dirac(Point2(m, m))
    u = math.exp(param.r) if exp_r is None else exp_r
    if u <= 0:
        raise ConstraintError(f"exp_r must be positive, got {u!r}")
    den = u * u + 1
    if is_exact(u):
        w_low = Fraction(1, 1) / den
        w_high = Fraction(u * u) / den
    else:
        w_low = 1.0 / den
        w_high = (u * u) / den
    low = m - sigma * u
    high = m + sigma / u
    return DiscreteMeasure([(Point2(low, low), w_low), (Point2(high, high), w_high)])


def kloeckner_recover(mu: DiscreteMeasure) -> KloecknerParam:
    """Back out (m, sigma, r) from a 1- or 2-atom measure on the diagonal.

    r comes from the weight ratio, so it is a float except in the
    balanced case; m and sigma keep the arithmetic of the input where
    the algebra allows.
    """
    if not mu.supported_on(L_PLUS):
        raise ConstraintError("parametrized measures live on the main diagonal")
    if mu.is_dirac:
        (x, _), = mu.atoms
        return KloecknerParam(x.x1, 0, 0)
    if mu.support_size != 2:
        raise ConstraintError("parametrization covers at most two atoms")
    (xl, wl), (xh, wh) = mu.atoms
    # wl = 1/(u^2+1), wh = u^2/(u^2+1)  =>  u = sqrt(wh/wl)
    u = math.sqrt(float(wh) / float(wl))
    if u == 1.0:
        sigma = halve(xh.x1 - xl.x1)
        return KloecknerParam(xl.x1 + sigma, sigma, 0)
    r = math.log(u)
    sigma = (float(xh.x1) - float(xl.x1)) / (u + 1.0 / u)
    m = float(xl.x1) + sigma * u
    return KloecknerParam(m, sigma, r)


def phi_star(param: KloecknerParam) -> KloecknerParam:
    """The exchange involution (m, sigma, r) -> (m, sigma, -r)."""
    return KloecknerParam(param.m, param.sigma, -param.r)


def phi_t(param: KloecknerParam, t: Scalar) -> KloecknerParam:
    """The shear flow (m, sigma, r) -> (m, sigma, r + t); sigma == 0 is fixed."""
    if param.sigma == 0:
        return param
    return KloecknerParam(param.m, param.sigma, param.r + t)


def _grid_axes(mu: DiscreteMeasure) -> tuple[list[Scalar], list[Scalar]]:
    """Every atom's diagonal coordinates, as lists ts and ss: t = (x1+x2)/2
    and s = (x1-x2)/2 are the first coordinates of its feet on L+ and L-,
    and the atom is (t + s, t - s).  A ConstraintError unless the
    weights, the ts and the ss are each pairwise distinct."""
    ts = [halve(x1 + x2) for (x1, x2), _ in mu.atoms]
    ss = [halve(x1 - x2) for (x1, x2), _ in mu.atoms]
    if any(len(set(v)) != len(v) for v in (mu.weights(), ts, ss)):
        raise ConstraintError("grid construction needs a general-position measure")
    return ts, ss


def in_family_F(mu: DiscreteMeasure) -> bool:
    """General position for Radon inversion: pairwise-distinct weights
    and pairwise-distinct projections on both diagonal axes."""
    try:
        _grid_axes(mu)
    except ConstraintError:
        return False
    return True


# ---------------------------------------------------------------------------
# measures on the projection grid of a general-position measure

def family_grid(mu: DiscreteMeasure) -> tuple[tuple[Point2, ...], ...]:
    """The N x N grid z[i][j] = (t_i + s_j, t_i - s_j) cut out by the
    projection preimages of mu, on its axes `_grid_axes(mu)`.

    z[i][j] is the unique point sharing its slope-+1 projection with
    atom i and its slope--1 projection with atom j; in particular
    z[i][i] is atom i itself.
    """
    ts, ss = _grid_axes(mu)
    return tuple(tuple(Point2(t + s, t - s) for s in ss) for t in ts)


def _least_gap(ts: list[Scalar], ss: list[Scalar]) -> Scalar:
    """The least dm between two grid points: z[i][j] and z[k][l] lie
    |t_i - t_k| + |s_j - s_l| apart, so it is the least gap between
    neighbours in sorted ts or in sorted ss."""
    return min(b - a for v in (ts, ss) for a, b in pairwise(sorted(v)))


@dataclass(frozen=True)
class GridMeasure:
    """A measure on the projection grid of mu with the same Radon image.

    weights[i][j] is the mass at grid point z[i][j]; row sums and column
    sums both reproduce mu's weight vector, which is exactly the
    condition that both diagonal projections agree with mu's.
    """

    base: DiscreteMeasure
    weights: tuple[tuple[Scalar, ...], ...]

    def __init__(self, base: DiscreteMeasure, weights):
        n = base.support_size
        rows = tuple(tuple(row) for row in weights)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ConstraintError(f"weight matrix must be {n}x{n}")
        target = base.weights()
        for i, row in enumerate(rows):
            if any(w < 0 for w in row):
                raise ConstraintError("grid weights must be nonnegative")
            if sum(row) != target[i]:
                raise ConstraintError(
                    f"row {i} sums to {for_message(sum(row))}, "
                    f"expected {for_message(target[i])}"
                )
        for j in range(n):
            col = sum(rows[i][j] for i in range(n))
            if col != target[j]:
                raise ConstraintError(
                    f"column {j} sums to {for_message(col)}, "
                    f"expected {for_message(target[j])}"
                )
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "weights", rows)

    def grid_points(self):
        return family_grid(self.base)

    def to_measure(self) -> DiscreteMeasure:
        z = self.grid_points()
        n = self.base.support_size
        return DiscreteMeasure(
            [(z[i][j], self.weights[i][j]) for i in range(n) for j in range(n)]
        )

    def min_grid_gap(self) -> Scalar:
        """Smallest pairwise distance between grid points."""
        return _least_gap(*_grid_axes(self.base))

    def to_json_dict(self) -> dict:
        return {
            "base": self.base.to_json_dict(),
            "weights": [[scalar_to_json(w) for w in row] for row in self.weights],
        }

    @classmethod
    def from_json_dict(cls, data) -> "GridMeasure":
        try:
            base = DiscreteMeasure.from_json_dict(data["base"])
            weights = [[parse_scalar(w) for w in row] for row in data["weights"]]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad grid measure JSON") from exc
        return cls(base, weights)
