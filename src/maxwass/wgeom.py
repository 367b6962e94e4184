"""Measure-level geometry: projections, the measure Radon transform,
symmetric-measure constructions and grid perturbations.

These are the constructions that make the Wasserstein space over the
maximum metric rigid enough to study: a measure in general position is
pinned down by its two diagonal projections (radon / radon_invert_F),
measures on a diagonal line admit an exactly aligned "mirror" measure
at any distance (symmetric_w1 for p = 1, dilation about a point for
p > 1), and the projection grid of a general-position measure carries
perturbation triples with prescribed pairwise distances
(grid_perturbation).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import (
    DiagonalLine,
    L_MINUS,
    L_PLUS,
    Point2,
    dilate,
    direction_alloc,
    project_point,
    same_diagonal,
)
from .measure import DiscreteMeasure, GridMeasure, _grid_axes, _least_gap, push_forward
from .scalars import ConstraintError, Scalar, for_message, is_exact, scalar_to_json
from .transport import wasserstein_pow


def project_measure(line: DiagonalLine, mu: DiscreteMeasure) -> DiscreteMeasure:
    """Push mu onto a diagonal line through the metric projection."""
    return push_forward(lambda x: project_point(line, x), mu)


@dataclass(frozen=True)
class RadonImage:
    """The pair of diagonal projections (P_{L+}#mu, P_{L-}#mu)."""

    plus: DiscreteMeasure
    minus: DiscreteMeasure

    def __post_init__(self):
        if not self.plus.supported_on(L_PLUS):
            raise ConstraintError("plus component must live on the line x2 = x1")
        if not self.minus.supported_on(L_MINUS):
            raise ConstraintError("minus component must live on the line x2 = -x1")

    def to_json_dict(self) -> dict:
        return {
            "plus": self.plus.to_json_dict(),
            "minus": self.minus.to_json_dict(),
        }


def radon(mu: DiscreteMeasure) -> RadonImage:
    return RadonImage(project_measure(L_PLUS, mu), project_measure(L_MINUS, mu))


def radon_invert_F(image: RadonImage) -> DiscreteMeasure:
    """Invert the Radon transform of a general-position measure.

    Both components must carry the same pairwise-distinct weights; equal
    weights then match atoms across the components, and each matched
    pair of projection preimages (an anti-diagonal and a diagonal line)
    crosses in the one support point carrying that weight.
    """
    for comp in (image.plus, image.minus):
        ws = comp.weights()
        if len(set(ws)) != len(ws):
            raise ConstraintError("weights must be pairwise distinct to invert")
    if sorted(image.plus.weights()) != sorted(image.minus.weights()):
        raise ConstraintError("components carry different weight multisets")
    by_weight = {w: x for x, w in image.minus.atoms}
    atoms = []
    for x_plus, w in image.plus.atoms:
        t = x_plus.x1
        s = by_weight[w].x1
        atoms.append((Point2(t + s, t - s), w))
    return DiscreteMeasure(atoms)


def symmetric_w1(line: DiagonalLine, mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteMeasure:
    """The 1-Wasserstein mirror of nu across mu's diagonal line.

    With t0 = d_{W_1}(mu, nu), every atom of nu slides time t0 along its
    escape direction away from the line.  Moving away from the line adds
    distance to every line point at unit speed, so the result eta sits
    exactly behind nu as seen from mu:

        d_{W_1}(mu, nu) = d_{W_1}(nu, eta) = d_{W_1}(mu, eta) / 2.
    """
    if not mu.supported_on(line):
        raise ConstraintError("mu must be supported on the given diagonal line")
    return _slide(line, nu, wasserstein_pow(mu, nu, 1))


def _slide(line: DiagonalLine, nu: DiscreteMeasure, t0: Scalar) -> DiscreteMeasure:
    """nu with every atom slid time t0 along its escape direction away
    from the line: symmetric_w1 once t0 = d_{W_1}(mu, nu) is known."""
    if t0 == 0:
        return nu
    return push_forward(
        lambda y: y + direction_alloc(line, y).scale(t0), nu
    )


def symmetric_wp(x: Point2, nu: DiscreteMeasure, p=2) -> DiscreteMeasure:
    """The p > 1 mirror of nu as seen from a Dirac at x: the dilation
    with ratio 2 about x, which doubles every distance to x."""
    if not p > 1:
        raise ConstraintError(f"the dilation construction needs p > 1, got {p!r}")
    return push_forward(lambda y: dilate(x, y), nu)


def displacement_interpolation(
    mu: DiscreteMeasure, corner: Point2, s: Scalar
) -> DiscreteMeasure:
    """Geodesic interpolation from a Dirac at `corner` towards mu.

    Requires every atom co-diagonal with the corner (support inside the
    diagonal cross through it), so that each atom rides its unique
    geodesic: x -> (1-s)*corner + s*x.
    """
    if not (0 <= s <= 1):
        raise ConstraintError(
            f"interpolation parameter must be in [0, 1], got {for_message(s)}"
        )
    if not all(same_diagonal(corner, x) for x in mu.points()):
        raise ConstraintError(
            "every atom must share a diagonal line with the corner"
        )
    return push_forward(
        lambda x: Point2(
            (1 - s) * corner.x1 + s * x.x1, (1 - s) * corner.x2 + s * x.x2
        ),
        mu,
    )


# ---------------------------------------------------------------------------
# grid perturbations

@dataclass(frozen=True)
class PerturbationTriple:
    """Three perturbed measures with equal Radon images and equal,
    prescribed pairwise distances a^(1/p) * c0.

    mu_prime shaves mass a off one atom of the defining measure and
    parks it at the off-grid point x0; nu1_prime / nu2_prime do the same
    to the grid measure in the two columns of its doubled row.
    """

    mu_prime: DiscreteMeasure
    nu1_prime: DiscreteMeasure
    nu2_prime: DiscreteMeasure
    a: Scalar
    c0: Scalar
    x_prime: Point2

    def to_json_dict(self) -> dict:
        return {
            "mu_prime": self.mu_prime.to_json_dict(),
            "nu1_prime": self.nu1_prime.to_json_dict(),
            "nu2_prime": self.nu2_prime.to_json_dict(),
            "a": scalar_to_json(self.a),
            "c0": scalar_to_json(self.c0),
            "x_prime": self.x_prime.to_json(),
        }


def grid_perturbation(
    mu: DiscreteMeasure,
    xi: GridMeasure,
    a: Scalar,
    x_prime: Point2 = None,
    offset_denominator: int = 8,
) -> PerturbationTriple:
    """Build the perturbation triple of (mu, xi) with mass a at x_prime.

    Preconditions: mu in general position; xi lives on mu's projection
    grid (same Radon image by construction); some grid row of xi has at
    least two positive cells, both heavier than a; x_prime lies on the
    plus diagonal at distance 0 < c0 < c/2 from that row's projection,
    where c is the smallest gap between grid points.  When x_prime is
    omitted it is placed at distance c/offset_denominator from that
    projection (so the denominator must exceed 2).  mu's diagonal
    coordinates ts, ss (`_grid_axes`, read once) give c in closed form
    and every point used, each a crossing (t + s, t - s).
    """
    try:
        ts, ss = _grid_axes(mu)
    except ConstraintError:
        raise ConstraintError("the defining measure must be in general position") from None
    if xi.base != mu:
        raise ConstraintError("xi must live on the projection grid of mu")
    xi_exact = all(is_exact(w) for row in xi.weights for w in row)
    if not (mu.exact and xi_exact and is_exact(a)):
        # the construction certifies equal Radon images by exact equality
        raise ConstraintError("grid perturbations need exact coordinates and weights")
    if x_prime is not None:
        if not x_prime.exact:
            raise ConstraintError("grid perturbations need exact coordinates and weights")
        if not L_PLUS.contains(x_prime):
            raise ConstraintError("x_prime must lie on the line x2 = x1")
    if not (a > 0):
        raise ConstraintError("the moved mass a must be positive")

    n = mu.support_size
    weights = xi.weights
    row_star = None
    for i in range(n):
        cols = [j for j in range(n) if weights[i][j] > 0]
        if len(cols) >= 2:
            row_star, j1, j2 = i, cols[0], cols[1]
            break
    if row_star is None:
        raise ConstraintError("xi needs a grid row with two positive cells")
    if not (a < weights[row_star][j1] and a < weights[row_star][j2]):
        raise ConstraintError(
            "a must stay below both doubled-row weights "
            f"{for_message(weights[row_star][j1])} and "
            f"{for_message(weights[row_star][j2])}"
        )

    t_star = ts[row_star]
    c = _least_gap(ts, ss)
    if x_prime is None:
        if offset_denominator <= 2:
            raise ConstraintError(
                "the automatic offset c/denominator needs a denominator above 2"
            )
        step = Fraction(c, offset_denominator)
        x_prime = Point2(t_star + step, t_star + step)
    c0 = abs(x_prime.x1 - t_star)
    if not (0 < c0 and 2 * c0 < c):
        raise ConstraintError(
            f"x_prime must sit at distance 0 < c0 < c/2 from the doubled row "
            f"(c0 = {for_message(c0)}, c = {for_message(c)})"
        )

    # z[i][j] for i < n is the grid; the new row z[n] pairs x_prime's
    # plus-class with the existing minus-classes
    z = [[Point2(t + s, t - s) for s in ss] for t in (*ts, x_prime.x1)]

    # GridMeasure rows follow mu's atom order, so row_star indexes mu.atoms
    mu_atoms = [
        (x, w - a if i == row_star else w) for i, (x, w) in enumerate(mu.atoms)
    ]
    mu_atoms.append((z[n][row_star], a))
    mu_prime = DiscreteMeasure(mu_atoms)

    def perturbed_nu(j_move: int) -> DiscreteMeasure:
        # the measure drops the cells of weight 0
        atoms = [(z[i][j], weights[i][j]) for i in range(n) for j in range(n)]
        atoms[row_star * n + j_move] = (z[row_star][j_move], weights[row_star][j_move] - a)
        atoms.append((z[n][j_move], a))
        return DiscreteMeasure(atoms)

    nu1_prime = perturbed_nu(j1)
    nu2_prime = perturbed_nu(j2)

    triple = PerturbationTriple(mu_prime, nu1_prime, nu2_prime, a, c0, x_prime)
    _check_common_radon(triple)
    return triple


def _check_common_radon(triple: PerturbationTriple):
    ra = radon(triple.mu_prime)
    for other in (triple.nu1_prime, triple.nu2_prime):
        rb = radon(other)
        if ra.plus != rb.plus or ra.minus != rb.minus:
            raise ConstraintError("perturbed measures disagree on their Radon image")
