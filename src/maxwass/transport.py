"""Wasserstein distances between discrete measures under the maximum metric.

The p-Wasserstein distance of two finitely supported measures is a
transportation LP over the coupling polytope with ground cost dm^p.
Two independent routes compute it:

* `wasserstein` runs the network simplex, on Python ints whenever both
  measures are exact and p is a whole number and on floats otherwise;
  where a side is one atom it takes the product plan, the only
  coupling, instead, from `_product_solution` in either arithmetic,
  and where a side of an exact problem is two atoms it solves that
  fractional knapsack in closed form, in `_two_line_solution`;
* `brute_force_wasserstein` folds the minimum cost over every vertex of
  the coupling polytope, and returns only that number.

Exact problems reach both routes through `_integer_instance`, which
rescales the two measures' integer forms (`measure.IntegerForm`) to
common coordinate and weight scales and builds fresh lists on every
call; each route divides by the scales once at the end.  Only that
input is shared, never the search, so agreement between the two is a
real check and is enforced wholesale by the acceptance suite.
`wasserstein_pows` solves one measure against many as one certified
solve per pair, each on its own instance.
Measures fix their exactness when they are built.  Solves, the oracle
and the probe decide theirs once, through `_exact_exponent`, which also
refuses a p that is not finite and >= 1; a plan takes its solve's verdict.

Every exact solve goes through `_certified_solve`, which takes an
integer instance (cost, supply, demand) and picks its route by shape.
When a side has one atom it returns the product plan with the
potentials the simplex would give it.  When a side has two atoms it
fills one of them greedily, the other lines in order of their cost
difference between the two, and reads the potentials off the last line
it fills.  Otherwise the simplex runs.  Whatever the route, its flows x
and potentials u, v are then checked in ints (x > 0 with the exact
margins, c - u_i - v_j >= 0 on every cell, and sum c*x == sum u*a +
sum v*b), which proves the vertex optimal without trusting the route.
One walk over the flows checks their signs and sums both their margins
and sum c*x, and the three clauses are decided in that order.
A failed certificate raises RuntimeError.  A solve returns the power
and its vertex at the scale it ran on: integer flows and costs with
their scales on exact problems.  Only `wasserstein` and the plan
outputs of the CLI divide them into a `TransportPlan`, so
`wasserstein_pow` builds no plan and no Fraction per cell.  A solver
plan skips the plan's own checks: the certificate, or on floats the
margin check at _FLOAT_MARGIN_TOL that every float solve passes, has
proved its margins already, and every route returns positive flows.

Uniqueness of the optimal coupling (`is_unique_optimal_plan`) takes two
certified solves: the problem itself, then a probe on the same margins
whose costs come from the first solve's reduced costs and plan, and
whose minimum is 0 iff that plan is the only optimal coupling.  It
costs about twice a solve.  The probe needs only some certified optimal
dual and a vertex, which every route gives.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .measure import DiscreteMeasure
from .netsimplex import solve_transportation
from .scalars import (
    _MAX_COST_BITS,
    ConstraintError,
    Scalar,
    is_exact,
    is_integer_exponent,
    root_p,
    scalar_to_json,
)


def active_kernel() -> str:
    """The engine every solve uses; the pure-Python simplex is the only one."""
    return "pure"


#: how far a float plan's margins may stray from the measures' weights
_FLOAT_MARGIN_TOL = 1e-9
#: float plan weights at or below this are rounding dust and are pruned
_FLOAT_DUST = 1e-14


def _exact_exponent(p, *measures) -> int | None:
    """The one exact-versus-float decision: int(p) when p is whole and
    every measure is exact, None for a float problem.  A bool, NaN, inf
    or p < 1 raises a ConstraintError, whatever the measures."""
    if isinstance(p, bool) or not 1 <= p < math.inf:
        raise ConstraintError(f"exponent p must be >= 1 and finite, got {p!r}")
    if not is_integer_exponent(p):
        return None
    for mu in measures:
        if not mu.exact:
            return None
    return int(p)


def _cost_matrix(mu: DiscreteMeasure, nu: DiscreteMeasure, fp: float):
    """float(dm(x, y)) ** fp per cell, dm written out: the max is taken
    in the coordinates' own types and rounded once, so points that mix
    exact and float coordinates get the costs dm gives them."""
    cols = nu.points()
    return [
        [float(max(abs(x1 - y1), abs(x2 - y2))) ** fp for y1, y2 in cols]
        for x1, x2 in mu.points()
    ]


def _require_cost_bits(q: int, top: int):
    """A ConstraintError, before any power is taken, when top^q would
    exceed _MAX_COST_BITS bits; top is the largest of a cost's dm values
    and its coordinate scale L."""
    # b.bit_length() - 1 bits per factor is a lower bound on the size of b^q
    if q * (top.bit_length() - 1) > _MAX_COST_BITS:
        raise ConstraintError(
            f"an exact cost dm^p would exceed {_MAX_COST_BITS} bits; use a smaller p"
        )


def _integer_instance(mu: DiscreteMeasure, nu: DiscreteMeasure, q: int):
    """The exact problem of (mu, nu) at integer scale: (cost, supply,
    demand, L^q, W).

    Coordinates are rescaled to L = lcm(L_mu, L_nu) and weights to
    W = lcm(W_mu, W_nu), the least scales that make both measures
    whole; dm is 1-homogeneous, so the costs dm^q scale by L^q, and a
    total cost divides by W * L^q and a flow by W.  Positive scaling
    keeps the sign of every comparison, so the optimal vertices are
    those of the rational instance.  The dm values are checked before
    any is powered, so it raises a ConstraintError where dm^q or L^q
    would exceed _MAX_COST_BITS bits.  Every list is new on each call,
    cost rows included: a caller may edit them, and the certificate
    compares margins with supply and demand as lists.
    """
    a, b = mu.integer, nu.integer
    coord_scale = math.lcm(a.coord_scale, b.coord_scale)
    ka, kb = coord_scale // a.coord_scale, coord_scale // b.coord_scale
    xs = [(x1 * ka, x2 * ka) for x1, x2 in a.coords]
    ys = [(y1 * kb, y2 * kb) for y1, y2 in b.coords]
    cost = [[max(abs(x1 - y1), abs(x2 - y2)) for y1, y2 in ys] for x1, x2 in xs]
    _require_cost_bits(q, max(coord_scale, max(map(max, cost))))
    if q != 1:
        cost = [[d**q for d in row] for row in cost]
    weight_scale = math.lcm(a.weight_scale, b.weight_scale)
    ka, kb = weight_scale // a.weight_scale, weight_scale // b.weight_scale
    supply = [w * ka for w in a.weights]
    demand = [w * kb for w in b.weights]
    return cost, supply, demand, coord_scale**q, weight_scale


@dataclass(frozen=True)
class TransportPlan:
    """A coupling of source and target, stored as positive (i, j, weight)
    entries sorted by index pair; zero-weight entries are pruned.  A
    solver plan is exact when its solve was; any other plan is exact
    when both measures and every weight are exact."""

    source: DiscreteMeasure
    target: DiscreteMeasure
    entries: tuple[tuple[int, int, Scalar], ...]
    exact: bool = field(init=False, compare=False, repr=False)

    def __init__(self, source, target, entries, *, _exact=None):
        if _exact is not None:
            # a solver plan, exact as its solve decided: positive weights
            # on distinct cells in row-major order, whose margins the
            # solve proved, so none of it is checked again
            kept, exact = tuple(entries), _exact
        else:
            cells = {}
            for i, j, w in entries:
                if w < 0:
                    raise ConstraintError(f"negative plan weight at ({i}, {j})")
                if not (0 <= i < source.support_size and 0 <= j < target.support_size):
                    raise ConstraintError(f"plan entry ({i}, {j}) out of range")
                if (i, j) in cells:
                    cells[i, j] += w
                else:
                    cells[i, j] = w
            kept = [
                (i, j, w)
                for (i, j), w in cells.items()
                if not (w == 0 or (isinstance(w, float) and w <= _FLOAT_DUST))
            ]
            kept.sort(key=lambda e: (e[0], e[1]))
            kept = tuple(kept)
            exact = source.exact and target.exact and all(is_exact(w) for *_, w in kept)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "entries", kept)
        object.__setattr__(self, "exact", exact)
        if _exact is None:
            self._check_marginals()

    def _check_marginals(self):
        wants = (self.source.weights(), self.target.weights())
        flows = {(i, j): w for i, j, w in self.entries}
        margins = _margins(flows, self.source.support_size, self.target.support_size)
        for got, want, side in zip(margins, wants, ("source", "target")):
            for k, (g, t) in enumerate(zip(got, want)):
                if self.exact:
                    ok = g == t
                else:
                    ok = abs(float(g) - float(t)) <= _FLOAT_MARGIN_TOL
                if not ok:
                    raise ConstraintError(
                        f"{side} marginal mismatch at atom {k}: {g} != {t}"
                    )

    def to_csv(self, fileobj, costs):
        """Rows (i, j, x_i, y_j, weight, cost), costs[k] being the cost
        dm(x_i, y_j)^p of entry k."""
        writer = csv.writer(fileobj)
        writer.writerow(["i", "j", "x_i", "y_j", "weight", "cost"])

        def text(x):
            return "[%s, %s]" % (scalar_to_json(x.x1), scalar_to_json(x.x2))

        # each atom's text once, not once per entry
        xs = [text(x) for x in self.source.points()]
        ys = [text(y) for y in self.target.points()]
        writer.writerows(
            [i, j, xs[i], ys[j], scalar_to_json(w), scalar_to_json(c)]
            for (i, j, w), c in zip(self.entries, costs)
        )


def _margins(flows, m: int, n: int):
    row, col = [0] * m, [0] * n
    for (i, j), x in flows.items():
        row[i] += x
        col[j] += x
    return row, col


def _certificate_failure(cost, supply, demand, solution):
    """The first optimality condition an integer solution fails, or None.

    (total, flows, u, v) is optimal iff the flows are feasible (x >= 0,
    row and column sums equal to supply and demand), the potentials are
    dual feasible (c_ij - u_i - v_j >= 0 on every cell) and the two
    objectives meet: total == sum c*x == sum u*a + sum v*b.  A zero
    flow fails primal feasibility too: every route keeps only the
    positive flows of its vertex, and a solver plan relies on that.
    One walk over the flows checks their signs and sums their margins
    and sum c*x; the clauses are then decided in that order.  All
    checks are exact and take O(m*n).
    """
    total, flows, u, v = solution
    m, n = len(supply), len(demand)
    row, col = [0] * m, [0] * n
    primal = 0
    for (i, j), x in flows.items():
        if x <= 0:
            return "primal feasibility"
        row[i] += x
        col[j] += x
        primal += cost[i][j] * x
    if row != supply or col != demand:
        return "primal feasibility"
    if len(u) != m or len(v) != n:
        return "dual feasibility"
    for ui, crow in zip(u, cost):
        if min(map(operator.sub, crow, v)) < ui:
            return "dual feasibility"
    dual = sum(map(operator.mul, u, supply)) + sum(map(operator.mul, v, demand))
    if not total == primal == dual:
        return "strong duality"
    return None


def _product_solution(cost, supply, demand):
    """The product plan of a 1 x n or n x 1 instance, ints or floats, as
    the (total, flows, u, v) `solve_transportation` returns there: the
    northwest corner is the product plan and needs no pivot, its flows
    are the other side's weights as given, and its potentials are
    u_0 = 0, v_j = c_0j on a row, and v_0 = c_00, u_i = c_i0 - c_00 on
    a column.  Every reduced cost is 0 and the total is sum c*x, so an
    exact answer fails `_certificate_failure` only where the margins do.
    """
    if len(supply) == 1:
        row = cost[0]
        flows = {(0, j): d for j, d in enumerate(demand)}
        return sum(map(operator.mul, row, demand)), flows, [0], list(row)
    c00 = cost[0][0]
    flows = {(i, 0): s for i, s in enumerate(supply)}
    total = sum(row[0] * s for row, s in zip(cost, supply))
    return total, flows, [row[0] - c00 for row in cost], [c00]


def _two_line_solution(cost, supply, demand):
    """An optimal vertex of an exact m x 2 or 2 x n instance, in closed
    form, as the (total, flows, u, v) `solve_transportation` returns.

    With two columns the problem is a fractional knapsack: every row
    sends to column 0 what it does not send to column 1, at c_i0 - c_i1
    more.  So the rows, stably sorted by that difference (equal ones in
    index order), fill column 0 greedily up to demand[0], and each row
    sends its rest to column 1.  The flows are a forest of at most m + 1
    cells, in row-major order.  With d the difference of the last row
    column 0 takes, v = (d, 0) and u_i = min(c_i0 - d, c_i1) price every
    cell at >= 0, and at 0 where a row sends flow: rows before it in the
    order have differences <= d, rows after it >= d, and it has d.
    Two rows take the same route on the transposed instance, whose
    flows are read back one row at a time, with no sort.
    """
    if len(demand) != 2:
        total, flows, u, v = _two_line_solution([*zip(*cost)], demand, supply)
        return total, {(i, j): x for i in (0, 1) for (j, k), x in flows.items() if k == i}, v, u
    diffs = [c0 - c1 for c0, c1 in cost]
    taken = [0] * len(supply)
    left = demand[0]
    for i in sorted(range(len(supply)), key=diffs.__getitem__):
        take = taken[i] = min(supply[i], left)
        left -= take
        d = diffs[i]
        if not left:
            break
    flows = {}
    total = 0
    for i, ((c0, c1), s, x) in enumerate(zip(cost, supply, taken)):
        if x:
            flows[i, 0] = x
            total += c0 * x
        if s != x:
            flows[i, 1] = s - x
            total += c1 * (s - x)
    return total, flows, [min(c0 - d, c1) for c0, c1 in cost], [d, 0]


def _certified_solve(cost, supply, demand):
    """The one exact solve: an optimal vertex of an integer instance and
    its optimality certificate.

    Returns the (total, flows, u, v) of `solve_transportation`: from
    `_product_solution` when a side has one atom, in closed form from
    `_two_line_solution` when a side has two, and from the simplex
    otherwise.  Every route's answer then passes the same certificate,
    `_certificate_failure`.  A failed certificate is a solver bug and
    raises RuntimeError, like the pivot cap; no answer is returned.
    """
    if len(supply) == 1 or len(demand) == 1:
        route = _product_solution
    elif len(supply) == 2 or len(demand) == 2:
        route = _two_line_solution
    else:
        route = solve_transportation
    solution = route(cost, supply, demand)
    failed = _certificate_failure(cost, supply, demand, solution)
    if failed is not None:
        raise RuntimeError(f"exact solve failed its optimality certificate: {failed}")
    return solution


class _Solution(NamedTuple):
    """One optimal vertex at the scale of the instance its route solved.

    An exact solve holds the ints of its `_integer_instance`, whichever
    of the product, two-line or simplex routes found the vertex: a flow
    f carries mass f / weight_scale and a cost c is dm^p = c /
    cost_scale, and the power is the route's total over both scales.  A
    float solve holds the weights and the costs themselves, both scales
    are None, and the power is the route's float total.
    """

    power: Scalar
    flows: dict  # (i, j) -> positive flow of the vertex, row-major
    cost: list  # the m x n cost matrix
    weight_scale: int | None
    cost_scale: int | None

    def plan(self, mu: DiscreteMeasure, nu: DiscreteMeasure) -> TransportPlan:
        """The vertex as a plan between mu and nu, the measures solved,
        exact when the solve was.  Its margins were checked by the solve,
        so the plan checks nothing again; float dust is pruned here."""
        scale = self.weight_scale
        if scale is None:
            entries = [(i, j, x) for (i, j), x in self.flows.items() if x > _FLOAT_DUST]
        else:
            entries = [(i, j, Fraction(f, scale)) for (i, j), f in self.flows.items()]
        return TransportPlan(mu, nu, entries, _exact=scale is not None)

    def cell_cost(self, i: int, j: int) -> Scalar:
        """dm(x_i, y_j)^p, read off the cost matrix."""
        if self.cost_scale is None:
            return self.cost[i][j]
        return Fraction(self.cost[i][j], self.cost_scale)


def _solve(mu: DiscreteMeasure, nu: DiscreteMeasure, p) -> _Solution:
    """The one solve path: the optimal cost power and one optimal vertex.

    The power is exact when `_exact_exponent` finds the problem exact,
    a float otherwise.  Exact problems, Diracs included, take
    `_certified_solve` on their `_integer_instance`, and only the total
    is divided by the scales: the flows stay ints for a plan to keep.
    Float problems take `_product_solution` on the float weights where a
    side is one atom and the simplex otherwise, and either answer must
    meet every margin within _FLOAT_MARGIN_TOL.
    """
    q = _exact_exponent(p, mu, nu)
    if q is not None:
        cost, supply, demand, cost_scale, weight_scale = _integer_instance(mu, nu, q)
        total, flows, _, _ = _certified_solve(cost, supply, demand)
        power = Fraction(total, weight_scale * cost_scale)
        return _Solution(power, flows, cost, weight_scale, cost_scale)

    try:
        fp = float(p)
    except OverflowError:
        raise ConstraintError("the exponent p exceeds the float range") from None
    try:
        cost = _cost_matrix(mu, nu, fp)
        top = max(map(max, cost))
    except OverflowError:
        top = math.inf
    if top == math.inf:  # a float dm can round to inf without raising
        raise ConstraintError(
            "a transport cost exceeds the float range; "
            "--exact with a whole-number p computes it exactly"
        ) from None
    supply = [float(s) for s in mu.weights()]
    demand = [float(d) for d in nu.weights()]
    if len(supply) == 1 or len(demand) == 1:
        # the only coupling there is, with no rounding residue from the
        # simplex's northwest corner
        total, flows, _, _ = _product_solution(cost, supply, demand)
    else:
        total, flows, _, _ = solve_transportation(cost, supply, demand, 1e-11 * max(1.0, top))
    row, col = _margins(flows, len(supply), len(demand))
    if any(abs(g - t) > _FLOAT_MARGIN_TOL for g, t in zip(row + col, supply + demand)):
        raise RuntimeError("float solve returned flows off their margins")
    return _Solution(total, flows, cost, None, None)


def wasserstein(mu: DiscreteMeasure, nu: DiscreteMeasure, p=2):
    """d_{W_p}(mu, nu) along with one optimal plan.

    Returns (distance, plan).  The distance is exact for p == 1 on exact
    inputs; for p > 1 it is the float 1/p-th root of the exact power
    (use wasserstein_pow for the exact powered value).
    """
    solution = _solve(mu, nu, p)
    return root_p(solution.power, p), solution.plan(mu, nu)


def wasserstein_pow(mu: DiscreteMeasure, nu: DiscreteMeasure, p=2) -> Scalar:
    """The p-th power of d_{W_p}, without building a plan; exact on exact
    inputs with integer p."""
    return _solve(mu, nu, p).power


def wasserstein_pows(mu: DiscreteMeasure, nus, p=2) -> list:
    """[wasserstein_pow(mu, nu, p) for nu in nus], exceptions included:
    one `_solve` per pair, so an exact pair is one certified solve on
    its own `_integer_instance`."""
    return [_solve(mu, nu, p).power for nu in nus]


# ---------------------------------------------------------------------------
# exhaustive oracle and uniqueness

_BRUTE_LIMIT = 36


def _minimum_vertex_cost(cost, supply, demand):
    """The least cost of a vertex of an integer-margin transportation polytope.

    Every vertex arises by repeatedly picking a cell, sending
    min(supply, demand) through it and retiring whichever line is
    exhausted (both on a tie), so a memoized recursion over residual
    states reaches every vertex and the additive cost lets the minimum
    be folded into the same recursion.
    """
    memo = {}

    def solve(rows, cols):
        if not rows:
            return 0
        key = (rows, cols)
        best = memo.get(key)
        if best is not None:
            return best
        for a, (i, s) in enumerate(rows):
            crow = cost[i]
            for b, (j, d) in enumerate(cols):
                if s < d:
                    q = s
                    nrows = rows[:a] + rows[a + 1:]
                    ncols = cols[:b] + ((j, d - s),) + cols[b + 1:]
                elif d < s:
                    q = d
                    nrows = rows[:a] + ((i, s - d),) + rows[a + 1:]
                    ncols = cols[:b] + cols[b + 1:]
                else:
                    q = s
                    nrows = rows[:a] + rows[a + 1:]
                    ncols = cols[:b] + cols[b + 1:]
                c = crow[j] * q + solve(nrows, ncols)
                if best is None or c < best:
                    best = c
        memo[key] = best
        return best

    rows = tuple((i, s) for i, s in enumerate(supply))
    cols = tuple((j, d) for j, d in enumerate(demand))
    return solve(rows, cols)


def brute_force_wasserstein(mu: DiscreteMeasure, nu: DiscreteMeasure, p=2):
    """Exact minimum over all coupling-polytope vertices.

    Returns (distance, power) with the exact p-th power of the distance.
    Only defined for exact measures with integer p and support product
    at most 36; meant as the independent check of `wasserstein`.
    """
    q = _exact_exponent(p, mu, nu)
    if q is None:
        raise ConstraintError("the exhaustive oracle needs exact weights and integer p")
    if mu.support_size * nu.support_size > _BRUTE_LIMIT:
        raise ConstraintError(
            f"support product {mu.support_size * nu.support_size} exceeds "
            f"the oracle bound {_BRUTE_LIMIT}"
        )
    cost, supply, demand, cost_scale, weight_scale = _integer_instance(mu, nu, q)
    best_scaled = _minimum_vertex_cost(cost, supply, demand)
    power = Fraction(best_scaled, weight_scale * cost_scale)
    return root_p(power, p), power


def is_unique_optimal_plan(mu: DiscreteMeasure, nu: DiscreteMeasure, p=2) -> bool:
    """True iff the optimal coupling is unique, read off two certified solves.

    The first solve gives an optimal vertex x with support S and
    certified potentials u, v: every reduced cost r_ij = c_ij - u_i - v_j
    is a nonnegative int, zero on S, and the optimal couplings are those
    carried by the tight cells, where r_ij = 0.  With M the total integer
    mass and k = M + 1, the second solve, on the same margins, charges
    k * r_ij per unit on every cell and one less on each tight cell
    outside S.  Its vertices are integral, so one that uses a cell that
    is not tight costs at least k - M = 1 > 0, and one that uses only
    tight cells is an optimal coupling and costs minus its mass outside
    S.  x costs 0, so the certified minimum is at most 0, and it is
    negative iff an optimal vertex uses a tight cell outside S.  Such a
    vertex differs from x.  Conversely, a second optimal coupling puts a
    second vertex on the optimal face, and that vertex leaves S: x is a
    vertex, so S is a forest, on which the margins fix the flows.  So
    the minimum is 0 iff x is the only optimal coupling.  Every route's
    potentials are certified, and the tight cells of any certified
    optimal dual carry exactly the optimal couplings, so the argument
    holds whichever route `_certified_solve` takes; every route's flows
    are a forest.
    """
    q = _exact_exponent(p, mu, nu)
    if q is None:
        raise ConstraintError("uniqueness detection needs exact measures and an integer exponent")
    cost, supply, demand, _, _ = _integer_instance(mu, nu, q)
    _, flows, u, v = _certified_solve(cost, supply, demand)
    k = sum(supply) + 1
    probe = []
    for i, (row, ui) in enumerate(zip(cost, u)):
        reduced = [c - ui - vj for c, vj in zip(row, v)]
        probe.append([k * r - (r == 0 and (i, j) not in flows) for j, r in enumerate(reduced)])
    total, _, _, _ = _certified_solve(probe, supply, demand)
    return total == 0
