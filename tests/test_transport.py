"""Solver tests: exact optima, metric axioms, plans, uniqueness."""

import io
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from draws import rand_frac, rand_measure
from maxwass import transport
from maxwass.geometry import Point2, dm
from maxwass.measure import DiscreteMeasure
from maxwass.netsimplex import solve_transportation
from maxwass.scalars import ConstraintError, is_integer_exponent
from maxwass.transport import (
    TransportPlan,
    _integer_instance,
    _minimum_vertex_cost,
    brute_force_wasserstein,
    is_unique_optimal_plan,
    wasserstein,
    wasserstein_pow,
    wasserstein_pows,
)

F = Fraction


def product_plan(mu, nu):
    """The independent coupling; optimal whenever one side is a Dirac."""
    return TransportPlan(
        mu,
        nu,
        [
            (i, j, wi * wj)
            for i, (_, wi) in enumerate(mu.atoms)
            for j, (_, wj) in enumerate(nu.atoms)
        ],
    )


def cell_costs(plan, p):
    """dm(x_i, y_j)^p per entry of plan: exact on an exact plan with whole p."""
    xs, ys = plan.source.points(), plan.target.points()
    if plan.exact and is_integer_exponent(p):
        return [dm(xs[i], ys[j]) ** int(p) for i, j, _ in plan.entries]
    return [float(dm(xs[i], ys[j])) ** float(p) for i, j, _ in plan.entries]


def cost_pow(plan, p):
    """The transport cost sum dm(x_i, y_j)^p * w of plan, without the 1/p root."""
    total = 0
    for (_, _, w), c in zip(plan.entries, cell_costs(plan, p)):
        total += c * w
    return total


def float_measure(rng, n):
    pts = [Point2(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(n)]
    parts = [rng.randint(1, 9) for _ in range(n)]
    return DiscreteMeasure([(x, k / sum(parts)) for x, k in zip(pts, parts)])


def test_dirac_pair_distance_is_point_distance():
    x, y = Point2(F(1), F(2)), Point2(F(-1), F(5))
    d, plan = wasserstein(DiscreteMeasure.dirac(x), DiscreteMeasure.dirac(y), 1)
    assert d == dm(x, y)
    assert plan.entries == ((0, 0, F(1)),)


def test_dirac_fast_path_cost():
    mu = DiscreteMeasure.dirac(Point2(F(0), F(0)))
    nu = DiscreteMeasure(
        [(Point2(F(1), F(0)), F(1, 3)), (Point2(F(0), F(2)), F(2, 3))]
    )
    pw = wasserstein_pow(mu, nu, 2)
    assert pw == F(1, 3) * 1 + F(2, 3) * 4


def enumerate_optimal_vertices(cost, supply, demand):
    """Every minimum-cost vertex of an integer-margin transportation
    polytope, as frozensets of (i, j, flow), with their cost.

    Every vertex arises by repeatedly picking a cell, sending
    min(supply, demand) through it and retiring whichever line is
    exhausted (both on a tie), so a memoized recursion over residual
    states visits each vertex; exponential, the reference for
    uniqueness on small instances.
    """
    memo = {}

    def spend(lines, a, q):
        """lines with line a's residual lowered by q, retired at zero."""
        k, left = lines[a][0], lines[a][1] - q
        return lines[:a] + (((k, left),) if left else ()) + lines[a + 1:]

    def solve(rows, cols):
        if not rows:
            return 0, {frozenset()}
        if (rows, cols) not in memo:
            best_cost, best = None, set()
            for a, (i, s) in enumerate(rows):
                for b, (j, d) in enumerate(cols):
                    q = min(s, d)
                    tail_cost, tails = solve(spend(rows, a, q), spend(cols, b, q))
                    c = cost[i][j] * q + tail_cost
                    if best_cost is None or c < best_cost:
                        best_cost, best = c, set()
                    if c == best_cost:
                        best |= {t | {(i, j, q)} for t in tails}
            memo[rows, cols] = best_cost, best
        return memo[rows, cols]

    return solve(tuple(enumerate(supply)), tuple(enumerate(demand)))


TIE_MU = DiscreteMeasure(
    [(Point2(F(0), F(0)), F(1, 2)), (Point2(F(1), F(1)), F(1, 2))]
)
TIE_NU = DiscreteMeasure(
    [(Point2(F(0), F(1)), F(1, 2)), (Point2(F(1), F(0)), F(1, 2))]
)


def test_known_tie_instance_has_two_optima():
    d, power = brute_force_wasserstein(TIE_MU, TIE_NU, 1)
    assert d == power == 1
    _, vertices = enumerate_optimal_vertices(*_integer_instance(TIE_MU, TIE_NU, 1)[:3])
    assert len(vertices) == 2
    assert not is_unique_optimal_plan(TIE_MU, TIE_NU, 1)


def test_solver_matches_oracle_small_batch():
    rng = random.Random(71)
    for k in range(60):
        p = (1, 2, 3)[k % 3]
        mu, nu = rand_measure(rng), rand_measure(rng)
        assert wasserstein_pow(mu, nu, p) == brute_force_wasserstein(mu, nu, p)[1]


@st.composite
def small_pair(draw):
    """Two exact measures with at most 16 cells between them, on the
    1/2 grid of [-1, 1]^2 so that costs tie often; equal or random
    weights.  Repeated points merge."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 16 // m))
    equal = draw(st.booleans())
    coord = st.integers(-2, 2).map(lambda k: F(k, 2))
    measures = []
    for size in (m, n):
        points = [Point2(draw(coord), draw(coord)) for _ in range(size)]
        parts = [1 if equal else draw(st.integers(1, 12)) for _ in points]
        measures.append(
            DiscreteMeasure([(x, F(r, sum(parts))) for x, r in zip(points, parts)])
        )
    return measures


@settings(max_examples=300, deadline=None)
@given(pair=small_pair(), p=st.sampled_from((1, 2, 3)))
@example(pair=(TIE_MU, TIE_NU), p=1)
def test_uniqueness_agrees_with_the_vertex_enumeration(pair, p):
    """The dual-graph verdict is True iff exactly one vertex is optimal;
    a second optimal vertex makes every convex mix optimal too."""
    mu, nu = pair
    cost, supply, demand, _, _ = _integer_instance(mu, nu, p)
    _, vertices = enumerate_optimal_vertices(cost, supply, demand)
    assert is_unique_optimal_plan(mu, nu, p) == (len(vertices) == 1)


def test_uniqueness_probe_outweighs_the_mass_off_tight_cells():
    """The plan (0, 0), (1, 2), (2, 1) is the only optimum, at cost 8.
    The vertex (0, 1), (1, 0), (2, 2) costs 9: reduced cost 1 on (0, 1),
    and two units on tight cells outside the plan.  A probe that charged
    reduced costs at k = 1 would price it at 1 - 2 < 0; at k = 4, one
    more than the total mass 3, it costs 4 - 2 > 0."""
    mu, nu = (
        DiscreteMeasure([(Point2(F(a), F(b)), F(1, 3)) for a, b in points])
        for points in (((0, 2), (1, 2), (1, 3)), ((1, 0), (1, 3), (3, 1)))
    )
    cost, supply, demand, _, _ = _integer_instance(mu, nu, 2)
    assert cost == [[4, 1, 9], [4, 1, 4], [9, 0, 4]] and supply == demand == [1, 1, 1]
    best, vertices = enumerate_optimal_vertices(cost, supply, demand)
    assert (best, vertices) == (8, {frozenset({(0, 0, 1), (1, 2, 1), (2, 1, 1)})})
    assert is_unique_optimal_plan(mu, nu, 2)


def test_uniqueness_has_no_size_limit():
    """40x40 instances of known answer: a measure against itself has the
    identity as its only optimal coupling, and twenty far-apart copies
    of the tie instance have two optimal couplings per copy."""
    rng = random.Random(40)
    points = set()
    while len(points) < 40:
        points.add(Point2(rand_frac(rng), rand_frac(rng)))
    mu = DiscreteMeasure([(x, F(1, 40)) for x in sorted(points)])
    assert is_unique_optimal_plan(mu, mu, 2)

    def copies(measure):
        return DiscreteMeasure(
            [
                (Point2(x.x1 + 10 * k, x.x2), w / 20)
                for k in range(20)
                for x, w in measure.atoms
            ]
        )

    mu, nu = copies(TIE_MU), copies(TIE_NU)
    assert mu.support_size == nu.support_size == 40
    assert not is_unique_optimal_plan(mu, nu, 1)


def test_uniqueness_needs_an_exact_problem():
    with pytest.raises(ConstraintError, match="integer exponent"):
        is_unique_optimal_plan(TIE_MU, TIE_NU, 1.5)
    floats = DiscreteMeasure([(Point2(0.0, 0.0), 0.5), (Point2(1.0, 1.0), 0.5)])
    with pytest.raises(ConstraintError, match="exact measures"):
        is_unique_optimal_plan(floats, TIE_NU, 1)


def test_metric_axioms_exact():
    rng = random.Random(73)
    for k in range(40):
        p = (1, 2)[k % 2]
        mu, nu, eta = (rand_measure(rng, 3) for _ in range(3))
        ab = wasserstein_pow(mu, nu, p)
        ba = wasserstein_pow(nu, mu, p)
        assert ab == ba
        assert (ab == 0) == (mu == nu)
        bc = wasserstein_pow(nu, eta, p)
        ac = wasserstein_pow(mu, eta, p)
        if p == 1:
            assert ac <= ab + bc
        else:
            # sqrt(ac) <= sqrt(ab) + sqrt(bc), squared twice to stay rational
            gap = ac - ab - bc
            assert gap <= 0 or gap * gap <= 4 * ab * bc


def test_triangle_inequality_p3_float_tolerance():
    rng = random.Random(79)
    for _ in range(25):
        mu, nu, eta = (rand_measure(rng, 3) for _ in range(3))
        a = float(wasserstein_pow(mu, nu, 3)) ** (1 / 3)
        b = float(wasserstein_pow(nu, eta, 3)) ** (1 / 3)
        c = float(wasserstein_pow(mu, eta, 3)) ** (1 / 3)
        assert c <= a + b + 1e-9


def test_plan_marginals_and_cost():
    rng = random.Random(83)
    for _ in range(30):
        mu, nu = rand_measure(rng), rand_measure(rng)
        _, plan = wasserstein(mu, nu, 2)
        row = [F(0)] * mu.support_size
        col = [F(0)] * nu.support_size
        for i, j, w in plan.entries:
            row[i] += w
            col[j] += w
        assert tuple(row) == mu.weights()
        assert tuple(col) == nu.weights()


def test_plan_csv_layout():
    mu = DiscreteMeasure.dirac(Point2(F(2), F(0)))
    nu = DiscreteMeasure(
        [(Point2(F(-2), F(-2)), F(1, 5)), (Point2(F(1, 2), F(1, 2)), F(4, 5))]
    )
    _, plan = wasserstein(mu, nu, 2)
    out = io.StringIO()
    plan.to_csv(out, cell_costs(plan, 2))
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == "i,j,x_i,y_j,weight,cost"
    assert len(lines) == 3
    assert lines[1].endswith("16") and lines[2].endswith("9/4")


def test_plan_with_one_wrong_exact_weight_fails_its_marginals():
    mu = DiscreteMeasure([(Point2(F(0), F(0)), F(1, 3)), (Point2(F(1), F(0)), F(2, 3))])
    nu = DiscreteMeasure([(Point2(F(0), F(1)), F(1, 2)), (Point2(F(1), F(1)), F(1, 2))])
    good = [(0, 0, F(1, 3)), (1, 0, F(1, 6)), (1, 1, F(1, 2))]
    TransportPlan(mu, nu, good)
    with pytest.raises(ConstraintError, match=r"^source marginal mismatch at atom 1: 5/6 != 2/3$"):
        TransportPlan(mu, nu, good[:2] + [(1, 1, F(2, 3))])
    with pytest.raises(ConstraintError, match=r"^target marginal mismatch at atom 0: 1/3 != 1/2$"):
        TransportPlan(mu, nu, [(0, 0, F(1, 3)), (1, 1, F(2, 3))])


def test_solver_plans_equal_the_checked_plans():
    """The exact plans a solve builds without re-checking them are the
    plans the checked constructor builds from the same flows."""
    rng = random.Random(13)
    for k in range(60):
        p = (1, 2, 3)[k % 3]
        mu, nu = rand_measure(rng, 6), rand_measure(rng, 6)
        solution = transport._solve(mu, nu, p)
        plan = solution.plan(mu, nu)
        checked = TransportPlan(
            mu, nu, [(i, j, F(f, solution.weight_scale)) for (i, j), f in solution.flows.items()]
        )
        assert plan.exact and checked.exact
        assert plan.entries == checked.entries


@pytest.mark.parametrize(
    "bad, match",
    [
        ((0, 0, F(-1, 2)), "negative plan weight"),
        ((0, 2, F(1, 2)), "out of range"),
        ((0, 0, F(1, 4)), "marginal mismatch"),
    ],
)
def test_plans_built_outside_the_solver_keep_every_check(bad, match):
    mu, nu = TIE_MU, TIE_NU
    entries = list(wasserstein(mu, nu, 1)[1].entries)
    entries[0] = bad
    with pytest.raises(ConstraintError, match=match):
        TransportPlan(mu, nu, entries)


def test_plan_merges_duplicate_cells():
    mu = DiscreteMeasure([(Point2(F(0), F(0)), F(1, 3)), (Point2(F(1), F(0)), F(2, 3))])
    nu = DiscreteMeasure.dirac(Point2(F(0), F(1)))
    plan = TransportPlan(mu, nu, [(1, 0, F(1, 2)), (0, 0, F(1, 3)), (1, 0, F(1, 6))])
    assert plan.entries == ((0, 0, F(1, 3)), (1, 0, F(2, 3)))
    assert plan.exact
    floats = TransportPlan(mu, nu, [(0, 0, 0.25), (1, 0, 2 / 3), (0, 0, 1 / 12)])
    assert floats.entries == ((0, 0, 0.25 + 1 / 12), (1, 0, 2 / 3))


def test_product_plan_marginals():
    rng = random.Random(89)
    mu, nu = rand_measure(rng), rand_measure(rng)
    plan = product_plan(mu, nu)
    total = sum(w for _, _, w in plan.entries)
    assert total == 1


def test_invalid_p_rejected():
    mu = DiscreteMeasure.dirac(Point2(F(0), F(0)))
    with pytest.raises(ConstraintError):
        wasserstein(mu, mu, 0)
    with pytest.raises(ConstraintError):
        wasserstein(mu, mu, F(1, 2))


def test_nan_exponent_rejected():
    """NaN compares False both ways, so `p < 1` would let it through;
    inf passes `p >= 1`, and its costs dm^inf round to 0 below 1.  The
    solves, the oracle and the probe all refuse both."""
    mu = DiscreteMeasure.dirac(Point2(F(0), F(0)))
    nu = DiscreteMeasure([(Point2(F(1), F(0)), F(1, 2)), (Point2(F(0), F(2)), F(1, 2))])
    for p in (float("nan"), float("inf")):
        for call in (
            lambda: wasserstein_pow(mu, nu, p),
            lambda: wasserstein(mu, nu, p),
            lambda: wasserstein_pows(mu, [nu], p),
            lambda: brute_force_wasserstein(mu, nu, p),
            lambda: is_unique_optimal_plan(mu, nu, p),
        ):
            with pytest.raises(ConstraintError, match="exponent p must be >= 1"):
                call()
        assert wasserstein_pows(mu, [], p) == []


def test_raw_transportation_solver_exact():
    cost = [[F(1), F(3)], [F(2), F(1)]]
    total, flows, u, v = solve_transportation(cost, [F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)])
    assert total == F(1)
    assert flows == {(0, 0): F(1, 2), (1, 1): F(1, 2)}
    # an optimal dual: no negative reduced cost, tight on the flows
    assert all(cost[i][j] >= u[i] + v[j] for i in range(2) for j in range(2))
    assert all(cost[i][j] == u[i] + v[j] for i, j in flows)


def test_degenerate_margins_terminate():
    """Many equal weights force degenerate pivots; the strongly feasible
    tree must still terminate at the optimum."""
    n = 6
    supply = [F(1, n)] * n
    demand = [F(1, n)] * n
    cost = [[F((i * 7 + j * 11) % 5) for j in range(n)] for i in range(n)]
    total, flows, _, _ = solve_transportation(cost, supply, demand)
    assert total >= 0
    assert sum(flows.values()) == 1


def test_float_power_is_the_rooted_solver_total(monkeypatch):
    """wasserstein_pow returns the solver total that wasserstein roots,
    not that root raised back to the p-th power."""
    # seed 1: the root-then-power round trip moves the last bits
    rng = random.Random(1)
    mu, nu = float_measure(rng, 4), float_measure(rng, 4)
    totals = []

    def recording(*args, **kwargs):
        result = solve_transportation(*args, **kwargs)
        totals.append(result[0])
        return result

    monkeypatch.setattr(transport, "solve_transportation", recording)
    distance, _ = wasserstein(mu, nu, 2)
    power = wasserstein_pow(mu, nu, 2)
    assert totals == [power, power]
    assert distance == power ** 0.5


# ---------------------------------------------------------------------------
# integer-scaled exact solves

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


@st.composite
def exact_pair(draw, kind, square):
    """Two exact measures of up to 4 atoms whose coordinate denominators
    are all 1 ("integer"), drawn from a small set with common factors
    ("mixed"), or distinct primes ("coprime"); weights r_k / d_k are
    normalized to sum to one.  Repeated points merge."""
    primes = iter(draw(st.permutations(PRIMES)) if kind == "coprime" else ())
    bound = 1 if square else 3

    def denominator():
        if kind == "integer":
            return 1
        if kind == "mixed":
            return draw(st.sampled_from((1, 2, 3, 4, 6, 8, 12)))
        return next(primes)

    measures = []
    for _ in range(2):
        points = []
        for _ in range(draw(st.integers(2, 4))):
            coords = []
            for _ in range(2):
                d = denominator()
                coords.append(F(draw(st.integers(-bound * d, bound * d)), d))
            points.append(Point2(*coords))
        parts = [
            F(draw(st.integers(1, 12)), draw(st.sampled_from(PRIMES[:6])))
            for _ in points
        ]
        total = sum(parts)
        measures.append(
            DiscreteMeasure([(x, r / total) for x, r in zip(points, parts)])
        )
    return measures


def fraction_solve(mu, nu, q):
    """The unscaled instance straight through the certified solve on
    Fractions, which takes the route the integer instance takes."""
    cost = [[dm(x, y) ** q for y in nu.points()] for x in mu.points()]
    supply, demand = list(mu.weights()), list(nu.weights())
    total, flows, _, _ = transport._certified_solve(cost, supply, demand)
    return total, TransportPlan(mu, nu, [(i, j, f) for (i, j), f in flows.items()])


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(("integer", "mixed", "coprime")),
    q=st.sampled_from((1, 2, 3)),
    square=st.booleans(),
    data=st.data(),
)
def test_integer_instance_takes_the_fraction_pivots(kind, q, square, data):
    """Scaling to ints keeps every comparison, so the exact solve returns
    the power and the vertex of the same route run on Fractions: the
    two-line route where a side has two atoms, the simplex otherwise."""
    mu, nu = data.draw(exact_pair(kind, square))
    solution = transport._solve(mu, nu, q)
    power, plan = solution.power, solution.plan(mu, nu)
    want_power, want_plan = fraction_solve(mu, nu, q)
    assert type(power) is F
    assert power == want_power
    assert plan.entries == want_plan.entries


def test_exact_solves_pass_only_ints_to_the_simplex(monkeypatch):
    calls = []

    def spy(cost, supply, demand, tol=0):
        result = solve_transportation(cost, supply, demand, tol)
        calls.append((cost, supply, demand, tol, result))
        return result

    monkeypatch.setattr(transport, "solve_transportation", spy)
    rng = random.Random(107)
    one_atom, two_atoms = [], []
    for k in range(30):
        p = (1, 2, 3)[k % 3]
        mu, nu = rand_measure(rng), rand_measure(rng)
        wasserstein_pow(mu, nu, p)
        sides = (mu.support_size, nu.support_size)
        if 1 in sides:
            one_atom.append(_integer_instance(mu, nu, p)[:3])
        elif 2 in sides:
            two_atoms.append(_integer_instance(mu, nu, p)[:3])
    assert calls
    for cost, supply, demand, tol, (total, flows, u, v) in calls:
        values = [c for row in cost for c in row]
        values += [*supply, *demand, tol, total, *flows.values(), *u, *v]
        assert all(type(v) is int for v in values)
    # exact one-atom and two-atom sides never reach the simplex; the
    # product and the two-line routes answer them in ints
    assert one_atom and two_atoms
    assert all(min(len(s), len(d)) >= 3 for _, s, d, _, _ in calls)
    for instance in one_atom + two_atoms:
        total, flows, u, v = transport._certified_solve(*instance)
        assert all(type(x) is int for x in (total, *flows.values(), *u, *v))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_exact_dirac_solve_is_the_product_plan(p):
    """With one atom on a side the product plan is the only coupling,
    and the exact solve returns it and its cost."""
    rng = random.Random(11)
    for _ in range(20):
        dirac = DiscreteMeasure.dirac(Point2(rand_frac(rng), rand_frac(rng)))
        other = rand_measure(rng)
        for mu, nu in ((dirac, other), (other, dirac)):
            solution = transport._solve(mu, nu, p)
            power, plan = solution.power, solution.plan(mu, nu)
            want = product_plan(mu, nu)
            assert type(power) is F
            assert power == cost_pow(want, p)
            assert plan.entries == want.entries


@st.composite
def one_atom_pair(draw):
    """An exact Dirac and a measure of 1 to 8 atoms on the 1/8 grid of
    [-3, 3]^2, in either order, with random weights."""
    coord = st.integers(-24, 24).map(lambda k: F(k, 8))
    dirac = DiscreteMeasure.dirac(Point2(draw(coord), draw(coord)))
    size = draw(st.integers(1, 8))
    points = [Point2(draw(coord), draw(coord)) for _ in range(size)]
    parts = draw(st.lists(st.integers(1, 12), min_size=size, max_size=size))
    other = DiscreteMeasure([(x, F(r, sum(parts))) for x, r in zip(points, parts)])
    return (dirac, other) if draw(st.booleans()) else (other, dirac)


DIRAC_PAIR = (
    DiscreteMeasure.dirac(Point2(F(1, 2), F(-3, 8))),
    DiscreteMeasure.dirac(Point2(F(-2), F(5, 8))),
)


@settings(max_examples=300, deadline=None)
@given(pair=one_atom_pair(), p=st.sampled_from((1, 2, 3)))
@example(pair=DIRAC_PAIR, p=2)
def test_one_atom_route_returns_the_simplex_solution(pair, p):
    """The product route gives the total, flows (in their order) and
    potentials that the simplex gives on the same integer instance."""
    cost, supply, demand, _, _ = _integer_instance(*pair, p)
    assert 1 in (len(supply), len(demand))
    got = transport._certified_solve(cost, supply, demand)
    want = solve_transportation(cost, supply, demand, 0)
    assert got == want
    assert list(got[1].items()) == list(want[1].items())


@settings(max_examples=100, deadline=None)
@given(pair=one_atom_pair(), p=st.sampled_from((1, 2, 3)))
@example(pair=DIRAC_PAIR, p=1)
def test_a_one_atom_side_has_a_unique_optimal_plan(pair, p):
    assert is_unique_optimal_plan(*pair, p)


def test_float_dirac_solve_keeps_the_product_plan():
    """Float one-atom problems keep the product plan: its products w * 1.0
    are exact, where the northwest corner leaves 0.39999999999999997 and
    sums to 2.1999999999999997 here."""
    mu = DiscreteMeasure(
        [(Point2(0.0, 0.0), 0.3), (Point2(1.0, 0.0), 0.3), (Point2(2.0, 0.0), 0.4)]
    )
    nu = DiscreteMeasure.dirac(Point2(F(0), F(1)))
    want = cost_pow(product_plan(mu, nu), 2)
    assert want == 2.2
    assert wasserstein_pow(mu, nu, 2) == want
    assert wasserstein_pow(nu, mu, 2) == want


def test_float_solve_of_exact_measures_gives_a_float_plan():
    """A fractional p makes the solve a float one, so its plan is not
    exact, one-atom side or not: the product flows are the float weights
    of the other side, in either argument order."""
    m2 = DiscreteMeasure([(Point2(F(0), F(0)), F(1, 3)), (Point2(F(1), F(0)), F(2, 3))])
    dirac = DiscreteMeasure.dirac(Point2(F(0), F(1)))
    for mu, nu in ((m2, dirac), (dirac, m2)):
        _, plan = wasserstein(mu, nu, F(3, 2))
        assert plan.exact is False
        assert [w for _, _, w in plan.entries] == [1 / 3, 2 / 3]
        assert all(type(w) is float for _, _, w in plan.entries)
        rows = io.StringIO()
        plan.to_csv(rows, [0.0, 0.0])
        weights = [line.split(",")[-2] for line in rows.getvalue().splitlines()[1:]]
        assert weights == [repr(1 / 3), repr(2 / 3)]


@pytest.mark.parametrize("dust, kept", [(1e-14, False), (1e-13, True)])
def test_float_plan_drops_flow_dust(monkeypatch, dust, kept):
    """A float flow at or below 1e-14 is rounding dust: the solver plan
    leaves it out, and keeps a larger one."""
    mu, nu = line_pair((0, 4), (0, 5), floats=True)

    def edit(solution, cost):
        total, flows, u, v = solution
        return total, dict(sorted({**flows, (0, 1): dust}.items())), u, v

    fake_solver(monkeypatch, edit)
    _, plan = wasserstein(mu, nu, 1)
    cells = [(i, j) for i, j, _ in plan.entries]
    assert cells == ([(0, 0), (0, 1), (1, 1)] if kept else [(0, 0), (1, 1)])


def test_solver_plans_skip_the_marginal_check(monkeypatch):
    """Every solver plan, exact or float, one-atom side or not, takes
    the margins its solve checked; a plan from any other caller is
    checked."""
    calls = []
    check = TransportPlan._check_marginals

    def counting(self):
        calls.append(self)
        check(self)

    monkeypatch.setattr(TransportPlan, "_check_marginals", counting)
    rng = random.Random(23)
    exact = (rand_measure(rng, 5), rand_measure(rng, 4))
    floats = (float_measure(rng, 5), float_measure(rng, 4))
    dirac = DiscreteMeasure.dirac(Point2(F(1), F(-2)))
    pairs = (exact, floats, (dirac, exact[0]), (floats[1], dirac))
    for mu, nu in pairs:
        for p in (1, 2, F(3, 2)):
            _, plan = wasserstein(mu, nu, p)
            assert plan.exact is (mu.exact and nu.exact and p != F(3, 2))
    assert calls == []
    TransportPlan(*exact, wasserstein(*exact, 1)[1].entries)
    assert len(calls) == 1


def test_plan_decides_exactness_once():
    mu = DiscreteMeasure([(Point2(F(0), F(0)), F(1, 2)), (Point2(F(2), F(0)), F(1, 2))])
    nu = DiscreteMeasure.dirac(Point2(F(4), F(0)))
    exact = TransportPlan(mu, nu, [(0, 0, F(1, 2)), (1, 0, F(1, 2))])
    assert exact.exact
    assert cost_pow(exact, 2) == 10 and type(cost_pow(exact, 2)) is F
    assert type(cost_pow(exact, 1.5)) is float
    # float weights on exact measures: marginals at tolerance, float costs
    approx = TransportPlan(mu, nu, [(0, 0, 0.5), (1, 0, 0.5 + 1e-12)])
    assert not approx.exact
    assert cost_pow(approx, 2) == pytest.approx(10.0)
    assert type(cost_pow(approx, 2)) is float
    assert exact == TransportPlan(mu, nu, exact.entries)


# ---------------------------------------------------------------------------
# the optimality certificate of exact solves


def line_pair(mu_x, nu_x, floats=False):
    """Two atoms of mass 1/2 on the x1 axis per side."""
    num = float if floats else F
    half = 0.5 if floats else F(1, 2)
    return tuple(
        DiscreteMeasure([(Point2(num(x), num(0)), half) for x in xs])
        for xs in (mu_x, nu_x)
    )


#: the routes of instances with two atoms or more per side
ROUTES = {
    "solve_transportation": solve_transportation,
    "_two_line_solution": transport._two_line_solution,
}


def fake_solver(monkeypatch, edit):
    """Patch both ROUTES to return edit(the route's own solution, cost).
    The exact line pairs take the two-line route, the float ones the
    simplex."""
    for name, route in ROUTES.items():

        def fake(cost, supply, demand, *tol, real=route):
            return edit(real(cost, supply, demand, *tol), cost)

        monkeypatch.setattr(transport, name, fake)


def assert_every_solve_raises(mu, nu, match, exact=True):
    for call in (wasserstein_pow, wasserstein) + (
        (is_unique_optimal_plan,) if exact else ()
    ):
        with pytest.raises(RuntimeError, match=match):
            call(mu, nu, 1)


def test_certificate_rejects_a_feasible_non_optimal_vertex(monkeypatch):
    """The crossing plan is a vertex with consistent tree potentials and
    equal objectives, so only the negative reduced cost gives it away."""
    mu, nu = line_pair((0, 4), (1, 5))
    cost, supply, demand, _, _ = _integer_instance(mu, nu, 1)
    assert (cost, supply, demand) == ([[1, 5], [3, 1]], [1, 1], [1, 1])
    # basis (0, 1), (1, 0) and the zero-flow cell (0, 0); optimum is 2
    crossing = (8, {(0, 1): 1, (1, 0): 1}, [0, 2], [1, 5])
    fake_solver(monkeypatch, lambda solution, cost: crossing)
    assert_every_solve_raises(mu, nu, "dual feasibility")


@pytest.mark.parametrize("floats", [False, True], ids=["exact", "float"])
def test_certificate_rejects_a_flow_off_by_one_unit(monkeypatch, floats):
    """The changed flow sits on a zero-cost cell: both objectives and
    every reduced cost stay as they were, only a margin is off.  In
    floats the margins allow 1e-9, so 1e-6 fails and 1e-12 passes."""
    mu, nu = line_pair((0, 4), (0, 5), floats)
    unit = 1e-6 if floats else 1

    def off_by(delta):
        def edit(solution, cost):
            total, flows, u, v = solution
            assert flows[0, 0] and cost[0][0] == 0
            return total, {**flows, (0, 0): flows[0, 0] + delta}, u, v

        return edit

    fake_solver(monkeypatch, off_by(unit))
    match = "margins" if floats else "primal feasibility"
    assert_every_solve_raises(mu, nu, match, exact=not floats)
    if floats:
        fake_solver(monkeypatch, off_by(1e-12))
        assert wasserstein_pow(mu, nu, 1) == 0.5


def test_certificate_rejects_duals_that_break_one_reduced_cost(monkeypatch):
    """v_0 + 1 and v_1 - 1 leave sum v*b unchanged on equal demands, so
    the objectives still meet; only the plan cell (0, 0) prices at -1.
    The two-line route's potentials here are u = (5, 1), v = (-4, 0)."""
    mu, nu = line_pair((0, 4), (1, 5))

    def edit(solution, cost):
        total, flows, u, v = solution
        assert set(flows) == {(0, 0), (1, 1)}
        v = [v[0] + 1, v[1] - 1]
        negative = [
            (i, j) for i in range(2) for j in range(2) if cost[i][j] < u[i] + v[j]
        ]
        assert negative == [(0, 0)]
        return total, flows, u, v

    fake_solver(monkeypatch, edit)
    assert_every_solve_raises(mu, nu, "dual feasibility")


@pytest.mark.parametrize("wrong", ["total", "vertex"])
def test_certificate_rejects_objectives_that_do_not_meet(monkeypatch, wrong):
    """A total one above the flows' cost, or the crossing vertex (cost
    8) with the optimal potentials (dual value 2): flows and potentials
    are each feasible, and only the objectives tell."""
    mu, nu = line_pair((0, 4), (1, 5))

    def edit(solution, cost):
        total, flows, u, v = solution
        if wrong == "total":
            return total + 1, flows, u, v
        return 8, {(0, 1): 1, (1, 0): 1}, u, v

    fake_solver(monkeypatch, edit)
    assert_every_solve_raises(mu, nu, "strong duality")


def test_certificate_reports_the_first_clause_a_solution_fails():
    """Each edit alone breaks one clause.  A flow one unit up, a flow
    moved within its column (rows off) or within its row (columns off),
    or a unit cycle that keeps every margin but makes two flows negative
    breaks primal feasibility; u_0 + 1 and u_1 - 1 break dual
    feasibility, and a total one too high strong duality.  Together,
    the first clause of primal feasibility, dual feasibility and strong
    duality is reported, though the solution fails the later ones as
    well."""
    mu, nu = line_pair((0, 4), (1, 5))
    cost, supply, demand, _, _ = _integer_instance(mu, nu, 1)
    total, flows, u, v = solve_transportation(cost, supply, demand, 0)

    def failure(solution):
        return transport._certificate_failure(cost, supply, demand, solution)

    assert failure((total, flows, u, v)) is None
    assert flows == {(0, 0): 1, (1, 1): 1}
    up = {**flows, (0, 0): 2}
    rows_off = {(1, 0): 1, (1, 1): 1}
    columns_off = {(0, 0): 1, (1, 0): 1}
    negative = {(0, 0): 2, (0, 1): -1, (1, 0): -1, (1, 1): 2}
    skewed = [u[0] + 1, u[1] - 1]
    infeasible = (up, rows_off, columns_off, negative)
    for broken in infeasible:
        assert failure((total, broken, u, v)) == "primal feasibility"
    assert failure((total, flows, skewed, v)) == "dual feasibility"
    assert failure((total + 1, flows, u, v)) == "strong duality"
    for broken in infeasible:
        assert failure((total + 1, broken, skewed, v)) == "primal feasibility"
        assert failure((total, broken, skewed, v)) == "primal feasibility"
        assert failure((total + 1, broken, u, v)) == "primal feasibility"
    assert failure((total + 1, flows, skewed, v)) == "dual feasibility"


def test_certificate_checks_the_uniqueness_probe(monkeypatch):
    """Both couplings of the line pair cost 4.  A second solve that
    returns the first plan at cost 0 with zero potentials claims that
    plan is the only optimum; the probe prices the tight cell outside
    the plan at -1, so the certificate of that solve alone rejects it."""
    mu, nu = line_pair((0, 1), (2, 3))
    assert not is_unique_optimal_plan(mu, nu, 1)
    solutions = []

    def edit(solution, cost):
        solutions.append(solution)
        if len(solutions) == 1:
            return solution
        _, flows, _, _ = solutions[0]
        return 0, flows, [0, 0], [0, 0]

    fake_solver(monkeypatch, edit)
    with pytest.raises(RuntimeError, match="certificate: dual feasibility"):
        is_unique_optimal_plan(mu, nu, 1)
    assert len(solutions) == 2


@pytest.mark.parametrize("edit", ["demand", "supply", "zero"])
def test_certificate_checks_the_one_atom_route(monkeypatch, edit):
    """A one-atom instance whose margins are off by one unit, or whose
    product plan has a zero flow at the right totals, fails the product
    route's feasibility check on every exact solve."""
    mu = DiscreteMeasure.dirac(Point2(F(0), F(0)))
    nu = DiscreteMeasure([(Point2(F(1), F(0)), F(1, 3)), (Point2(F(0), F(2)), F(2, 3))])
    if edit == "supply":
        mu, nu = nu, mu
    real = _integer_instance

    def broken(mu, nu, q):
        cost, supply, demand, cost_scale, weight_scale = real(mu, nu, q)
        if edit == "demand":
            demand[0] += 1
        elif edit == "supply":
            supply[0] += 1
        else:
            supply[0] -= demand[0]
            demand[0] = 0
        return cost, supply, demand, cost_scale, weight_scale

    monkeypatch.setattr(transport, "_integer_instance", broken)
    assert_every_solve_raises(mu, nu, "certificate: primal feasibility")


@pytest.mark.parametrize("dirac_first", [True, False], ids=["1x2", "2x1"])
def test_certificate_checks_the_one_atom_routes_potentials(monkeypatch, dirac_first):
    """The product plan with every u_i one up prices every cell at -1:
    its flows and totals are right, and only the full certificate, which
    every route passes, sees the potentials are wrong."""
    mu = DiscreteMeasure.dirac(Point2(F(0), F(0)))
    nu = DiscreteMeasure([(Point2(F(1), F(0)), F(1, 3)), (Point2(F(0), F(2)), F(2, 3))])
    if not dirac_first:
        mu, nu = nu, mu
    real = transport._product_solution

    def shifted(cost, supply, demand):
        total, flows, u, v = real(cost, supply, demand)
        return total, flows, [ui + 1 for ui in u], v

    monkeypatch.setattr(transport, "_product_solution", shifted)
    assert_every_solve_raises(mu, nu, "certificate: dual feasibility")
    with pytest.raises(RuntimeError, match="certificate: dual feasibility"):
        wasserstein_pows(mu, [nu], 1)


@pytest.mark.parametrize("dirac_first", [True, False], ids=["1x2", "2x1"])
def test_float_one_atom_route_checks_its_margins(monkeypatch, dirac_first):
    """A float product plan with one flow 1e-6 up is off its margins
    beyond 1e-9, and the check every float solve passes rejects it; one
    1e-12 up is within them."""
    mu = DiscreteMeasure.dirac(Point2(0.0, 0.0))
    nu = DiscreteMeasure([(Point2(1.0, 0.0), 0.25), (Point2(0.0, 2.0), 0.75)])
    if not dirac_first:
        mu, nu = nu, mu
    real = transport._product_solution

    def off_by(delta):
        def planted(cost, supply, demand):
            total, flows, u, v = real(cost, supply, demand)
            first = next(iter(flows))
            return total, {**flows, first: flows[first] + delta}, u, v

        return planted

    monkeypatch.setattr(transport, "_product_solution", off_by(1e-6))
    assert_every_solve_raises(
        mu, nu, "float solve returned flows off their margins", exact=False
    )
    monkeypatch.setattr(transport, "_product_solution", off_by(1e-12))
    assert wasserstein_pow(mu, nu, 1) == 1.75


@pytest.mark.parametrize("edit", ["flow", "potential"])
@pytest.mark.parametrize("three_first", [True, False], ids=["3x2", "2x3"])
def test_certificate_checks_the_two_line_route(monkeypatch, edit, three_first):
    """A two-line answer with one flow one unit up fails primal
    feasibility, and one with u_0 one up dual feasibility: every row has
    a tight cell under the route's potentials.  Both orientations, on
    every exact solve."""
    mu = DiscreteMeasure([(Point2(F(x), F(0)), F(1, 3)) for x in (0, 2, 4)])
    nu = DiscreteMeasure([(Point2(F(x), F(0)), F(1, 2)) for x in (1, 5)])
    if not three_first:
        mu, nu = nu, mu

    def broken(cost, supply, demand):
        total, flows, u, v = ROUTES["_two_line_solution"](cost, supply, demand)
        if edit == "flow":
            first = next(iter(flows))
            return total, {**flows, first: flows[first] + 1}, u, v
        return total, flows, [u[0] + 1, *u[1:]], v

    monkeypatch.setattr(transport, "_two_line_solution", broken)
    clause = "primal" if edit == "flow" else "dual"
    assert_every_solve_raises(mu, nu, f"certificate: {clause} feasibility")
    with pytest.raises(RuntimeError, match=f"certificate: {clause} feasibility"):
        wasserstein_pows(mu, [DiscreteMeasure.dirac(Point2(F(0), F(0))), nu], 1)


def test_wasserstein_pow_builds_no_plan(monkeypatch):
    rng = random.Random(5)
    exact_pair = (rand_measure(rng, 6), rand_measure(rng, 6))
    dirac = DiscreteMeasure.dirac(Point2(F(1), F(-2)))
    float_pair = (float_measure(rng, 5), float_measure(rng, 4))

    def refuse(self, *args, **kwargs):
        raise AssertionError("a TransportPlan was built")

    monkeypatch.setattr(TransportPlan, "__init__", refuse)
    for mu, nu in (exact_pair, (dirac, exact_pair[0]), float_pair, (float_pair[0], dirac)):
        for p in (1, 2, 1.5):
            wasserstein_pow(mu, nu, p)
    with pytest.raises(AssertionError, match="TransportPlan"):
        wasserstein(*exact_pair, 1)


# ---------------------------------------------------------------------------
# the simplex returns a vertex


@st.composite
def grid_instance(draw):
    """An m x n instance on the 1/8 grid of [-3, 3]^2 at 8x scale, with
    int costs dm^p and int margins of equal total; equal or random
    weights."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    coord = st.integers(-24, 24)
    xs = [(draw(coord), draw(coord)) for _ in range(m)]
    ys = [(draw(coord), draw(coord)) for _ in range(n)]
    p = draw(st.sampled_from((1, 2, 3)))
    cost = [[max(abs(a - c), abs(b - d)) ** p for c, d in ys] for a, b in xs]
    if draw(st.booleans()):
        rs, rd = [1] * m, [1] * n
    else:
        rs = draw(st.lists(st.integers(1, 12), min_size=m, max_size=m))
        rd = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
    supply = [r * sum(rd) for r in rs]
    demand = [r * sum(rs) for r in rd]
    return cost, supply, demand


def assert_vertex(flows, m, n):
    """The positive cells form a forest on the m + n lines."""
    assert len(flows) <= m + n - 1
    root = list(range(m + n))

    def find(k):
        while root[k] != k:
            k = root[k]
        return k

    for i, j in flows:
        a, b = find(i), find(m + j)
        assert a != b, "the positive cells contain a cycle"
        root[a] = b


@settings(max_examples=300, deadline=None)
@given(instance=grid_instance(), floats=st.booleans())
def test_every_solve_returns_a_vertex(instance, floats):
    cost, supply, demand = instance
    m, n = len(supply), len(demand)
    if floats:
        total_mass = sum(supply)
        cost_f = [[c / 8.0 for c in row] for row in cost]
        supply_f = [s / total_mass for s in supply]
        demand_f = [d / total_mass for d in demand]
        tol = 1e-11 * max(1.0, max(map(max, cost_f)))
        total, flows, _, _ = solve_transportation(cost_f, supply_f, demand_f, tol)
    else:
        total, flows, _, _ = solve_transportation(cost, supply, demand, 0)
    assert_vertex(flows, m, n)
    row, col = [0] * m, [0] * n
    for (i, j), q in flows.items():
        assert q > 0
        row[i] += q
        col[j] += q
    if floats:
        assert all(abs(g - w) <= 1e-9 for g, w in zip(row + col, supply_f + demand_f))
        return
    assert row == supply and col == demand
    assert total == sum(cost[i][j] * q for (i, j), q in flows.items())
    # the oracle takes up to 0.1 s at 16 cells and seconds at 36
    if m * n <= 16:
        assert total == _minimum_vertex_cost(cost, supply, demand)


@st.composite
def two_line_instance(draw):
    """An m x 2 instance on 2 to 8 rows, or its transpose: degenerate int
    costs 0-3, or int dm^p on the 1/8 grid of [-3, 3]^2 at 8x scale;
    int margins of equal total from unit weights or weights 1-3."""
    m = draw(st.integers(2, 8))
    if draw(st.booleans()):
        cost = [[draw(st.integers(0, 3)) for _ in range(2)] for _ in range(m)]
    else:
        coord = st.integers(-24, 24)
        xs = [(draw(coord), draw(coord)) for _ in range(m)]
        ys = [(draw(coord), draw(coord)) for _ in range(2)]
        p = draw(st.sampled_from((1, 2, 3)))
        cost = [[max(abs(a - c), abs(b - d)) ** p for c, d in ys] for a, b in xs]
    weight = st.just(1) if draw(st.booleans()) else st.integers(1, 3)
    rs = [draw(weight) for _ in range(m)]
    rd = [draw(weight) for _ in range(2)]
    supply = [r * sum(rd) for r in rs]
    demand = [r * sum(rs) for r in rd]
    if draw(st.booleans()):
        return [list(col) for col in zip(*cost)], demand, supply
    return cost, supply, demand


def northwest_corner(supply, demand):
    """The positive flows of the northwest-corner staircase, row-major."""
    rs, rd = list(supply), list(demand)
    flows = {}
    i = j = 0
    while i < len(rs) and j < len(rd):
        q = min(rs[i], rd[j])
        if q:
            flows[i, j] = q
        rs[i] -= q
        rd[j] -= q
        if rs[i] == 0:
            i += 1
        else:
            j += 1
    return flows


@settings(max_examples=400, deadline=None)
@given(instance=two_line_instance())
@example(instance=([[0, 0], [0, 0]], [2, 2], [2, 2]))
@example(instance=([[0, 0, 0], [0, 0, 0]], [3, 3], [2, 2, 2]))
def test_two_line_route_is_a_certified_optimal_vertex(instance):
    """Exact solves with a two-atom side take the two-line route.  Its
    answer passes the certificate, costs what the simplex's does, and is
    a forest of at most one cell more than the longer side, row-major;
    where the northwest staircase is already optimal, the simplex keeps
    it and the route returns it too."""
    cost, supply, demand = instance
    m, n = len(supply), len(demand)
    solution = transport._two_line_solution(cost, supply, demand)
    assert transport._certified_solve(cost, supply, demand) == solution
    assert transport._certificate_failure(cost, supply, demand, solution) is None
    total, flows, u, v = solution
    assert all(type(x) is int for x in (total, *flows.values(), *u, *v))
    want_total, want_flows, _, _ = solve_transportation(cost, supply, demand, 0)
    assert total == want_total
    assert len(flows) <= max(m, n) + 1
    assert_vertex(flows, m, n)
    assert list(flows) == sorted(flows)
    staircase = northwest_corner(supply, demand)
    if sum(cost[i][j] * x for (i, j), x in staircase.items()) == total:
        assert want_flows == staircase
        assert list(flows.items()) == list(staircase.items())


def test_150x150_solves_exactly_and_in_floats():
    """A 150x150 1/8-grid instance at p = 2 solves in well under a
    second, in ints and in floats, and the two powers agree."""
    rng = random.Random(150)

    def grid_measure():
        points = set()
        while len(points) < 150:
            points.add(Point2(rand_frac(rng), rand_frac(rng)))
        parts = [rng.randint(1, 12) for _ in points]
        return DiscreteMeasure(
            [(x, F(r, sum(parts))) for x, r in zip(sorted(points), parts)]
        )

    def as_floats(mu):
        return DiscreteMeasure(
            [(Point2(float(x.x1), float(x.x2)), float(w)) for x, w in mu.atoms]
        )

    mu, nu = grid_measure(), grid_measure()
    exact = wasserstein_pow(mu, nu, 2)
    approx = wasserstein_pow(as_floats(mu), as_floats(nu), 2)
    assert type(exact) is F and type(approx) is float
    assert abs(approx - exact) <= 1e-9 * exact


@st.composite
def float_cost_measure(draw, kind):
    """A measure the float solve takes: float points ("float"), points
    with one Fraction and one float coordinate ("mixed"), or Fraction
    points with float weights ("float-weight")."""
    size = draw(st.integers(1, 5))
    fraction = st.builds(F, st.integers(-24, 24), st.sampled_from((1, 3, 7, 8)))
    real = st.floats(-3, 3, allow_nan=False)
    if kind == "mixed":
        pairs = st.one_of(st.tuples(fraction, real), st.tuples(real, fraction))
    else:
        coord = real if kind == "float" else fraction
        pairs = st.tuples(coord, coord)
    points = [Point2(*draw(pairs)) for _ in range(size)]
    parts = draw(st.lists(st.integers(1, 12), min_size=size, max_size=size))
    if kind == "mixed":
        weights = [F(r, sum(parts)) for r in parts]
    else:
        weights = [r / sum(parts) for r in parts]
    return DiscreteMeasure(list(zip(points, weights)))


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from(("float", "mixed", "float-weight")),
    fp=st.sampled_from((1.0, 2.0, 3.0, 2.5)),
)
def test_float_cost_matrix_is_dm_to_the_p(data, kind, fp):
    """The float cost matrix rounds each max-metric distance once, as
    float(dm(x, y)) does, before taking its power."""
    mu = data.draw(float_cost_measure(kind))
    nu = data.draw(float_cost_measure(kind))
    assert not (mu.exact and nu.exact)
    expected = [[float(dm(x, y)) ** fp for y in nu.points()] for x in mu.points()]
    assert transport._cost_matrix(mu, nu, fp) == expected


@st.composite
def one_source_batch(draw):
    """An exact source and one to six exact targets.  Coordinates have
    denominators 1, 2, 3 or 8 and weights are parts of 1 to 12 over
    their sum, so the common scales of the pairs differ.  Targets of
    one, two and three or four atoms draw their points from one pool
    of four to six, so target points repeat across targets."""
    coord = st.builds(F, st.integers(-12, 12), st.sampled_from((1, 2, 3, 8)))
    point = st.builds(Point2, coord, coord)

    def weighted(points):
        parts = draw(st.lists(st.integers(1, 12), min_size=len(points), max_size=len(points)))
        return DiscreteMeasure([(x, F(r, sum(parts))) for x, r in zip(points, parts)])

    mu = weighted(draw(st.lists(point, min_size=1, max_size=4, unique=True)))
    pool = draw(st.lists(point, min_size=4, max_size=6, unique=True))
    sizes = draw(st.lists(st.sampled_from((1, 2, 3, 4)), min_size=1, max_size=6))
    return mu, [weighted(draw(st.permutations(pool))[:size]) for size in sizes]


@settings(max_examples=300, deadline=None)
@given(batch=one_source_batch(), p=st.sampled_from((1, 2, 3)))
def test_batch_powers_are_the_per_pair_powers(batch, p):
    """wasserstein_pows hands `_certified_solve` the instance
    `_integer_instance` builds for each pair (mu, nu), at the pair's own
    scales, shares no list between two targets' instances, cost rows
    included, and returns the per-pair powers."""
    mu, nus = batch
    handed = []
    solve = transport._certified_solve

    def recording(cost, supply, demand):
        handed.append((cost, supply, demand))
        return solve(cost, supply, demand)

    with mock.patch.object(transport, "_certified_solve", recording):
        powers = wasserstein_pows(mu, nus, p)
    assert handed == [_integer_instance(mu, nu, p)[:3] for nu in nus]
    lists = [id(x) for cost, supply, demand in handed for x in (cost, supply, demand, *cost)]
    assert len(set(lists)) == len(lists)
    assert powers == [wasserstein_pow(mu, nu, p) for nu in nus]
    assert all(type(power) is F for power in powers)


@settings(max_examples=100, deadline=None)
@given(
    batch=one_source_batch(),
    data=st.data(),
    kind=st.sampled_from(("float", "mixed", "float-weight")),
    p=st.sampled_from((1, 2, 2.5)),
)
def test_batch_of_float_problems_is_the_per_pair_list(batch, data, kind, p):
    """A float source, float targets among exact ones, or a fractional p
    give the per-pair solve's list."""
    mu, nus = batch
    if data.draw(st.booleans()):
        mu = data.draw(float_cost_measure(kind))
    nus = [data.draw(float_cost_measure(kind)) if data.draw(st.booleans()) else nu for nu in nus]
    assert wasserstein_pows(mu, nus, p) == [wasserstein_pow(mu, nu, p) for nu in nus]


def test_batch_raises_where_its_pair_exceeds_the_cost_bits():
    """A target whose dm^p or L^p would pass _MAX_COST_BITS raises the
    per-pair ConstraintError, after the targets before it are solved."""
    mu = DiscreteMeasure.dirac(Point2(F(0), F(0)))
    near = DiscreteMeasure.dirac(Point2(F(1), F(0)))
    far = DiscreteMeasure([(Point2(F(1), F(0)), F(1, 2)), (Point2(F(2**20), F(0)), F(1, 2))])
    fine = DiscreteMeasure.dirac(Point2(F(1, 2**20), F(0)))
    p = 20000
    assert wasserstein_pows(mu, [near, near], p) == [1, 1]
    for nus in ([near, far], [far, near], [near, fine]):
        with pytest.raises(ConstraintError) as loop:
            [wasserstein_pow(mu, nu, p) for nu in nus]
        with pytest.raises(ConstraintError) as batch:
            wasserstein_pows(mu, nus, p)
        assert str(batch.value) == str(loop.value)
