"""Solver tests: exact optima, metric axioms, plans, gluing."""

import io
import random
from fractions import Fraction

import pytest

from maxwass import transport
from maxwass.geometry import Point2, dm
from maxwass.measure import DiscreteMeasure
from maxwass.netsimplex import solve_transportation
from maxwass.scalars import ConstraintError
from maxwass.transport import (
    TransportPlan,
    brute_force_wasserstein,
    glue,
    is_unique_optimal_plan,
    product_plan,
    wasserstein,
    wasserstein_pow,
)

F = Fraction


def rand_frac(rng, lo=-3, hi=3, denom=8):
    return F(rng.randint(lo * denom, hi * denom), denom)


def rand_measure(rng, max_atoms=4):
    n = rng.randint(1, max_atoms)
    pts = []
    while len(pts) < n:
        cand = Point2(rand_frac(rng), rand_frac(rng))
        if cand not in pts:
            pts.append(cand)
    parts = [rng.randint(1, 9) for _ in range(n)]
    total = sum(parts)
    return DiscreteMeasure([(p, F(k, total)) for p, k in zip(pts, parts)])


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


def test_known_tie_instance_has_two_optima():
    mu = DiscreteMeasure(
        [(Point2(F(0), F(0)), F(1, 2)), (Point2(F(1), F(1)), F(1, 2))]
    )
    nu = DiscreteMeasure(
        [(Point2(F(0), F(1)), F(1, 2)), (Point2(F(1), F(0)), F(1, 2))]
    )
    d, plans = brute_force_wasserstein(mu, nu, 1)
    assert d == 1
    assert len(plans) == 2
    assert not is_unique_optimal_plan(mu, nu, 1)


def test_solver_matches_oracle_small_batch():
    rng = random.Random(71)
    for k in range(60):
        p = (1, 2, 3)[k % 3]
        mu, nu = rand_measure(rng), rand_measure(rng)
        _, plan = wasserstein(mu, nu, p)
        _, plans = brute_force_wasserstein(mu, nu, p)
        assert plan.cost_pow(p) == plans[0].cost_pow(p)


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
    plan.to_csv(out, 2)
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == "i,j,x_i,y_j,weight,cost"
    assert len(lines) == 3
    assert lines[1].endswith("16") and lines[2].endswith("9/4")


def test_product_plan_marginals():
    rng = random.Random(89)
    mu, nu = rand_measure(rng), rand_measure(rng)
    plan = product_plan(mu, nu)
    total = sum(w for _, _, w in plan.entries)
    assert total == 1


def test_glue_composes_plans():
    rng = random.Random(97)
    for _ in range(20):
        mu, nu, eta = (rand_measure(rng, 3) for _ in range(3))
        _, p12 = wasserstein(mu, nu, 1)
        _, p23 = wasserstein(nu, eta, 1)
        glued = glue(p12, p23)
        assert glued.marginal_12() == p12
        assert glued.marginal_23() == p23
        p13 = glued.marginal_13()
        # the glued composite is a coupling of (mu, eta): its cost bounds
        # the distance, giving the triangle inequality constructively
        cost13 = sum(w * dm(mu.points()[i], eta.points()[k]) for i, k, w in p13.entries)
        d12 = wasserstein_pow(mu, nu, 1)
        d23 = wasserstein_pow(nu, eta, 1)
        d13 = wasserstein_pow(mu, eta, 1)
        assert d13 <= cost13 <= d12 + d23


def test_glue_requires_matching_middle():
    rng = random.Random(101)
    mu, nu, eta = (rand_measure(rng, 3) for _ in range(3))
    _, p12 = wasserstein(mu, nu, 1)
    _, p23 = wasserstein(eta, mu, 1)
    if p12.target != p23.source:
        with pytest.raises(ConstraintError):
            glue(p12, p23)


def test_invalid_p_rejected():
    mu = DiscreteMeasure.dirac(Point2(F(0), F(0)))
    with pytest.raises(ConstraintError):
        wasserstein(mu, mu, 0)
    with pytest.raises(ConstraintError):
        wasserstein(mu, mu, F(1, 2))


def test_raw_transportation_solver_exact():
    cost = [[F(1), F(3)], [F(2), F(1)]]
    total, flows = solve_transportation(cost, [F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)])
    assert total == F(1)
    assert flows == {(0, 0): F(1, 2), (1, 1): F(1, 2)}


def test_degenerate_margins_terminate():
    """Many equal weights force degenerate pivots; Bland's rule must
    still terminate at the optimum."""
    n = 6
    supply = [F(1, n)] * n
    demand = [F(1, n)] * n
    cost = [[F((i * 7 + j * 11) % 5) for j in range(n)] for i in range(n)]
    total, flows = solve_transportation(cost, supply, demand)
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
        total, flows = solve_transportation(*args, **kwargs)
        totals.append(total)
        return total, flows

    monkeypatch.setattr(transport, "solve_transportation", recording)
    distance, _ = wasserstein(mu, nu, 2)
    power = wasserstein_pow(mu, nu, 2)
    assert totals == [power, power]
    assert distance == power ** 0.5
