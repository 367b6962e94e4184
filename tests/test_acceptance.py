"""Acceptance suite: the nine headline guarantees, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines; each criterion is a separate test with its stated tolerance and
instance count.
"""

import math
import random
import time
from fractions import Fraction
from math import lcm

from maxwass.geometry import (
    DiagonalLine,
    Point2,
    direction_alloc,
    dm,
    project_point,
    same_diagonal,
)
from maxwass.measure import DiscreteMeasure, GridMeasure, in_family_F
from maxwass.transport import is_unique_optimal_plan, wasserstein_pow
from maxwass.verify import (
    check_diag_support_char,
    check_dirac_char,
    check_unique_geodesic,
    rand_measure,
    rand_measure_on_line,
    reproduce_w2_table,
    run_suite,
    _rand_fraction,
    _rand_nondiagonal_measure,
    _rand_point,
)
from maxwass.wgeom import (
    grid_perturbation,
    project_measure,
    radon,
    radon_invert_F,
)

F = Fraction
L_PLUS = DiagonalLine(1, 0)
L_MINUS = DiagonalLine(-1, 0)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_w2_table():
    start = time.perf_counter()
    report = reproduce_w2_table()
    elapsed = time.perf_counter() - start
    values = [n for n in report.notes if n.startswith("d2(")]
    ok = report.passed and len(values) == 6 and report.max_residual < 1e-9
    ok = ok and elapsed < 1.0
    _report(
        1,
        ok,
        f"exact squared-distance table ({len(values)} values) and sweep roots "
        f"{{0, ln 3}} within 1e-9 in {elapsed:.2f}s",
    )


def test_criterion_2_solver_oracle_agreement():
    start = time.perf_counter()
    reports = run_suite("oracle-agreement", seed=0)
    elapsed = time.perf_counter() - start
    instances = sum(r.instances for r in reports)
    failures = sum(len(r.failures) for r in reports)
    ok = instances >= 200 and failures == 0 and elapsed < 30.0
    _report(
        2,
        ok,
        f"network simplex == brute-force vertex enumeration on {instances} "
        f"instances (p in {{1,2,3}}, <=5 atoms) in {elapsed:.1f}s",
    )


def test_criterion_3_projection_optimality():
    rng = random.Random("maxwass:acceptance:projection")
    triples = strict = 0
    ok = True
    for k in range(100):
        p = (1, 2, 3)[k % 3]
        line = DiagonalLine(rng.choice((1, -1)), _rand_fraction(rng, -2, 2))
        mu = rand_measure(rng, 4)
        proj = project_measure(line, mu)
        nu = proj if k % 4 == 0 else rand_measure_on_line(rng, line)
        d_proj = wasserstein_pow(mu, proj, p)
        d_nu = wasserstein_pow(mu, nu, p)
        triples += 1
        if not d_proj <= d_nu:
            ok = False
        if nu != proj:
            strict += 1
            if not d_proj < d_nu:
                ok = False
    ok = ok and triples >= 100 and strict >= 50
    _report(
        3,
        ok,
        f"projection is the closest on-line measure on {triples} triples "
        f"({strict} strict)",
    )


def test_criterion_4_crucial_identity():
    rng = random.Random("maxwass:acceptance:crucial")
    checked = 0
    ok = True
    for _ in range(1000):
        line = DiagonalLine(rng.choice((1, -1)), _rand_fraction(rng, -2, 2))
        x = line.point_at(_rand_fraction(rng, -3, 3))
        y = _rand_point(rng, 3)
        t = abs(_rand_fraction(rng, -2, 2))
        e = direction_alloc(line, y)
        shifted = Point2(y.x1 + t * e.x1, y.x2 + t * e.x2)
        checked += 1
        if dm(x, shifted) != dm(x, y) + t:
            ok = False
    ok = ok and checked >= 1000
    _report(4, ok, f"d(x, y + t*e(y)) = d(x, y) + t exactly on {checked} tuples")


def test_criterion_5_symmetric_chains():
    rng = random.Random("maxwass:acceptance:chains")
    ok = True
    fwd_line = fwd_dirac = conv_line = conv_dirac = 0
    for _ in range(50):
        line = DiagonalLine(rng.choice((1, -1)), _rand_fraction(rng, -2, 2))
        mu = rand_measure_on_line(rng, line)
        nus = [rand_measure(rng, 4) for _ in range(2)]
        report = check_diag_support_char(mu, nus)
        fwd_line += report.instances
        ok = ok and report.passed
    for _ in range(20):
        mu = _rand_nondiagonal_measure(rng)
        report = check_diag_support_char(mu, [])
        conv_line += 1
        ok = ok and report.passed
    for p in (2, 3):
        for _ in range(25):
            mu = DiscreteMeasure.dirac(_rand_point(rng))
            nus = [rand_measure(rng, 4) for _ in range(2)]
            report = check_dirac_char(mu, nus, p)
            fwd_dirac += report.instances
            ok = ok and report.passed
        for _ in range(10):
            mu = rand_measure(rng, 4)
            while mu.is_dirac:
                mu = rand_measure(rng, 4)
            report = check_dirac_char(mu, [], p)
            conv_dirac += 1
            ok = ok and report.passed
    ok = ok and fwd_line >= 100 and fwd_dirac >= 100
    ok = ok and conv_line >= 20 and conv_dirac >= 20
    _report(
        5,
        ok,
        f"mirror chains exact on {fwd_line} line + {fwd_dirac} dilation "
        f"instances; forcing eta = delta_y on {conv_line} non-diagonal and "
        f"{conv_dirac} non-Dirac instances",
    )


# --- criterion 6 -----------------------------------------------------------

def _enumerate_tables(row_units, col_units):
    """All nonnegative integer matrices with the given margins.

    Depth-first over rows; the last row is forced by column balance.
    """
    n_cols = len(col_units)

    def rows_from(remaining_rows, col_left):
        if len(remaining_rows) == 1:
            if remaining_rows[0] == sum(col_left):
                yield (tuple(col_left),)
            return
        target = remaining_rows[0]

        def compositions(j, left, prefix):
            if j == n_cols - 1:
                if left <= col_left[j]:
                    yield prefix + (left,)
                return
            for v in range(min(left, col_left[j]) + 1):
                yield from compositions(j + 1, left - v, prefix + (v,))

        for row in compositions(0, target, ()):
            rest = [c - v for c, v in zip(col_left, row)]
            for tail in rows_from(remaining_rows[1:], rest):
                yield (row,) + tail

    yield from rows_from(row_units, list(col_units))


def _uniqueness_by_enumeration(mu, triple, row_star, p):
    """Enumerate every measure with the perturbed Radon image at the
    margin resolution and return (minimum cost, measures attaining it)."""
    pts = mu.points()
    weights = [w for _, w in mu.atoms]
    tau = triple.x_prime.x1
    minus_params = [project_point(L_MINUS, x).x1 for x in pts]
    z0 = [Point2(tau + s, tau - s) for s in minus_params]
    plus_params = [project_point(L_PLUS, x).x1 for x in pts]
    grid = [
        [Point2(f + s, f - s) for s in minus_params] for f in plus_params
    ]
    points = [z0] + grid

    a = triple.a
    row_margins = [a] + [
        w - a if i == row_star else w for i, w in enumerate(weights)
    ]
    col_margins = list(weights)
    k = lcm(*[m.denominator for m in row_margins + col_margins])
    row_units = [int(m * k) for m in row_margins]
    col_units = [int(m * k) for m in col_margins]

    best = None
    argmin = []
    tables = 0
    for table in _enumerate_tables(row_units, col_units):
        tables += 1
        atoms = [
            (points[i][j], F(units, k))
            for i, row in enumerate(table)
            for j, units in enumerate(row)
            if units
        ]
        xi = DiscreteMeasure(atoms)
        cost = wasserstein_pow(xi, mu, p)
        if best is None or cost < best:
            best, argmin = cost, [xi]
        elif cost == best:
            argmin.append(xi)
    return best, argmin, tables


def _product_grid(mu):
    weights = [w for _, w in mu.atoms]
    return GridMeasure(mu, [[wi * wj for wj in weights] for wi in weights])


def _two_atom_instances(rng, count):
    weight_pairs = [
        (F(1, 3), F(2, 3)),
        (F(1, 4), F(3, 4)),
        (F(2, 5), F(3, 5)),
        (F(1, 6), F(5, 6)),
    ]
    instances = []
    while len(instances) < count:
        pts = []
        while len(pts) < 2:
            cand = Point2(F(rng.randint(-8, 8), 4), F(rng.randint(-8, 8), 4))
            if cand not in pts:
                pts.append(cand)
        w = weight_pairs[len(instances) % len(weight_pairs)]
        mu = DiscreteMeasure(list(zip(pts, w)))
        if not in_family_F(mu):
            continue
        ws = mu.weights()
        a = ws[0] * min(ws) / 2
        instances.append((mu, _product_grid(mu), a, 0))
    return instances


def _swap_grid(mu, r, rp):
    """Near-diagonal grid measure: exchange mass delta between rows r
    and rp so exactly one row ends up with two positive cells."""
    w = list(mu.weights())
    delta = min(w[r], w[rp]) / 2
    rows = [
        [w[i] if i == j else F(0) for j in range(len(w))] for i in range(len(w))
    ]
    rows[r][r] -= delta
    rows[r][rp] = delta
    rows[rp][rp] -= delta
    rows[rp][r] = delta
    return GridMeasure(mu, rows), delta


def _three_atom_instances():
    out = []
    specs = [
        (
            [
                (Point2(F(0), F(0)), F(1, 6)),
                (Point2(F(1), F(1, 2)), F(1, 3)),
                (Point2(F(1, 2), F(-1, 4)), F(1, 2)),
            ],
            0,
            2,
        ),
        (
            [
                (Point2(F(-1), F(0)), F(1, 8)),
                (Point2(F(0), F(1, 2)), F(3, 8)),
                (Point2(F(3, 4), F(-1, 2)), F(1, 2)),
            ],
            0,
            1,
        ),
        (
            [
                (Point2(F(0), F(0)), F(1, 5)),
                (Point2(F(1, 2), F(1)), F(1, 4)),
                (Point2(F(-1, 2), F(1, 4)), F(11, 20)),
            ],
            1,
            2,
        ),
    ]
    for atoms, r, rp in specs:
        mu = DiscreteMeasure(atoms)
        xi, delta = _swap_grid(mu, r, rp)
        out.append((mu, xi, delta / 2, min(r, rp)))
    return out


def test_criterion_6_grid_perturbation():
    rng = random.Random("maxwass:acceptance:perturbation")
    instances = _two_atom_instances(rng, 18) + _three_atom_instances()
    ok = len(instances) >= 20
    checked = total_tables = 0
    for k, (mu, xi, a, row_star) in enumerate(instances):
        p = (1, 2, 3)[k % 3]
        triple = grid_perturbation(mu, xi, a)
        target = a * triple.c0 ** p
        xi_m = xi.to_measure()
        if wasserstein_pow(mu, triple.mu_prime, p) != target:
            ok = False
        if wasserstein_pow(xi_m, triple.nu1_prime, p) != target:
            ok = False
        if wasserstein_pow(xi_m, triple.nu2_prime, p) != target:
            ok = False
        best, argmin, tables = _uniqueness_by_enumeration(mu, triple, row_star, p)
        total_tables += tables
        if best != target or argmin != [triple.mu_prime]:
            ok = False
        checked += 1
    ok = ok and checked >= 20
    _report(
        6,
        ok,
        f"equal-distance triple a^(1/p)c0 and sole enumerated minimizer "
        f"mu' on {checked} instances ({total_tables} candidate tables)",
    )


def rand_measure_in_F(rng, max_atoms: int = 3, box: int = 3) -> DiscreteMeasure:
    while True:
        mu = rand_measure(rng, max_atoms, box)
        if mu.support_size >= 2 and in_family_F(mu):
            return mu


def test_criterion_7_radon_round_trip():
    rng = random.Random("maxwass:acceptance:radon")
    checked = 0
    ok = True
    for _ in range(100):
        mu = rand_measure_in_F(rng)
        checked += 1
        if radon_invert_F(radon(mu)) != mu:
            ok = False
    ok = ok and checked >= 100
    _report(7, ok, f"radon_invert_F(radon(mu)) == mu exactly on {checked} measures")


def test_criterion_8_square_mode():
    sides = run_suite("q-sides", seed=0)
    saturation = run_suite("q-saturation", seed=0)
    functional = run_suite("q-functional", seed=0)
    ok = all(r.passed for r in sides + saturation + functional)
    equality = sum(1 for r in sides if "equality-at-cap" in r.notes)
    strict = sum(1 for r in sides if "interior-strict" in r.notes)
    sat = sum(r.instances for r in saturation)
    perturbed = {
        p: sum(r.instances - 1 for r in functional if r.name.endswith(f"p{p}"))
        for p in (2, 3)
    }
    ok = ok and equality >= 50 and strict >= 50 and sat >= 50
    ok = ok and all(perturbed[p] >= 50 for p in (2, 3))
    _report(
        8,
        ok,
        f"distance cap 2 with {equality} equality pairs and {strict} "
        f"interior-strict pairs; {sat} saturation instances; functional "
        f"bound strict on {perturbed[2]}+{perturbed[3]} perturbed measures",
    )


def test_criterion_9_unique_geodesic():
    rng = random.Random("maxwass:acceptance:geodesic")
    ok = True
    checked = on_cross = off_cross = 0
    for k in range(100):
        p = (2, 3)[k % 2]
        x = _rand_point(rng)
        if k % 2 == 0:
            atoms = []
            n = rng.randint(1, 4)
            while len(atoms) < n:
                eps = rng.choice((1, -1))
                t = _rand_fraction(rng, -2, 2)
                cand = Point2(x.x1 + t, x.x2 + eps * t)
                if cand not in atoms:
                    atoms.append(cand)
            weights = [F(1, n)] * n
            if n > 1:
                weights = [F(1, 2 * n)] * (n - 1) + [F(n + 1, 2 * n)]
            mu = DiscreteMeasure(list(zip(atoms, weights)))
        else:
            mu = rand_measure(rng, 4)
        support_in_cross = all(same_diagonal(x, y) for y in mu.points())
        plan_side = is_unique_optimal_plan(DiscreteMeasure.dirac(x), mu, p) and all(
            abs(y.x1 - x.x1) == abs(y.x2 - x.x2) for y in mu.points()
        )
        checked += 1
        if support_in_cross != plan_side:
            ok = False
        if support_in_cross:
            on_cross += 1
        else:
            off_cross += 1
        report = check_unique_geodesic(x, mu, p)
        ok = ok and report.passed
    ok = ok and checked >= 100 and on_cross >= 30 and off_cross >= 30
    _report(
        9,
        ok,
        f"support-in-cross predicate matches plan-level test on {checked} "
        f"instances ({on_cross} unique, {off_cross} branching)",
    )