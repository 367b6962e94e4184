"""Verification suites: executable statements of the package's theorems.

Every checker returns a CheckReport.  Equality assertions run in exact
rational arithmetic; where a statement quantifies over *all* measures
(the converse directions), the checker searches a declared finite grid
of candidate measures with bounded-denominator weights and records that
grid in the report notes.  Those searches take exact measures and run
in the frame of the grid's centre y: the candidates sit around the
origin, each beside its distance to the origin Dirac, solved once per
process, and a sweep moves the measures it checks by -y once.  A
failure names its candidate moved back around y.
The diag-char and same-diag converses decide every candidate eta but
solve few.  The moved measure m is solved against the lattice Diracs;
a lattice point z is tight when d(m, delta_z) = d(m, delta_0) + |z|,
and only a candidate whose atoms are all tight is solved.  Any other
eta = sum_z w_z delta_z has d(m, eta) < d(m, delta_0) + d(delta_0, eta),
so it neither aligns with m through delta_0 nor closes a chain:

    d(m, eta) <= sum_z w_z d(m, delta_z)          (product couplings)
              <  sum_z w_z (d(m, delta_0) + |z|)   (one atom not tight)
              =  d(m, delta_0) + d(delta_0, eta).

Where a checker solves one measure against many, as the template
solves delta_0 and the converses each moved measure, it asks
`transport.wasserstein_pows` for the whole row, one certified solve
per pair.
A checker that compares W_p powers exactly refuses a float problem up
front through `_exact_p`, transport's one decision: dirac-char,
unique-geodesic, opposite-sides and q-functional (on mu) at their p,
and diag-char, same-diag and diag-saturation at p = 1.
run_suite hands each suite its own random stream, seeded by the
suite's name and the seed, so identical (suite, seed) runs produce
identical reports.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .geometry import (
    DiagonalLine,
    L_PLUS,
    Point2,
    diagonal_line_through,
    direction_alloc,
    dm,
    midpoint_box,
    same_diagonal,
)
from .measure import (
    DiscreteMeasure,
    KloecknerParam,
    kloeckner_measure,
    push_forward,
)
from .scalars import ConstraintError, ParseError, halve
from .transport import _exact_exponent, brute_force_wasserstein, wasserstein_pow, wasserstein_pows
from .wgeom import _slide, symmetric_wp


@dataclass
class CheckReport:
    """Outcome of one checker: how many instances ran, which failed.

    failures holds one small dict per failed instance; max_residual is
    the largest numeric deviation seen (0.0 for exact suites that pass).
    """

    name: str
    instances: int = 0
    failures: list = field(default_factory=list)
    max_residual: float = 0.0
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def count(self):
        self.instances += 1

    def fail(self, **payload):
        self.failures.append(payload)

    def bump_residual(self, value):
        value = abs(float(value))
        if value > self.max_residual:
            self.max_residual = value


# ---------------------------------------------------------------------------
# candidate grids for the converse (forcing) searches

def _eta_grid_note(span: int) -> str:
    side = 2 * span + 1
    return (
        f"eta candidates: Diracs and two-atom measures on the {side}x{side} "
        "lattice of step 1/2 centred at y, weights in {1/4, 1/2, 3/4}"
    )


_ORIGIN = Point2(Fraction(0), Fraction(0))
_ORIGIN_DIRAC = DiscreteMeasure.dirac(_ORIGIN)


@functools.cache
def _eta_grid(span: int) -> tuple:
    """The candidate grid around the origin as (eta, ks) pairs: the
    Diracs on the lattice (i, j)/2 with |i|, |j| <= span, i major, then
    each pair of its points with weights w, 1 - w for w in {1/4, 1/2,
    3/4}.  ks holds the lattice indices of eta's atoms, so the Dirac at
    lattice point k is candidate k."""
    offsets = [Fraction(i, 2) for i in range(-span, span + 1)]
    lattice = [Point2(a, b) for a in offsets for b in offsets]
    grid = [(DiscreteMeasure.dirac(x), (k,)) for k, x in enumerate(lattice)]
    grid += [
        (DiscreteMeasure([(lattice[k], w), (lattice[l], 1 - w)]), (k, l))
        for k in range(len(lattice))
        for l in range(k + 1, len(lattice))
        for w in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    ]
    return tuple(grid)


@functools.cache
def _eta_template(span: int, p) -> tuple:
    """The candidate grid of `_eta_grid` as (eta, d_p^p(delta_0, eta))
    pairs.

    dm is translation invariant on both sides, d(mu, eta + y) =
    d(mu - y, eta), so a sweep around y moves the measures it checks by
    -y once and solves them against these candidates; a process solves
    each (span, p) grid once, at its first converse sweep."""
    etas = [eta for eta, _ in _eta_grid(span)]
    return tuple(zip(etas, wasserstein_pows(_ORIGIN_DIRAC, etas, p)))


def _aligned_row(moved: DiscreteMeasure, span: int, picks) -> tuple:
    """d_1(moved, delta_0), and d_1(moved, eta) by index, in the order of
    picks, for each picked template candidate whose atoms are all tight.
    Every other candidate cannot align with moved through delta_0 (see
    the module docstring) and is left out.  moved is solved against the
    lattice Diracs in one row and against the kept two-atom candidates
    in another."""
    grid = _eta_grid(span)
    row = wasserstein_pows(moved, [delta for delta, _ in grid[:(2 * span + 1) ** 2]], 1)
    d_0 = row[len(row) // 2]  # the origin is the lattice's middle point
    # the template's lattice Diracs carry |z| = d(delta_0, delta_z)
    tight = [d == d_0 + r for d, (_, r) in zip(row, _eta_template(span, 1))]
    kept = [k for k in picks if all(tight[z] for z in grid[k][1])]
    pairs = [k for k in kept if k >= len(row)]
    known = dict(enumerate(row))
    known.update(zip(pairs, wasserstein_pows(moved, [grid[k][0] for k in pairs], 1)))
    return d_0, {k: known[k] for k in kept}


def _to_origin(y: Point2, mu: DiscreteMeasure) -> DiscreteMeasure:
    """mu moved by -y, into the template's frame around the origin."""
    return push_forward(lambda x: x - y, mu)


def _around(y: Point2, eta: DiscreteMeasure):
    """The atoms of a candidate moved back by +y, as a failure names it."""
    return push_forward(lambda x: x + y, eta).atoms


def _exact_p(what: str, p, *measures) -> int:
    """p as an int for a checker that compares W_p powers exactly, or a
    ConstraintError naming `what` when the problem is not exact."""
    q = _exact_exponent(p, *measures)
    if q is None:
        raise ConstraintError(f"the {what} needs exact measures and an integer p")
    return q


def _non_codiag_pair(points_a, points_b):
    """The first pair of distinct points, one from each list, on no
    common diagonal line, or None.

    Distinct points that are pairwise co-diagonal lie on one diagonal
    line: if x - y = (a, a) and x - z = (b, -b), then y - z =
    (b - a, -b - a), which is co-diagonal only when ab = 0.  So a support
    on no diagonal line has such a pair within it, and two diagonal
    supports on no common line have one across them, since the pairs
    within each support are co-diagonal.  The converse checks rely on
    this and never meet None.
    """
    for xa in points_a:
        for xb in points_b:
            if xa != xb and not same_diagonal(xa, xb):
                return xa, xb
    return None


def _midpoint(x: Point2, y: Point2) -> Point2:
    return Point2(halve(x.x1 + y.x1), halve(x.x2 + y.x2))


# ---------------------------------------------------------------------------
# characterization checkers

def check_diag_support_char(mu: DiscreteMeasure, nu_samples) -> CheckReport:
    """Support on one diagonal line <=> the W1 mirror chain closes.

    Forward (support diagonal): for each sample nu the mirror eta of
    symmetric_w1, nu slid by d(mu,nu) away from the line, satisfies
    d(mu,nu) = d(nu,eta) = d(mu,eta)/2 exactly; d(mu,nu) is solved once
    and slides nu.
    Converse: with x, x' in the support not co-diagonal and y their
    midpoint, no candidate eta except the Dirac at y aligns
    d(mu,eta) = d(mu,delta_y) + d(delta_y,eta); the Dirac itself breaks
    the chain, which forces the characterization to fail.  Every
    candidate is decided from the row of lattice Diracs (see
    `_aligned_row`): mu - y has atoms at a and -a off every diagonal,
    and dm(a, z) and dm(-a, z) reach |a| + |z| together only at z = 0,
    so only delta_y is tight and no two-atom candidate needs a solve.
    """
    report = CheckReport("diag-support-characterization")
    nus = list(nu_samples)
    _exact_p("diagonal-support characterization", 1, mu, *nus)
    line = mu.diagonal_line()
    if line is not None:
        d_mns = wasserstein_pows(mu, nus, 1)
        etas = [_slide(line, nu, d_mn) for nu, d_mn in zip(nus, d_mns)]
        for nu, eta, d_mn, d_me in zip(nus, etas, d_mns, wasserstein_pows(mu, etas, 1)):
            report.count()
            d_ne = wasserstein_pow(nu, eta, 1)
            if not (d_mn == d_ne and d_me == 2 * d_mn):
                report.fail(
                    kind="forward-chain", mu=mu.atoms, nu=nu.atoms,
                    chain=(str(d_mn), str(d_ne), str(d_me)),
                )
                report.bump_residual(max(abs(d_mn - d_ne), abs(d_me - 2 * d_mn)))
        return report

    y = _midpoint(*_non_codiag_pair(mu.points(), mu.points()))
    moved = _to_origin(y, mu)
    template = _eta_template(1, 1)
    d_mn, d_mes = _aligned_row(moved, 1, range(len(template)))
    report.notes.append(_eta_grid_note(1))
    report.instances += len(template)
    for k, d_me in d_mes.items():
        eta, d_ne = template[k]
        aligned = d_me == d_mn + d_ne
        chain = d_mn == d_ne and d_me == 2 * d_mn
        if chain:
            report.fail(kind="converse-chain", eta=_around(y, eta))
        if aligned and eta != _ORIGIN_DIRAC:
            # alignment through delta_y forces eta = delta_y, which in
            # turn breaks the chain; anything else aligned is a bug
            report.fail(
                kind="converse-alignment", eta=_around(y, eta),
                lhs=str(d_me), rhs=str(d_mn + d_ne),
            )
    return report


def check_same_diag_char(mu1, mu2, nu_samples) -> CheckReport:
    """Two diagonal measures share their line <=> the unit shift of any
    nu aligns with both of them at once.

    Converse: with y the midpoint of a non-co-diagonal pair across the
    supports, no candidate eta at distance 1 from delta_y aligns with
    both measures through delta_y.  The first measure decides every
    such candidate from its row of lattice Diracs (see `_aligned_row`),
    solving only those whose atoms are all tight for it; the second
    decides the candidates aligned with the first the same way.
    """
    report = CheckReport("same-diagonal-characterization")
    if mu1.diagonal_line() is None or mu2.diagonal_line() is None:
        raise ConstraintError("both measures must be diagonally supported")
    nu_samples = list(nu_samples)
    _exact_p("same-diagonal characterization", 1, mu1, mu2, *nu_samples)

    # a Dirac lies on one line of each slope, so test for a shared line
    # directly rather than comparing per-measure lines
    common = diagonal_line_through(mu1.points() + mu2.points())

    if common is not None:
        for nu in nu_samples:
            report.count()
            eta = push_forward(
                lambda y: y + direction_alloc(common, y), nu
            )
            d_ne = wasserstein_pow(nu, eta, 1)
            ok = d_ne == 1
            for m in (mu1, mu2):
                d_mn, d_me = wasserstein_pows(m, [nu, eta], 1)
                ok = ok and d_me == d_mn + d_ne
            if not ok:
                report.fail(kind="forward-chain", nu=nu.atoms)
        return report

    y = _midpoint(*_non_codiag_pair(mu1.points(), mu2.points()))
    moved1, moved2 = _to_origin(y, mu1), _to_origin(y, mu2)
    # span 2 so the grid reaches distance 1 from y, where the unit-shift
    # condition d(nu, eta) = 1 can actually be met
    report.notes.append(_eta_grid_note(2))
    template = _eta_template(2, 1)
    report.instances += len(template)
    units = [k for k, (_, d_ne) in enumerate(template) if d_ne == 1]
    d1n, d1es = _aligned_row(moved1, 2, units)
    aligned = [k for k, d1e in d1es.items() if d1e == d1n + 1]
    d2n, d2es = _aligned_row(moved2, 2, aligned)
    for k, d2e in d2es.items():
        if d2e == d2n + 1:
            report.fail(kind="converse-alignment", eta=_around(y, template[k][0]))
    return report


_REFLECTION_NOTE = "eta candidates also include the point reflection of mu about y"


def _one_third_point(x1: Point2, x2: Point2) -> Point2:
    return Point2(Fraction(2 * x1.x1 + x2.x1, 3), Fraction(2 * x1.x2 + x2.x2, 3))


def check_dirac_char(mu: DiscreteMeasure, nu_samples, p=2) -> CheckReport:
    """mu is a Dirac <=> every nu admits the doubled mirror chain at
    exponent p > 1 (via the ratio-2 dilation about the Dirac point).
    The chain is compared exactly, so the measures must be exact and p
    an integer."""
    if p <= 1:
        raise ConstraintError("the Dirac characterization concerns p > 1")
    nu_samples = list(nu_samples)
    p = _exact_p("Dirac characterization", p, mu, *nu_samples)
    report = CheckReport(f"dirac-characterization-p{p}")
    if mu.is_dirac:
        x = mu.points()[0]
        for nu in nu_samples:
            report.count()
            eta = symmetric_wp(x, nu, p)
            base = wasserstein_pow(mu, nu, p)
            pow_ne = wasserstein_pow(nu, eta, p)
            pow_me = wasserstein_pow(mu, eta, p)
            if not (pow_ne == base and pow_me == 2 ** p * base):
                report.fail(kind="forward-chain", nu=nu.atoms)
                report.bump_residual(abs(pow_ne - base))
        return report

    pts = mu.points()
    x1, x2 = pts[0], pts[1]
    # y at the one-third point keeps d(x1,y) != d(x2,y), which is what
    # rules the mirror chain out for every candidate eta
    y = _one_third_point(x1, x2)
    moved = _to_origin(y, mu)
    base = wasserstein_pow(moved, _ORIGIN_DIRAC, p)
    report.notes.append(_eta_grid_note(1))
    report.notes.append(_REFLECTION_NOTE)
    # the point reflection of mu about y lies at d_p(mu, delta_y) from
    # delta_y by construction, so the chain is always solved against it
    reflected = push_forward(lambda x: Point2(-x.x1, -x.x2), moved)
    for eta, pow_ne in (*_eta_template(1, p), (reflected, base)):
        report.count()
        if pow_ne != base:
            continue
        if wasserstein_pow(moved, eta, p) == 2 ** p * base:
            report.fail(kind="converse-chain", eta=_around(y, eta))
    return report


def check_unique_geodesic(x: Point2, mu: DiscreteMeasure, p=2) -> CheckReport:
    """Unique geodesic from delta_x to mu <=> the optimal coupling is
    unique and every atom is co-diagonal with x.

    From a Dirac the product plan is the only coupling, so the content
    sits in the support condition: co-diagonal atoms have one metric
    midpoint each and the interpolant is the only midpoint measure,
    while any atom off the diagonals of x yields two distinct midpoint
    measures.  The midpoint distances are compared exactly, so the
    problem must be exact: exact measures and an integer p.
    """
    delta = DiscreteMeasure.dirac(x)
    p = _exact_p("unique-geodesic check", p, delta, mu)
    report = CheckReport(f"unique-geodesic-p{p}")
    report.count()
    on_diag = all(same_diagonal(x, yi) for yi in mu.points())
    base = wasserstein_pow(delta, mu, p)
    if on_diag:
        mids = []
        for yi, w in mu.atoms:
            lo, hi = midpoint_box(x, yi)
            if lo != hi:
                report.fail(kind="midpoint-not-unique", atom=tuple(yi))
                return report
            mids.append((lo, w))
        eta = DiscreteMeasure(mids)
        _check_midpoint_measure(report, delta, mu, eta, base, p)
    else:
        off = next(yi for yi in mu.points() if not same_diagonal(x, yi))
        lo, hi = midpoint_box(x, off)
        if lo == hi:
            report.fail(kind="witness-degenerate", atom=tuple(off))
            return report
        etas = []
        for corner in (lo, hi):
            mids = []
            for yi, w in mu.atoms:
                if yi == off:
                    mids.append((corner, w))
                else:
                    mids.append((_midpoint(x, yi), w))
            etas.append(DiscreteMeasure(mids))
        if etas[0] == etas[1]:
            report.fail(kind="witnesses-collide")
            return report
        for eta in etas:
            _check_midpoint_measure(report, delta, mu, eta, base, p)
    return report


def _check_midpoint_measure(report, delta, mu, eta, base_pow, p):
    """eta must sit exactly halfway: both powered distances = base / 2^p."""
    left = wasserstein_pow(delta, eta, p)
    right = wasserstein_pow(eta, mu, p)
    expect = Fraction(base_pow, 2 ** p)
    if not (left == expect and right == expect):
        report.fail(
            kind="midpoint-distances", eta=eta.atoms,
            left=str(left), right=str(right), expected=str(expect),
        )


# ---------------------------------------------------------------------------
# the distance table and sweep

def w2_formula_exact(q: Fraction) -> Fraction:
    """2 + (2q - 1)/(q^2 + 1) with q = e^t: the squared distance from
    delta_(-1,0) to mu(0,1,t), valid for q >= 1/2."""
    q = Fraction(q)
    return 2 + Fraction(2 * q - 1, q * q + 1)


_W2_TABLE = (
    ("delta_(2,0)", Point2(Fraction(2), Fraction(0)), "ln 2", Fraction(2), Fraction(5)),
    ("delta_(2,0)", Point2(Fraction(2), Fraction(0)), "-ln 2", Fraction(1, 2), Fraction(29, 5)),
    ("delta_(-1,0)", Point2(Fraction(-1), Fraction(0)), "0", Fraction(1), Fraction(5, 2)),
    ("delta_(-1,0)", Point2(Fraction(-1), Fraction(0)), "ln 3", Fraction(3), Fraction(5, 2)),
    ("delta_(-1/2,0)", Point2(Fraction(-1, 2), Fraction(0)), "0", Fraction(1), Fraction(13, 8)),
    ("delta_(-1/2,0)", Point2(Fraction(-1, 2), Fraction(0)), "ln 3", Fraction(3), Fraction(61, 40)),
)


def reproduce_w2_table() -> CheckReport:
    """Exact squared distances to the two-atom diagonal family, the
    formula they satisfy, and the root pair {0, ln 3} of the sweep."""
    report = CheckReport("w2-table")
    for label, point, r_label, exp_r, expected in _W2_TABLE:
        report.count()
        param = KloecknerParam(0, 1, math.log(float(exp_r)))
        mu = kloeckner_measure(param, exp_r=exp_r)
        got = wasserstein_pow(DiscreteMeasure.dirac(point), mu, 2)
        report.notes.append(f"d2({label}, mu(0,1,{r_label})) = {got}")
        if got != expected:
            report.fail(kind="table", label=label, got=str(got), want=str(expected))
            report.bump_residual(float(got - expected))

    # the closed formula agrees with the solver wherever it is valid
    for q in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(5)):
        report.count()
        mu = kloeckner_measure(KloecknerParam(0, 1, math.log(float(q))), exp_r=q)
        got = wasserstein_pow(DiscreteMeasure.dirac(Point2(Fraction(-1), Fraction(0))), mu, 2)
        if got != w2_formula_exact(q):
            report.fail(kind="formula", q=str(q), got=str(got))

    report.notes.append(
        "the shift by ln 3 passes the delta_(-1,0) test (both give 5/2) "
        "but 13/8 != 61/40 at delta_(-1/2,0) rules it out"
    )

    roots = list(_sweep_roots())
    report.count()
    expected_roots = (0.0, math.log(3.0))
    residual = 0.0
    if len(roots) != 2:
        report.fail(kind="sweep-count", roots=roots)
    else:
        for root, want in zip(roots, expected_roots):
            residual = max(residual, abs(root - want))
        if residual > 1e-9:
            report.fail(kind="sweep-roots", roots=roots)
    report.bump_residual(residual)
    report.notes.append(
        f"sweep roots of formula = 5/2 over [-3, 3], step 1e-4: {roots}"
    )
    return report


def _sweep_g(t: float) -> float:
    e = math.exp(-t)
    return 2.0 + (2.0 - e) / (math.exp(t) + e) - 2.5


@functools.cache
def _sweep_roots() -> tuple:
    """Roots of the formula = 5/2 over [-3, 3]: a step-1e-4 grid, each
    sign change bisected to 1e-13.  It takes no seed, so a process
    computes it once."""
    lo, hi, step = -3.0, 3.0, 1e-4
    roots = []
    steps = int(round((hi - lo) / step))
    prev_t, prev_g = lo, _sweep_g(lo)
    for k in range(1, steps + 1):
        t = lo + k * step
        g = _sweep_g(t)
        if prev_g == 0.0:
            roots.append(prev_t)
        elif prev_g * g < 0.0:
            a, b, ga = prev_t, t, prev_g
            while b - a > 1e-13:
                mid = 0.5 * (a + b)
                gm = _sweep_g(mid)
                if gm == 0.0:
                    a = b = mid
                elif (ga < 0.0) == (gm < 0.0):
                    a, ga = mid, gm
                else:
                    b = mid
            roots.append(0.5 * (a + b))
        prev_t, prev_g = t, g
    if prev_g == 0.0:
        roots.append(prev_t)
    # merge numerically equal detections
    merged = []
    for r in roots:
        if not merged or abs(r - merged[-1]) > 1e-9:
            merged.append(r)
    return tuple(merged)


# ---------------------------------------------------------------------------
# square-mode checkers

def _pairwise_opposite(mu: DiscreteMeasure, nu: DiscreteMeasure) -> bool:
    return all(dm(x, y) == 2 for x in mu.points() for y in nu.points())


def _common_opposite_sides(mu: DiscreteMeasure, nu: DiscreteMeasure) -> bool:
    for coord in (0, 1):
        for sign in (1, -1):
            if all(x[coord] == -sign for x in mu.points()) and all(
                y[coord] == sign for y in nu.points()
            ):
                return True
    return False


def check_opposite_sides(mu: DiscreteMeasure, nu: DiscreteMeasure, p=2) -> CheckReport:
    """In Q the distance never exceeds 2, with equality exactly when the
    supports face each other across the square.

    Equality holds iff every support pair is at distance 2, i.e. each
    pair sits on some pair of opposite sides (a corner atom can serve
    two sides at once, so the pairwise form is the sharp one).  The cap
    is compared exactly, so the measures must be exact and p an integer.
    """
    p = _exact_p("opposite-sides check", p, mu, nu)
    report = CheckReport(f"opposite-sides-p{p}")
    report.count()
    cap = 2 ** p
    got = wasserstein_pow(mu, nu, p)
    if got > cap:
        report.fail(kind="cap-exceeded", got=str(got))
        report.bump_residual(float(got - cap))
    if (got == cap) != _pairwise_opposite(mu, nu):
        report.fail(kind="equality-characterization", got=str(got))
    if _common_opposite_sides(mu, nu) and got != cap:
        report.fail(kind="opposite-sides-not-maximal", got=str(got))
    interior = any(
        abs(x.x1) < 1 and abs(x.x2) < 1 for x in list(mu.points()) + list(nu.points())
    )
    if interior and got == cap:
        report.fail(kind="interior-atom-still-maximal")
    if got == cap:
        report.notes.append("equality-at-cap")
    elif interior:
        report.notes.append("interior-strict")
    return report


def check_diag_saturation(mu: DiscreteMeasure) -> CheckReport:
    """Corner-to-corner W1 through mu saturates at 2 exactly when mu
    rides the main diagonal of Q."""
    _exact_p("diagonal-saturation check", 1, mu)
    report = CheckReport("diagonal-saturation")
    report.count()
    lo = DiscreteMeasure.dirac(Point2(Fraction(-1), Fraction(-1)))
    hi = DiscreteMeasure.dirac(Point2(Fraction(1), Fraction(1)))
    d1 = wasserstein_pow(lo, mu, 1)
    d2 = wasserstein_pow(mu, hi, 1)
    total = d1 + d2
    if total < 2:
        report.fail(kind="below-two", total=str(total))
        report.bump_residual(float(2 - total))
    if (total == 2) != mu.supported_on(L_PLUS):
        report.fail(kind="saturation-characterization", total=str(total))
    return report


def _p_right(x: Point2) -> Point2:
    return Point2(1, 2 * x.x1 - 1)


def _p_up(x: Point2) -> Point2:
    return Point2(2 * x.x1 - 1, 1)


def check_q_functional(mu: DiscreteMeasure, p=2, nu_samples=()) -> CheckReport:
    """The side images mu_r, mu_u of a measure on the half-diagonal
    [(0,0),(1,1)] see mu as their strict midpoint in the p-energy:

        J(nu) = d^p(mu_r, nu) + d^p(nu, mu_u) >= 2^(1-p) d^p(mu_r, mu_u)

    with equality only at nu = mu; each sampled nu != mu must exceed.
    The bound is compared exactly, so mu must be exact and p an integer.
    """
    if p <= 1:
        raise ConstraintError("the functional bound concerns p > 1")
    if not mu.supported_on(L_PLUS) or any(
        not (0 <= x.x1 <= 1) for x in mu.points()
    ):
        raise ConstraintError("mu must live on the diagonal segment from (0,0) to (1,1)")
    p = _exact_p("q-functional check", p, mu)
    report = CheckReport(f"q-functional-p{p}")
    mu_r = push_forward(_p_right, mu)
    mu_u = push_forward(_p_up, mu)
    # dm is symmetric, so d^p(nu, mu_u) is solved as d^p(mu_u, nu)
    nus = list(nu_samples)
    to_u, *from_r = wasserstein_pows(mu_r, [mu_u, mu, *nus], p)
    from_u = wasserstein_pows(mu_u, [mu, *nus], p)
    bound = Fraction(to_u, 2 ** (p - 1))

    report.count()
    at_mu = from_r[0] + from_u[0]
    if at_mu != bound:
        report.fail(kind="equality-at-mu", got=str(at_mu), want=str(bound))
        report.bump_residual(float(at_mu - bound))
    for nu, r, u in zip(nus, from_r[1:], from_u[1:]):
        report.count()
        if nu == mu:
            continue
        j = r + u
        if not j > bound:
            report.fail(kind="not-strict", nu=nu.atoms, j=str(j), bound=str(bound))
    return report


def check_corner_interval(alpha, beta) -> CheckReport:
    """W1 between corner mixes: 2|alpha - beta|, i.e. the segment of
    corner mixes is isometric to ([0,1], 2|.|)."""
    report = CheckReport("corner-interval")
    report.count()
    alpha, beta = Fraction(alpha), Fraction(beta)
    for val in (alpha, beta):
        if not 0 <= val <= 1:
            raise ConstraintError("mixing weights must lie in [0, 1]")
    lo = Point2(Fraction(-1), Fraction(-1))
    hi = Point2(Fraction(1), Fraction(1))

    def mix(a):
        return DiscreteMeasure([(lo, 1 - a), (hi, a)])

    got = wasserstein_pow(mix(alpha), mix(beta), 1)
    want = 2 * abs(alpha - beta)
    if got != want:
        report.fail(kind="corner-distance", alpha=str(alpha), beta=str(beta), got=str(got))
        report.bump_residual(float(got - want))
    report.notes.append(
        "computed metric is 2|alpha - beta|: mass |alpha - beta| crosses "
        "the square at diameter 2 (the factor 2 is the sharp one)"
    )
    return report


# ---------------------------------------------------------------------------
# seeded instance generators

def _rand_fraction(rng, lo: int, hi: int) -> Fraction:
    """A multiple of 1/8 in [lo, hi]."""
    return Fraction(rng.randint(lo * 8, hi * 8), 8)


def _rand_point(rng, box: int = 3) -> Point2:
    return Point2(_rand_fraction(rng, -box, box), _rand_fraction(rng, -box, box))


def _rand_line(rng) -> DiagonalLine:
    eps = rng.choice((1, -1))
    return DiagonalLine(eps, _rand_fraction(rng, -2, 2))


def _cross_point(rng, x: Point2) -> Point2:
    """A point on one of the two diagonal lines through x."""
    eps = rng.choice((1, -1))
    t = _rand_fraction(rng, -2, 2)
    return Point2(x.x1 + t, x.x2 + eps * t)


def _interior_point(rng) -> Point2:
    """A point of the open square (-1, 1)^2 on the 1/8 grid."""
    return Point2(Fraction(rng.randint(-7, 7), 8), Fraction(rng.randint(-7, 7), 8))


def _rand_weights(rng, n: int):
    parts = [rng.randint(1, 12) for _ in range(n)]
    total = sum(parts)
    return [Fraction(k, total) for k in parts]


def _distinct(draw, n: int) -> list:
    """The first n distinct values of repeated draw() calls, in order."""
    out = []
    while len(out) < n:
        value = draw()
        if value not in out:
            out.append(value)
    return out


def _weighted(rng, points) -> DiscreteMeasure:
    """A measure on the given distinct points with _rand_weights drawn last."""
    return DiscreteMeasure(list(zip(points, _rand_weights(rng, len(points)))))


def rand_measure(rng, max_atoms: int = 5, box: int = 3) -> DiscreteMeasure:
    n = rng.randint(1, max_atoms)
    return _weighted(rng, _distinct(lambda: _rand_point(rng, box), n))


def rand_measure_on_line(rng, line: DiagonalLine) -> DiscreteMeasure:
    n = rng.randint(1, 4)
    return _weighted(rng, _distinct(lambda: line.point_at(_rand_fraction(rng, -3, 3)), n))


def _rand_nondiagonal_measure(rng) -> DiscreteMeasure:
    while True:
        mu = rand_measure(rng, 4)
        if mu.support_size >= 2 and mu.diagonal_line() is None:
            return mu


# ---------------------------------------------------------------------------
# suites

def _suite_diag_char(rng: random.Random) -> list:
    reports = []
    for _ in range(50):
        line = _rand_line(rng)
        mu = rand_measure_on_line(rng, line)
        nus = [rand_measure(rng, 4) for _ in range(2)]
        reports.append(check_diag_support_char(mu, nus))
    for _ in range(20):
        mu = _rand_nondiagonal_measure(rng)
        reports.append(check_diag_support_char(mu, []))
    return reports


def _suite_same_diag(rng: random.Random) -> list:
    reports = []
    for _ in range(50):
        line = _rand_line(rng)
        mu1 = rand_measure_on_line(rng, line)
        mu2 = rand_measure_on_line(rng, line)
        nus = [rand_measure(rng, 3) for _ in range(2)]
        reports.append(check_same_diag_char(mu1, mu2, nus))
    made = 0
    while made < 20:
        eps1 = rng.choice((1, -1))
        eps2 = rng.choice((1, -1))
        l1 = DiagonalLine(eps1, _rand_fraction(rng, -2, 2))
        l2 = DiagonalLine(eps2, _rand_fraction(rng, -2, 2))
        if l1 == l2:
            continue
        mu1 = rand_measure_on_line(rng, l1)
        mu2 = rand_measure_on_line(rng, l2)
        if not _non_codiag_pair(mu1.points(), mu2.points()):
            continue
        reports.append(check_same_diag_char(mu1, mu2, []))
        made += 1
    return reports


def _suite_dirac_char(rng: random.Random) -> list:
    reports = []
    for p in (2, 3):
        for _ in range(25):
            mu = DiscreteMeasure.dirac(_rand_point(rng))
            nus = [rand_measure(rng, 4) for _ in range(2)]
            reports.append(check_dirac_char(mu, nus, p))
        for _ in range(10):
            mu = rand_measure(rng, 4)
            while mu.is_dirac:
                mu = rand_measure(rng, 4)
            reports.append(check_dirac_char(mu, [], p))
    return reports


def _suite_unique_geodesic(rng: random.Random) -> list:
    reports = []
    ps = (1, 2, 3)
    for k in range(100):
        p = ps[k % 3]
        x = _rand_point(rng)
        if k % 2 == 0:
            # support glued to the diagonal cross through x
            n = rng.randint(1, 4)
            mu = _weighted(rng, _distinct(lambda: _cross_point(rng, x), n))
        else:
            mu = rand_measure(rng, 4)
        reports.append(check_unique_geodesic(x, mu, p))
    return reports


def _suite_w2_table(rng: random.Random) -> list:
    return [reproduce_w2_table()]


def _suite_oracle_agreement(rng: random.Random) -> list:
    report = CheckReport("oracle-agreement")
    ps = (1, 2, 3)
    for k in range(200):
        p = ps[k % 3]
        mu = rand_measure(rng, 5)
        nu = rand_measure(rng, 5)
        report.count()
        lhs = wasserstein_pow(mu, nu, p)
        rhs = brute_force_wasserstein(mu, nu, p)[1]
        if lhs != rhs:
            report.fail(kind="disagreement", p=p, solver=str(lhs), oracle=str(rhs))
            report.bump_residual(float(lhs - rhs))
    return [report]


def _suite_q_sides(rng: random.Random) -> list:
    reports = []
    ps = (1, 2, 3)
    one = Fraction(1)
    for k in range(50):
        p = ps[k % 3]
        # supports pinned to a common pair of opposite sides
        coord = rng.choice((0, 1))
        n1, n2 = rng.randint(1, 3), rng.randint(1, 3)

        def side_measure(value, count):
            ts = _distinct(lambda: _rand_fraction(rng, -1, 1), count)
            pts = [Point2(value, t) if coord == 0 else Point2(t, value) for t in ts]
            return _weighted(rng, pts)

        reports.append(check_opposite_sides(side_measure(-one, n1), side_measure(one, n2), p))
    for k in range(30):
        p = ps[k % 3]
        # at least one strictly interior atom forces distance below the cap
        n1, n2 = rng.randint(1, 3), rng.randint(1, 3)

        def interior_measure(count):
            return _weighted(rng, _distinct(lambda: _interior_point(rng), count))

        reports.append(check_opposite_sides(interior_measure(n1), interior_measure(n2), p))
    for k in range(20):
        p = ps[k % 3]
        mu = rand_measure(rng, 4, box=1)
        nu = rand_measure(rng, 4, box=1)
        reports.append(check_opposite_sides(mu, nu, p))
    return reports


def _suite_q_saturation(rng: random.Random) -> list:
    reports = []
    for k in range(50):
        if k % 2 == 0:
            n = rng.randint(1, 4)
            ts = _distinct(lambda: _rand_fraction(rng, -1, 1), n)
            mu = _weighted(rng, [Point2(t, t) for t in ts])
        else:
            mu = rand_measure(rng, 4, box=1)
        reports.append(check_diag_saturation(mu))
    return reports


def _suite_q_functional(rng: random.Random) -> list:
    reports = []
    for p in (2, 3):
        for _ in range(10):
            n = rng.randint(1, 3)
            ts = _distinct(lambda: Fraction(rng.randint(0, 8), 8), n)
            weights = _rand_weights(rng, n)
            mu = DiscreteMeasure([(Point2(t, t), w) for t, w in zip(ts, weights)])
            nus = []
            while len(nus) < 5:
                nu = _perturb_diag_measure(rng, ts, weights)
                if nu is not None and nu != mu:
                    nus.append(nu)
            reports.append(check_q_functional(mu, p, nus))
    return reports


def _perturb_diag_measure(rng, ts, weights):
    """A nearby measure in Q: jitter one atom off the diagonal, slide it
    along, or tilt the weights."""
    kind = rng.randint(0, 2)
    k = rng.randrange(len(ts))
    atoms = [(Point2(t, t), w) for t, w in zip(ts, weights)]
    if kind == 0:
        t = ts[k]
        jitter = Fraction(rng.choice((-1, 1)), 8)
        cand = Point2(t, t + jitter)
        if not (-1 <= cand.x2 <= 1):
            return None
        atoms[k] = (cand, weights[k])
    elif kind == 1:
        t = ts[k] + Fraction(rng.choice((-1, 1)), 8)
        if not 0 <= t <= 1 or t in ts:
            return None
        atoms[k] = (Point2(t, t), weights[k])
    else:
        if len(ts) < 2:
            return None
        j = (k + 1) % len(ts)
        shift = weights[k] / 2
        atoms[k] = (atoms[k][0], weights[k] - shift)
        atoms[j] = (atoms[j][0], weights[j] + shift)
    return DiscreteMeasure(atoms)


def _suite_q_corners(rng: random.Random) -> list:
    values = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    return [check_corner_interval(a, b) for a in values for b in values]


SUITES = {
    "diag-char": _suite_diag_char,
    "same-diag": _suite_same_diag,
    "dirac-char": _suite_dirac_char,
    "unique-geodesic": _suite_unique_geodesic,
    "w2-table": _suite_w2_table,
    "q-sides": _suite_q_sides,
    "q-saturation": _suite_q_saturation,
    "q-functional": _suite_q_functional,
    "q-corners": _suite_q_corners,
    "oracle-agreement": _suite_oracle_agreement,
}


def run_suite(name: str, seed: int = 0) -> list:
    """Run one named suite (or 'all') and return its CheckReports.  Each
    suite draws from its own stream, seeded by its name and the seed."""
    if name != "all" and name not in SUITES:
        raise ParseError(
            f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'"
        )
    reports = []
    for key in SUITES if name == "all" else (name,):
        reports.extend(SUITES[key](random.Random(f"maxwass:{key}:{seed}")))
    return reports
