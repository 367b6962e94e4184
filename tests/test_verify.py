"""Tests for the verification suites and their checkers."""

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxwass import cli, transport, verify
from maxwass.geometry import DiagonalLine, Point2, diagonal_line_through
from maxwass.measure import DiscreteMeasure, push_forward
from maxwass.scalars import ConstraintError, ParseError
from maxwass.transport import wasserstein_pow
from maxwass.verify import (
    SUITES,
    CheckReport,
    _eta_template,
    _non_codiag_pair,
    check_corner_interval,
    check_diag_saturation,
    check_diag_support_char,
    check_dirac_char,
    check_opposite_sides,
    check_q_functional,
    check_same_diag_char,
    check_unique_geodesic,
    rand_measure,
    reproduce_w2_table,
    run_suite,
    w2_formula_exact,
)

F = Fraction


def test_w2_formula_spot_values():
    assert w2_formula_exact(F(1)) == F(5, 2)
    assert w2_formula_exact(F(3)) == F(5, 2)
    assert w2_formula_exact(F(2)) == F(13, 5)
    assert w2_formula_exact(F(1, 2)) == F(2)


def test_reproduce_w2_table_passes_with_six_values():
    report = reproduce_w2_table()
    assert report.passed
    value_notes = [n for n in report.notes if n.startswith("d2(")]
    assert len(value_notes) == 6
    assert report.max_residual < 1e-9


def test_unknown_suite_raises_parse_error():
    with pytest.raises(ParseError):
        run_suite("bogus")


def test_all_suite_names_registered():
    assert set(SUITES) == {
        "diag-char",
        "same-diag",
        "dirac-char",
        "unique-geodesic",
        "w2-table",
        "q-sides",
        "q-saturation",
        "q-functional",
        "q-corners",
        "oracle-agreement",
    }


FAST_SUITES = [
    "w2-table",
    "q-corners",
    "q-saturation",
    "q-sides",
    "q-functional",
    "unique-geodesic",
    "diag-char",
    "dirac-char",
]
PINNED = Path(__file__).parent / "data" / "verify"


def assert_prints_pinned_report(suite, seed, capsys, monkeypatch):
    """`maxwass verify SUITE --seed N` passes and prints exactly the
    report pinned under tests/data/verify/: SUITE.txt for seed 0,
    SUITE.seedN.txt for the others."""
    monkeypatch.delenv("MAXWASS_SEED", raising=False)
    code = cli.main(["verify", suite, "--seed", str(seed)])
    out = capsys.readouterr().out
    assert code == 0, out
    name = f"{suite}.txt" if seed == 0 else f"{suite}.seed{seed}.txt"
    assert out == (PINNED / name).read_text()


@pytest.mark.parametrize("suite", FAST_SUITES + ["same-diag"])
def test_fast_suites_pass(suite, capsys, monkeypatch):
    assert_prints_pinned_report(suite, 0, capsys, monkeypatch)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("suite", FAST_SUITES + ["same-diag"])
def test_fast_suites_match_pinned_seeds(suite, seed, capsys, monkeypatch):
    assert_prints_pinned_report(suite, seed, capsys, monkeypatch)


def _failing_stub(rng):
    """Three failing reports of one statement, three failures each, and
    a passing report of another."""
    reports = []
    for r in range(3):
        report = CheckReport("stub-statement")
        for k in range(3):
            report.count()
            report.fail(kind="stub", report=r, instance=k)
        reports.append(report)
    passing = CheckReport("stub-passing")
    passing.count()
    return reports + [passing]


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_failing_suite_exits_1_with_capped_samples(fmt, capsys, monkeypatch):
    """A failed statement exits 1 and reports at most two failures of
    each report and four of each statement."""
    monkeypatch.delenv("MAXWASS_SEED", raising=False)
    monkeypatch.setitem(verify.SUITES, "stub", _failing_stub)
    code = cli.main(["verify", "stub", "--format", fmt])
    out = capsys.readouterr().out
    assert code == 1
    samples = [
        repr({"kind": "stub", "report": r, "instance": k}) for r in (0, 1) for k in (0, 1)
    ]
    if fmt == "json":
        data = json.loads(out)
        assert data["passed"] is False
        failing, passing = data["statements"]
        assert (failing["name"], failing["failures"]) == ("stub-statement", 9)
        assert failing["failure_samples"] == samples
        assert (passing["name"], passing["failures"]) == ("stub-passing", 0)
    else:
        lines = out.splitlines()
        assert lines[0].startswith("FAIL  stub-statement  instances=9  failures=9")
        assert lines[1:5] == [f"      failure: {sample}" for sample in samples]
        assert lines[5].startswith("PASS  stub-passing  ")
        assert lines[-1] == "passed 1/2 statements"


def test_run_suite_hands_each_suite_its_own_stream(monkeypatch):
    """run_suite, for 'all' in registry order and for one suite, hands a
    suite a random.Random seeded by the suite's name and the seed."""
    keys = ("stub-b", "stub-a")
    draws = []

    def stub(key):
        def suite(rng):
            assert isinstance(rng, random.Random)
            draws.append((key, rng.random()))
            return [CheckReport(key)]
        return suite

    monkeypatch.setattr(verify, "SUITES", {key: stub(key) for key in keys})
    expected = [(key, random.Random(f"maxwass:{key}:5").random()) for key in keys]
    assert [report.name for report in run_suite("all", 5)] == list(keys)
    assert draws == expected
    draws.clear()
    assert [report.name for report in run_suite("stub-a", 5)] == ["stub-a"]
    assert draws == expected[1:]


_HALVES = st.integers(-4, 4).map(lambda k: F(k, 2))
_SUPPORTS = st.one_of(
    st.lists(st.builds(Point2, _HALVES, _HALVES), min_size=1, max_size=4, unique=True),
    st.builds(
        lambda eps, a, ts: [Point2(t, eps * t + a) for t in ts],
        st.sampled_from((1, -1)), _HALVES,
        st.lists(_HALVES, min_size=1, max_size=3, unique=True),
    ),
)


@settings(max_examples=300, deadline=None)
@given(_SUPPORTS, _SUPPORTS)
def test_supports_on_no_common_diagonal_have_a_non_codiagonal_pair(a, b):
    """Distinct points that are pairwise co-diagonal lie on one diagonal
    line, so the converse checks always find the pair they start from:
    within a support on no line, and across two diagonal supports on no
    common line."""
    if diagonal_line_through(a) is None:
        assert _non_codiag_pair(a, a) is not None
    elif diagonal_line_through(b) is not None and diagonal_line_through(a + b) is None:
        assert _non_codiag_pair(a, b) is not None


def test_seeded_suites_are_deterministic():
    a = run_suite("q-saturation", seed=5)
    b = run_suite("q-saturation", seed=5)
    assert a == b


def test_diag_char_forward_and_converse():
    line = DiagonalLine(1, F(1, 2))
    mu = DiscreteMeasure(
        [(line.point_at(F(0)), F(1, 3)), (line.point_at(F(2)), F(2, 3))]
    )
    rng = random.Random(3)
    nus = [rand_measure(rng, 3) for _ in range(3)]
    report = check_diag_support_char(mu, nus)
    assert report.passed and report.instances == 3

    off = DiscreteMeasure(
        [(Point2(F(0), F(0)), F(1, 2)), (Point2(F(2), F(1)), F(1, 2))]
    )
    converse = check_diag_support_char(off, [])
    assert converse.passed
    assert converse.instances > 100  # the declared candidate grid


def test_diag_char_forward_solves_each_distance_once(monkeypatch):
    """One forward sample solves d(mu, nu), which also slides nu into
    its mirror eta, then d(nu, eta) and d(mu, eta): three exact solves."""
    line = DiagonalLine(1, F(1, 2))
    mu = DiscreteMeasure(
        [(line.point_at(F(0)), F(1, 3)), (line.point_at(F(2)), F(2, 3))]
    )
    nu = rand_measure(random.Random(3), 3)
    calls = []
    solve = transport._certified_solve

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(transport, "_certified_solve", counting)
    report = check_diag_support_char(mu, [nu])
    assert report.passed and report.instances == 1
    assert len(calls) == 3


def test_diag_char_dirac_takes_forward_branch():
    dirac = DiscreteMeasure.dirac(Point2(F(0), F(0)))
    report = check_diag_support_char(dirac, [])
    assert report.passed and report.instances == 0


def test_same_diag_checker_branches():
    line = DiagonalLine(-1, F(0))
    mu1 = DiscreteMeasure.dirac(line.point_at(F(0)))
    mu2 = DiscreteMeasure(
        [(line.point_at(F(1)), F(1, 4)), (line.point_at(F(-1)), F(3, 4))]
    )
    rng = random.Random(5)
    report = check_same_diag_char(mu1, mu2, [rand_measure(rng, 2)])
    assert report.passed and report.instances == 1

    other = DiscreteMeasure(
        [
            (Point2(F(0), F(2)), F(1, 2)),
            (Point2(F(1), F(3)), F(1, 2)),
        ]
    )
    converse = check_same_diag_char(mu1, other, [])
    assert converse.passed


def test_same_diag_rejects_nondiagonal_input():
    mu1 = DiscreteMeasure.dirac(Point2(F(0), F(0)))
    bad = DiscreteMeasure(
        [(Point2(F(0), F(0)), F(1, 2)), (Point2(F(2), F(1)), F(1, 2))]
    )
    with pytest.raises(ConstraintError):
        check_same_diag_char(mu1, bad, [])


def test_dirac_checker_branches():
    rng = random.Random(7)
    dirac = DiscreteMeasure.dirac(Point2(F(1, 2), F(-1, 2)))
    report = check_dirac_char(dirac, [rand_measure(rng, 3) for _ in range(2)], 2)
    assert report.passed and report.instances == 2

    two = DiscreteMeasure(
        [(Point2(F(0), F(0)), F(1, 3)), (Point2(F(2), F(1)), F(2, 3))]
    )
    converse = check_dirac_char(two, [], 3)
    assert converse.passed

    with pytest.raises(ConstraintError):
        check_dirac_char(dirac, [], 1)


def test_dirac_checker_takes_a_whole_float_p_as_its_int():
    """2 ** 2.0 * base is a float, which an exact power rarely equals;
    the checker compares at the int p."""
    rng = random.Random(3)
    dirac = DiscreteMeasure.dirac(Point2(F(0), F(0)))
    nus = [rand_measure(rng, 3) for _ in range(6)]
    report = check_dirac_char(dirac, nus, 2)
    assert report.passed and report.instances == 6
    assert check_dirac_char(dirac, nus, 2.0).passed
    assert check_dirac_char(dirac, nus, 2.0) == report
    two = DiscreteMeasure([(Point2(F(0), F(0)), F(1, 3)), (Point2(F(2), F(1)), F(2, 3))])
    assert check_dirac_char(two, [], 3.0) == check_dirac_char(two, [], 3)


_ORIGIN = DiscreteMeasure.dirac(Point2(F(0), F(0)))
_PAIR = DiscreteMeasure([(Point2(F(1), F(0)), F(1, 3)), (Point2(F(0), F(2)), F(2, 3))])


@pytest.mark.parametrize(
    "mu, nus, p",
    [
        (_ORIGIN, [_PAIR], 2.5),
        (_PAIR, [], F(5, 2)),
        (_ORIGIN, [DiscreteMeasure([(Point2(1.0, 0.0), 0.5), (Point2(0.0, 2.0), 0.5)])], 2),
        (DiscreteMeasure.dirac(Point2(0.0, 0.0)), [_PAIR], 2),
    ],
    ids=["fractional-p", "fractional-p-converse", "float-sample", "float-dirac"],
)
def test_dirac_checker_needs_an_exact_problem(mu, nus, p):
    """Its chain is compared exactly, so a float measure or a p that is
    not a whole number is refused up front, after the p > 1 check."""
    with pytest.raises(ConstraintError, match="exact measures and an integer p"):
        check_dirac_char(mu, nus, p)
    with pytest.raises(ConstraintError, match="concerns p > 1"):
        check_dirac_char(mu, nus, 1)


def test_unique_geodesic_checker_both_sides():
    x = Point2(F(0), F(0))
    on_cross = DiscreteMeasure(
        [(Point2(F(1), F(1)), F(1, 2)), (Point2(F(2), F(-2)), F(1, 2))]
    )
    off_cross = DiscreteMeasure(
        [(Point2(F(2), F(1)), F(1, 2)), (Point2(F(1), F(1)), F(1, 2))]
    )
    # a whole float p passes the integer-exponent guard as its int
    for p in (2, 2.0):
        assert check_unique_geodesic(x, on_cross, p).passed
        assert check_unique_geodesic(x, off_cross, p).passed


def test_unique_geodesic_report_names_the_whole_p():
    """A whole float p is named as its int, as in the other reports."""
    mu = DiscreteMeasure.dirac(Point2(F(1), F(1)))
    assert check_unique_geodesic(Point2(F(0), F(0)), mu, 2.0).name == "unique-geodesic-p2"


@pytest.mark.parametrize(
    "x, atom, p",
    [((0.0, 0), F(1), 2), ((0, 0), 0.5, 2), ((0, 0), F(1), F(3, 2))],
    ids=["float-point", "float-measure", "fractional-p"],
)
def test_unique_geodesic_checker_needs_an_exact_problem(x, atom, p):
    """Its midpoint distances are compared exactly, so a float problem
    is refused up front."""
    mu = DiscreteMeasure([(Point2(atom, F(1)), F(1))])
    with pytest.raises(ConstraintError, match="exact measures and an integer p"):
        check_unique_geodesic(Point2(*x), mu, p)


def test_opposite_sides_checker():
    left = DiscreteMeasure(
        [(Point2(F(-1), F(0)), F(1, 2)), (Point2(F(-1), F(1, 2)), F(1, 2))]
    )
    right = DiscreteMeasure.dirac(Point2(F(1), F(-1, 4)))
    report = check_opposite_sides(left, right, 2)
    assert report.passed

    interior = DiscreteMeasure.dirac(Point2(F(0), F(0)))
    report2 = check_opposite_sides(interior, right, 1)
    assert report2.passed
    # a whole float p is taken as its int
    assert check_opposite_sides(left, right, 2.0) == report


@pytest.mark.parametrize(
    "mu, nu, p",
    [
        (
            DiscreteMeasure.dirac(Point2(F(-1), F(0))),
            DiscreteMeasure([(Point2(F(1), F(1, 3)), F(1, 3)), (Point2(F(1), F(-1)), F(2, 3))]),
            2.5,
        ),
        (
            DiscreteMeasure.dirac(Point2(-1.0, 0.0)),
            DiscreteMeasure.dirac(Point2(1.0, 0.5)),
            2,
        ),
    ],
    ids=["fractional-p", "float-measures"],
)
def test_opposite_sides_checker_needs_an_exact_problem(mu, nu, p):
    """Its cap 2^p is compared exactly, so a float measure or a p that
    is not a whole number is refused up front."""
    with pytest.raises(ConstraintError, match="exact measures and an integer p"):
        check_opposite_sides(mu, nu, p)


def test_corner_atom_serves_two_sides():
    """A corner atom lies on two sides at once, so distance 2 can hold
    even without one common pair of opposite sides."""
    corner_mix = DiscreteMeasure(
        [(Point2(F(-1), F(-1)), F(1, 2)), (Point2(F(1), F(-1)), F(1, 2))]
    )
    far = DiscreteMeasure.dirac(Point2(F(1), F(1)))
    # atom (-1,-1) is on the left and bottom; atom (1,-1) on the right
    # and bottom; (1,1) faces both across some pair of sides
    report = check_opposite_sides(corner_mix, far, 2)
    assert report.passed


def test_diag_saturation_checker():
    on_diag = DiscreteMeasure(
        [(Point2(F(-1, 2), F(-1, 2)), F(1, 3)), (Point2(F(1, 2), F(1, 2)), F(2, 3))]
    )
    assert check_diag_saturation(on_diag).passed
    off_diag = DiscreteMeasure.dirac(Point2(F(1, 2), F(0)))
    assert check_diag_saturation(off_diag).passed


def test_q_functional_checker():
    mu = DiscreteMeasure(
        [(Point2(F(1, 4), F(1, 4)), F(1, 3)), (Point2(F(3, 4), F(3, 4)), F(2, 3))]
    )
    jig = DiscreteMeasure(
        [(Point2(F(1, 4), F(3, 8)), F(1, 3)), (Point2(F(3, 4), F(3, 4)), F(2, 3))]
    )
    report = check_q_functional(mu, 2, [jig])
    assert report.passed
    # a whole float p is taken as its int
    assert check_q_functional(mu, 2.0, [jig]) == report
    with pytest.raises(ConstraintError):
        check_q_functional(mu, 1, [])
    with pytest.raises(ConstraintError):
        check_q_functional(jig, 2, [])


@pytest.mark.parametrize(
    "c, w, p", [(0.25, 1.0, 2), (F(1, 4), F(1), 2.5)], ids=["float-measure", "fractional-p"]
)
def test_q_functional_checker_needs_an_exact_problem(c, w, p):
    """Its bound is compared exactly, so a float measure or a p that is
    not a whole number is refused up front."""
    mu = DiscreteMeasure([(Point2(c, c), w)])
    with pytest.raises(ConstraintError, match="exact measures and an integer p"):
        check_q_functional(mu, p, [])


def test_corner_interval_checker():
    report = check_corner_interval(F(1, 4), F(3, 4))
    assert report.passed
    assert any("2|alpha - beta|" in note for note in report.notes)
    with pytest.raises(ConstraintError):
        check_corner_interval(F(3, 2), F(0))


def test_sweep_root_residual_tiny():
    report = reproduce_w2_table()
    root_note = next(n for n in report.notes if n.startswith("sweep roots"))
    assert "0.0" in root_note
    assert f"{math.log(3):.6f}"[:6] in root_note

_EIGHTHS = st.integers(-24, 24).map(lambda k: F(k, 8))


@settings(max_examples=25, deadline=None)
@given(
    _EIGHTHS, _EIGHTHS, st.sampled_from((1, 2, 3)), st.sampled_from((1, 2)),
    st.integers(0, 2**32),
)
def test_template_powers_are_the_solved_dirac_powers(x1, x2, p, span, draw):
    """The converse sweeps solve measures moved by -y against one
    template of candidates around the origin; dm is translation
    invariant, so on exact coordinates each candidate's template power
    is the solver's d_p^p(delta_y, eta + y), and d(mu, eta + y) =
    d(mu - y, eta) for every exact mu."""
    y = Point2(x1, x2)
    template = _eta_template(span, p)
    assert len(template) == {1: 117, 2: 925}[span]
    delta = DiscreteMeasure.dirac(y)
    mu = rand_measure(random.Random(draw), 3)
    moved = push_forward(lambda x: x - y, mu)
    for eta, power in template:
        around = push_forward(lambda x: x + y, eta)
        assert power == wasserstein_pow(delta, around, p)
        assert wasserstein_pow(mu, around, p) == wasserstein_pow(moved, eta, p)


_HALF = F(1, 2)
_FLOAT_DIAGONAL = DiscreteMeasure([(Point2(0.1, 0.1), _HALF), (Point2(0.3, 0.3), _HALF)])


@pytest.mark.parametrize(
    "check",
    [
        lambda: check_diag_support_char(
            DiscreteMeasure([(Point2(0.0, 0.0), _HALF), (Point2(F(2), F(1)), _HALF)]), []
        ),
        lambda: check_diag_support_char(
            DiscreteMeasure([(Point2(F(0), F(0)), 0.5), (Point2(F(2), F(1)), 0.5)]), []
        ),
        lambda: check_same_diag_char(
            DiscreteMeasure.dirac(Point2(0.0, 0.0)),
            DiscreteMeasure([(Point2(F(0), F(2)), _HALF), (Point2(F(1), F(3)), _HALF)]),
            [],
        ),
        lambda: check_dirac_char(
            DiscreteMeasure([(Point2(0.0, 0.0), F(1, 3)), (Point2(F(2), F(1)), F(2, 3))]), [], 2
        ),
        # the forward chains and the saturation compare exact powers too
        lambda: check_diag_support_char(
            _FLOAT_DIAGONAL, [DiscreteMeasure.dirac(Point2(0.7, 0.2))]
        ),
        lambda: check_same_diag_char(
            _FLOAT_DIAGONAL,
            DiscreteMeasure.dirac(Point2(0.6, 0.6)),
            [DiscreteMeasure([(Point2(0.7, 0.2), _HALF), (Point2(-0.3, 0.9), _HALF)])],
        ),
        lambda: check_diag_saturation(
            DiscreteMeasure([(Point2(0.3, 0.3), 0.1), (Point2(0.6, 0.6), 0.9)])
        ),
    ],
    ids=[
        "diag-char-coordinate", "diag-char-weight", "same-diag", "dirac-char",
        "diag-char-forward", "same-diag-forward", "diag-saturation",
    ],
)
def test_converse_checks_reject_float_measures(check):
    with pytest.raises(ConstraintError, match="exact measures"):
        check()


def _tight_points(moved, span):
    """The lattice points z of the span's template with d(moved, delta_z)
    = d(moved, delta_0) + |z|, each found by an exact solve."""
    d_0 = wasserstein_pow(moved, verify._ORIGIN_DIRAC, 1)
    side = (2 * span + 1) ** 2
    return {
        delta.points()[0]
        for delta, r in _eta_template(span, 1)[:side]
        if wasserstein_pow(moved, delta, 1) == d_0 + r
    }


def _all_tight(eta, tight):
    return eta.support_size > 1 and set(eta.points()) <= tight


def test_diag_char_converse_solves_once_per_candidate(monkeypatch):
    """With the span-1 template warm, a diag-char converse call solves
    mu against the 9 lattice Diracs and once more per two-atom candidate
    whose atoms are both tight; every d(delta_y, eta) comes from the
    template.  The non-co-diagonal pair sits at a and -a around y, so
    only the origin is tight and no two-atom candidate is solved.  It
    moves mu into the template's frame and builds no candidate around y:
    at most two measures."""
    off = DiscreteMeasure(
        [(Point2(F(0), F(0)), F(1, 2)), (Point2(F(2), F(1)), F(1, 2))]
    )
    assert check_diag_support_char(off, []).passed
    moved = push_forward(lambda x: x - Point2(F(1), F(1, 2)), off)
    tight = _tight_points(moved, 1)
    kept = [eta for eta, _ in _eta_template(1, 1) if _all_tight(eta, tight)]
    calls, built = [], []
    solve, init = transport._certified_solve, DiscreteMeasure.__init__

    def counting(*args):
        calls.append(args)
        return solve(*args)

    def counting_init(self, atoms):
        built.append(atoms)
        init(self, atoms)

    monkeypatch.setattr(transport, "_certified_solve", counting)
    monkeypatch.setattr(DiscreteMeasure, "__init__", counting_init)
    report = check_diag_support_char(off, [])
    assert report.passed and report.instances == 117
    assert tight == {Point2(F(0), F(0))} and kept == []
    assert len(calls) == 9 + len(kept)
    assert len(built) <= 2


def test_same_diag_converse_solves_lattice_then_tight_pairs(monkeypatch):
    """With the span-2 template warm, the same-diag converse solves each
    moved measure against the 25 lattice Diracs, then against the
    candidates still open whose atoms are all tight for it: for the
    first measure every two-atom candidate at distance 1 from delta_0,
    for the second those aligned with the first.  Each candidate counts
    once."""
    mu1 = DiscreteMeasure.dirac(Point2(F(0), F(0)))
    mu2 = DiscreteMeasure([(Point2(F(0), F(2)), F(1, 2)), (Point2(F(1), F(3)), F(1, 2))])
    y = Point2(F(0), F(1))  # the midpoint of (0, 0) and (0, 2)
    moved1, moved2 = (push_forward(lambda x: x - y, m) for m in (mu1, mu2))
    template = _eta_template(2, 1)
    lattice = [eta for eta, _ in template[:25]]
    units = [eta for eta, power in template if power == 1]
    d1n = wasserstein_pow(moved1, verify._ORIGIN_DIRAC, 1)
    aligned = [eta for eta in units if wasserstein_pow(moved1, eta, 1) == d1n + 1]
    tight1, tight2 = _tight_points(moved1, 2), _tight_points(moved2, 2)
    pairs1 = [eta for eta in units if _all_tight(eta, tight1)]
    pairs2 = [eta for eta in aligned if _all_tight(eta, tight2)]
    solved = []
    solve = verify.wasserstein_pow

    def recording(mu, nu, p):
        solved.append((mu, nu))
        return solve(mu, nu, p)

    monkeypatch.setattr(verify, "wasserstein_pow", recording)
    report = check_same_diag_char(mu1, mu2, [])
    assert report.passed and report.instances == len(template)
    assert solved == [
        *((moved1, eta) for eta in lattice + pairs1),
        *((moved2, eta) for eta in lattice + pairs2),
    ]
    assert pairs1


def test_converse_failure_names_its_candidate_around_y(monkeypatch):
    """A failure payload names the candidate moved back around y, not
    the template's candidate around the origin."""
    off = DiscreteMeasure(
        [(Point2(F(0), F(0)), F(1, 2)), (Point2(F(2), F(1)), F(1, 2))]
    )
    y = Point2(F(1), F(1, 2))  # the midpoint of the two atoms
    moved = push_forward(lambda x: x - y, off)
    eta = DiscreteMeasure.dirac(Point2(F(1, 2), F(0)))
    # a Dirac distance that aligns eta through delta_y, as no true one does
    d_0 = wasserstein_pow(moved, verify._ORIGIN_DIRAC, 1)
    assert wasserstein_pow(moved, eta, 1) != d_0 + F(1, 2)
    solve = verify.wasserstein_pow

    def planted(mu, nu, p):
        return d_0 + F(1, 2) if nu == eta else solve(mu, nu, p)

    monkeypatch.setattr(verify, "wasserstein_pow", planted)
    report = check_diag_support_char(off, [])
    assert report.instances == 117
    assert [f["kind"] for f in report.failures] == ["converse-alignment"]
    assert report.failures[0]["eta"] == ((Point2(F(3, 2), F(1, 2)), F(1)),)


def full_converse_row(moved, span):
    """The converse row as it was solved before tight atoms decided it:
    d_1(moved, delta_0), then d_1(moved, eta) for every candidate of the
    span's template, each an exact solve."""
    d_0 = transport.wasserstein_pow(moved, verify._ORIGIN_DIRAC, 1)
    return d_0, [transport.wasserstein_pow(moved, eta, 1) for eta, _ in _eta_template(span, 1)]


@st.composite
def _nondiagonal_measures(draw):
    """Exact measures on no diagonal line, drawn as
    `_rand_nondiagonal_measure` draws them: 2-4 distinct points on the
    1/8 grid of [-3, 3]^2, weights k / total with k in 1..12."""
    points = draw(
        st.lists(st.builds(Point2, _EIGHTHS, _EIGHTHS), min_size=2, max_size=4, unique=True)
        .filter(lambda pts: diagonal_line_through(pts) is None)
    )
    parts = draw(st.lists(st.integers(1, 12), min_size=len(points), max_size=len(points)))
    return DiscreteMeasure([(x, F(k, sum(parts))) for x, k in zip(points, parts)])


@settings(max_examples=40, deadline=None)
@given(_nondiagonal_measures(), st.sampled_from((1, 2)), st.booleans())
def test_tight_atoms_decide_the_converse_row(mu, span, centred):
    """Against the full row: every candidate whose atoms are all tight
    keeps its exact solve, and every other candidate, left out, has a
    full solve strictly below d(mu, delta_0) + d(delta_0, eta), so it
    can neither align nor close a chain.  The measure sits as drawn or,
    as in the converse checks, moved to the midpoint of its first
    non-co-diagonal pair."""
    if centred:
        y = verify._midpoint(*_non_codiag_pair(mu.points(), mu.points()))
        mu = push_forward(lambda x: x - y, mu)
    template = _eta_template(span, 1)
    d_0, full = full_converse_row(mu, span)
    tight = _tight_points(mu, span)
    got_0, kept = verify._aligned_row(mu, span, range(len(template)))
    assert got_0 == d_0
    assert list(kept) == sorted(kept)
    for k, ((eta, d_ne), want) in enumerate(zip(template, full)):
        if set(eta.points()) <= tight:
            assert kept[k] == want
        else:
            assert k not in kept and want < d_0 + d_ne


def test_dirac_char_converse_solves_the_reflection_of_mu(monkeypatch):
    """The point reflection of mu about y lies at d_p(mu, delta_y) from
    delta_y, so the converse solves the chain against it even where no
    lattice candidate meets that filter; a chain that closed there would
    be reported with the reflection around y."""
    two = DiscreteMeasure([(Point2(F(0), F(0)), F(1, 3)), (Point2(F(2), F(1)), F(2, 3))])
    # y, the one-third point, is (2/3, 1/3); the reflection is 2y - x
    reflection = DiscreteMeasure(
        [(Point2(F(4, 3), F(2, 3)), F(1, 3)), (Point2(F(-2, 3), F(-1, 3)), F(2, 3))]
    )
    monkeypatch.setattr(verify, "_eta_template", lambda span, p: ())
    solve = verify.wasserstein_pow
    solved = []

    def spy(mu, eta, p):
        solved.append(eta)
        return solve(mu, eta, p)

    monkeypatch.setattr(verify, "wasserstein_pow", spy)
    report = check_dirac_char(two, [], 2)
    assert report.passed and report.instances == 1
    assert solved[0] == verify._ORIGIN_DIRAC and len(solved) == 2

    def closing(mu, eta, p):
        base = solve(mu, verify._ORIGIN_DIRAC, p)
        return base if eta == verify._ORIGIN_DIRAC else 2**p * base

    monkeypatch.setattr(verify, "wasserstein_pow", closing)
    report = check_dirac_char(two, [], 2)
    assert [f["kind"] for f in report.failures] == ["converse-chain"]
    assert report.failures[0]["eta"] == reflection.atoms


def test_importing_the_cli_solves_no_template():
    """The templates are solved at the first converse sweep, not at
    import, so a command that sweeps nothing pays nothing for them."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import maxwass.cli\n"
        "from maxwass.verify import _eta_template\n"
        "print(_eta_template.cache_info().currsize)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0\n"
