"""Measure container tests: canonical atoms, two-point family, grids."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxwass.geometry import DiagonalLine, L_PLUS, Point2, diagonal_line_through, dm
from maxwass.measure import (
    DiscreteMeasure,
    GridMeasure,
    KloecknerParam,
    family_grid,
    in_family_F,
    kloeckner_measure,
    kloeckner_recover,
    phi_star,
    phi_t,
    push_forward,
)
from maxwass.scalars import ConstraintError, ParseError, parse_scalar, shown
from maxwass.transport import wasserstein

F = Fraction


def test_atoms_canonicalized_sorted_and_merged():
    mu = DiscreteMeasure(
        [
            (Point2(F(1), F(0)), F(1, 4)),
            (Point2(F(0), F(0)), F(1, 4)),
            (Point2(F(1), F(0)), F(1, 2)),
        ]
    )
    assert mu.atoms == (
        (Point2(F(0), F(0)), F(1, 4)),
        (Point2(F(1), F(0)), F(3, 4)),
    )


def test_near_duplicates_merge_across_an_atom_between_them():
    """(1e-13, 5) lies within MERGE_TOL of (0, 5), though (1e-13, 0)
    sorts between them: it merges all the same, so the mass put on
    either near-duplicate builds the same measure."""
    a = DiscreteMeasure(
        [(Point2(0.0, 5.0), 0.5), (Point2(1e-13, 0.0), 0.25), (Point2(1e-13, 5.0), 0.25)]
    )
    b = DiscreteMeasure(
        [(Point2(1e-13, 5.0), 0.5), (Point2(1e-13, 0.0), 0.25), (Point2(0.0, 5.0), 0.25)]
    )
    assert a.atoms == ((Point2(0.0, 5.0), 0.75), (Point2(1e-13, 0.0), 0.25))
    assert a == b
    assert wasserstein(a, b, 1)[0] == 0.0


def test_three_atom_chain_merges_into_the_kept_atom():
    """Atoms 0.7e-12 apart along x1: the second merges into the first,
    the third lies 1.4e-12 from the first, the atom kept, and stays
    apart, in whatever order the atoms come; the atom (0.7e-12, 5)
    between them in sort order changes nothing."""
    chain = [
        (Point2(0.0, 0.0), 0.25),
        (Point2(0.7e-12, 0.0), 0.25),
        (Point2(1.4e-12, 0.0), 0.25),
        (Point2(0.7e-12, 5.0), 0.25),
    ]
    want = (
        (Point2(0.0, 0.0), 0.5),
        (Point2(0.7e-12, 5.0), 0.25),
        (Point2(1.4e-12, 0.0), 0.25),
    )
    for atoms in itertools.permutations(chain):
        assert DiscreteMeasure(atoms).atoms == want


def test_zero_weights_dropped_negative_rejected():
    mu = DiscreteMeasure(
        [(Point2(F(0), F(0)), F(1)), (Point2(F(1), F(1)), F(0))]
    )
    assert mu.support_size == 1
    with pytest.raises(ConstraintError):
        DiscreteMeasure(
            [(Point2(F(0), F(0)), F(3, 2)), (Point2(F(1), F(1)), F(-1, 2))]
        )


def test_mass_must_be_one():
    with pytest.raises(ConstraintError):
        DiscreteMeasure([(Point2(F(0), F(0)), F(1, 2))])


def test_json_round_trip_preserves_exactness():
    mu = DiscreteMeasure(
        [
            (Point2(F(1, 3), F(-2, 7)), F(1, 6)),
            (Point2(F(0), F(2)), F(5, 6)),
        ]
    )
    again = DiscreteMeasure.from_json_dict(mu.to_json_dict())
    assert again == mu and again.exact


def test_from_json_dict_errors_are_parse_errors():
    with pytest.raises(ParseError):
        DiscreteMeasure.from_json_dict({"not-atoms": []})
    with pytest.raises(ParseError):
        DiscreteMeasure.from_json_dict({"atoms": [{"x": [0]}]})


def test_push_forward_merges_collisions():
    mu = DiscreteMeasure(
        [(Point2(F(-1), F(0)), F(1, 2)), (Point2(F(1), F(0)), F(1, 2))]
    )
    eta = push_forward(lambda x: Point2(abs(x.x1), x.x2), mu)
    assert eta.atoms == ((Point2(F(1), F(0)), F(1)),)


def test_kloeckner_measure_exact_atoms():
    """u = e^r = 2: weights 1/5 at m - sigma*u and 4/5 at m + sigma/u."""
    mu = kloeckner_measure(KloecknerParam(0, 1, math.log(2)), exp_r=F(2))
    assert mu.atoms == (
        (Point2(F(-2), F(-2)), F(1, 5)),
        (Point2(F(1, 2), F(1, 2)), F(4, 5)),
    )
    assert mu.supported_on(L_PLUS)


def test_kloeckner_balanced_case():
    mu = kloeckner_measure(KloecknerParam(F(1, 2), F(3, 2), 0), exp_r=F(1))
    assert mu.atoms == (
        (Point2(F(-1), F(-1)), F(1, 2)),
        (Point2(F(2), F(2)), F(1, 2)),
    )


def test_kloeckner_sigma_zero_is_dirac():
    mu = kloeckner_measure(KloecknerParam(F(3), 0, 0), exp_r=F(1))
    assert mu.is_dirac and mu.points()[0] == Point2(F(3), F(3))


def test_kloeckner_recover_round_trip():
    param = KloecknerParam(0, 1, math.log(2))
    mu = kloeckner_measure(param, exp_r=F(2))
    back = kloeckner_recover(mu)
    assert back.m == pytest.approx(0.0)
    assert back.sigma == pytest.approx(1.0)
    assert back.r == pytest.approx(math.log(2))


def test_phi_star_and_phi_t_act_on_r():
    param = KloecknerParam(F(1), F(2), 0.25)
    assert phi_star(param).r == -0.25
    assert phi_t(param, 0.5).r == 0.75
    sigma0 = KloecknerParam(F(1), 0, 0)
    assert phi_t(sigma0, 3.0) == sigma0


def test_in_family_F_requires_distinct_weights():
    mu = DiscreteMeasure(
        [(Point2(F(0), F(0)), F(1, 2)), (Point2(F(3), F(1)), F(1, 2))]
    )
    assert not in_family_F(mu)


def test_in_family_F_detects_projection_collision():
    """Two atoms on the main diagonal share their anti-diagonal
    projection (the origin), so no such measure is in general position."""
    mu = DiscreteMeasure(
        [(Point2(F(0), F(0)), F(1, 3)), (Point2(F(1), F(1)), F(2, 3))]
    )
    assert not in_family_F(mu)


def test_in_family_F_generic_example():
    mu = DiscreteMeasure(
        [
            (Point2(F(0), F(0)), F(1, 6)),
            (Point2(F(2), F(1)), F(1, 3)),
            (Point2(F(5), F(3)), F(1, 2)),
        ]
    )
    assert in_family_F(mu)


def test_family_grid_crossings():
    mu = DiscreteMeasure(
        [
            (Point2(F(0), F(0)), F(1, 3)),
            (Point2(F(2), F(0)), F(2, 3)),
        ]
    )
    assert in_family_F(mu)
    z = family_grid(mu)
    # t-params 0 and 1, s-params 0 and 1: crossings (t+s, t-s)
    assert z[0][0] == Point2(F(0), F(0))
    assert z[0][1] == Point2(F(1), F(-1))
    assert z[1][0] == Point2(F(1), F(1))
    assert z[1][1] == Point2(F(2), F(0))


def test_grid_measure_marginals_enforced():
    mu = DiscreteMeasure(
        [
            (Point2(F(0), F(0)), F(1, 3)),
            (Point2(F(2), F(0)), F(2, 3)),
        ]
    )
    w = mu.weights()
    GridMeasure(mu, [[w[0] * w[0], w[0] * w[1]], [w[1] * w[0], w[1] * w[1]]])
    with pytest.raises(ConstraintError):
        # row sums 1/2, 1/2 do not match the base weights 1/3, 2/3
        GridMeasure(mu, [[F(1, 2), F(0)], [F(0), F(1, 2)]])


def test_grid_measure_to_measure_and_gap():
    mu = DiscreteMeasure(
        [
            (Point2(F(0), F(0)), F(1, 3)),
            (Point2(F(2), F(0)), F(2, 3)),
        ]
    )
    w = mu.weights()
    xi = GridMeasure(mu, [[w[0] * w[0], w[0] * w[1]], [w[1] * w[0], w[1] * w[1]]])
    measure = xi.to_measure()
    assert measure.support_size == 4
    assert xi.min_grid_gap() == 1
    again = GridMeasure.from_json_dict(xi.to_json_dict())
    assert again.base == mu and again.weights == xi.weights


@st.composite
def general_position_measures(draw):
    """Exact measures of 1 to 6 atoms on a 1/4 grid with pairwise-distinct
    weights, x1 + x2 and x1 - x2."""
    n = draw(st.integers(1, 6))
    ts = draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n, unique=True))
    ss = draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n, unique=True))
    # atoms at ((t + s)/4, (t - s)/4) have x1 + x2 = t/2 and x1 - x2 = s/2
    rs = draw(st.lists(st.integers(1, 50), min_size=n, max_size=n, unique=True))
    return DiscreteMeasure(
        (Point2(F(t + s, 4), F(t - s, 4)), F(r, sum(rs))) for t, s, r in zip(ts, ss, rs)
    )


@settings(max_examples=150, deadline=None)
@given(mu=general_position_measures())
def test_min_grid_gap_is_least_pairwise_grid_distance(mu):
    """The closed form against the pairwise reference: the least dm over
    every two distinct family_grid points."""
    assert in_family_F(mu)
    w = mu.weights()
    xi = GridMeasure(mu, [[wi * wj for wj in w] for wi in w])
    flat = [p for row in family_grid(mu) for p in row]
    gaps = [dm(a, b) for k, a in enumerate(flat) for b in flat[k + 1:] if a != b]
    if gaps:
        assert xi.min_grid_gap() == min(gaps)
    else:
        with pytest.raises(ValueError):
            xi.min_grid_gap()


def test_grid_on_a_non_general_base_is_constraint_error():
    mu = DiscreteMeasure([(Point2(F(0), F(0)), F(1, 3)), (Point2(F(1), F(1)), F(2, 3))])
    xi = GridMeasure(mu, [[F(1, 3), F(0)], [F(0), F(2, 3)]])
    for call in (xi.min_grid_gap, xi.grid_points):
        with pytest.raises(ConstraintError, match="general-position"):
            call()


def test_grid_messages_print_long_numbers_as_a_phrase():
    """Row and column sums of weights whose text Python will not print
    name the number by a phrase, not by a ValueError."""
    w1 = F(1, 3) + F(1, 10**5000)
    mu = DiscreteMeasure([(Point2(F(0), F(0)), w1), (Point2(F(1), F(0)), 1 - w1)])
    phrase = "a number of more digits than Python prints"
    with pytest.raises(ConstraintError, match=f"^row 0 sums to 1/2, expected {phrase}$"):
        GridMeasure(mu, [[F(1, 2), F(0)], [F(0), F(1, 2)]])
    with pytest.raises(ConstraintError, match=f"^column 0 sums to {phrase}, expected {phrase}$"):
        GridMeasure(mu, [[F(0), w1], [1 - w1, F(0)]])


def test_diagonal_line_detection():
    mu = DiscreteMeasure(
        [(Point2(F(0), F(1)), F(1, 2)), (Point2(F(2), F(-1)), F(1, 2))]
    )
    line = mu.diagonal_line()
    assert line == DiagonalLine(-1, F(1))
    off = DiscreteMeasure(
        [(Point2(F(0), F(0)), F(1, 2)), (Point2(F(2), F(1)), F(1, 2))]
    )
    assert off.diagonal_line() is None


@pytest.mark.parametrize(
    "points, want",
    [
        ([(1, 2)], DiagonalLine(1, 1)),
        ([(0, 1), (2, -1), (-1, 2)], DiagonalLine(-1, 1)),
        ([(0, 0), (2, 1)], None),
    ],
    ids=["single-point-slope-plus", "slope-minus", "no-line"],
)
def test_diagonal_line_through(points, want):
    pts = tuple(Point2(F(a), F(b)) for a, b in points)
    assert diagonal_line_through(pts) == want
    mu = DiscreteMeasure([(x, F(1, len(pts))) for x in pts])
    assert mu.diagonal_line() == want


def test_float_measures_not_exact():
    mu = DiscreteMeasure([(Point2(0.5, 0.25), 1.0)])
    assert not mu.exact
    assert mu.is_dirac


def test_exact_is_stored_and_left_out_of_equality():
    exact = DiscreteMeasure([(Point2(F(1, 2), F(1, 4)), F(1))])
    assert exact.exact and "exact" not in repr(exact)
    assert exact == DiscreteMeasure.dirac(Point2(F(1, 2), F(1, 4)))
    assert not DiscreteMeasure([(Point2(F(1, 2), 0.25), F(1))]).exact
    assert not DiscreteMeasure([(Point2(F(1, 2), F(1, 4)), 1.0)]).exact


# ---------------------------------------------------------------------------
# scalar strings


@settings(max_examples=200, deadline=None)
@given(
    text=st.from_regex(r"-?[0-9]{1,40}(/[0-9]{1,40})?", fullmatch=True).filter(
        lambda s: "/" not in s or s.split("/")[1].strip("0")
    )
)
def test_plain_scalar_strings_parse_as_fraction_does(text):
    value = parse_scalar(text)
    assert type(value) is F and value == F(text)


@pytest.mark.parametrize(
    "text, value",
    [("0.5", F(1, 2)), ("1e3", F(1000)), (" 1/2", F(1, 2)), ("+1/2", F(1, 2)),
     ("1_000", F(1000)), ("-0", F(0)), ("007/014", F(1, 2))],
)
def test_other_scalar_strings_parse_as_before(text, value):
    parsed = parse_scalar(text)
    assert type(parsed) is F and parsed == value


@pytest.mark.parametrize(
    "text",
    ["0e99999999", "-0E-99999999", "0.000e999999999999999999999", "0e+" + "9" * 40],
)
def test_zero_with_any_exponent_reads_as_zero(text):
    parsed = parse_scalar(text)
    assert type(parsed) is F and parsed == 0


@pytest.mark.parametrize(
    "text",
    ["1e99999999", "-1e-99999999", "2.5E+19728", "1e-19729", "1e" + "9" * 40, "1" * 19729],
    ids=["1e99999999", "-1e-99999999", "2.5E+19728", "1e-19729", "1e40-nines", "19729-ones"],
)
def test_scalar_text_beyond_the_digit_bound_is_constraint_error(text):
    """Judged on the text: Fraction would build 10**|exponent| first, and
    an exponent beyond Decimal's own range would never finish."""
    with pytest.raises(ConstraintError, match=r"^scalar .* has more than 19728 digits$"):
        parse_scalar(text)


@pytest.mark.parametrize(
    "text, value",
    [("1e19727", F(10**19727)), ("-1e-19727", F(-1, 10**19727)),
     ("1" * 19728, F((10**19728 - 1) // 9))],
    ids=["1e19727", "-1e-19727", "19728-ones"],
)
def test_scalar_text_within_the_digit_bound_reads_exactly(text, value):
    assert parse_scalar(text) == value


@pytest.mark.parametrize("text", ["3/0", "5/", "/5", "-", "--5", "1/-2", "0x10"])
def test_malformed_scalar_strings_are_parse_errors(text):
    with pytest.raises(ParseError, match=r"^cannot parse scalar string "):
        parse_scalar(text)


def test_scalar_messages_quote_short_text_and_measure_long_text():
    with pytest.raises(ParseError, match=r"^cannot parse scalar string '5/'$"):
        parse_scalar("5/")
    with pytest.raises(ParseError, match=r"^scalar 'nan' is not finite$"):
        parse_scalar("nan")
    long = "x" * 60 + "y" * 940
    with pytest.raises(ParseError) as info:
        parse_scalar(long)
    assert str(info.value) == (
        "cannot parse scalar string 'xxxxxxxxxxxxxxxxxxxx'... (1000 characters)"
    )


def test_value_messages_show_short_reprs_and_measure_long_ones():
    short = {"x": [1, 2], "w": "1/2"}
    assert len(repr(short)) <= 60
    assert shown(short) == repr(short)
    assert shown([0] * 20) == repr([0] * 20)  # 60 characters
    assert shown([0] * 21) == "[0, 0, 0, 0, 0, 0, 0... (63 characters)"
    assert shown("y" * 60) == repr("y" * 60)
    assert shown("y" * 61) == "'yyyyyyyyyyyyyyyyyyyy'... (61 characters)"
    with pytest.raises(ParseError, match=r"^not a scalar: \[1\]$"):
        parse_scalar([1])
    with pytest.raises(ParseError, match=r"^not a scalar: \[1, 1, 1, .*\(9000 characters\)$"):
        parse_scalar([1] * 3000)
    with pytest.raises(ParseError, match=r"got \{'a': 1\}$"):
        Point2.from_json({"a": 1})
