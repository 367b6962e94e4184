"""Geometry kernel tests: exact projections, midpoints, isometries."""

import random
from fractions import Fraction

import pytest

from maxwass.geometry import (
    SQUARE_SYMMETRIES,
    DiagonalLine,
    L_MINUS,
    L_PLUS,
    MaxIsometry,
    Point2,
    apply_isometry,
    compose,
    dilate,
    direction_alloc,
    dm,
    in_square,
    invert,
    midpoint_box,
    project_point,
    same_diagonal,
    triangle_saturates,
)
from maxwass.scalars import ConstraintError

F = Fraction


def rand_frac(rng, lo=-4, hi=4, denom=8):
    return F(rng.randint(lo * denom, hi * denom), denom)


def rand_point(rng, lo=-4, hi=4, denom=8):
    return Point2(rand_frac(rng, lo, hi, denom), rand_frac(rng, lo, hi, denom))


def rand_line(rng):
    return DiagonalLine(rng.choice((1, -1)), rand_frac(rng, -3, 3))


def test_dm_examples():
    assert dm(Point2(0, 0), Point2(3, 1)) == 3
    assert dm(Point2(0, 0), Point2(-1, -2)) == 2
    assert dm(Point2(F(1, 2), 0), Point2(0, F(1, 3))) == F(1, 2)


def test_dm_metric_axioms():
    rng = random.Random(11)
    for _ in range(200):
        x, y, z = (rand_point(rng) for _ in range(3))
        assert dm(x, y) == dm(y, x)
        assert dm(x, y) >= 0
        assert (dm(x, y) == 0) == (x == y)
        assert dm(x, z) <= dm(x, y) + dm(y, z)


def test_projection_closed_form_examples():
    assert project_point(L_PLUS, Point2(2, 0)) == Point2(1, 1)
    assert project_point(L_MINUS, Point2(2, 0)) == Point2(1, -1)
    line = DiagonalLine(1, 1)
    assert project_point(line, Point2(0, 0)) == Point2(F(-1, 2), F(1, 2))


def test_projection_minimizes_over_line_grid():
    """The closed-form foot beats every grid point of the line."""
    rng = random.Random(23)
    for _ in range(100):
        line = rand_line(rng)
        y = rand_point(rng)
        foot = project_point(line, y)
        assert line.contains(foot)
        d = dm(y, foot)
        t0 = foot.x1
        for k in range(-24, 25):
            cand = line.point_at(t0 + F(k, 4))
            assert dm(y, cand) >= d
            if cand != foot:
                assert dm(y, cand) > d or k == 0


def test_projection_is_unique_minimizer():
    rng = random.Random(29)
    for _ in range(100):
        line = rand_line(rng)
        y = rand_point(rng)
        foot = project_point(line, y)
        d = dm(y, foot)
        for k in range(-16, 17):
            cand = line.point_at(foot.x1 + F(k, 4))
            if cand != foot:
                assert dm(y, cand) > d


def test_plus_diagonal_collapses_onto_minus_origin():
    """Every point of the main diagonal projects to the origin on the
    anti-diagonal: the ball corner touches L- at one shared point."""
    for t in (F(-3), F(-1, 2), F(0), F(1), F(7, 3)):
        assert project_point(L_MINUS, Point2(t, t)) == Point2(0, 0)


def test_direction_alloc_unit_and_sides():
    line = L_PLUS
    above = Point2(0, 1)
    below = Point2(1, 0)
    assert direction_alloc(line, above) == Point2(-1, 1)
    assert direction_alloc(line, below) == Point2(1, -1)
    on = Point2(2, 2)
    e = direction_alloc(line, on)
    assert max(abs(e.x1), abs(e.x2)) == 1


def test_crucial_identity_exact():
    """d(x, y + t*e(y)) = d(x, y) + t for x on the line and t >= 0."""
    rng = random.Random(31)
    for _ in range(300):
        line = rand_line(rng)
        x = line.point_at(rand_frac(rng))
        y = rand_point(rng)
        e = direction_alloc(line, y)
        t = rand_frac(rng, 0, 4)
        shifted = Point2(y.x1 + t * e.x1, y.x2 + t * e.x2)
        assert dm(x, shifted) == dm(x, y) + t


def test_midpoint_box_is_ball_intersection():
    """The midpoint set equals the box computed by midpoint_box: checked
    against a brute-force lattice scan of both half-distance balls."""
    rng = random.Random(37)
    for _ in range(40):
        x = rand_point(rng, -2, 2, 2)
        y = rand_point(rng, -2, 2, 2)
        if x == y:
            continue
        d = dm(x, y)
        lo, hi = midpoint_box(x, y)
        assert lo.x1 <= hi.x1 and lo.x2 <= hi.x2
        half = F(d, 2)
        for k1 in range(-16, 17):
            for k2 in range(-16, 17):
                z = Point2(x.x1 + F(k1, 4), x.x2 + F(k2, 4))
                in_box = lo.x1 <= z.x1 <= hi.x1 and lo.x2 <= z.x2 <= hi.x2
                is_mid = dm(x, z) <= half and dm(z, y) <= half
                assert in_box == is_mid


def test_midpoint_unique_iff_codiagonal():
    rng = random.Random(41)
    seen_unique = seen_box = 0
    for k in range(200):
        x = rand_point(rng)
        if k % 2 == 0:
            t = rand_frac(rng)
            y = Point2(x.x1 + t, x.x2 + rng.choice((1, -1)) * t)
        else:
            y = rand_point(rng)
        if x == y:
            continue
        lo, hi = midpoint_box(x, y)
        if same_diagonal(x, y):
            assert lo == hi
            seen_unique += 1
        else:
            assert lo != hi
            seen_box += 1
    assert seen_unique > 5 and seen_box > 5


def test_triangle_saturates():
    x, y, z = Point2(0, 0), Point2(1, 0), Point2(3, 0)
    assert triangle_saturates(x, y, z)
    assert not triangle_saturates(x, Point2(1, 2), z)


def test_tri_not_sat_at_noncodiagonal_midpoint():
    """No lattice point besides the midpoint saturates both triangle
    inequalities through the midpoint of a non-co-diagonal pair."""
    rng = random.Random(43)
    checked = 0
    for _ in range(30):
        x = rand_point(rng, -2, 2, 2)
        xp = rand_point(rng, -2, 2, 2)
        if x == xp or same_diagonal(x, xp):
            continue
        y = Point2(F(x.x1 + xp.x1, 2), F(x.x2 + xp.x2, 2))
        for k1 in range(-12, 13):
            for k2 in range(-12, 13):
                z = Point2(y.x1 + F(k1, 3), y.x2 + F(k2, 3))
                if z == y:
                    continue
                both = (
                    dm(x, z) == dm(x, y) + dm(y, z)
                    and dm(xp, z) == dm(xp, y) + dm(y, z)
                )
                assert not both
        checked += 1
    assert checked >= 10


def test_dilate_doubles_distances():
    rng = random.Random(47)
    for _ in range(100):
        c = rand_point(rng)
        y = rand_point(rng)
        out = dilate(c, y)
        assert dm(c, out) == 2 * dm(c, y)
        assert out == Point2(2 * y.x1 - c.x1, 2 * y.x2 - c.x2)


def test_line_parse_and_json():
    line = DiagonalLine.parse("+,1/2")
    assert line == DiagonalLine(1, F(1, 2))
    assert DiagonalLine.parse("-,0") == L_MINUS or DiagonalLine.parse("-,0") == DiagonalLine(-1, F(0))
    with pytest.raises(Exception):
        DiagonalLine.parse("2,0")


def test_in_square_boundaries():
    assert in_square(Point2(1, -1))
    assert in_square(Point2(F(-1), F(1)))
    assert not in_square(Point2(F(9, 8), 0))


def test_square_symmetry_group_closure():
    """The eight named symmetries form a group: closed under
    composition, every element invertible, inverses named."""
    names = sorted(SQUARE_SYMMETRIES)
    assert len(names) == 8
    rng = random.Random(53)
    for first in names:
        for second in names:
            iso = compose(
                MaxIsometry(first, Point2(0, 0)), MaxIsometry(second, Point2(0, 0))
            )
            assert iso.linear in SQUARE_SYMMETRIES
    for name in names:
        iso = MaxIsometry(name, Point2(rand_frac(rng), rand_frac(rng)))
        inv = invert(iso)
        for _ in range(10):
            pt = rand_point(rng)
            assert apply_isometry(inv, apply_isometry(iso, pt)) == pt


def test_isometries_preserve_dm():
    rng = random.Random(59)
    for name in SQUARE_SYMMETRIES:
        iso = MaxIsometry(name, Point2(rand_frac(rng), rand_frac(rng)))
        for _ in range(20):
            x, y = rand_point(rng), rand_point(rng)
            assert dm(apply_isometry(iso, x), apply_isometry(iso, y)) == dm(x, y)


def test_isometry_square_mode_requires_zero_shift():
    iso = MaxIsometry("rot90", Point2(F(1, 2), 0))
    with pytest.raises(ConstraintError):
        apply_isometry(iso, Point2(0, 0), square_mode=True)
    ok = MaxIsometry("rot90", Point2(0, 0))
    assert apply_isometry(ok, Point2(1, 0), square_mode=True) == Point2(0, 1)


def test_isometries_map_diagonals_to_diagonals():
    rng = random.Random(61)
    for name in SQUARE_SYMMETRIES:
        iso = MaxIsometry(name, Point2(rand_frac(rng), rand_frac(rng)))
        for _ in range(20):
            x, y = rand_point(rng), rand_point(rng)
            assert same_diagonal(x, y) == same_diagonal(
                apply_isometry(iso, x), apply_isometry(iso, y)
            )