"""Integer forms of exact measures against Fraction references: the
canonical atoms, the transport instance built from two forms, and
solves that must leave the forms as they were."""

import math
from fractions import Fraction
from operator import itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxwass.geometry import Point2, dm
from maxwass.measure import DiscreteMeasure, IntegerForm, _merge_atoms, _negative_weight
from maxwass.scalars import ConstraintError, for_message, is_exact
from maxwass.transport import (
    _integer_instance,
    brute_force_wasserstein,
    is_unique_optimal_plan,
    wasserstein,
    wasserstein_pow,
)

F = Fraction


def fraction_canonical(atoms):
    """Canonical atoms and integer form of exact atoms, computed in
    Fractions: a stable sort on the coordinates, zero weights dropped,
    equal points merged by adding weights left to right, and each scale
    the least common denominator of its values."""
    kept = {}
    for x, w in sorted(atoms, key=lambda a: (F(a[0].x1), F(a[0].x2))):
        if w == 0:
            continue
        key = (F(x.x1), F(x.x2))
        kept[key] = (kept[key][0], kept[key][1] + w) if key in kept else (x, w)
    atoms = tuple(kept.values())
    coord_scale = math.lcm(*(c.denominator for key in kept for c in key))
    weight_scale = math.lcm(*(F(w).denominator for _, w in atoms))
    form = IntegerForm(
        coord_scale,
        tuple((int(c1 * coord_scale), int(c2 * coord_scale)) for c1, c2 in kept),
        weight_scale,
        tuple(int(w * weight_scale) for _, w in atoms),
    )
    return atoms, form


# ints and Fractions, negative, with denominators of up to 39 digits
exact_coord = st.one_of(
    st.integers(-50, 50),
    st.builds(F, st.integers(-50, 50), st.sampled_from((2, 3, 8, 10**12, 3**80))),
)


@st.composite
def exact_atoms(draw):
    """Atoms drawn from a small pool of points, so that points repeat,
    with weight parts of 0 to 12 of which at least one is positive.  A
    whole weight is an int or a Fraction."""
    pool = draw(st.lists(st.tuples(exact_coord, exact_coord), min_size=1, max_size=4))
    n = draw(st.integers(1, 7))
    points = [Point2(*draw(st.sampled_from(pool))) for _ in range(n)]
    parts = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
    parts[draw(st.integers(0, n - 1))] += 1
    weights = [F(r, sum(parts)) for r in parts]
    weights = [
        int(w) if w.denominator == 1 and draw(st.booleans()) else w for w in weights
    ]
    return list(zip(points, weights))


@settings(max_examples=300, deadline=None)
@given(atoms=exact_atoms())
def test_integer_form_matches_the_fraction_canonical_form(atoms):
    mu = DiscreteMeasure(atoms)
    want_atoms, want_form = fraction_canonical(atoms)
    # repr tells an int weight or coordinate from a whole Fraction
    assert repr(mu.atoms) == repr(want_atoms)
    assert mu.integer == want_form
    assert mu.exact


# the exact canonicalization as it was before one walk decided exactness
# and read each scalar's numerator and denominator once: an exactness
# pass, then the merge on integer keys; the constructor's checks follow


def reference_is_exact(v):
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


def reference_all_exact(atoms):
    return all(reference_is_exact(c) for x, w in atoms for c in (*x, w))


def reference_merge_exact(atoms):
    live = [(x, w) for x, w in atoms if w != 0]
    coord_scale = math.lcm(*{c.denominator for x, _ in live for c in x})
    weight_scale = math.lcm(*{w.denominator for _, w in live})
    keyed = [
        (
            (
                x1.numerator * (coord_scale // x1.denominator),
                x2.numerator * (coord_scale // x2.denominator),
            ),
            x,
            w,
        )
        for x, w in live
        for x1, x2 in [x]
    ]
    keyed.sort(key=itemgetter(0))
    kept, coords, weights = [], [], []
    for key, x, w in keyed:
        k = w.numerator * (weight_scale // w.denominator)
        if k < 0:
            raise _negative_weight(x, w)
        if coords and coords[-1] == key:
            kept[-1] = (kept[-1][0], kept[-1][1] + w)
            weights[-1] += k
        else:
            kept.append((x, w))
            coords.append(key)
            weights.append(k)
    common = math.gcd(weight_scale, *weights)
    if common > 1:
        weight_scale //= common
        weights = [k // common for k in weights]
    form = IntegerForm(coord_scale, tuple(coords), weight_scale, tuple(weights))
    return tuple(kept), form


def reference_canonical(atoms):
    """(atoms, integer form or None) of the reference constructor."""
    form = None
    if reference_all_exact(atoms):
        merged, form = reference_merge_exact(atoms)
    else:
        merged = _merge_atoms(atoms)
        if reference_all_exact(merged):
            merged, form = reference_merge_exact(merged)
    if not merged:
        raise ConstraintError("a measure needs at least one atom of positive mass")
    if form is not None:
        if sum(form.weights) != form.weight_scale:
            total = Fraction(sum(form.weights), form.weight_scale)
            raise ConstraintError(f"weights sum to {for_message(total)}, expected 1")
    else:
        total = sum(w for _, w in merged)
        if all(reference_is_exact(w) for _, w in merged):
            if total != 1:
                raise ConstraintError(f"weights sum to {for_message(total)}, expected 1")
        elif abs(float(total) - 1.0) > 1e-12:
            raise ConstraintError(f"weights sum to {float(total)!r}, expected 1")
    return merged, form


def outcome(build, atoms):
    """What building from atoms gives: the canonical atoms (by repr, and
    by which input objects they are), the integer form, or the error
    type and message."""
    try:
        merged, form = build(atoms)
    except ConstraintError as exc:
        return type(exc), str(exc)
    points = [id(x) for x, _ in atoms]
    weights = [id(w) for _, w in atoms]

    def source(obj, ids):
        return ids.index(id(obj)) if id(obj) in ids else None

    objects = [(source(x, points), source(w, weights)) for x, w in merged]
    return repr(merged), objects, form


def constructed(atoms):
    mu = DiscreteMeasure(atoms)
    return mu.atoms, mu.integer


@st.composite
def mixed_atoms(draw):
    """Exact atoms as in exact_atoms, but at times with a negative
    weight, weights that do not sum to 1 and an atom with a float
    coordinate or weight: one of no mass, or a float copy of an exact
    point that carries mass."""
    pool = draw(st.lists(st.tuples(exact_coord, exact_coord), min_size=1, max_size=4))
    n = draw(st.integers(1, 6))
    points = [Point2(*draw(st.sampled_from(pool))) for _ in range(n)]
    inexact = draw(st.sampled_from(("none", "massless point", "massless weight", "copy")))
    parts = draw(st.lists(st.integers(0, 12), min_size=n + 1, max_size=n + 1))
    if draw(st.integers(0, 4)) == 0:
        parts[draw(st.integers(0, n))] *= -1
    if inexact != "copy":
        parts[-1] = 0
    total = sum(parts)
    if total > 0 and draw(st.integers(0, 3)):
        weights = [F(r, total) for r in parts]
    else:
        weights = [F(r, draw(st.sampled_from((1, 4, 7)))) for r in parts]
    weights = [
        int(w) if w.denominator == 1 and draw(st.booleans()) else w for w in weights
    ]
    atoms = list(zip(points, weights))
    if inexact != "none":
        c1, c2 = draw(st.sampled_from(pool))
        if inexact == "massless point":
            atom = (Point2(float(c1), c2), F(0))
        elif inexact == "massless weight":
            atom = (Point2(c1, c2), 0.0)
        else:
            atom = (Point2(float(c1), float(c2)), weights[-1])
        atoms.insert(draw(st.integers(0, n)), atom)
    return atoms


@settings(max_examples=500, deadline=None)
@given(atoms=mixed_atoms())
@example([(Point2(1, F(1, 2)), F(1, 2)), (Point2(1, F(1, 2)), F(1, 2))])
@example([(Point2(F(1, 3), 0), F(1, 2)), (Point2(0.5, 0.0), F(0)), (Point2(0, 0), F(1, 2))])
@example([(Point2(0, 0), 1), (Point2(2, 0), 0.0)])
@example([(Point2(2, 0), F(-1, 2)), (Point2(1, 0), F(3, 2)), (Point2(0, 0), 0)])
@example([(Point2(F(1, 2), 0), F(1, 6))] * 2 + [(Point2(0, 1), F(2, 3))])
@example([(Point2(3, 3), F(0))])
def test_one_walk_canonicalization_matches_the_reference(atoms):
    assert outcome(constructed, atoms) == outcome(reference_canonical, atoms)


class Count(int):
    pass


class Ratio(Fraction):
    pass


class Real(float):
    pass


@pytest.mark.parametrize(
    "value",
    [0, -3, 10**30, F(1, 3), F(4), Count(2), Ratio(1, 2), True, False, 0.5, 1.0,
     float("nan"), pytest.param(Real(0.5), id="float-subclass"), "1/2", None],
)
def test_is_exact_accepts_ints_and_fractions_but_not_bools(value):
    assert is_exact(value) == reference_is_exact(value)


def test_integer_form_only_for_exact_measures():
    assert DiscreteMeasure([(Point2(0.5, F(0)), F(1))]).integer is None
    assert DiscreteMeasure([(Point2(F(0), F(0)), 1.0)]).integer is None
    # a float point that merges into an exact one leaves an exact measure
    merged = DiscreteMeasure([(Point2(F(0), F(0)), F(1, 2)), (Point2(1e-13, 0.0), F(1, 2))])
    assert merged.atoms == ((Point2(F(0), F(0)), F(1)),)
    assert merged.integer == IntegerForm(1, ((0, 0),), 1, (1,))
    # so does a float point of no mass
    massless = DiscreteMeasure([(Point2(F(1, 2), F(0)), F(1)), (Point2(0.25, 0.0), F(0))])
    assert massless.integer == IntegerForm(2, ((1, 0),), 1, (1,))


def point(x1, x2):
    return Point2(F(x1), F(x2))


@pytest.mark.parametrize(
    "atoms, message",
    [
        (
            [(point(2, 0), F(-1, 2)), (point(-1, 0), F(-1, 4)), (point(0, 0), F(7, 4))],
            r"^negative weight -1/4 at \(-1, 0\)$",
        ),
        (
            [(point(1, 0), F(1, 3)), (point(0, 0), F(1, 3))],
            r"^weights sum to 2/3, expected 1$",
        ),
        ([(Point2(1, 0), 1), (Point2(0, 0), 1)], r"^weights sum to 2, expected 1$"),
        (
            [(point(3, 0), F(0))],
            r"^a measure needs at least one atom of positive mass$",
        ),
    ],
    ids=["negative", "sum", "int-sum", "empty"],
)
def test_exact_constraint_messages(atoms, message):
    """The first negative weight in coordinate order is reported."""
    with pytest.raises(ConstraintError, match=message):
        DiscreteMeasure(atoms)


def fraction_instance(mu, nu, q):
    """_integer_instance from the Fraction atoms: L and W are the least
    common denominators of both measures' coordinates and weights."""
    xs, ys = mu.points(), nu.points()
    coord_scale = math.lcm(*(F(c).denominator for x in xs + ys for c in x))
    weight_scale = math.lcm(*(F(w).denominator for w in mu.weights() + nu.weights()))
    cost = [[int(dm(x, y) * coord_scale) ** q for y in ys] for x in xs]

    def scaled(weights):
        return [int(w * weight_scale) for w in weights]

    return cost, scaled(mu.weights()), scaled(nu.weights()), coord_scale**q, weight_scale


@settings(max_examples=300, deadline=None)
@given(mu=exact_atoms(), nu=exact_atoms(), q=st.sampled_from((1, 2, 3)))
def test_integer_instance_matches_the_fraction_instance(mu, nu, q):
    mu, nu = DiscreteMeasure(mu), DiscreteMeasure(nu)
    assert _integer_instance(mu, nu, q) == fraction_instance(mu, nu, q)


@settings(max_examples=200, deadline=None)
@given(mu=exact_atoms(), nu=exact_atoms(), q=st.sampled_from((1, 2, 3)))
# a Dirac against two atoms at the same coordinate and weight scales;
# two atoms against one at other scales
@example(
    mu=[(Point2(F(1, 2), 0), F(1))],
    nu=[(Point2(0, F(1, 2)), F(1, 2)), (Point2(1, 0), F(1, 2))],
    q=2,
)
@example(
    mu=[(Point2(F(1, 4), 0), F(1, 3)), (Point2(1, 0), F(2, 3))],
    nu=[(Point2(0, F(1, 2)), 1)],
    q=1,
)
def test_integer_instance_returns_fresh_lists(mu, nu, q):
    """The certificate compares margins with supply and demand as lists,
    so a tuple there would fail every solve.  Each call builds new
    ones, cost rows included: editing every list of one call changes
    neither the measures' forms nor the next call."""
    mu, nu = DiscreteMeasure(mu), DiscreteMeasure(nu)
    forms = (mu.integer, nu.integer)
    cost, supply, demand, _, _ = first = _integer_instance(mu, nu, q)
    second = _integer_instance(mu, nu, q)
    assert type(cost) is list and all(type(row) is list for row in cost)
    assert type(supply) is list and type(demand) is list
    fresh = [cost, supply, demand, *cost]
    again = [*second[:3], *second[0]]
    assert all(a is not b for a, b in zip(fresh, again))
    for row in cost:
        row[0] += 1
        row.append(0)
    supply[0] += 1
    demand[-1] -= 1
    demand.append(1)
    assert first[:3] != second[:3]
    assert (mu.integer, nu.integer) == forms
    assert _integer_instance(mu, nu, q) == second == fraction_instance(mu, nu, q)


@settings(max_examples=100, deadline=None)
@given(mu=exact_atoms(), nu=exact_atoms(), q=st.sampled_from((1, 2, 3)))
def test_solves_leave_the_integer_forms_unchanged(mu, nu, q):
    """Every exact route reads the forms, and a caller that edits the
    instance it was handed edits its own lists."""
    mu, nu = DiscreteMeasure(mu), DiscreteMeasure(nu)
    forms = (mu.integer, nu.integer)
    want = fraction_instance(mu, nu, q)
    cost, supply, demand, _, _ = _integer_instance(mu, nu, q)
    cost[0][0] += 1
    supply[0] += 1
    demand.append(1)
    wasserstein(mu, nu, q)
    wasserstein_pow(nu, mu, q)
    is_unique_optimal_plan(mu, nu, q)
    if mu.support_size * nu.support_size <= 16:
        brute_force_wasserstein(mu, nu, q)
    assert (mu.integer, nu.integer) == forms
    assert _integer_instance(mu, nu, q) == want
