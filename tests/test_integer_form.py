"""Integer forms of exact measures against Fraction references: the
canonical atoms, the transport instance built from two forms, and
solves that must leave the forms as they were."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxwass.geometry import Point2, dm
from maxwass.measure import DiscreteMeasure, IntegerForm
from maxwass.scalars import ConstraintError
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
