"""Tests for measure-level constructions: projections, Radon transform,
mirror measures, interpolation, and the equal-projection perturbation."""

import random
from fractions import Fraction

import pytest

from draws import rand_frac, rand_measure
from maxwass.geometry import DiagonalLine, L_MINUS, L_PLUS, Point2
from maxwass.measure import DiscreteMeasure, GridMeasure, in_family_F
from maxwass.scalars import ConstraintError
from maxwass.transport import wasserstein, wasserstein_pow
from maxwass.wgeom import (
    RadonImage,
    displacement_interpolation,
    grid_perturbation,
    project_measure,
    radon,
    radon_invert_F,
    symmetric_w1,
    symmetric_wp,
)

F = Fraction


def rand_family_measure(rng, max_atoms=3):
    while True:
        mu = rand_measure(rng, max_atoms)
        if mu.support_size >= 2 and in_family_F(mu):
            return mu


def test_project_measure_pushes_each_atom():
    mu = DiscreteMeasure(
        [(Point2(F(0), F(0)), F(1, 2)), (Point2(F(2), F(0)), F(1, 2))]
    )
    eta = project_measure(L_PLUS, mu)
    assert eta.atoms == (
        (Point2(F(0), F(0)), F(1, 2)),
        (Point2(F(1), F(1)), F(1, 2)),
    )


def test_projection_collision_merges_mass():
    mu = DiscreteMeasure(
        [(Point2(F(-1), F(-1)), F(1, 3)), (Point2(F(1), F(1)), F(2, 3))]
    )
    eta = project_measure(L_MINUS, mu)
    assert eta.is_dirac and eta.points()[0] == Point2(F(0), F(0))


def test_radon_image_components_live_on_their_lines():
    rng = random.Random(7)
    for _ in range(20):
        image = radon(rand_measure(rng))
        assert image.plus.supported_on(L_PLUS)
        assert image.minus.supported_on(L_MINUS)


def test_radon_image_validation():
    off_line = DiscreteMeasure.dirac(Point2(F(1), F(0)))
    on_plus = DiscreteMeasure.dirac(Point2(F(1), F(1)))
    on_minus = DiscreteMeasure.dirac(Point2(F(1), F(-1)))
    RadonImage(on_plus, on_minus)
    with pytest.raises(ConstraintError):
        RadonImage(off_line, on_minus)
    with pytest.raises(ConstraintError):
        RadonImage(on_plus, off_line)


def test_radon_round_trip_on_family():
    rng = random.Random(11)
    for _ in range(40):
        mu = rand_family_measure(rng)
        assert radon_invert_F(radon(mu)) == mu


def test_radon_invert_rejects_mismatched_weights():
    plus = DiscreteMeasure(
        [(Point2(F(0), F(0)), F(1, 3)), (Point2(F(1), F(1)), F(2, 3))]
    )
    minus = DiscreteMeasure(
        [(Point2(F(0), F(0)), F(1, 4)), (Point2(F(1), F(-1)), F(3, 4))]
    )
    with pytest.raises(ConstraintError):
        radon_invert_F(RadonImage(plus, minus))


def test_symmetric_w1_chain_example():
    line = L_PLUS
    mu = DiscreteMeasure(
        [(Point2(F(0), F(0)), F(1, 2)), (Point2(F(1), F(1)), F(1, 2))]
    )
    nu = DiscreteMeasure(
        [(Point2(F(0), F(0)), F(1, 2)), (Point2(F(2), F(0)), F(1, 2))]
    )
    eta = symmetric_w1(line, mu, nu)
    d_mn, _ = wasserstein(mu, nu, 1)
    d_ne, _ = wasserstein(nu, eta, 1)
    d_me, _ = wasserstein(mu, eta, 1)
    assert d_mn == d_ne
    assert d_me == 2 * d_mn


def test_symmetric_w1_identical_measures():
    line = DiagonalLine(-1, F(1))
    mu = DiscreteMeasure.dirac(Point2(F(0), F(1)))
    eta = symmetric_w1(line, mu, mu)
    assert eta == mu


def test_symmetric_w1_requires_mu_on_line():
    mu = DiscreteMeasure.dirac(Point2(F(1), F(0)))
    nu = DiscreteMeasure.dirac(Point2(F(0), F(0)))
    with pytest.raises(ConstraintError):
        symmetric_w1(L_PLUS, mu, nu)


def test_symmetric_wp_chain_exact_powers():
    rng = random.Random(13)
    for p in (2, 3):
        for _ in range(15):
            x = Point2(rand_frac(rng), rand_frac(rng))
            nu = rand_measure(rng, 3)
            eta = symmetric_wp(x, nu, p)
            delta = DiscreteMeasure.dirac(x)
            base = wasserstein_pow(delta, nu, p)
            assert wasserstein_pow(nu, eta, p) == base
            assert wasserstein_pow(delta, eta, p) == 2 ** p * base


def test_symmetric_wp_rejects_p1():
    with pytest.raises(ConstraintError):
        symmetric_wp(Point2(F(0), F(0)), DiscreteMeasure.dirac(Point2(F(1), F(1))), 1)


def test_symmetric_wp_rejects_nan():
    """NaN compares False both ways, so `p <= 1` would let it through."""
    with pytest.raises(ConstraintError, match="needs p > 1"):
        symmetric_wp(
            Point2(F(0), F(0)), DiscreteMeasure.dirac(Point2(F(1), F(1))), float("nan")
        )


def test_interpolation_endpoints_and_midpoint():
    corner = Point2(F(1), F(1))
    mu = DiscreteMeasure.dirac(Point2(F(-1), F(-1)))
    assert displacement_interpolation(mu, corner, F(0)) == DiscreteMeasure.dirac(corner)
    assert displacement_interpolation(mu, corner, F(1)) == mu
    mid = displacement_interpolation(mu, corner, F(1, 2))
    assert mid == DiscreteMeasure.dirac(Point2(F(0), F(0)))


def test_interpolation_is_metrically_linear():
    """Interpolation along co-diagonal rays is a constant-speed geodesic:
    d(gamma_s, gamma_t) = |s - t| * d(corner, mu)."""
    corner = Point2(F(0), F(0))
    mu = DiscreteMeasure(
        [(Point2(F(2), F(2)), F(1, 3)), (Point2(F(1), F(-1)), F(2, 3))]
    )
    start = DiscreteMeasure.dirac(corner)
    base, _ = wasserstein(start, mu, 1)
    times = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
    snaps = [displacement_interpolation(mu, corner, s) for s in times]
    for a in range(len(times)):
        for b in range(a + 1, len(times)):
            d, _ = wasserstein(snaps[a], snaps[b], 1)
            assert d == (times[b] - times[a]) * base


def test_interpolation_requires_codiagonal_support():
    corner = Point2(F(0), F(0))
    mu = DiscreteMeasure.dirac(Point2(F(2), F(1)))
    with pytest.raises(ConstraintError):
        displacement_interpolation(mu, corner, F(1, 2))


def test_interpolation_requires_unit_interval():
    corner = Point2(F(0), F(0))
    mu = DiscreteMeasure.dirac(Point2(F(1), F(1)))
    with pytest.raises(ConstraintError):
        displacement_interpolation(mu, corner, F(3, 2))


def _product_grid(mu):
    w = mu.weights()
    return GridMeasure(mu, [[wi * wj for wj in w] for wi in w])


def test_grid_perturbation_radon_images_agree():
    rng = random.Random(17)
    for _ in range(10):
        mu = rand_family_measure(rng)
        xi = _product_grid(mu)
        a = min(w for row in xi.weights for w in row if w > 0) / 2
        triple = grid_perturbation(mu, xi, a)
        ra = radon(triple.mu_prime)
        for other in (triple.nu1_prime, triple.nu2_prime):
            rb = radon(other)
            assert ra.plus == rb.plus and ra.minus == rb.minus


def test_grid_perturbation_distances():
    """d_Wp(mu, mu') and d_Wp(xi, nu_i') all equal a^(1/p) c0."""
    rng = random.Random(19)
    for k in range(6):
        p = (1, 2, 3)[k % 3]
        mu = rand_family_measure(rng)
        xi = _product_grid(mu)
        a = min(w for row in xi.weights for w in row if w > 0) / 2
        triple = grid_perturbation(mu, xi, a)
        want = a * triple.c0 ** p
        assert wasserstein_pow(mu, triple.mu_prime, p) == want
        xi_measure = xi.to_measure()
        assert wasserstein_pow(xi_measure, triple.nu1_prime, p) == want
        assert wasserstein_pow(xi_measure, triple.nu2_prime, p) == want


def test_grid_perturbation_rejects_bad_inputs():
    mu = DiscreteMeasure(
        [(Point2(F(0), F(0)), F(1, 3)), (Point2(F(2), F(0)), F(2, 3))]
    )
    xi = _product_grid(mu)
    with pytest.raises(ConstraintError):
        grid_perturbation(mu, xi, F(0))
    with pytest.raises(ConstraintError):
        grid_perturbation(mu, xi, F(1, 2))  # exceeds a doubled-row weight
    with pytest.raises(ConstraintError):
        grid_perturbation(mu, xi, F(1, 100), x_prime=Point2(F(1), F(0)))
    not_f = DiscreteMeasure(
        [(Point2(F(0), F(0)), F(1, 2)), (Point2(F(2), F(0)), F(1, 2))]
    )
    with pytest.raises(ConstraintError):
        grid_perturbation(not_f, _product_grid(not_f), F(1, 100))


def test_grid_perturbation_explicit_x_prime():
    mu = DiscreteMeasure(
        [(Point2(F(0), F(0)), F(1, 3)), (Point2(F(2), F(0)), F(2, 3))]
    )
    xi = _product_grid(mu)
    x_prime = Point2(F(1, 8), F(1, 8))
    triple = grid_perturbation(mu, xi, F(1, 18), x_prime=x_prime)
    assert triple.x_prime == x_prime
    assert triple.c0 == F(1, 8)