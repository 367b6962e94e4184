"""Seeded exact draws shared by the solver and construction tests."""

from fractions import Fraction

from maxwass.geometry import Point2
from maxwass.measure import DiscreteMeasure


def rand_frac(rng):
    """A multiple of 1/8 in [-3, 3]."""
    return Fraction(rng.randint(-24, 24), 8)


def rand_measure(rng, max_atoms=4):
    """An exact measure of 1 to max_atoms distinct rand_frac points with
    weights proportional to integers in 1..9."""
    n = rng.randint(1, max_atoms)
    pts = []
    while len(pts) < n:
        cand = Point2(rand_frac(rng), rand_frac(rng))
        if cand not in pts:
            pts.append(cand)
    parts = [rng.randint(1, 9) for _ in range(n)]
    total = sum(parts)
    return DiscreteMeasure([(p, Fraction(k, total)) for p, k in zip(pts, parts)])
