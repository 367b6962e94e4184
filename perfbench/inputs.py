"""Seeded inputs and reference optima for the dist workloads.

Each instance is a pair of measure JSON files drawn like
``maxwass.verify.rand_measure`` (points on the 1/8 grid in [-3, 3]^2,
weights r_i / sum(r) with r_i in 1..12), plus an exponent p cycling
through 1, 2, 3 and the optimal transport cost, the p-th power of W_p,
computed by scipy's HiGHS linear-programming solver on the same cost
matrix.  The reference never touches maxwass, so it is an independent
check of every answer the benchmark reads back.

This runs in its own process because scipy and numpy would otherwise
inflate the peak RSS of the measured workload process:

    python3 perfbench/inputs.py --workload dist-exact --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

SIZES = {"dist-exact": 20, "dist-float": 40}
# instances per run; a run that outlasts the pool cycles through it again
POOL = 160
GRID = 8  # points lie on the 1/GRID grid
BOX = 3  # ... inside [-BOX, BOX]^2


def draw_measure(rng: random.Random, n: int):
    """n distinct grid points, as integer multiples of 1/GRID, and n
    integer weight parts."""
    seen, points = set(), []
    while len(points) < n:
        point = (rng.randint(-BOX * GRID, BOX * GRID), rng.randint(-BOX * GRID, BOX * GRID))
        if point not in seen:
            seen.add(point)
            points.append(point)
    return points, [rng.randint(1, 12) for _ in range(n)]


def measure_json(points, parts, exact: bool) -> dict:
    """Exact measures carry rational strings; float measures carry JSON
    numbers, which maxwass parses as floats (a string would silently
    select the exact solver)."""
    total = sum(parts)
    if exact:
        def coord(k):
            return str(Fraction(k, GRID))

        def weight(r):
            return str(Fraction(r, total))
    else:
        def coord(k):
            return k / GRID

        def weight(r):
            return r / total
    return {
        "atoms": [
            {"x": [coord(a), coord(b)], "w": weight(r)}
            for (a, b), r in zip(points, parts)
        ]
    }


def reference_cost(source, target, p: int) -> float:
    """min sum c_ij x_ij over couplings, c_ij = dm(x_i, y_j)^p, by HiGHS."""
    (xs, rs), (ys, qs) = source, target
    m, n = len(xs), len(ys)
    cost = np.array(
        [[max(abs(a1 - b1), abs(a2 - b2)) / GRID for b1, b2 in ys] for a1, a2 in xs]
    ) ** p
    cells = np.arange(m * n)
    rows = np.concatenate([cells // n, m + cells % n])
    a_eq = coo_matrix(
        (np.ones(2 * m * n), (rows, np.concatenate([cells, cells]))), shape=(m + n, m * n)
    ).tocsr()
    b_eq = np.array([r / sum(rs) for r in rs] + [q / sum(qs) for q in qs])
    result = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if result.status != 0:
        raise RuntimeError(f"HiGHS failed on a reference instance: {result.message}")
    return float(result.fun)


def make_instances(workload: str, seed: int, out: Path, pool: int = POOL) -> list:
    """Write the measure files and instances.json under out; return the
    instance descriptions."""
    exact = workload == "dist-exact"
    rng = random.Random(f"perfbench:{workload}:{seed}")
    instances = []
    for k in range(pool):
        source = draw_measure(rng, SIZES[workload])
        target = draw_measure(rng, SIZES[workload])
        p = 1 + k % 3
        paths = []
        for side, (points, parts) in (("a", source), ("b", target)):
            path = out / f"{side}{k}.json"
            path.write_text(json.dumps(measure_json(points, parts, exact)))
            paths.append(str(path))
        instances.append(
            {"a": paths[0], "b": paths[1], "p": p, "ref": reference_cost(source, target, p)}
        )
    (out / "instances.json").write_text(json.dumps(instances))
    return instances


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SIZES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    make_instances(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
