"""Command-line front end.

Measures travel as JSON files; Dirac measures may be given inline with
--dirac "x,y".  Data goes to stdout, diagnostics to stderr, and a fixed
(command, arguments, seed) triple always produces byte-identical output.

Exit codes: 0 success (all checks passed for verify), 1 verification
failure, 2 unusable input (parse errors, unknown suites, p < 1), and
3 violated mathematical preconditions (points outside the square in
square mode, constructions applied outside their domain).
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from .geometry import DiagonalLine, Point2
from .measure import DiscreteMeasure, GridMeasure
from .scalars import (
    ConstraintError,
    ParseError,
    _fraction_from_str,
    root_p,
    scalar_to_json,
    to_exact,
)
from .transport import TransportPlan, _solve
from .verify import SUITES, run_suite
from .wgeom import (
    displacement_interpolation,
    grid_perturbation,
    project_measure,
    radon,
    symmetric_w1,
    symmetric_wp,
)


@dataclass(frozen=True)
class RunConfig:
    """Shared run options resolved from flags and the environment."""

    mode: str = "plane"
    p: object = 2
    exact: bool = False
    seed: int = 0
    grid_resolution: int = 8
    output_format: str = "table"

    @property
    def square(self) -> bool:
        return self.mode == "square"


def _parse_p(text: str, exact: bool):
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"cannot read exponent {text!r}")
    if value < 1:
        raise ParseError("the exponent p must be at least 1")
    if value.denominator == 1:
        return int(value)
    if exact:
        raise ParseError("exact arithmetic requires an integer exponent")
    return float(value)


def _resolve_seed(args) -> int:
    env = os.environ.get("MAXWASS_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParseError(f"MAXWASS_SEED must be an integer, got {env!r}")
    return args.seed


def _config(args, default_format: str) -> RunConfig:
    exact = bool(getattr(args, "exact", False))
    fmt = getattr(args, "format", None) or default_format
    resolution = getattr(args, "grid_resolution", 8)
    if resolution < 1:
        raise ParseError("--grid-resolution must be a positive integer")
    return RunConfig(
        mode=getattr(args, "mode", "plane"),
        p=_parse_p(getattr(args, "p", "2"), exact),
        exact=exact,
        seed=_resolve_seed(args),
        grid_resolution=resolution,
        output_format=fmt,
    )


# ---------------------------------------------------------------------------
# input parsing

def _parse_point(text: str) -> Point2:
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != 2:
        raise ParseError(f"expected a point as 'x1,x2', got {text!r}")
    return Point2(_fraction_from_str(parts[0]), _fraction_from_str(parts[1]))


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}")


def _exactify(mu: DiscreteMeasure) -> DiscreteMeasure:
    if mu.exact:
        return mu
    return DiscreteMeasure(
        [
            (Point2(to_exact(x.x1), to_exact(x.x2)), to_exact(w))
            for x, w in mu.atoms
        ]
    )


def _gather_measures(args, config: RunConfig, expected: int):
    """Measure slots fill from --dirac occurrences first, then files."""
    measures = []
    for text in getattr(args, "dirac", None) or []:
        point = _parse_point(text)
        measures.append(DiscreteMeasure.dirac(point, square_mode=config.square))
    for path in getattr(args, "measures", None) or []:
        data = _load_json(path)
        measures.append(
            DiscreteMeasure.from_json_dict(data, square_mode=config.square)
        )
    if len(measures) != expected:
        raise ParseError(
            f"expected {expected} measure(s) via files or --dirac, got {len(measures)}"
        )
    if config.exact:
        measures = [_exactify(mu) for mu in measures]
    return measures


# ---------------------------------------------------------------------------
# output helpers

def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _measure_rows(mu: DiscreteMeasure):
    for x, w in mu.atoms:
        yield scalar_to_json(x.x1), scalar_to_json(x.x2), scalar_to_json(w)


def _emit_measure(mu: DiscreteMeasure, config: RunConfig) -> None:
    if config.output_format == "json":
        _emit_json(mu.to_json_dict())
    elif config.output_format == "csv":
        print("x1,x2,weight")
        for row in _measure_rows(mu):
            print(",".join(str(v) for v in row))
    else:
        for x1, x2, w in _measure_rows(mu):
            print(f"atom ({x1}, {x2})  weight {w}")


# ---------------------------------------------------------------------------
# subcommands

def cmd_dist(args) -> int:
    config = _config(args, default_format="table")
    mu, nu = _gather_measures(args, config, 2)
    power, entries = _solve(mu, nu, config.p)
    if args.plan or config.output_format == "csv":
        plan = TransportPlan(mu, nu, entries)
        rows = io.StringIO()
        _render_exact(lambda: plan.to_csv(rows, config.p))
        if args.plan:
            with open(args.plan, "w", encoding="utf-8", newline="") as handle:
                handle.write(rows.getvalue())
    if config.output_format == "json":
        _emit_json(
            {
                "p": config.p if isinstance(config.p, int) else scalar_to_json(config.p),
                "mode": config.mode,
                "exact": config.exact,
                "power": _render_exact(lambda: scalar_to_json(power)),
                "distance": _float_distance(power, config.p),
            }
        )
    elif config.output_format == "csv":
        sys.stdout.write(rows.getvalue())
    elif config.exact:
        print(_render_exact(lambda: str(power)))
    else:
        print(repr(_float_distance(power, config.p)))
    return 0


def _render_exact(render):
    """render(), or a ConstraintError when an exact number in its text
    has more digits than Python converts an int to text."""
    try:
        return render()
    except ValueError:
        raise ConstraintError(
            "an exact result has more digits than Python prints; "
            "the table format without --exact prints the float distance"
        ) from None


def _float_distance(power, p) -> float:
    """The p-th root of power as a float, or a ConstraintError when the
    distance itself lies beyond the float range."""
    try:
        return float(root_p(power, p))
    except OverflowError:
        raise ConstraintError(
            "the distance exceeds the float range; "
            "--exact with the table format prints its exact p-th power"
        ) from None


def cmd_project(args) -> int:
    config = _config(args, default_format="json")
    (mu,) = _gather_measures(args, config, 1)
    line = DiagonalLine.parse(args.line)
    eta = project_measure(line, mu)
    if config.square:
        eta = DiscreteMeasure(eta.atoms, square_mode=True)
    _emit_measure(eta, config)
    return 0


def cmd_radon(args) -> int:
    config = _config(args, default_format="json")
    (mu,) = _gather_measures(args, config, 1)
    image = radon(mu)
    if config.output_format == "json":
        _emit_json(image.to_json_dict())
    elif config.output_format == "csv":
        print("component,x1,x2,weight")
        for label, comp in (("plus", image.plus), ("minus", image.minus)):
            for row in _measure_rows(comp):
                print(",".join([label] + [str(v) for v in row]))
    else:
        for label, comp in (("plus", image.plus), ("minus", image.minus)):
            print(f"{label}:")
            for x1, x2, w in _measure_rows(comp):
                print(f"  atom ({x1}, {x2})  weight {w}")
    return 0


def cmd_interp(args) -> int:
    config = _config(args, default_format="json")
    (mu,) = _gather_measures(args, config, 1)
    corner = _parse_point(args.corner)
    s = _fraction_from_str(args.s)
    eta = displacement_interpolation(mu, corner, s)
    if config.square:
        eta = DiscreteMeasure(eta.atoms, square_mode=True)
    _emit_measure(eta, config)
    return 0


def cmd_symmetric(args) -> int:
    config = _config(args, default_format="json")
    if (args.line is None) == (args.center is None):
        raise ParseError("pass exactly one of --line or --center")
    if args.line is not None:
        if config.p != 1:
            raise ParseError("the mirror construction along a line works at p = 1")
        line = DiagonalLine.parse(args.line)
        mu, nu = _gather_measures(args, config, 2)
        eta = symmetric_w1(line, mu, nu)
    else:
        center = _parse_point(args.center)
        (nu,) = _gather_measures(args, config, 1)
        eta = symmetric_wp(center, nu, config.p, square_mode=config.square)
    if config.square:
        eta = DiscreteMeasure(eta.atoms, square_mode=True)
    _emit_measure(eta, config)
    return 0


def cmd_perturb(args) -> int:
    config = _config(args, default_format="json")
    (mu,) = _gather_measures(args, config, 1)
    mu = _exactify(mu)
    a = _fraction_from_str(args.a)
    x_prime = _parse_point(args.x_prime) if args.x_prime else None
    if args.grid:
        xi = GridMeasure.from_json_dict(_load_json(args.grid))
    else:
        w = mu.weights()
        xi = GridMeasure(mu, [[wi * wj for wj in w] for wi in w])
    triple = grid_perturbation(
        mu, xi, a, x_prime, offset_denominator=config.grid_resolution
    )
    if config.output_format == "json":
        _emit_json(triple.to_json_dict())
    elif config.output_format == "csv":
        print("measure,x1,x2,weight")
        for label, m in (
            ("mu_prime", triple.mu_prime),
            ("nu1_prime", triple.nu1_prime),
            ("nu2_prime", triple.nu2_prime),
        ):
            for row in _measure_rows(m):
                print(",".join([label] + [str(v) for v in row]))
    else:
        print(f"moved mass a = {scalar_to_json(triple.a)}")
        print(f"offset c0 = {scalar_to_json(triple.c0)}")
        print(f"x_prime = ({scalar_to_json(triple.x_prime.x1)}, {scalar_to_json(triple.x_prime.x2)})")
        for label, m in (
            ("mu_prime", triple.mu_prime),
            ("nu1_prime", triple.nu1_prime),
            ("nu2_prime", triple.nu2_prime),
        ):
            print(f"{label}:")
            for x1, x2, w in _measure_rows(m):
                print(f"  atom ({x1}, {x2})  weight {w}")
    return 0


def _aggregate_reports(reports):
    order, agg = [], {}
    for report in reports:
        if report.name not in agg:
            order.append(report.name)
            agg[report.name] = {
                "instances": 0,
                "failures": 0,
                "max_residual": 0.0,
                "notes": [],
                "failure_samples": [],
            }
        entry = agg[report.name]
        entry["instances"] += report.instances
        entry["failures"] += len(report.failures)
        entry["max_residual"] = max(entry["max_residual"], report.max_residual)
        for note in report.notes:
            if note not in entry["notes"]:
                entry["notes"].append(note)
        for failure in report.failures[:2]:
            if len(entry["failure_samples"]) < 4:
                entry["failure_samples"].append(repr(failure))
    return order, agg


def _run_verification(suite: str, config: RunConfig) -> int:
    reports = run_suite(suite, config.seed)
    order, agg = _aggregate_reports(reports)
    all_passed = all(agg[name]["failures"] == 0 for name in order)
    if config.output_format == "json":
        _emit_json(
            {
                "suite": suite,
                "seed": config.seed,
                "passed": all_passed,
                "statements": [dict(agg[name], name=name) for name in order],
            }
        )
    else:
        width = max(len(name) for name in order)
        for name in order:
            entry = agg[name]
            status = "PASS" if entry["failures"] == 0 else "FAIL"
            print(
                f"{status}  {name:<{width}}  instances={entry['instances']}"
                f"  failures={entry['failures']}"
                f"  max_residual={entry['max_residual']!r}"
            )
            for note in entry["notes"]:
                print(f"      note: {note}")
            for sample in entry["failure_samples"]:
                print(f"      failure: {sample}")
        passed = sum(1 for name in order if agg[name]["failures"] == 0)
        print(f"passed {passed}/{len(order)} statements")
    return 0 if all_passed else 1


def cmd_verify(args) -> int:
    config = _config(args, default_format="table")
    return _run_verification(args.suite, config)


def cmd_reproduce(args) -> int:
    config = _config(args, default_format="table")
    return _run_verification("all", config)


# ---------------------------------------------------------------------------
# parser assembly

def _add_common(sub, p=True, mode=True, exact=True):
    if p:
        sub.add_argument("--p", default="2", help="transport exponent (default 2)")
    if mode:
        sub.add_argument(
            "--mode",
            choices=("plane", "square"),
            default="plane",
            help="geometry: the full plane or the square [-1,1]^2",
        )
    if exact:
        sub.add_argument(
            "--exact",
            action="store_true",
            help="exact rational arithmetic; distances print as p-th powers",
        )
    sub.add_argument(
        "--seed",
        type=int,
        default=0,
        help="randomness seed (env MAXWASS_SEED overrides)",
    )
    sub.add_argument(
        "--format",
        choices=("json", "csv", "table"),
        default=None,
        help="output format (default depends on the subcommand)",
    )


def _add_measure_args(sub, count):
    sub.add_argument(
        "measures",
        nargs="*",
        metavar="MEASURE.json",
        help=f"measure file(s); {count} needed counting --dirac",
    )
    sub.add_argument(
        "--dirac",
        action="append",
        metavar="X,Y",
        help="inline Dirac measure at the given point (repeatable)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="maxwass",
        description="optimal transport over the max metric on the plane and the square",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("dist", help="Wasserstein distance between two measures")
    _add_measure_args(p_dist, 2)
    _add_common(p_dist)
    p_dist.add_argument("--plan", metavar="FILE", help="write the optimal plan CSV here")
    p_dist.set_defaults(func=cmd_dist)

    p_proj = sub.add_parser("project", help="push a measure onto a diagonal line")
    _add_measure_args(p_proj, 1)
    _add_common(p_proj)
    p_proj.add_argument(
        "--line", required=True, metavar="EPS,A",
        help="diagonal line, e.g. '+,0' for x2 = x1 or '-,1' for x2 = -x1 + 1",
    )
    p_proj.set_defaults(func=cmd_project)

    p_radon = sub.add_parser("radon", help="both diagonal projections of a measure")
    _add_measure_args(p_radon, 1)
    _add_common(p_radon)
    p_radon.set_defaults(func=cmd_radon)

    p_interp = sub.add_parser(
        "interp", help="displacement interpolation toward a co-diagonal point"
    )
    _add_measure_args(p_interp, 1)
    _add_common(p_interp)
    p_interp.add_argument("--s", required=True, help="interpolation time in [0, 1]")
    p_interp.add_argument(
        "--corner", required=True, metavar="X,Y",
        help="the point the measure contracts toward",
    )
    p_interp.set_defaults(func=cmd_interp)

    p_sym = sub.add_parser(
        "symmetric", help="mirror a measure across a line (p=1) or a point (p>1)"
    )
    _add_measure_args(p_sym, "1 or 2")
    _add_common(p_sym)
    p_sym.add_argument(
        "--line", metavar="EPS,A",
        help="mirror line: takes the two measures (mu nu) and shifts nu off mu's line",
    )
    p_sym.add_argument(
        "--center", metavar="X,Y", help="mirror point: dilates the measure by 2 about it"
    )
    p_sym.set_defaults(func=cmd_symmetric)

    p_pert = sub.add_parser(
        "perturb", help="equal-projection triple witnessing loss of general position"
    )
    _add_measure_args(p_pert, 1)
    _add_common(p_pert)
    p_pert.add_argument("--a", required=True, help="mass to relocate (exact rational)")
    p_pert.add_argument(
        "--x-prime", metavar="X,Y",
        help="target point on x2 = x1 (default: derived from --grid-resolution)",
    )
    p_pert.add_argument(
        "--grid", metavar="FILE", help="grid measure JSON (default: product weights)"
    )
    p_pert.add_argument(
        "--grid-resolution", type=int, default=8, metavar="N",
        help="automatic x_prime offset is c/N along the diagonal (default 8)",
    )
    p_pert.set_defaults(func=cmd_perturb)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument(
        "suite", help="one of %s or 'all'" % ", ".join(sorted(SUITES))
    )
    _add_common(p_verify, p=False, mode=False, exact=False)
    p_verify.set_defaults(func=cmd_verify)

    p_repro = sub.add_parser(
        "reproduce-paper", help="run every verification suite, as verify all does"
    )
    _add_common(p_repro, p=False, mode=False, exact=False)
    p_repro.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConstraintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
