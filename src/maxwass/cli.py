"""Command-line front end.

Measures travel as JSON files; Dirac measures may be given inline with
--dirac "x,y".  Data goes to stdout, diagnostics to stderr, and a fixed
(command, arguments, seed) triple always produces byte-identical output.

Each subcommand declares only the options it reads.  The six measure
commands (dist, project, radon, interp, symmetric, perturb) take their
measures, --dirac, --mode and --format; all but perturb, which is always
exact, take --exact, and dist and symmetric take the exponent --p.
verify and reproduce-paper take --seed, which the environment variable
MAXWASS_SEED overrides, and --format.

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
from fractions import Fraction

from .geometry import DiagonalLine, Point2, require_in_square
from .measure import DiscreteMeasure, GridMeasure
from .scalars import (
    _MAX_DIGITS,
    ConstraintError,
    ParseError,
    _beyond_digit_bound,
    _fraction_from_str,
    root_p,
    scalar_to_json,
    shown,
    to_exact,
)
from .transport import _solve
from .verify import SUITES, run_suite
from .wgeom import (
    displacement_interpolation,
    grid_perturbation,
    project_measure,
    radon,
    symmetric_w1,
    symmetric_wp,
)


def _parse_p(text: str, exact: bool):
    beyond = _beyond_digit_bound(text)
    if beyond is not None:
        if beyond < 1:
            raise ParseError("the exponent p must be at least 1")
        raise ConstraintError(f"the exponent p has more than {_MAX_DIGITS} digits")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"cannot read exponent {shown(text)}")
    if value < 1:
        raise ParseError("the exponent p must be at least 1")
    if value.denominator == 1:
        return int(value)
    if exact:
        raise ParseError("exact arithmetic requires an integer exponent")
    try:
        return float(value)
    except OverflowError:
        raise ConstraintError(
            "a fractional exponent p must lie within the float range"
        ) from None


def _resolve_seed(args) -> int:
    env = os.environ.get("MAXWASS_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParseError(f"MAXWASS_SEED must be an integer, got {shown(env)}")
    return args.seed


# ---------------------------------------------------------------------------
# input parsing

def _parse_point(text: str) -> Point2:
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != 2:
        raise ParseError(f"expected a point as 'x1,x2', got {shown(text)}")
    return Point2(_fraction_from_str(parts[0]), _fraction_from_str(parts[1]))


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except ValueError as exc:  # bad JSON or UTF-8, or an int of too many digits
        raise ParseError(f"{path} is not valid JSON: {exc}")
    except RecursionError:
        raise ParseError(f"{path} is not valid JSON: nested too deeply") from None


def _exactify(mu: DiscreteMeasure) -> DiscreteMeasure:
    """mu in exact scalars, each float read through its shortest repr.
    Those weights sum to 1 within 1e-12 only, so each is divided by
    their exact sum."""
    if mu.exact:
        return mu
    atoms = [(Point2(to_exact(x.x1), to_exact(x.x2)), to_exact(w)) for x, w in mu.atoms]
    total = sum(w for _, w in atoms)
    return DiscreteMeasure([(x, w / total) for x, w in atoms])


def _require_in_mode(points, what: str, args) -> None:
    """In square mode, a ConstraintError naming the first of `points`
    outside Q = [-1,1]^2 as `what`.  Every atom a command reads or
    prints, and every point option it takes, passes here before any
    of it is printed."""
    if args.mode == "square":
        for x in points:
            require_in_square(x, what)


def _in_mode(mu: DiscreteMeasure, args) -> DiscreteMeasure:
    """mu, held to Q in square mode by `_require_in_mode`."""
    _require_in_mode((x for x, _ in mu.atoms), "atom", args)
    return mu


def _gather_measures(args, expected: int, exact: bool):
    """Measure slots fill from --dirac occurrences first, then files."""
    measures = [
        _in_mode(DiscreteMeasure.dirac(_parse_point(text)), args)
        for text in args.dirac or []
    ]
    for path in args.measures:
        data = _load_json(path)
        measures.append(_in_mode(DiscreteMeasure.from_json_dict(data), args))
    if len(measures) != expected:
        raise ParseError(
            f"expected {expected} measure(s) via files or --dirac, got {len(measures)}"
        )
    if exact:
        measures = [_exactify(mu) for mu in measures]
    return measures


# ---------------------------------------------------------------------------
# output helpers

def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _emit_json(obj) -> None:
    print(_json_text(obj))


def _emit_lines(lines) -> None:
    """Print the lines lines() yields, all at once: an exact number too
    long to print fails the command before anything is printed."""
    sys.stdout.write(_render_exact(lambda: "".join(f"{line}\n" for line in lines())))


def _measure_rows(mu: DiscreteMeasure):
    for x, w in mu.atoms:
        yield tuple(str(scalar_to_json(v)) for v in (x.x1, x.x2, w))


def _emit_measure(mu: DiscreteMeasure, args) -> None:
    """Print mu in args.format; in square mode, fail unless it lies in Q."""
    _in_mode(mu, args)

    def lines():
        if args.format == "json":
            yield _json_text(mu.to_json_dict())
        elif args.format == "csv":
            yield "x1,x2,weight"
            for row in _measure_rows(mu):
                yield ",".join(row)
        else:
            for x1, x2, w in _measure_rows(mu):
                yield f"atom ({x1}, {x2})  weight {w}"

    _emit_lines(lines)


def _labeled_lines(column: str, labeled, fmt: str):
    """(label, measure) pairs as CSV rows under a leading `column`, or
    as one indented table block per label."""
    if fmt == "csv":
        yield f"{column},x1,x2,weight"
        for label, mu in labeled:
            for row in _measure_rows(mu):
                yield ",".join((label, *row))
    else:
        for label, mu in labeled:
            yield f"{label}:"
            for x1, x2, w in _measure_rows(mu):
                yield f"  atom ({x1}, {x2})  weight {w}"


# ---------------------------------------------------------------------------
# subcommands

def cmd_dist(args) -> int:
    p = _parse_p(args.p, args.exact)
    mu, nu = _gather_measures(args, 2, args.exact)
    solution = _solve(mu, nu, p)
    power = solution.power
    plan = solution.plan(mu, nu) if args.plan or args.format == "csv" else None

    def render():
        rows = None
        if plan is not None:
            costs = [solution.cell_cost(i, j) for i, j, _ in plan.entries]
            buffer = io.StringIO()
            plan.to_csv(buffer, costs)
            rows = buffer.getvalue()
        if args.format == "json":
            report = {
                "p": p if isinstance(p, int) else scalar_to_json(p),
                "mode": args.mode,
                "exact": args.exact,
                "power": scalar_to_json(power),
                "distance": _float_distance(power, p),
            }
            text = _json_text(report) + "\n"
        elif args.format == "csv":
            text = rows
        elif args.exact:
            text = f"{power}\n"
        else:
            text = f"{_float_distance(power, p)!r}\n"
        return rows, text

    # the plan file is written only once everything the command prints
    # has rendered, so a command that fails leaves no file behind
    rows, text = _render_exact(render, _FLOAT_DISTANCE_HINT)
    if args.plan:
        try:
            with open(args.plan, "w", encoding="utf-8", newline="") as handle:
                handle.write(rows)
        except OSError as exc:
            raise ParseError(f"cannot write {args.plan}: {exc}") from None
    sys.stdout.write(text)
    return 0


#: what a dist call can print instead of an exact power too long to print
_FLOAT_DISTANCE_HINT = "; the table format without --exact prints the float distance"


def _render_exact(render, hint=""):
    """render(), or a ConstraintError, ending in `hint`, when an exact
    number in its text has more digits than Python converts an int to
    text."""
    try:
        return render()
    except ConstraintError:  # a ValueError too, with its own message
        raise
    except ValueError:
        raise ConstraintError(
            "an exact result has more digits than Python prints" + hint
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
    (mu,) = _gather_measures(args, 1, args.exact)
    line = DiagonalLine.parse(args.line)
    _emit_measure(project_measure(line, mu), args)
    return 0


def cmd_radon(args) -> int:
    (mu,) = _gather_measures(args, 1, args.exact)
    image = radon(mu)
    components = (("plus", image.plus), ("minus", image.minus))
    for _, component in components:
        _in_mode(component, args)

    def lines():
        if args.format == "json":
            yield _json_text(image.to_json_dict())
        else:
            yield from _labeled_lines("component", components, args.format)

    _emit_lines(lines)
    return 0


def cmd_interp(args) -> int:
    (mu,) = _gather_measures(args, 1, args.exact)
    corner = _parse_point(args.corner)
    _require_in_mode((corner,), "corner", args)
    s = _fraction_from_str(args.s)
    _emit_measure(displacement_interpolation(mu, corner, s), args)
    return 0


def cmd_symmetric(args) -> int:
    p = _parse_p(args.p, args.exact)
    if (args.line is None) == (args.center is None):
        raise ParseError("pass exactly one of --line or --center")
    if args.line is not None:
        if p != 1:
            raise ParseError("the mirror construction along a line works at p = 1")
        line = DiagonalLine.parse(args.line)
        mu, nu = _gather_measures(args, 2, args.exact)
        eta = symmetric_w1(line, mu, nu)
    else:
        center = _parse_point(args.center)
        _require_in_mode((center,), "center", args)
        (nu,) = _gather_measures(args, 1, args.exact)
        eta = symmetric_wp(center, nu, p)
    _emit_measure(eta, args)
    return 0


def cmd_perturb(args) -> int:
    (mu,) = _gather_measures(args, 1, exact=True)
    a = _fraction_from_str(args.a)
    x_prime = _parse_point(args.x_prime) if args.x_prime else None
    if args.grid:
        xi = GridMeasure.from_json_dict(_load_json(args.grid))
    else:
        w = mu.weights()
        xi = GridMeasure(mu, [[wi * wj for wj in w] for wi in w])
    triple = grid_perturbation(
        mu, xi, a, x_prime, offset_denominator=args.grid_resolution
    )
    measures = (
        ("mu_prime", triple.mu_prime),
        ("nu1_prime", triple.nu1_prime),
        ("nu2_prime", triple.nu2_prime),
    )
    for _, measure in measures:
        _in_mode(measure, args)

    def lines():
        if args.format == "json":
            yield _json_text(triple.to_json_dict())
            return
        if args.format == "table":
            yield f"moved mass a = {scalar_to_json(triple.a)}"
            yield f"offset c0 = {scalar_to_json(triple.c0)}"
            yield f"x_prime = ({scalar_to_json(triple.x_prime.x1)}, {scalar_to_json(triple.x_prime.x2)})"
        yield from _labeled_lines("measure", measures, args.format)

    _emit_lines(lines)
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


def cmd_verify(args) -> int:
    seed = _resolve_seed(args)
    reports = run_suite(args.suite, seed)
    order, agg = _aggregate_reports(reports)
    all_passed = all(agg[name]["failures"] == 0 for name in order)
    if args.format == "json":
        _emit_json(
            {
                "suite": args.suite,
                "seed": seed,
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


# ---------------------------------------------------------------------------
# parser assembly

def _add_format(sub, default: str, choices=("json", "csv", "table")) -> None:
    sub.add_argument(
        "--format",
        choices=choices,
        default=default,
        help=f"output format (default {default})",
    )


def _add_measure_options(sub, count, default_format: str) -> None:
    """The measures, --dirac, --mode and --format of a measure command."""
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
    sub.add_argument(
        "--mode",
        choices=("plane", "square"),
        default="plane",
        help="geometry: the full plane or the square [-1,1]^2",
    )
    _add_format(sub, default_format)


def _add_exact(sub) -> None:
    sub.add_argument(
        "--exact", action="store_true",
        help="exact rational arithmetic; distances print as p-th powers",
    )


def _add_p(sub) -> None:
    sub.add_argument("--p", default="2", help="transport exponent (default 2)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="maxwass",
        description="optimal transport over the max metric on the plane and the square",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("dist", help="Wasserstein distance between two measures")
    _add_measure_options(p_dist, 2, "table")
    _add_exact(p_dist)
    _add_p(p_dist)
    p_dist.add_argument("--plan", metavar="FILE", help="write the optimal plan CSV here")
    p_dist.set_defaults(func=cmd_dist)

    p_proj = sub.add_parser("project", help="push a measure onto a diagonal line")
    _add_measure_options(p_proj, 1, "json")
    _add_exact(p_proj)
    p_proj.add_argument(
        "--line", required=True, metavar="EPS,A",
        help="diagonal line, e.g. '+,0' for x2 = x1 or '-,1' for x2 = -x1 + 1",
    )
    p_proj.set_defaults(func=cmd_project)

    p_radon = sub.add_parser("radon", help="both diagonal projections of a measure")
    _add_measure_options(p_radon, 1, "json")
    _add_exact(p_radon)
    p_radon.set_defaults(func=cmd_radon)

    p_interp = sub.add_parser(
        "interp", help="displacement interpolation toward a co-diagonal point"
    )
    _add_measure_options(p_interp, 1, "json")
    _add_exact(p_interp)
    p_interp.add_argument("--s", required=True, help="interpolation time in [0, 1]")
    p_interp.add_argument(
        "--corner", required=True, metavar="X,Y",
        help="the point the measure contracts toward",
    )
    p_interp.set_defaults(func=cmd_interp)

    p_sym = sub.add_parser(
        "symmetric", help="mirror a measure across a line (p=1) or a point (p>1)"
    )
    _add_measure_options(p_sym, "1 or 2", "json")
    _add_exact(p_sym)
    _add_p(p_sym)
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
    _add_measure_options(p_pert, 1, "json")
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
        help="automatic x_prime offset is c/N along the diagonal, N > 2 (default 8)",
    )
    p_pert.set_defaults(func=cmd_perturb)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument(
        "suite", help="one of %s or 'all'" % ", ".join(sorted(SUITES))
    )
    p_repro = sub.add_parser(
        "reproduce-paper", help="run every verification suite, as verify all does"
    )
    p_repro.set_defaults(suite="all")
    for p_run in (p_verify, p_repro):
        p_run.add_argument(
            "--seed", type=int, default=0,
            help="randomness seed (env MAXWASS_SEED overrides)",
        )
        _add_format(p_run, "table", choices=("json", "table"))
        p_run.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        message, code = exc, 2
    except ConstraintError as exc:
        message, code = exc, 3
    except OverflowError:  # float arithmetic on an exact value beyond the float range
        message, code = "a value lies beyond the float range; --exact computes it exactly", 3
    print(f"error: {message}", file=sys.stderr)
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
