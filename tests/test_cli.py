"""End-to-end tests for the command line interface."""

import contextlib
import csv
import io
import argparse
import json
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxwass import cli, geometry, transport
from maxwass.measure import DiscreteMeasure
from maxwass.transport import brute_force_wasserstein

PKG = [sys.executable, "-m", "maxwass"]
DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run_cli(*args, env_extra=None, timeout=120):
    env = dict(os.environ)
    env.pop("MAXWASS_SEED", None)
    # the child imports this checkout's package, installed or not
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        PKG + list(args), capture_output=True, text=True, env=env, timeout=timeout
    )


@pytest.fixture
def measures(tmp_path):
    """Two simple measures plus one in the generic family."""

    def dump(name, atoms):
        path = tmp_path / name
        path.write_text(json.dumps({"atoms": atoms}))
        return str(path)

    mu = dump(
        "mu.json",
        [{"x": ["0", "0"], "w": "1/2"}, {"x": ["2", "0"], "w": "1/2"}],
    )
    nu = dump("nu.json", [{"x": ["4", "0"], "w": "1"}])
    fam = dump(
        "fam.json",
        [
            {"x": ["0", "0"], "w": "1/6"},
            {"x": ["1", "1/2"], "w": "1/3"},
            {"x": ["1/2", "-1/4"], "w": "1/2"},
        ],
    )
    return {"mu": mu, "nu": nu, "fam": fam}


def test_dist_exact_prints_power(measures):
    out = run_cli("dist", measures["mu"], measures["nu"], "--p", "2", "--exact")
    assert out.returncode == 0
    # (1/2)*16 + (1/2)*4 = 10
    assert out.stdout == "10\n"


def test_dist_float_prints_distance(measures):
    out = run_cli("dist", measures["mu"], measures["nu"], "--p", "2")
    assert out.returncode == 0
    assert abs(float(out.stdout) - 10 ** 0.5) < 1e-9


def test_dist_json_fields(measures):
    out = run_cli(
        "dist", measures["mu"], measures["nu"], "--p", "2", "--exact",
        "--format", "json",
    )
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data == {
        "p": 2,
        "mode": "plane",
        "exact": True,
        "power": "10",
        "distance": pytest.approx(10 ** 0.5),
    }


def test_dist_dirac_shorthand():
    out = run_cli("dist", "--dirac=-1,-1", "--dirac", "1,1", "--p", "1", "--exact")
    assert out.returncode == 0
    assert out.stdout == "2\n"


def test_dist_json_power_is_rooted_distance(tmp_path):
    """In float mode the printed power is the total the distance roots."""
    rng = random.Random(1)  # a separate plan-cost sum would differ here
    paths = []
    for name in ("a.json", "b.json"):
        pts = [[rng.uniform(-3, 3), rng.uniform(-3, 3)] for _ in range(4)]
        parts = [rng.randint(1, 9) for _ in range(4)]
        atoms = [{"x": x, "w": k / sum(parts)} for x, k in zip(pts, parts)]
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps({"atoms": atoms}))
    out = run_cli("dist", *map(str, paths), "--p", "2", "--format", "json")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["exact"] is False
    assert data["distance"] == data["power"] ** 0.5


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_dist_exact_power_beyond_float_range(fmt):
    # 100^400 overflows a float; its 400th root does not
    out = run_cli(
        "dist", "--dirac", "0,0", "--dirac", "100,0", "--p", "400", "--format", fmt
    )
    assert out.returncode == 0
    if fmt == "json":
        distance = json.loads(out.stdout)["distance"]
    else:
        distance = float(out.stdout)
    assert distance == pytest.approx(100, rel=1e-12)


@pytest.mark.parametrize(
    "args",
    [
        ["--dirac", "0,0", "--dirac", "2,0", "--p", "1e400"],
        ["--dirac", "0,0", "--dirac", "2,0", "--p", "100000000"],
        ["--dirac", "0,0", "--dirac", "100,0", "--p", "3000", "--exact"],
        ["--dirac", "0,0", "--dirac", "100,0", "--p", "3000", "--format", "json"],
        ["--dirac", "0,0", "--dirac", "100,0", "--p", "3000", "--format", "csv"],
        ["--dirac", "0,0", "--dirac", "2,0", "--p", "1e30000000"],
        ["--dirac", "0,0", "--dirac", "2,0", "--p", "1" + "0" * 400 + ".5"],
        ["--dirac", "0,0", "--dirac", "2,0", "--p", "1e99999999999999999999"],
    ],
    ids=["p-1e400", "p-1e8", "3000-exact", "3000-json", "3000-csv", "p-1e30000000",
         "p-fractional-1e400", "p-exponent-beyond-decimal-range"],
)
def test_dist_huge_exact_power_is_constraint_error(args):
    """A cost dm^p too large to build, an exact result too long to
    print, or an exponent too large to read is one error line and exit
    3.  Exponent text like 1e30000000 is judged by its decimal exponent
    before Fraction would spend a minute building 10**30000000."""
    out = run_cli("dist", *args, timeout=20)
    assert out.returncode == 3
    assert out.stdout == ""
    assert out.stderr.startswith("error: ")
    assert out.stderr.count("\n") == 1


def test_dist_tiny_exponent_beyond_decimal_range_is_parse_error_at_once():
    """Decimal reads no exponent beyond 10**18, and Fraction would build
    10**|exponent|: the digit bound still judges the text."""
    out = run_cli(
        "dist", "--dirac", "0,0", "--dirac", "2,0", "--p", "1e-99999999999999999999",
        timeout=20,
    )
    assert out.returncode == 2
    assert out.stderr == "error: the exponent p must be at least 1\n"


def test_dist_tiny_exponent_text_is_parse_error_at_once():
    out = run_cli(
        "dist", "--dirac", "0,0", "--dirac", "2,0", "--p", "1e-30000000", timeout=20
    )
    assert out.returncode == 2
    assert out.stderr == "error: the exponent p must be at least 1\n"


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("x, distance", [("1", 1.0), ("0", 0.0)])
def test_dist_exponent_beyond_float_range(fmt, x, distance, capsys):
    """p = 10^400 does not fit a float, but W_p of two Diracs at
    distance 1 (or 0) does."""
    argv = ["dist", "--dirac", "0,0", "--dirac", f"{x},0", "--p", "1e400"]
    assert cli.main(argv + ["--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        assert json.loads(out)["distance"] == distance
    else:
        assert out == f"{distance!r}\n"


@pytest.mark.parametrize(
    "x, fmt, text",
    [
        ("1e-200", "table", "1e-200"),
        ("1e-200", "json", "1e-200"),
        ("1e200", "table", "1e+200"),
        ("1e200", "json", "1e+200"),
    ],
    ids=["tiny-table", "tiny-json", "huge-table", "huge-json"],
)
def test_dist_roots_a_power_outside_the_float_range(x, fmt, text, capsys):
    """The power 10^-400 underflows float() to 0.0 and 10^400 overflows
    it, yet each distance is a float: it is rooted from the power's exact
    mantissa and exponent."""
    argv = ["dist", "--dirac", "0,0", "--dirac", f"{x},0", "--p", "2", "--format", fmt]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        assert repr(json.loads(out)["distance"]) == text
    else:
        assert out == f"{text}\n"


def test_dist_exact_cost_beyond_the_cost_bits(capsys):
    argv = ["dist", "--dirac", "0,0", "--dirac", "2,1", "--p", "100000", "--exact"]
    assert cli.main(argv) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: an exact cost dm^p would exceed 65536 bits; use a smaller p\n"


def test_dist_huge_exact_power_prints_its_float_distance():
    out = run_cli(
        "dist", "--dirac", "0,0", "--dirac", "100,0", "--p", "3000", timeout=20
    )
    assert out.returncode == 0
    assert out.stdout == "100.0\n"


@pytest.mark.parametrize("p", ["1", "2"])
@pytest.mark.parametrize(
    "flags",
    [[], ["--format", "json"], ["--exact", "--format", "json"]],
    ids=["table", "json", "exact-json"],
)
def test_dist_distance_beyond_float_range_is_constraint_error(p, flags):
    # W_p = 10^400 itself overflows a float, whatever p
    out = run_cli("dist", "--dirac", "0,0", "--dirac", "1e400,0", "--p", p, *flags)
    assert out.returncode == 3
    assert out.stdout == ""
    assert out.stderr == (
        "error: the distance exceeds the float range; "
        "--exact with the table format prints its exact p-th power\n"
    )


@pytest.mark.parametrize("p", [1, 2])
def test_dist_exact_table_prints_power_beyond_float_range(p):
    out = run_cli(
        "dist", "--dirac", "0,0", "--dirac", "1e400,0", "--p", str(p), "--exact"
    )
    assert out.returncode == 0
    assert out.stdout == f"{10 ** (400 * p)}\n"


def test_dist_csv_beyond_float_range_needs_no_root():
    out = run_cli(
        "dist", "--dirac", "0,0", "--dirac", "1e400,0", "--p", "2", "--format", "csv"
    )
    assert out.returncode == 0
    assert out.stdout.splitlines()[1].endswith("," + str(10 ** 800))


@pytest.fixture
def big_float(tmp_path):
    """A float measure whose squared cost to the origin, 1e400, does not
    fit a float, and a small float measure to pair it with."""
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"atoms": [
        {"x": [1e200, 0], "w": 0.5}, {"x": [0, 0], "w": 0.5},
    ]}))
    small = tmp_path / "small.json"
    small.write_text(json.dumps({"atoms": [
        {"x": [0, 1], "w": 0.25}, {"x": [2, 3], "w": 0.75},
    ]}))
    return str(big), str(small)


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("dirac", [False, True], ids=["file", "dirac"])
def test_dist_float_cost_beyond_float_range_is_constraint_error(big_float, fmt, dirac):
    big, small = big_float
    other = ["--dirac", "0,0"] if dirac else [small]
    out = run_cli("dist", big, *other, "--p", "2", "--format", fmt)
    assert out.returncode == 3
    assert out.stdout == ""
    assert out.stderr.startswith("error: ")
    assert out.stderr.count("\n") == 1
    assert "--exact" in out.stderr


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_dist_float_exponent_beyond_float_range(tmp_path, fmt, capsys):
    """A float solve needs float(p): p = 10^400 is its own error, not a
    cost overflow, though 0.5^p would underflow to 0."""
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"atoms": [{"x": [0.5, 0], "w": 1.0}]}))
    argv = ["dist", str(path), "--dirac", "0,0", "--p", "1e400", "--format", fmt]
    assert cli.main(argv) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: the exponent p exceeds the float range\n"


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("atoms", [1, 2])
def test_dist_float_cost_that_rounds_to_infinity(tmp_path, fmt, atoms, capsys):
    """dm((1e308, 0), (-1e308, y)) rounds to inf without an OverflowError:
    dist exits 3 as for any cost beyond the float range, one-atom side or
    not, and --exact computes it."""
    left, right = tmp_path / "left.json", tmp_path / "right.json"
    left.write_text(json.dumps({"atoms": [{"x": [1e308, 0], "w": 1}]}))
    ys = range(atoms)
    right.write_text(json.dumps({"atoms": [{"x": [-1e308, y], "w": 1 / atoms} for y in ys]}))
    argv = ["dist", str(left), str(right), "--p", "1"]
    assert cli.main([*argv, "--format", fmt]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: a transport cost exceeds the float range; --exact")
    assert cli.main([*argv, "--exact"]) == 0
    assert capsys.readouterr().out == f"{2 * 10**308}\n"


def test_dist_float_cost_in_range_at_p1(big_float):
    out = run_cli("dist", *big_float, "--p", "1")
    assert out.returncode == 0
    assert out.stdout == "5e+199\n"


def test_dist_exact_survives_a_float_cost_overflow(big_float):
    big, _ = big_float
    out = run_cli("dist", big, "--dirac", "0,0", "--p", "2", "--exact")
    assert out.returncode == 0
    assert out.stdout == f"{10 ** 400 // 2}\n"


def test_dist_golden_plan(tmp_path):
    """A fixed 20x20 exact instance with mixed denominators pins the
    optimal vertex the simplex returns: a pivot-rule change that moves
    it fails here and must be listed with its new plan."""
    plan_file = tmp_path / "plan.csv"
    out = run_cli(
        "dist", str(DATA / "golden_mu.json"), str(DATA / "golden_nu.json"),
        "--p", "2", "--exact", "--plan", str(plan_file),
    )
    assert out.returncode == 0
    assert out.stdout == "11615507/9011520\n"
    assert plan_file.read_text() == (DATA / "golden_plan.csv").read_text()


@pytest.mark.parametrize(
    "coord, flags",
    [("NaN", []), ("Infinity", []), ("Infinity", ["--exact"]), ('"Infinity"', [])],
)
def test_non_finite_scalar_is_parse_error(tmp_path, coord, flags):
    path = tmp_path / "bad.json"
    path.write_text('{"atoms": [{"x": [%s, 0], "w": 1}]}' % coord)
    out = run_cli("dist", str(path), "--dirac", "0,0", *flags)
    assert out.returncode == 2
    assert out.stdout == ""
    assert "error:" in out.stderr


@pytest.mark.parametrize(
    "x, where",
    [(["0", "0"], "(0, 0)"), ([0.5, 0], "(0.5, 0)"), ([0.5, 0.25], "(0.5, 0.25)")],
    ids=["exact", "mixed", "float"],
)
def test_negative_weight_message_prints_numbers(tmp_path, capsys, x, where):
    """The weight and the point read as numbers, not as Python reprs."""
    path = tmp_path / "neg.json"
    atoms = [{"x": x, "w": "-1/2"}, {"x": ["1", "0"], "w": "3/2"}]
    path.write_text(json.dumps({"atoms": atoms}))
    assert cli.main(["dist", str(path), "--dirac", "0,0"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: negative weight -1/2 at {where}\n"
    assert "Fraction" not in err


@pytest.mark.parametrize("atoms", ["5", "null", '"abc"', "{}"])
def test_non_array_atoms_is_parse_error(tmp_path, atoms):
    path = tmp_path / "bad.json"
    path.write_text('{"atoms": %s}' % atoms)
    out = run_cli("dist", str(path), "--dirac", "0,0")
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == "error: measure JSON must be an object with an 'atoms' array\n"


_BEYOND_FLOAT_RANGE = {
    "big": [{"x": [1e308, 0], "w": 0.5}, {"x": [-1e308, 0], "w": 0.5}],
    "b2": [{"x": [1.5e308, 1.5e308], "w": 1}],
}


@pytest.mark.parametrize(
    "measure, args",
    [
        ("big", ["symmetric", "{m}", "--center", "0,0"]),
        ("b2", ["radon", "{m}"]),
        ("b2", ["symmetric", "--dirac", "1,1", "{m}", "--line", "+,0", "--p", "1"]),
    ],
    ids=["symmetric-center", "radon", "symmetric-line"],
)
def test_construction_beyond_float_range_is_constraint_error(measure, args, tmp_path, capsys):
    """A float construction whose atom overflows the float range prints
    nothing and exits 3, pointing to --exact, which computes it."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"atoms": _BEYOND_FLOAT_RANGE[measure]}))
    argv = [a.format(m=path) for a in args]
    for fmt in ("json", "csv", "table"):
        assert cli.main([*argv, "--format", fmt]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: atom (")
        assert "beyond the float range; --exact" in err
        assert err.count("\n") == 1
    for fmt in ("json", "csv", "table"):
        assert cli.main([*argv, "--format", fmt, "--exact"]) == 0
        assert "inf" not in capsys.readouterr().out.lower()


@pytest.mark.parametrize("where", ["missing/p.csv", "."], ids=["no-dir", "a-dir"])
def test_dist_plan_that_cannot_be_written_is_parse_error(where, tmp_path, capsys):
    plan = tmp_path / where
    argv = ["dist", "--dirac", "0,0", "--dirac", "1,1", "--plan", str(plan)]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot write {plan}: ")
    assert err.count("\n") == 1


def test_deeply_nested_json_is_parse_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 3000 + "]" * 3000)
    assert cli.main(["dist", str(path), "--dirac", "0,0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {path} is not valid JSON: nested too deeply\n"


@pytest.mark.parametrize("order", ["file-first", "dirac-first"])
def test_dist_float_one_atom_plan_prints_float_weights(order, tmp_path, capsys):
    """At p = 3/2 the solve is a float one: its one-atom plan prints float
    weights, as a plan with two atoms on each side does."""
    path = tmp_path / "m2.json"
    path.write_text(json.dumps({"atoms": [
        {"x": ["0", "0"], "w": "1/3"}, {"x": ["1", "0"], "w": "2/3"},
    ]}))
    dirac = ["--dirac", "0,1"]
    sides = [str(path), *dirac] if order == "file-first" else [*dirac, str(path)]
    assert cli.main(["dist", *sides, "--p", "3/2", "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [row["weight"] for row in rows] == [repr(1 / 3), repr(2 / 3)]


#: two atoms whose weights have 5,000 decimals, more digits than Python prints
_TINY_ATOMS = [
    {"x": ["0", "0"], "w": "0.3" + "0" * 4997 + "1"},
    {"x": ["1", "0"], "w": "0.6" + "9" * 4998},
]

_HOSTILE_FILES = {
    "big.json": json.dumps({"atoms": _BEYOND_FLOAT_RANGE["big"]}),
    "half.json": json.dumps({"atoms": [{"x": [0.5, 0], "w": 1}]}),
    "b2.json": json.dumps({"atoms": _BEYOND_FLOAT_RANGE["b2"]}),
    "far.json": json.dumps({"atoms": [{"x": [-1e308, 0], "w": 1}]}),
    "deep.json": "[" * 3000 + "]" * 3000,
    "nan.json": '{"atoms": [{"x": [NaN, 0], "w": 1}]}',
    "e999.json": '{"atoms": [{"x": [1e999, 0], "w": 1}]}',
    "digits.json": json.dumps({"atoms": [{"x": ["1" * 5000, "0"], "w": "1"}]}),
    "int5001.json": '{"atoms": [{"x": [%s, 0], "w": 1}]}' % ("1" * 5001),
    "e99.json": json.dumps({"atoms": [{"x": ["1e99999999", "0"], "w": "1"}]}),
    "tiny.json": json.dumps({"atoms": _TINY_ATOMS}),
    "bad-utf8.json": b'{"atoms": [{"x": ["\xff", 0], "w": 1}]}',
    "tgrid.json": json.dumps(
        {"base": {"atoms": _TINY_ATOMS}, "weights": [["1/2", "0"], ["0", "1/2"]]}
    ),
}


#: a float measure meeting an exact point argument beyond the float range
_OVERFLOW_CALLS = [
    ["project", "{d}/half.json", "--line", "+,1e400"],
    ["interp", "{d}/half.json", "--corner", "1e400,1e400", "--s", "1/2"],
    ["symmetric", "{d}/half.json", "--center", "1e400,0"],
    ["symmetric", "{d}/half.json", "{d}/half.json", "--line", "+,1e400", "--p", "1"],
]
_OVERFLOW_IDS = ["overflow-project-line", "overflow-interp-corner",
                 "overflow-symmetric-far-center", "overflow-symmetric-far-line"]


@pytest.mark.parametrize(
    "args",
    [
        ["symmetric", "{d}/big.json", "--center", "0,0"],
        ["radon", "{d}/b2.json", "--format", "csv"],
        ["symmetric", "--dirac", "1,1", "{d}/b2.json", "--line", "+,0", "--p", "1"],
        ["dist", "{d}/big.json", "{d}/far.json", "--p", "1"],
        ["dist", "--dirac", "0,0", "--dirac", "1,1", "--plan", "{d}/missing/p.csv"],
        ["dist", "--dirac", "0,0", "--dirac", "1,1", "--plan", "{d}"],
        ["dist", "{d}/deep.json", "--dirac", "0,0"],
        ["dist", "{d}/nan.json", "--dirac", "0,0"],
        ["dist", "{d}/e999.json", "--dirac", "0,0"],
        ["radon", "{d}/digits.json"],
        ["dist", "{d}/int5001.json", "--dirac", "0,0"],
        ["dist", "{d}/e99.json", "--dirac", "0,0", "--p", "1"],
        ["dist", "--dirac", "1e99999999,0", "--dirac", "0,0"],
        ["interp", "--dirac", "0,0", "--corner", "0,0", "--s", "1e-99999999"],
        ["perturb", "{d}/tiny.json", "--a", "1/10", "--grid", "{d}/tgrid.json"],
        ["radon", "{d}/bad-utf8.json"],
        *_OVERFLOW_CALLS,
    ],
    ids=["overflow-symmetric-center", "overflow-radon", "overflow-symmetric-line",
         "overflow-dist", "plan-no-dir", "plan-a-dir", "nesting", "nan", "1e999", "5000-digits",
         "5001-digit-json-int", "1e99999999-json", "1e99999999-dirac", "1e-99999999-s",
         "grid-message-digits", "bad-utf8", *_OVERFLOW_IDS],
)
def test_hostile_input_fails_without_traceback(args, tmp_path):
    """Bad input ends in one error line and exit 2 or 3, never in a
    traceback, an exit code of 1 or anything on stdout."""
    for name, text in _HOSTILE_FILES.items():
        (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    out = run_cli(*[a.format(d=tmp_path) for a in args], timeout=60)
    assert out.returncode in (2, 3), out.stderr
    assert out.stdout == ""
    assert out.stderr.startswith("error:")
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("args", _OVERFLOW_CALLS, ids=_OVERFLOW_IDS)
def test_float_overflow_is_a_constraint_error(args, tmp_path, capsys):
    """Float arithmetic that overflows on an exact point argument exits 3
    and points to --exact; exit 1 means only a failed suite."""
    (tmp_path / "half.json").write_text(_HOSTILE_FILES["half.json"])
    argv = [a.format(d=tmp_path) for a in args]
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: a value lies beyond the float range; --exact computes it exactly\n"
    assert cli.main([*argv, "--exact"]) in (0, 3)
    assert "float range" not in capsys.readouterr().err


def test_long_scalar_text_is_named_by_its_length():
    """A coordinate of 19,729 digits is refused in one short line."""
    out = run_cli("dist", "--dirac", "1" * 19729 + ",0", "--dirac", "0,0", timeout=60)
    assert out.returncode == 3
    assert out.stdout == ""
    assert out.stderr.count("\n") == 1
    assert len(out.stderr) < 200
    assert out.stderr.startswith("error: scalar '1111")
    assert "(19729 characters) has more than 19728 digits" in out.stderr


@pytest.mark.parametrize(
    "atom, start",
    [
        ({"x": [1] * 3000, "w": 1}, "error: a point must be a two-element array, got [1, 1"),
        ({"x": [0, 0], "w": [1] * 3000}, "error: not a scalar: [1, 1"),
        ({"y": [1] * 3000, "w": 1}, "error: bad atom entry {'y': [1, 1"),
    ],
    ids=["point", "scalar", "atom-entry"],
)
def test_long_json_values_are_named_by_their_length(tmp_path, atom, start):
    """A JSON value whose repr is thousands of characters long is refused
    in one short line that names its start and its length."""
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"atoms": [atom]}))
    out = run_cli("dist", str(path), "--dirac", "0,0")
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.count("\n") == 1
    assert len(out.stderr) < 200
    assert out.stderr.startswith(start)
    assert out.stderr.endswith(" characters)\n")


def test_dist_plan_csv(measures, tmp_path):
    plan_file = tmp_path / "plan.csv"
    out = run_cli(
        "dist", measures["mu"], measures["nu"], "--p", "2", "--exact",
        "--plan", str(plan_file),
    )
    assert out.returncode == 0
    lines = plan_file.read_text().strip().splitlines()
    assert lines[0] == "i,j,x_i,y_j,weight,cost"
    assert len(lines) == 3
    assert lines[1].endswith("16")
    assert lines[2].endswith("4")


def test_dist_exact_plan_reads_costs_off_the_solve(measures, tmp_path, monkeypatch):
    """Each cost of an exact plan CSV is the solve's integer cost over
    L^p; no distance is computed again."""

    def refuse(x, y):
        raise AssertionError("dm was called")

    # transport and cli bind no dm; measure imports it from geometry per call
    assert not hasattr(transport, "dm") and not hasattr(cli, "dm")
    monkeypatch.setattr(geometry, "dm", refuse)
    plan_file = tmp_path / "plan.csv"
    argv = ["dist", measures["fam"], measures["mu"], "--p", "3", "--exact"]
    assert cli.main(argv + ["--plan", str(plan_file)]) == 0
    with plan_file.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows
    for row in rows:
        x, y = (row[key].strip("[]").split(", ") for key in ("x_i", "y_j"))
        gap = max(abs(Fraction(a) - Fraction(b)) for a, b in zip(x, y))
        assert Fraction(row["cost"]) == gap**3


@st.composite
def exact_measure_json(draw):
    """Up to 4 distinct points with mixed denominators and rational
    weights, as a measure JSON object of exact strings."""
    coord = st.builds(
        Fraction, st.integers(-24, 24), st.sampled_from((1, 2, 3, 4, 6, 8))
    )
    points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=4, unique=True))
    parts = draw(st.lists(st.integers(1, 12), min_size=len(points), max_size=len(points)))
    return {
        "atoms": [
            {"x": [str(x1), str(x2)], "w": str(Fraction(r, sum(parts)))}
            for (x1, x2), r in zip(points, parts)
        ]
    }


def parse_point(text):
    return tuple(Fraction(c) for c in text.strip("[]").split(","))


@settings(max_examples=60, deadline=None)
@given(pair=st.tuples(exact_measure_json(), exact_measure_json()), p=st.sampled_from((1, 2, 3)))
def test_dist_exact_plan_is_optimal_end_to_end(pair, p):
    """parse -> dist --exact --plan -> CSV: the plan's marginals are the
    input weights exactly, each cost is dm^p of its two points, the
    costs weighted by the plan sum to the printed power, and that power
    is the brute-force minimum."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("mu.json", "nu.json", "plan.csv")]
        for path, data in zip(paths, pair):
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(data, handle)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["dist", *paths[:2], "--p", str(p), "--exact", "--plan", paths[2]])
        with open(paths[2], encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
    assert code == 0
    power = Fraction(out.getvalue())
    sums = {}, {}
    total = 0
    for row in rows:
        x, y = parse_point(row["x_i"]), parse_point(row["y_j"])
        weight, cost = Fraction(row["weight"]), Fraction(row["cost"])
        assert weight > 0
        assert cost == max(abs(x[0] - y[0]), abs(x[1] - y[1])) ** p
        total += cost * weight
        for side, point in zip(sums, (x, y)):
            side[point] = side.get(point, 0) + weight
    assert total == power
    for side, data in zip(sums, pair):
        assert side == {
            tuple(Fraction(c) for c in atom["x"]): Fraction(atom["w"])
            for atom in data["atoms"]
        }
    mu, nu = (DiscreteMeasure.from_json_dict(data) for data in pair)
    assert power == brute_force_wasserstein(mu, nu, p)[1]


def test_dist_byte_identical(measures):
    first = run_cli("dist", measures["mu"], measures["nu"], "--exact")
    second = run_cli("dist", measures["mu"], measures["nu"], "--exact")
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_missing_measure_is_parse_error(measures):
    out = run_cli("dist", measures["mu"])
    assert out.returncode == 2
    assert out.stdout == ""
    assert "error:" in out.stderr


def test_bad_p_is_parse_error(measures):
    out = run_cli("dist", measures["mu"], measures["nu"], "--p", "0")
    assert out.returncode == 2


def test_fractional_p_needs_float(measures):
    exact = run_cli("dist", measures["mu"], measures["nu"], "--p", "3/2", "--exact")
    assert exact.returncode == 2
    approx = run_cli("dist", measures["mu"], measures["nu"], "--p", "3/2")
    assert approx.returncode == 0


def test_square_mode_rejects_outside_points(measures):
    out = run_cli("dist", measures["mu"], measures["nu"], "--mode", "square")
    assert out.returncode == 3
    assert "error:" in out.stderr
    assert "Fraction" not in out.stderr


_SQUARE_MEASURES = {
    # on the boundary of Q, co-diagonal with (0,0), in general position
    "edge.json": [(["1", "1"], "1/3"), (["1", "-1"], "2/3")],
    # in general position, with its whole perturbation grid inside Q
    "small.json": [(["0", "0"], "1/6"), (["1/2", "1/4"], "1/3"), (["1/4", "-1/8"], "1/2")],
}


def _printed_atoms(out: str, fmt: str):
    """The (x1, x2) text of every atom a measure command printed."""
    if fmt == "table":
        return re.findall(r"atom \((\S+), (\S+)\)", out)
    if fmt == "csv":
        return [(row["x1"], row["x2"]) for row in csv.DictReader(io.StringIO(out))]
    found = []

    def walk(node):
        if isinstance(node, dict):
            found.extend(tuple(atom["x"]) for atom in node.get("atoms", ()))
            for value in node.values():
                walk(value)

    walk(json.loads(out))
    return found


@pytest.mark.parametrize(
    "args, outside",
    [
        (["project", "edge.json", "--line", "+,0"], None),
        (["project", "edge.json", "--line", "+,2"], "atom (0, 2)"),
        (["radon", "edge.json"], None),
        (["radon", "--dirac", "1,-1"], None),
        (["radon", "--dirac", "5/4,0"], "atom (5/4, 0)"),
        (["interp", "edge.json", "--corner", "0,0", "--s", "1/2"], None),
        (["interp", "edge.json", "--corner", "2,0", "--s", "0"], "corner (2, 0)"),
        (["symmetric", "--dirac", "0,0", "--dirac", "1/4,-1/4", "--line", "+,0", "--p", "1"],
         None),
        (["symmetric", "--dirac", "0,0", "--dirac", "3/4,-3/4", "--line", "+,0", "--p", "1"],
         "atom (3/2, -3/2)"),
        (["symmetric", "--dirac", "1/4,1/4", "--center", "0,0"], None),
        (["symmetric", "--dirac", "3/4,0", "--center", "0,0"], "atom (3/2, 0)"),
        (["perturb", "small.json", "--a", "1/48"], None),
        (["perturb", "edge.json", "--a", "1/48"], "atom (9/8, -7/8)"),
    ],
    ids=["project", "project-out", "radon", "radon-boundary", "radon-out", "interp",
         "interp-out", "symmetric-line", "symmetric-line-out", "symmetric-center",
         "symmetric-center-out", "perturb", "perturb-out"],
)
def test_square_mode_prints_only_atoms_in_q(args, outside, tmp_path, monkeypatch, capsys):
    """In square mode a measure command either prints only atoms of
    Q = [-1,1]^2, or prints nothing and exits 3 naming the first atom
    outside Q of a measure it read or would print, or the point option
    outside Q."""
    for name, atoms in _SQUARE_MEASURES.items():
        entries = [{"x": x, "w": w} for x, w in atoms]
        (tmp_path / name).write_text(json.dumps({"atoms": entries}))
    monkeypatch.chdir(tmp_path)
    for fmt in ("json", "csv", "table"):
        code = cli.main([*args, "--mode", "square", "--format", fmt])
        out, err = capsys.readouterr()
        if outside is None:
            assert code == 0 and err == ""
            atoms = _printed_atoms(out, fmt)
            assert atoms
            for x1, x2 in atoms:
                assert geometry.in_square(geometry.Point2(Fraction(x1), Fraction(x2)))
        else:
            assert code == 3
            assert out == ""
            assert err == f"error: {outside} lies outside [-1,1]^2\n"


@pytest.mark.parametrize(
    "args, error",
    [
        (["symmetric", "--dirac", "1,0", "--center", "3/2,0"], "center (3/2, 0)"),
        (["interp", "--dirac", "1,1", "--corner", "2,2", "--s", "1"], "corner (2, 2)"),
        (["project", "--dirac", "0,0", "--line", "+,5"], "atom (-5/2, 5/2)"),
    ],
    ids=["symmetric-center", "interp-corner", "project-line"],
)
def test_square_mode_holds_point_options_to_q(args, error, capsys):
    """In square mode a mirror center, an interpolation corner or a
    projection line outside Q fails the command with exit 3 before it
    prints anything, though every measure it reads lies in Q."""
    for fmt in ("json", "csv", "table"):
        assert cli.main([*args, "--mode", "square", "--format", fmt]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {error} lies outside [-1,1]^2\n"
        assert cli.main([*args, "--format", fmt]) == 0
        capsys.readouterr()


@pytest.mark.parametrize(
    "args",
    [
        ["radon"],
        ["project", "--line", "+,0"],
        ["symmetric", "--center", "0,0"],
        ["dist", "--dirac", "1/3,-1/2", "--mode", "square"],
    ],
    ids=["radon", "project", "symmetric", "dist-square"],
)
def test_coordinate_too_long_to_print_is_constraint_error(args, tmp_path, capsys):
    """A coordinate of more digits than Python converts to text parses,
    but printing it (or the square-mode error that names it) fails with
    one error line, nothing on stdout and exit 3, in every format."""
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"atoms": [{"x": ["1" * 5000, "0"], "w": "1"}]}))
    command, *options = args
    for fmt in ("table", "csv", "json"):
        assert cli.main([command, str(big), *options, "--format", fmt]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1


_LONG = "1" + "0" * 3000  # a denominator of 3002 digits, a sum of 6003
_TOO_LONG_TO_PRINT = {
    "m": [(["0", "0"], f"1/{_LONG}3"), (["1", "1"], f"1/{_LONG}7")],
    "m-numbers": [([0.5, 0], f"1/{_LONG}3"), ([1.5, 1], f"1/{_LONG}7")],
    "n": [(["0", "0"], "-1e5000"), (["1", "1"], "1")],
    "d": [(["1", "1"], "1")],
    "g": [(["0", "0"], "1/3"), (["1", "3"], "2/3")],
}


@pytest.mark.parametrize(
    "measure, args, message",
    [
        ("m", ["dist", "--dirac", "0,0"], "weights sum to"),
        ("m-numbers", ["dist", "--dirac", "0,0"], "weights sum to"),
        ("n", ["dist", "--dirac", "0,0"], "negative weight"),
        ("n", ["radon"], "negative weight"),
        ("d", ["interp", "--s", "1e5000", "--corner", "0,0"], "interpolation parameter"),
        ("g", ["perturb", "--a", "1/100", "--x-prime", "1e5000,1e5000"], "x_prime"),
    ],
    ids=["dist-sum", "dist-sum-numbers", "dist-negative", "radon-negative", "interp",
         "perturb"],
)
def test_number_too_long_for_a_message_is_constraint_error(
    measure, args, message, tmp_path, capsys
):
    """An error message whose number has more digits than Python converts
    to text names it with a fixed phrase: one error line, nothing on
    stdout and exit 3."""
    path = tmp_path / "m.json"
    atoms = [{"x": x, "w": w} for x, w in _TOO_LONG_TO_PRINT[measure]]
    path.write_text(json.dumps({"atoms": atoms}))
    command, *options = args
    assert cli.main([command, str(path), *options]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {message}")
    assert "more digits than Python prints" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_dist_that_cannot_print_its_power_writes_no_plan(fmt, tmp_path, capsys):
    """Every weight of m.json prints, but the exact power's denominator
    does not: dist fails with exit 3, prints nothing and leaves no
    --plan file behind."""
    k = 10**4000 + 1
    a, b = 10**150 + 7, 10**150 + 9
    weights = [
        Fraction(3, k * a), Fraction(a - 3, k * a),
        Fraction(5, k * b), Fraction(b - 5, k * b), 1 - Fraction(2, k),
    ]
    points = [(1, 0), (2, 0), (3, 0), (5, 0), (0, 0)]
    atoms = [
        {"x": [str(x1), str(x2)], "w": str(w)}
        for (x1, x2), w in zip(points, weights)
    ]
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"atoms": atoms}))
    plan = tmp_path / "plan.csv"
    args = ["dist", str(path), "--dirac", "0,0", "--p", "1", "--exact"]
    assert cli.main([*args, "--plan", str(plan), "--format", fmt]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "more digits than Python prints" in err
    assert not plan.exists()
    # the plan itself prints: the csv format, which prints no power, works
    assert cli.main([*args, "--plan", str(plan), "--format", "csv"]) == 0
    assert plan.read_bytes().decode() == capsys.readouterr().out


def test_dist_exact_reads_float_weights(tmp_path, capsys):
    """Float weights r/total pass the measure's 1e-12 sum check, but
    their shortest reprs sum to 49999999999999999/50000000000000000:
    --exact divides each by that exact sum."""
    rs = [3, 5, 7, 11, 13]
    weights = [r / sum(rs) for r in rs]
    reprs = [Fraction(repr(w)) for w in weights]
    assert sum(reprs) != 1
    points = [(Fraction(k, 8), Fraction(k * k % 7 - 3, 8)) for k in range(5)]
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"atoms": [
        {"x": [float(x1), float(x2)], "w": w} for (x1, x2), w in zip(points, weights)
    ]}))
    argv = ["dist", str(path), "--dirac", "1/8,-3/8"]
    assert cli.main([*argv, "--exact"]) == 0
    mu = DiscreteMeasure(
        [(geometry.Point2(*x), w / sum(reprs)) for x, w in zip(points, reprs)]
    )
    dirac = DiscreteMeasure.dirac(geometry.Point2(Fraction(1, 8), Fraction(-3, 8)))
    assert capsys.readouterr().out == f"{transport.wasserstein_pow(mu, dirac, 2)}\n"
    # decimals that sum to 1 already read as their rational twins
    for w in ([0.25, 0.75], ["1/4", "3/4"]):
        path.write_text(json.dumps({"atoms": [
            {"x": [0.5, 0], "w": w[0]}, {"x": ["-1/4", "1"], "w": w[1]},
        ]}))
        assert cli.main([*argv, "--exact"]) == 0
    first, second = capsys.readouterr().out.splitlines()
    assert first == second


def test_project_closed_form():
    out = run_cli("project", "--dirac", "1,0", "--line", "+,1", "--exact",
                  "--format", "json")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["atoms"] == [{"w": "1", "x": ["0", "1"]}]


def test_project_line_offset_zero_with_a_huge_exponent_is_zero(capsys):
    argv = ["project", "--dirac", "2,0", "--format", "csv", "--line"]
    assert cli.main([*argv, "+,0e99999999"]) == 0
    huge = capsys.readouterr().out
    assert cli.main([*argv, "+,0"]) == 0
    assert huge == capsys.readouterr().out == "x1,x2,weight\n1,1,1\n"


def test_project_csv_format():
    out = run_cli("project", "--dirac", "1,0", "--line=-,0", "--format", "csv")
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "x1,x2,weight"
    assert lines[1] == "1/2,-1/2,1"


def test_radon_components(measures):
    out = run_cli("radon", measures["fam"], "--exact")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert set(data) == {"plus", "minus"}
    assert len(data["plus"]["atoms"]) == 3
    assert len(data["minus"]["atoms"]) == 3


def test_radon_csv(measures):
    out = run_cli("radon", measures["fam"], "--format", "csv")
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "component,x1,x2,weight"
    assert lines[1] == "plus,0,0,1/6"
    assert len(lines) == 7


def test_interp_midpoint():
    out = run_cli(
        "interp", "--dirac", "2,2", "--s", "1/2", "--corner", "0,0", "--exact",
        "--format", "json",
    )
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["atoms"] == [{"w": "1", "x": ["1", "1"]}]


def test_interp_bad_time():
    out = run_cli("interp", "--dirac", "2,2", "--s", "2", "--corner", "0,0")
    assert out.returncode == 3
    assert out.stderr == "error: interpolation parameter must be in [0, 1], got 2\n"


def test_symmetric_line(measures):
    # the Dirac slot binds first, so delta_(4,0) is the measure on the line
    out = run_cli(
        "symmetric", measures["mu"], "--dirac=4,0", "--line=+,-4", "--p", "1",
        "--exact", "--format", "json",
    )
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert len(data["atoms"]) >= 1


def test_symmetric_line_requires_p_one(measures):
    out = run_cli(
        "symmetric", measures["mu"], "--dirac=4,0", "--line=+,-4", "--p", "2"
    )
    assert out.returncode == 2


def test_symmetric_off_line_is_constraint_error(measures):
    out = run_cli(
        "symmetric", measures["mu"], "--dirac=0,1", "--line=+,-4", "--p", "1"
    )
    assert out.returncode == 3


def test_symmetric_center_mirrors():
    out = run_cli(
        "symmetric", "--dirac", "1/2,0", "--center", "0,0", "--p", "2", "--exact",
        "--format", "json",
    )
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert len(data["atoms"]) == 1


def test_perturb_reports_triple(measures):
    out = run_cli("perturb", measures["fam"], "--a", "1/48")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert set(data) >= {"a", "c0", "mu_prime", "nu1_prime", "nu2_prime", "x_prime"}


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_perturb_reads_float_json_as_exact(tmp_path, fmt, capsys):
    """perturb is always exact: a measure given as JSON numbers prints
    what its rational-string twin prints.  fam.json's points carry
    weights 1/8, 3/8, 1/2 here, which JSON numbers hold exactly."""
    points = [("0", "0"), ("1", "1/2"), ("1/2", "-1/4")]
    weights = ["1/8", "3/8", "1/2"]
    twins = {
        "rational.json": [{"x": list(x), "w": w} for x, w in zip(points, weights)],
        "float.json": [
            {"x": [float(Fraction(c)) for c in x], "w": float(Fraction(w))}
            for x, w in zip(points, weights)
        ],
    }
    outputs = []
    for name, atoms in twins.items():
        path = tmp_path / name
        path.write_text(json.dumps({"atoms": atoms}))
        assert cli.main(["perturb", str(path), "--a", "1/100", "--format", fmt]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_perturb_on_sixty_atoms_is_quick(tmp_path):
    """The grid gap is read off the sorted diagonal coordinates: the
    pairwise form took about a minute on 60 atoms."""
    rng = random.Random(60)
    ts = rng.sample(range(-400, 400), 60)
    ss = rng.sample(range(-400, 400), 60)
    rs = rng.sample(range(1, 600), 60)
    atoms = [
        {"x": [str(Fraction(t + s, 16)), str(Fraction(t - s, 16))],
         "w": str(Fraction(r, sum(rs)))}
        for t, s, r in zip(ts, ss, rs)
    ]
    path = tmp_path / "g60.json"
    path.write_text(json.dumps({"atoms": atoms}))
    out = run_cli("perturb", str(path), "--a", "1/10000000000000", timeout=20)
    assert out.returncode == 0, out.stderr
    data = json.loads(out.stdout)
    assert len(data["mu_prime"]["atoms"]) == 61
    assert len(data["nu1_prime"]["atoms"]) == 60 * 60 + 1


def test_perturb_rejects_large_mass(measures):
    out = run_cli("perturb", measures["fam"], "--a", "1/2")
    assert out.returncode == 3


@pytest.mark.parametrize("n", [-1, 0, 1, 2, 3, None])
def test_grid_resolution_needs_a_denominator_above_2(n, measures, capsys):
    """--grid-resolution N puts the automatic x_prime at offset c/N; every
    N <= 2 prints nothing and exits 3 with one error line, while N = 3
    and the default run."""
    argv = ["perturb", measures["fam"], "--a", "1/48"]
    if n is not None:
        argv.append(f"--grid-resolution={n}")
    code = cli.main(argv)
    out, err = capsys.readouterr()
    if n is None or n > 2:
        assert (code, err) == (0, "")
        assert json.loads(out)["x_prime"]
    else:
        assert (code, out) == (3, "")
        assert err == "error: the automatic offset c/denominator needs a denominator above 2\n"


def test_verify_w2_table_passes():
    out = run_cli("verify", "w2-table")
    assert out.returncode == 0
    assert "PASS" in out.stdout
    assert "FAIL" not in out.stdout
    assert out.stdout.strip().endswith("statements")


def test_main_shares_one_parser_across_calls(measures, capsys):
    """In-process calls reuse one parser; an argparse error in between
    leaves it as it was."""
    from maxwass import cli

    dist = ["dist", measures["mu"], measures["nu"], "--exact"]
    assert cli.main(dist) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        cli.main(["dist", "--p"])
    assert exc.value.code == 2
    assert cli.main(["verify", "w2-table"]) == 0
    assert cli.main(dist) == 0
    second = capsys.readouterr().out.split("statements\n")[-1]
    assert first == second == "10\n"
    assert cli.build_parser() is cli.build_parser()


def test_verify_takes_no_exact_flag():
    out = run_cli("verify", "w2-table", "--exact")
    assert out.returncode == 2
    assert "unrecognized arguments: --exact" in out.stderr


@pytest.mark.parametrize("command", [["verify", "w2-table"], ["reproduce-paper"]])
def test_verify_has_no_csv_format(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(command + ["--format", "csv"])
    assert exc.value.code == 2
    assert "invalid choice: 'csv' (choose from 'json', 'table')" in capsys.readouterr().err


def test_verify_unknown_suite():
    out = run_cli("verify", "bogus")
    assert out.returncode == 2


def test_verify_json_format():
    out = run_cli("verify", "q-corners", "--format", "json")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["passed"] is True
    assert all(r["failures"] == 0 for r in data["statements"])


def test_verify_seed_env_override():
    flagged = run_cli("verify", "q-saturation", "--seed", "3", "--format", "json")
    env_set = run_cli(
        "verify", "q-saturation", "--seed", "9", "--format", "json",
        env_extra={"MAXWASS_SEED": "3"},
    )
    assert json.loads(flagged.stdout) == json.loads(env_set.stdout)


def test_verify_seed_env_invalid():
    out = run_cli("verify", "w2-table", env_extra={"MAXWASS_SEED": "ten"})
    assert out.returncode == 2


def test_no_command_is_usage_error():
    out = run_cli()
    assert out.returncode == 2

MEASURE_OPTIONS = {"measures", "--dirac", "--mode", "--format"}

OPTIONS = {
    "dist": MEASURE_OPTIONS | {"--exact", "--p", "--plan"},
    "project": MEASURE_OPTIONS | {"--exact", "--line"},
    "radon": MEASURE_OPTIONS | {"--exact"},
    "interp": MEASURE_OPTIONS | {"--exact", "--s", "--corner"},
    "symmetric": MEASURE_OPTIONS | {"--exact", "--p", "--line", "--center"},
    "perturb": MEASURE_OPTIONS | {"--a", "--x-prime", "--grid", "--grid-resolution"},
    "verify": {"suite", "--seed", "--format"},
    "reproduce-paper": {"--seed", "--format"},
}


def test_each_subcommand_declares_only_the_options_it_reads():
    parser = cli.build_parser()
    (commands,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    declared = {
        name: {
            option
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
            for option in action.option_strings or [action.dest]
        }
        for name, sub in commands.choices.items()
    }
    assert declared == OPTIONS
    assert sum(map(len, declared.values())) == 46


# a valid call of each measure command; parsing fails before any file is read
MEASURE_CALLS = {
    "dist": ["dist", "--dirac", "0,0", "--dirac", "1,1"],
    "project": ["project", "--dirac", "1,0", "--line", "+,0"],
    "radon": ["radon", "--dirac", "1,0"],
    "interp": ["interp", "--dirac", "2,2", "--s", "1/2", "--corner", "0,0"],
    "symmetric": ["symmetric", "--dirac", "1,0", "--center", "0,0"],
    "perturb": ["perturb", "fam.json", "--a", "1/48"],
}

DELETED = (
    [(command, ["--seed", "1"]) for command in MEASURE_CALLS]
    + [(command, ["--p", "2"]) for command in ("project", "radon", "interp", "perturb")]
    + [("perturb", ["--exact"])]
)


@pytest.mark.parametrize(
    "command, flag", DELETED, ids=[f"{c}{f[0]}" for c, f in DELETED]
)
def test_deleted_option_is_unrecognized(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(MEASURE_CALLS[command] + flag)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(MEASURE_CALLS))
def test_measure_commands_ignore_seed_env(command, measures, monkeypatch, capsys):
    """Only verify and reproduce-paper read MAXWASS_SEED."""
    argv = [measures["fam"] if a == "fam.json" else a for a in MEASURE_CALLS[command]]
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    monkeypatch.setenv("MAXWASS_SEED", "ten")
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == plain


def readme_commands():
    """The `maxwass ...` lines of README's Command line block, but for
    `verify all` and `reproduce-paper`, which take about 4-5 s each and
    run the suites test_acceptance.py checks."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [
        line
        for line in block.splitlines()
        if line.startswith("maxwass ")
        and line not in ("maxwass verify all --seed 0", "maxwass reproduce-paper")
    ]


@pytest.mark.parametrize("line", readme_commands())
def test_readme_example_runs(line, tmp_path, monkeypatch, capsys):
    # co-diagonal with (0,0) and in general position, as interp and perturb need
    mu = [{"x": ["1", "1"], "w": "1/3"}, {"x": ["2", "-2"], "w": "2/3"}]
    nu = [{"x": ["0", "0"], "w": "1/2"}, {"x": ["2", "0"], "w": "1/2"}]
    for name, atoms in (("mu.json", mu), ("nu.json", nu)):
        (tmp_path / name).write_text(json.dumps({"atoms": atoms}))
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().out
