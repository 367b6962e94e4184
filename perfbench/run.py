"""maxwass benchmark: run one workload, check every answer, print metrics.

    python3 perfbench/run.py --workload dist-exact --seed 0 --seconds 25 --trace 0

Run from anywhere inside a checkout that holds ``src/maxwass``; nothing
is installed or built.  Set-up, then the measured workload in its own
single-threaded process (perfbench/loop.py), then a report: one line per
metric and, last, one JSON object with the keys correct, attempted,
failed and metrics.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones.  perfbench/README.md defines them.

Exit status: 0 when a result was printed (wrong answers show in
``failed``), 1 when the benchmark could not measure, 2 when the checkout
has no maxwass source tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib  # perfbench/calib.py, beside this script

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("dist-exact", "dist-float", "verify-suites")
COLD_STARTS = 7
# a run has 180 s; keep room for set-up and the report
DEADLINE_S = 170.0
# cold start: interpreter, imports and the first (Dirac) dist call
COLD_START = (
    "import contextlib, io\n"
    "import maxwass.cli as cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    raise SystemExit(cli.main(['dist', '--dirac', '0,0', '--dirac', '1,1']))\n"
)


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a wrong answer)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MAXWASS_SEED", None)  # it would silently override --seed
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv, env, timeout: float) -> str:
    try:
        done = subprocess.run(
            [sys.executable, *argv],
            env=env,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[0]} did not finish in {timeout:.0f} s") from None
    if done.returncode != 0:
        raise BenchError(f"{argv[0]} exited with {done.returncode}")
    return done.stdout


def cold_start_s(env) -> tuple[float, float]:
    """(seconds at reference speed, wall seconds) of one cold start."""
    before = calib.block()
    start = time.perf_counter()
    run_child(["-c", COLD_START], env, 60.0)
    elapsed = time.perf_counter() - start
    return calib.at_reference(elapsed, before, calib.block()), elapsed


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def percentile_90(values):
    # inclusive: with the 15 or so ops of a verify-suites run, the default
    # (exclusive) method reads little more than the two slowest ops
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(result, ops, setup_s) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "op_ms.p50": (statistics.median(ops) * 1e3, "ms"),
        "op_ms.p90": (percentile_90(ops) * 1e3, "ms"),
        "ops_per_s": (len(ops) / sum(ops), "1/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def per_layer(result) -> dict:
    metrics = {name: tuple(value) for name, value in result["layers"].items()}
    traced, plain = result["traced_op_s"], result["op_s"]
    metrics["trace.op_ms.p50"] = (statistics.median(traced) * 1e3, "ms")
    # plain[i] and traced[i] ran the same input back to back
    overhead = statistics.median(t - p for p, t in zip(plain, traced))
    metrics["trace.overhead_ms.p50"] = (overhead * 1e3, "ms")
    metrics["failed_frac"] = (result["failed"] / result["attempted"], "frac")
    return metrics


def measure(args) -> tuple[dict, dict]:
    env = child_env()
    begin = time.perf_counter()
    work = OUT / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cold = [cold_start_s(env) for _ in range(COLD_STARTS)]
        if args.workload != "verify-suites":
            run_child(
                [str(HERE / "inputs.py"), "--workload", args.workload,
                 "--seed", str(args.seed), "--out", str(work)],
                env,
                DEADLINE_S - (time.perf_counter() - begin),
            )
        inputs_s = time.perf_counter() - begin
        out = run_child(
            [str(HERE / "loop.py"), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work)],
            env,
            DEADLINE_S - (time.perf_counter() - begin),
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = statistics.median(ref for ref, _ in cold)
    result["setup_wall_s"] = statistics.median(wall for _, wall in cold)
    result["inputs_s"] = inputs_s
    if args.trace:
        metrics = per_layer(result)
    else:
        metrics = end_to_end(result, result["op_ref_s"], result["setup_s"])
        result["wall"] = end_to_end(result, result["op_s"], result["setup_wall_s"])
    return result, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "maxwass" / "cli.py").is_file():
        print(f"perfbench: no maxwass source tree at {SRC}", file=sys.stderr)
        return 2
    try:
        result, metrics = measure(args)
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    env = {
        "python": platform.python_version(),
        "kernel": result["kernel"],
        "MAXWASS_PURE": os.environ.get("MAXWASS_PURE", ""),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }
    ops = result["op_s"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(
        f"set-up: {COLD_STARTS} cold starts, median {result['setup_wall_s']:.4f} s wall; "
        f"with inputs and references {result['inputs_s']:.2f} s wall"
    )
    print(
        f"ops: {result['attempted']} attempted, {result['failed']} failed "
        f"(failed_frac {result['failed'] / result['attempted']:.4f}), "
        f"{len(ops)} timed plain, {len(result['traced_op_s'])} traced, "
        f"{result['distinct_inputs']} distinct inputs"
    )
    for reason in result["failures"]:
        print(f"  failure: {reason}")
    for name, (value, unit) in result.get("wall", {}).items():
        print(f"  wall {name} = {value:.6g} {unit}")
    if not args.trace:
        print("end-to-end times at reference speed (perfbench/calib.py):")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if "spans" in result:
        print(f"spans: {result['spans']}")
    report = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(
            dict(report, env=env, failures=result["failures"], wall=result.get("wall")), indent=1
        )
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
