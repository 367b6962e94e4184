"""The measured workload process: a closed loop with one client.

An op is one or more in-process calls of ``maxwass.cli.main(argv)``,
the function the ``maxwass`` command runs, with stdout captured: one
``dist`` call, or one pass of ``verify`` calls over SUITES.  The next op
starts only after the previous one returned and its answers were
checked; checks run outside the timed region.  A new op starts only if
the longest op so far still fits in ``--seconds``, so a run holds at
least one op and rarely outlasts its budget.  The machine's speed is
sampled just before and after each call (calib.py), which gives the
call's time at reference speed; an op's time is the sum over its calls.

With ``--trace 1`` every op runs twice, once plain and once under the
span tracer, alternating which goes first; layer metrics come from the
traced calls and the tracing overhead from the pairs.

Prints one JSON object on stdout.  run.py starts this process with
PYTHONPATH pointing at the checkout's ``src`` and MAXWASS_SEED unset:

    python3 perfbench/loop.py --workload dist-exact --seed 0 --seconds 25 --trace 0 --work DIR
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import random
import resource
import time
from fractions import Fraction
from pathlib import Path

import maxwass.cli as cli
from maxwass.measure import DiscreteMeasure
from maxwass.transport import active_kernel
import calib  # perfbench/calib.py and spans.py sit beside this script
from spans import SUITES, Tracer

WARMUP_ARGV = ["dist", "--dirac", "0,0", "--dirac", "1,1"]
VERIFY_POOL = 8  # program seeds per run; a longer run repeats them in order
REL_TOL = 1e-9  # answers against the HiGHS reference
ABS_TOL = 1e-9  # float plan marginals


def call(argv):
    """(seconds, exit code or error text, stdout) of one CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # any raise is a failed op, not a crash of the run
            code = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue()


def _scalar(text: str, exact: bool):
    return Fraction(text) if exact else float(text)


def _point(text: str):
    x1, x2 = text.strip("[]").split(",")
    return Fraction(x1.strip()), Fraction(x2.strip())


def _close(value, ref: float) -> bool:
    return abs(float(value) - ref) <= REL_TOL * abs(ref)


class DistOp:
    """``maxwass dist A B [--exact] --p P --plan F`` against a reference."""

    def __init__(self, instance: dict, exact: bool, plan_path: str):
        self.exact = exact
        self.p = instance["p"]
        self.ref = instance["ref"]
        self.plan_path = plan_path
        argv = ["dist", instance["a"], instance["b"], "--p", str(self.p), "--plan", plan_path]
        if exact:
            argv.append("--exact")
        self.argvs = [argv]
        self.marginals = []
        for side in ("a", "b"):
            with open(instance[side], encoding="utf-8") as handle:
                data = json.load(handle)
            # guard the silent exact path: JSON strings parse exact, numbers float
            parsed = DiscreteMeasure.from_json_dict(data)
            if parsed.exact != exact:
                raise SystemExit(
                    f"perfbench: {instance[side]} parses with exact={parsed.exact}, "
                    f"the workload needs exact={exact}"
                )
            self.marginals.append(
                {
                    (Fraction(a["x"][0]), Fraction(a["x"][1])): _scalar(str(a["w"]), exact)
                    for a in data["atoms"]
                }
            )

    def check(self, outputs):
        """None if the answer is right, else why it is not."""
        [(code, out)] = outputs
        if code != 0:
            return f"exit {code}"
        try:
            printed = _scalar(out.strip(), self.exact)
        except (ValueError, ZeroDivisionError):
            return f"unreadable output {out[:80]!r}"
        power = printed if self.exact else printed ** self.p
        if not _close(power, self.ref):
            return f"cost {float(power)!r} != reference {self.ref!r}"
        try:
            return self._check_plan(power)
        except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
            return f"unreadable plan file: {exc!r}"

    def _check_plan(self, power):
        rows = {}, {}
        total = 0
        with open(self.plan_path, encoding="utf-8", newline="") as handle:
            for row in csv.DictReader(handle):
                weight = _scalar(row["weight"], self.exact)
                total += weight * _scalar(row["cost"], self.exact)
                for sums, key in zip(rows, ("x_i", "y_j")):
                    point = _point(row[key])
                    sums[point] = sums.get(point, 0) + weight
        if not (total == power if self.exact else _close(total, power)):
            return f"plan cost {float(total)!r} != printed cost {float(power)!r}"
        for sums, want in zip(rows, self.marginals):
            if sums.keys() != want.keys():
                return "plan support points differ from the input atoms"
            for point, weight in want.items():
                got = sums[point]
                if not (got == weight if self.exact else abs(got - weight) <= ABS_TOL):
                    return f"plan marginal at {point} is {got}, input weight {weight}"
        return None


def check_statements(code, out: str):
    """None if a verify call exited 0 with every statement PASS and the
    summary line, else why not."""
    if code != 0:
        return f"exit {code}"
    statements = [line for line in out.splitlines() if line[:4] in ("PASS", "FAIL")]
    if not statements:
        return "no statements printed"
    failed = [line.split()[1] for line in statements if not line.startswith("PASS")]
    if failed:
        return f"statements not PASS: {failed}"
    if out.splitlines()[-1] != f"passed {len(statements)}/{len(statements)} statements":
        return "summary line missing"
    return None


class VerifyPass:
    """``maxwass verify S --seed N`` for every suite S in SUITES: each call
    must pass its check_statements, and every pass at this program seed
    must print the same stdout as the first."""

    def __init__(self, program_seed: int):
        self.seed = program_seed
        self.argvs = [["verify", suite, "--seed", str(program_seed)] for suite in SUITES]
        self.first = None

    def check(self, outputs):
        for argv, (code, out) in zip(self.argvs, outputs):
            reason = check_statements(code, out)
            if reason is not None:
                return f"verify {argv[1]} --seed {self.seed}: {reason}"
        stdout = [out for _, out in outputs]
        if self.first is None:
            self.first = stdout
        elif stdout != self.first:
            return f"seed {self.seed}: stdout differs from the first pass"
        return None


def program_seeds(seed: int, count: int) -> list:
    """The verify --seed values of a run, drawn from the benchmark seed."""
    rng = random.Random(f"perfbench:verify-suites:{seed}")
    return [rng.randrange(10**6) for _ in range(count)]


def build_ops(workload: str, seed: int, work: Path):
    """(ops, warm-up argvs) of a run."""
    if workload == "verify-suites":
        *pool, spare = program_seeds(seed, VERIFY_POOL + 1)
        return [VerifyPass(s) for s in pool], VerifyPass(spare).argvs
    instances = json.loads((work / "instances.json").read_text())
    exact = workload == "dist-exact"
    return [DistOp(inst, exact, str(work / "plan.csv")) for inst in instances], [WARMUP_ARGV]


def run(ops, seconds: float, tracer=None, warmup=(WARMUP_ARGV,)) -> dict:
    plain, plain_ref, traced, failures = [], [], [], []
    attempted = 0

    def attempt(op, traced_side: bool) -> float:
        nonlocal attempted, before
        elapsed = ref = 0.0
        outputs = []
        if traced_side:
            tracer.install()
        try:
            for argv in op.argvs:
                took, code, out = call(argv)
                after = calib.block()
                elapsed += took
                ref += calib.at_reference(took, before, after)
                before = after
                outputs.append((code, out))
        finally:
            if traced_side:
                tracer.uninstall()
        attempted += 1
        if traced_side:
            traced.append(elapsed)
        else:
            plain.append(elapsed)
            plain_ref.append(ref)
        reason = op.check(outputs)
        if reason is not None:
            failures.append(reason)
        return elapsed

    for argv in warmup:  # lazy imports and first-call costs stay out of the timings
        call(argv)
    before = calib.block()
    start = time.perf_counter()
    longest = 0.0
    k = 0
    while True:
        # traced runs do each op plain and traced, alternating which goes first
        sides = [False] if tracer is None else [k % 2 == 0, k % 2 == 1]
        step = sum(attempt(ops[k % len(ops)], side) for side in sides)
        k += 1
        longest = max(longest, step)
        if time.perf_counter() - start + longest > seconds:
            break
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "op_s": plain,
        "op_ref_s": plain_ref,
        "traced_op_s": traced,
        "distinct_inputs": min(k, len(ops)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "kernel": active_kernel(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)
    ops, warmup = build_ops(args.workload, args.seed, args.work)
    tracer = Tracer() if args.trace else None
    result = run(ops, args.seconds, tracer, warmup)
    if tracer is not None:
        result["layers"] = tracer.metrics(len(result["traced_op_s"]))
        spans_path = args.work.parent / f"spans-{args.work.name}.csv"
        tracer.dump(spans_path)
        result["spans"] = str(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
