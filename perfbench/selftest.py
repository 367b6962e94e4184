"""Self-test of the benchmark's answer checks.

    python3 perfbench/selftest.py

For both dist workloads it draws a few real instances, runs the closed
loop once against the true HiGHS references (no op may fail) and once
with every reference off by a relative 1e-6 (every op must fail), then
corrupts one plan file and expects the plan check to object.  For
verify-suites it runs one real pass (it must be accepted), then feeds
the checker a FAIL statement, a missing summary, a nonzero exit and a
second pass that differs from the first.
Prints one line per expectation and exits 0 only if all hold.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))  # the checkout's maxwass

import inputs  # noqa: E402  (needs the path above)
import loop  # noqa: E402

POOL = 4
SECONDS = 1.5
OUT = HERE / "out"  # ignored by git, like run.py's outputs


def expect(results: list, label: str, ok: bool) -> None:
    results.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'}  {label}")


def check_dist(results: list, workload: str, work: Path) -> None:
    inputs.make_instances(workload, seed=0, out=work, pool=POOL)
    ops, _ = loop.build_ops(workload, 0, work)
    clean = loop.run(ops, SECONDS)
    expect(results, f"{workload}: true references, 0 of {clean['attempted']} ops fail",
           clean["attempted"] > 0 and clean["failed"] == 0)

    for op in ops:
        op.ref *= 1 + 1e-6
    corrupted = loop.run(ops, SECONDS)
    expect(results,
           f"{workload}: corrupted references, {corrupted['failed']} of "
           f"{corrupted['attempted']} ops fail",
           corrupted["attempted"] > 0 and corrupted["failed"] == corrupted["attempted"])

    op = ops[0]
    op.ref /= 1 + 1e-6
    _, code, out = loop.call(op.argvs[0])
    plan = Path(op.plan_path)
    header, first, *rest = plan.read_text().splitlines()
    fields = first.split(",")
    fields[-2] = "0"  # drop the first plan entry's weight
    plan.write_text("\n".join([header, ",".join(fields), *rest]) + "\n")
    expect(results, f"{workload}: a plan with a wrong weight is caught",
           op.check([(code, out)]) is not None)


def check_verify(results: list) -> None:
    ops, _ = loop.build_ops("verify-suites", 0, OUT)
    real = [loop.call(argv)[1:] for argv in ops[0].argvs]
    expect(results, f"verify-suites: a real pass at seed {ops[0].seed} is accepted",
           ops[0].check(real) is None)
    expect(results, "verify-suites: the same pass again is accepted",
           ops[0].check(real) is None)

    good = (
        "PASS  a  instances=1  failures=0  max_residual=0.0\n"
        "PASS  b  instances=2  failures=0  max_residual=0.0\n"
        "passed 2/2 statements\n"
    )

    def outputs(text=good, code=0):
        """A pass whose last call printed text and exited with code."""
        return [(0, good)] * (len(loop.SUITES) - 1) + [(code, text)]

    op = loop.VerifyPass(0)
    expect(results, "verify-suites: a clean pass is accepted", op.check(outputs()) is None)
    expect(results, "verify-suites: a second, different pass is caught",
           op.check(outputs(good.replace("instances=2", "instances=3"))) is not None)
    cases = {
        "a FAIL statement": (good.replace("PASS  b", "FAIL  b"), 0),
        "a missing summary": (good.rsplit("passed", 1)[0], 0),
        "exit 1": (good, 1),
    }
    for label, (text, code) in cases.items():
        expect(results, f"verify-suites: {label} is caught",
               loop.VerifyPass(0).check(outputs(text, code)) is not None)


def main() -> int:
    results = []
    OUT.mkdir(exist_ok=True)
    for workload in ("dist-exact", "dist-float"):
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            check_dist(results, workload, Path(tmp))
    check_verify(results)
    print(f"{sum(results)}/{len(results)} expectations hold")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
