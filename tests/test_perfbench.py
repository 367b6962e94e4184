"""The benchmark harness in perfbench/ still runs against this checkout.

perfbench/loop.py imports names of the program (`cli.main`,
`DiscreteMeasure`, `transport.active_kernel`) and perfbench/spans.py
rebinds the program's functions while it traces.  Deleting one of those
names, or a tracer that leaves a wrapper behind, breaks the benchmark
run without failing any other test; these tests catch both, in well
under a second, and write nothing under perfbench/.
"""

import importlib
import sys
from pathlib import Path

import pytest

from maxwass import cli, measure, transport, verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def harness(monkeypatch):
    """perfbench's loop and spans modules, imported from their scripts'
    directory as the benchmark runs them, with no bytecode cache written
    there; the modules are unloaded again afterwards."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    names = ("loop", "spans", "calib")
    assert not any(name in sys.modules for name in names)
    try:
        yield importlib.import_module("loop"), importlib.import_module("spans")
    finally:
        for name in names:
            sys.modules.pop(name, None)


def program_bindings() -> dict:
    """Every name the tracer may rebind, with the object it is bound to."""
    owners = [
        module
        for name, module in sys.modules.items()
        if name == "maxwass" or name.startswith("maxwass.")
    ]
    owners += [transport.TransportPlan, measure.DiscreteMeasure]
    bindings = {
        (repr(owner), attr): value
        for owner in owners
        for attr, value in vars(owner).items()
    }
    bindings.update({("SUITES", suite): fn for suite, fn in verify.SUITES.items()})
    return bindings


def test_tracer_restores_every_binding(harness):
    _, spans = harness
    before = program_bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = program_bindings()
        assert cli.main is not before[repr(cli), "main"]
        assert verify.SUITES["q-sides"] is not before["SUITES", "q-sides"]
    finally:
        tracer.uninstall()
    assert during.keys() == before.keys()
    after = program_bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_warmup_call_exits_zero(harness):
    loop, _ = harness
    _, code, out = loop.call(loop.WARMUP_ARGV)
    assert code == 0
    assert out.strip()
