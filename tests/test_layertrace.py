"""The benchmark's outside-in layer tracer (perfbench/layertrace.py) still
patches real ltvcontrol names.

The tracer replaces each traced function or method by name; a deleted or
renamed target makes its install fail, and a target nothing calls any more
leaves its layer empty. The tracer source is executed from its file, so no
bytecode is written next to it.
"""

import sys
import types
from pathlib import Path

import pytest

import ltvcontrol
import ltvcontrol.cli
from test_cli import NUMERIC_COMMANDS, write_spec

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


@pytest.fixture
def layertrace(monkeypatch):
    module = types.ModuleType("layertrace")
    module.__file__ = str(LAYERTRACE)
    monkeypatch.setitem(sys.modules, "layertrace", module)
    exec(compile(LAYERTRACE.read_text(encoding="utf-8"), str(LAYERTRACE), "exec"),
         module.__dict__)
    return module


def _bindings(layertrace):
    """(namespace, name) of every traced or counted target, at its home module."""
    for module_name, attr, _ in layertrace.TRACED + layertrace.COUNTED:
        home = getattr(ltvcontrol, module_name)
        if "." in attr:
            cls_name, attr = attr.split(".")
            home = getattr(home, cls_name)
        yield vars(home), attr


def test_tracer_installs_records_and_uninstalls(layertrace, tmp_path):
    originals = [(ns, attr, ns[attr]) for ns, attr in _bindings(layertrace)]
    spec = write_spec(tmp_path / "spec.json", [[0.3, -0.1], [0.2, 0.4]], [[1.0], [0.5]],
                      [[1.0, 0.0]], steps=20)
    tracer = layertrace.LayerTracer()
    try:  # not "with": a failed install must still undo the patches it made
        tracer.install()
        for command in NUMERIC_COMMANDS:
            ltvcontrol.cli.main([command, spec, "-o", str(tmp_path / command)])
    finally:
        tracer.uninstall()
    assert all(ns[attr] is original for ns, attr, original in originals)
    totals = tracer.layer_totals()
    # frozen-compare computes all of its 21 values of m(s0) in one batched call
    assert totals["hautus.frozen"]["calls"] == NUMERIC_COMMANDS.count("frozen-compare")
    idle = [layer for layer, row in totals.items() if row["calls"] == 0]
    assert idle == []
