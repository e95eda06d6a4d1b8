"""Round 0 of every benchmark workload at toy sizes reproduces perfbench/reference.json.

The benchmark's spec generator and report comparison (perfbench/workloads.py
and checks.py) are executed from their files, so no bytecode is written next
to them. Each report must match its recorded reference within roundoff, which
keeps a refactor from moving any reported number, and every benchmark spec
must keep the Propagator's 4 RK4 substeps per interval.
"""

import json
import sys
import types
from pathlib import Path

import pytest

import ltvcontrol.cli
from ltvcontrol import Propagator, parse_system

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE_SEED = 1


def _load(name, monkeypatch):
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(name)
    module.__file__ = str(path)
    monkeypatch.setitem(sys.modules, name, module)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


@pytest.fixture
def perfbench(monkeypatch):
    workloads = _load("workloads", monkeypatch)  # checks imports it by this name
    return workloads, _load("checks", monkeypatch)


def test_toy_round_matches_reference(perfbench, tmp_path, capsys):
    workloads, checks = perfbench
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    compared = []
    for name, workload in workloads.WORKLOADS.items():
        for index in range(workload.round_size):
            spec = workload.spec(REFERENCE_SEED, index, workloads.TOY)
            path = tmp_path / f"{name}-{index}.json"
            workloads.write_spec(spec, path)
            for call in spec.calls:
                key = f"toy/{name}/{index}/{call.command}"
                out = tmp_path / key.replace("/", "-")
                ltvcontrol.cli.main([call.command, str(path), "-o", str(out),
                                     "--seed", str(REFERENCE_SEED), *call.flags])
                got = json.loads((out / "report.json").read_text())
                assert checks.compare_reference(got, reference[key]) == [], key
                compared.append(key)
    capsys.readouterr()
    assert sorted(compared) == sorted(k for k in reference if k.startswith("toy/"))


def test_every_benchmark_spec_keeps_four_substeps(perfbench):
    # a change to the step policy would move every benchmark number of such a spec
    workloads, _ = perfbench
    for sizes in (workloads.FULL, workloads.TOY):
        for seed in (1, 2, 3):
            for name, workload in workloads.WORKLOADS.items():
                for index in range(workload.round_size):
                    doc = workload.spec(seed, index, sizes).doc
                    sys_ = parse_system(json.dumps(doc))
                    assert Propagator(sys_).substeps == 4, (name, seed, index)
