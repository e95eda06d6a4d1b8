"""Self-tests of the benchmark at toy sizes.

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
from workloads import TOY, WORKLOADS

sys.path.insert(0, str(run.SRC))

from ltvcontrol import cli  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def toy_run(name, trace, tmp_path, seed=2):
    return run.run_workload(name, seed, 0.2, trace, sizes=TOY, setup_repeats=1,
                            workdir=tmp_path / f"{name}-{trace}-{seed}")["result"]


def declared_units(kind):
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def test_declared_workloads_exist():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_reported_with_its_unit(name, trace, tmp_path):
    result = toy_run(name, trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = declared_units("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_call_counts_repeat_exactly(name, tmp_path):
    runs = [toy_run(name, True, tmp_path, seed) for seed in (5, 5, 6)]
    counts = [{k: m["value"] for k, m in r["metrics"].items() if k.endswith(".calls")}
              for r in runs]
    assert counts[0] == counts[1] == counts[2]
    assert counts[0]["sysmodel.eval_coeff.calls"] > 0


def _corrupting(monkeypatch, corrupt):
    write = cli._write_json
    monkeypatch.setattr(cli, "_write_json", lambda path, doc: write(path, corrupt(dict(doc))))


@pytest.mark.parametrize("corrupt", [
    lambda doc: {k: v for k, v in doc.items() if k != "system"},
    lambda doc: {**doc, "cost": -1.0} if "cost" in doc else doc,
], ids=["schema", "invariant"])
def test_corrupted_report_is_a_failure(corrupt, monkeypatch, tmp_path):
    _corrupting(monkeypatch, corrupt)
    result = toy_run("steer", False, tmp_path)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_number_off_reference_is_a_failure(monkeypatch, tmp_path):
    def nudge(doc):
        if "admissibility_M" in doc:
            doc["admissibility_M"] *= 1 + 1e-7
        return doc

    _corrupting(monkeypatch, nudge)
    result = toy_run("verdict", False, tmp_path)
    assert result["failed"] > 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "steer",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
