import argparse
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import ltvcontrol
from ltvcontrol import cli, hautus, selfcheck
from ltvcontrol.cli import (
    EXIT_INFEASIBLE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_SELFCHECK,
    EXIT_VALIDATION,
    main,
)
from oracles import kalman_rank

try:
    from importlib.resources import files
except ImportError:  # pragma: no cover
    files = None

SCHEMA = json.loads(files("ltvcontrol").joinpath("schemas/report.schema.json").read_text())


def write_spec(path, A, B, C, tau=1.0, steps=200, **extra):
    doc = {
        "n": len(np.atleast_2d(A)),
        "m": np.atleast_2d(B).shape[1],
        "p": np.atleast_2d(C).shape[0],
        "tau": tau,
        "steps": steps,
        "A": {"kind": "constant", "data": np.atleast_2d(A).tolist()},
        "B": {"kind": "constant", "data": np.atleast_2d(B).tolist()},
        "C": {"kind": "constant", "data": np.atleast_2d(C).tolist()},
    }
    doc.update(extra)
    path.write_text(json.dumps(doc))
    return str(path)


def load_report(out_dir):
    doc = json.loads((out_dir / "report.json").read_text())
    jsonschema.validate(doc, SCHEMA)
    return doc


@pytest.fixture
def scalar_spec(tmp_path):
    return write_spec(tmp_path / "spec.json", [[1.0]], [[1.0]], [[1.0]])


@pytest.fixture
def simpson_scalar_spec(tmp_path):
    return write_spec(tmp_path / "simpson.json", [[1.0]], [[1.0]], [[1.0]], quadrature="simpson")


@pytest.fixture
def two_state_spec(tmp_path):
    return write_spec(tmp_path / "spec2.json", [[0.3, -0.1], [0.2, 0.4]], [[1.0], [0.5]],
                      [[1.0, 0.0]], steps=20)


class TestCheck:
    def test_valid_spec(self, scalar_spec, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["check", scalar_spec, "-o", str(out)]) == EXIT_OK
        doc = load_report(out)
        assert doc["valid"] is True
        assert doc["system"] == {"n": 1, "m": 1, "p": 1, "tau": 1.0,
                                 "steps": 200, "quadrature": "trapezoid"}
        assert "ok:" in capsys.readouterr().out

    def test_invalid_spec_names_field(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({
            "n": 2, "m": 1, "p": 1, "tau": 1.0, "steps": 10,
            "A": {"kind": "constant", "data": [[0.0, 0.0], [0.0, 0.0]]},
            "B": {"kind": "constant", "data": [[1.0]]},
            "C": {"kind": "constant", "data": [[1.0, 0.0]]},
        }))
        out = tmp_path / "out"
        assert main(["check", str(spec), "-o", str(out)]) == EXIT_VALIDATION
        doc = load_report(out)
        assert doc["valid"] is False
        assert "B" in doc["error"]
        assert "B" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["check", str(tmp_path / "nope.json")]) == EXIT_VALIDATION

    def test_malformed_json(self, tmp_path):
        spec = tmp_path / "garbage.json"
        spec.write_text("{not json")
        assert main(["check", str(spec), "-o", str(tmp_path / "o")]) == EXIT_VALIDATION

    def test_undecodable_spec(self, tmp_path, capsys):
        spec = tmp_path / "utf16.json"
        spec.write_bytes(b"\xff\xfe")
        out = tmp_path / "out"
        assert main(["check", str(spec), "-o", str(out)]) == EXIT_VALIDATION
        assert load_report(out)["valid"] is False
        assert "Traceback" not in capsys.readouterr().err

    def test_simpson_on_nonuniform_nodes(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json", [[1.0]], [[1.0]], [[1.0]], steps=3,
                          nodes=[0.0, 0.1, 0.5, 1.0], quadrature="simpson")
        for command in ("check", "analyze"):
            out = tmp_path / command
            assert main([command, spec, "-o", str(out)]) == EXIT_VALIDATION
            doc = load_report(out)
            assert doc["error"].startswith("nodes:")
            assert doc["command"] == command

    def test_unknown_field_is_refused(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json", [[1.0]], [[1.0]], [[1.0]],
                          quadrture="simpson")
        out = tmp_path / "out"
        assert main(["check", spec, "-o", str(out)]) == EXIT_VALIDATION
        doc = load_report(out)
        assert doc["valid"] is False
        assert doc["error"] == "quadrture: unknown field"
        assert capsys.readouterr().err == "spec validation error: quadrture: unknown field\n"


NUMERIC_COMMANDS = ["analyze", "gramian", "synthesize", "hautus", "frozen-compare"]


class TestNumericallyInvalid:
    """A = diag(-900, 1) on 50 steps overflows U(tau, 0); no command reports a number,
    and the refusal is the only line on stderr."""

    @pytest.mark.parametrize("command", NUMERIC_COMMANDS)
    def test_overflow_is_refused(self, command, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json", np.diag([-900.0, 1.0]), [[1.0], [1.0]],
                          [[1.0, 1.0]], steps=50)
        out = tmp_path / "out"
        # numpy's floating-point warnings reach stderr through the warnings module
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, spec, "-o", str(out)]) == EXIT_NUMERICAL
        assert [str(w.message) for w in caught] == []
        doc = load_report(out)
        assert doc["command"] == command
        assert doc["verdict"] == "numerically_invalid"
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "numerically invalid: U(tau, 0) is not finite: the computation overflowed"]
        assert "nan" not in captured.out.lower()
        assert "nan" not in (out / "report.json").read_text().lower()
        assert [f.name for f in out.iterdir()] == ["report.json"]

    @pytest.mark.parametrize("command, A, B, C, what", [
        # U(tau, 0) ~ e^500 is finite; W ~ e^1000 is not
        ("gramian", np.diag([-500.0, 1.0]), [[1.0], [1.0]], [[1.0, 1.0]], "the Gramian"),
        # U(tau, 0) is finite; the windowed Gramians of the admissibility pass are not
        ("analyze", np.diag([-400.0, 1.0]), [[0.0], [1.0]], [[1.0, 0.0]],
         "a windowed observability Gramian"),
    ])
    def test_overflow_past_the_step_build_is_refused(self, command, A, B, C, what,
                                                      tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json", A, B, C, steps=50)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, spec, "-o", str(out)]) == EXIT_NUMERICAL
        assert [str(w.message) for w in caught] == []
        assert load_report(out)["verdict"] == "numerically_invalid"
        assert capsys.readouterr().err.splitlines() == [
            f"numerically invalid: {what} is not finite: the computation overflowed"]

    @pytest.mark.parametrize("command, flags, what", [
        # the cost ||u||^2 overflows; at the target the solve W eta = d does
        ("synthesize", ["--x0=1e200,0"], "the steering cost or residual"),
        ("synthesize", ["--target=1e308,-1e308"], "the Gramian solve"),
    ])
    def test_non_finite_result_is_refused(self, command, flags, what, two_state_spec,
                                          tmp_path, capsys):
        self._assert_refused(command, two_state_spec, flags, what, tmp_path, capsys)

    def test_overflowing_hautus_margin_is_refused(self, tmp_path, capsys):
        # at Re(lambda) = 1e300 the margin is about M w_0 Re(lambda) with M ~ 1e10 and
        # w_0 = 1/40: the margin itself, not only its square, is past the float range
        spec = write_spec(tmp_path / "spec.json", [[0.3, -0.1], [0.2, 0.4]], [[1.0], [0.5]],
                          [[1e10, 0.0]], steps=20)
        self._assert_refused("hautus", spec, ["--re-max", "1e300"], "a Hautus margin",
                             tmp_path, capsys)

    @pytest.mark.parametrize("flags, what", [
        # eta is finite, U(tau, t)* eta is not; U(tau, 0) x0 overflows before the solve
        (["--target=0,1e305"], "the adjoint signal"),
        (["--x0=1.7e308,1.7e308"], "the state x(tau)"),
    ])
    def test_non_finite_synthesis_sweep_is_refused(self, flags, what, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json", [[0.0, 0.5], [0.0, -5.0]], [[1.0], [1e-3]],
                          [[1.0, 1.0]], steps=50)
        self._assert_refused("synthesize", spec, flags, what, tmp_path, capsys)

    @staticmethod
    def _assert_refused(command, spec, flags, what, tmp_path, capsys):
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, spec, "-o", str(out), *flags]) == EXIT_NUMERICAL
        assert [str(w.message) for w in caught] == []
        doc = load_report(out)
        assert doc["command"] == command
        assert doc["verdict"] == "numerically_invalid"
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"numerically invalid: {what} is not finite: the computation overflowed"]
        assert [f.name for f in out.iterdir()] == ["report.json"]


class TestStiffSpec:
    """A = diag(700, 1) on 50 steps: 700 h = 14, so 4 RK4 substeps would leave the
    stability region; the Propagator takes 15 (the linspace gap is 0.02 + 2 ulp)."""

    @pytest.fixture
    def stiff_spec(self, tmp_path):
        return write_spec(tmp_path / "stiff.json", np.diag([700.0, 1.0]), [[1.0], [1.0]],
                          [[1.0, 1.0]], steps=50)

    def test_analyze_is_controllable_with_bounded_M(self, stiff_spec, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["analyze", stiff_spec, "-o", str(out)]) == EXIT_OK
        assert kalman_rank(np.diag([700.0, 1.0]), [[1.0], [1.0]]) == 2
        doc = load_report(out)
        assert doc["controllable"] is True
        # contractive steps, ||C||_2^2 = 2 and trapezoid weights summing to tau = 1
        assert 0 < doc["admissibility_M"] <= np.sqrt(2)
        assert capsys.readouterr().out.startswith("controllable:")

    def test_gramian_is_computed(self, stiff_spec, tmp_path):
        out = tmp_path / "out"
        assert main(["gramian", stiff_spec, "-o", str(out)]) == EXIT_OK
        doc = load_report(out)
        assert 0 < doc["cross_residual"] < 0.1
        assert doc["controllability"]["quadrature"]["lambda_min"] > 0

    def test_too_coarse_a_grid_is_refused(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json", [[1e4]], [[1.0]], [[1.0]], steps=100)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["analyze", spec, "-o", str(out)]) == EXIT_NUMERICAL
        assert [str(w.message) for w in caught] == []
        assert load_report(out)["verdict"] == "numerically_invalid"
        assert capsys.readouterr().err.splitlines() == [
            "numerically invalid: a step matrix needs more than 64 RK4 substeps: the grid "
            "is too coarse for A (157 uniform steps would pass)"]
        assert [f.name for f in out.iterdir()] == ["report.json"]


class TestAnalyze:
    def test_controllable_scalar(self, scalar_spec, tmp_path):
        out = tmp_path / "out"
        assert main(["analyze", scalar_spec, "-o", str(out)]) == EXIT_OK
        doc = load_report(out)
        assert doc["controllable"] is True
        assert doc["null_controllable"] is True
        W = (1 - np.exp(-2)) / 2
        assert doc["lambda_min_W"] == pytest.approx(W, abs=1e-4)
        assert doc["obs_constant_delta"] == pytest.approx(np.sqrt(W), abs=1e-4)

    def test_roundoff_sized_lambda_min_is_not_controllable(self, tmp_path, capsys):
        # A = R diag(1, 2) R^T, B = R e1 (R the rotation by 0.3): lambda_min(W) is about
        # 2e-17, above 0 but far below the relative threshold 1e-10 lambda_max
        c, s = np.cos(0.3), np.sin(0.3)
        R = np.array([[c, -s], [s, c]])
        spec = write_spec(tmp_path / "spec.json", R @ np.diag([1.0, 2.0]) @ R.T, R[:, :1],
                          [[1.0, 0.0]])
        out = tmp_path / "out"
        assert main(["analyze", spec, "-o", str(out)]) == EXIT_INFEASIBLE
        stdout = capsys.readouterr().out
        assert stdout.startswith("NOT controllable:")
        assert stdout.rstrip().endswith("null=no")
        doc = load_report(out)
        assert doc["controllable"] is False
        assert doc["null_controllable"] is False
        assert doc["coercivity_tol"] == 1e-10

    def test_uncontrollable_exits_infeasible(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json", np.zeros((2, 2)),
                          [[0.0], [0.0]], [[1.0, 0.0]])
        out = tmp_path / "out"
        assert main(["analyze", spec, "-o", str(out)]) == EXIT_INFEASIBLE
        doc = load_report(out)
        assert doc["controllable"] is False
        assert doc["null_inclusion_c"] is None  # inf serialized as null


class TestGramian:
    def test_scalar_report_and_csv(self, simpson_scalar_spec, tmp_path):
        out = tmp_path / "out"
        assert main(["gramian", simpson_scalar_spec, "-o", str(out)]) == EXIT_OK
        doc = load_report(out)
        W = (1 - np.exp(-2)) / 2
        assert doc["controllability"]["quadrature"]["W"][0][0] == pytest.approx(W, abs=1e-7)
        assert doc["controllability"]["lyapunov_ode"]["W"][0][0] == pytest.approx(W, abs=1e-7)
        assert doc["cross_residual"] <= 1e-6
        csv = (out / "gramian_eigenvalues.csv").read_text().splitlines()
        assert csv[0] == "index,eigenvalue"
        assert float(csv[1].split(",")[1]) == pytest.approx(W, abs=1e-7)


class TestSynthesize:
    def test_steering_report(self, simpson_scalar_spec, tmp_path):
        out = tmp_path / "out"
        assert main(["synthesize", simpson_scalar_spec, "-o", str(out),
                     "--x0", "0", "--target", "1"]) == EXIT_OK
        doc = load_report(out)
        W = (1 - np.exp(-2)) / 2
        assert doc["cost"] == pytest.approx(1 / W, abs=1e-4)
        assert doc["target_residual"] <= 1e-8
        csv = (out / "control.csv").read_text().splitlines()
        assert csv[0] == "t,u_1"
        assert len(csv) == 202  # header + 201 nodes

    def test_infeasible_writes_verdict(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json", [[0.0]], [[0.0]], [[1.0]])
        out = tmp_path / "out"
        assert main(["synthesize", spec, "-o", str(out),
                     "--x0", "0", "--target", "1"]) == EXIT_INFEASIBLE
        doc = load_report(out)
        assert doc["verdict"] == "NotControllableError"

    def test_dimension_mismatch(self, scalar_spec, tmp_path):
        assert main(["synthesize", scalar_spec, "-o", str(tmp_path / "o"),
                     "--x0", "0,0", "--target", "1"]) == EXIT_VALIDATION


class TestHautus:
    def test_scalar_sweep(self, scalar_spec, tmp_path):
        out = tmp_path / "out"
        assert main(["hautus", scalar_spec, "-o", str(out), "--vectors", "5",
                     "--re-points", "3", "--im", "0,1"]) == EXIT_OK
        doc = load_report(out)
        assert doc["min_margin"] >= -1e-9
        assert doc["delta"] == pytest.approx(0.657519854, abs=1e-4)
        csv = (out / "hautus_margins.csv").read_text().splitlines()
        assert csv[0] == "re_lambda,im_lambda,vector_index,margin"
        assert len(csv) == 1 + 3 * 2 * 5

    @pytest.mark.parametrize("flags", [["--re-max", "1e300"], ["--im=1e200"]])
    def test_huge_frequencies_give_finite_margins(self, flags, two_state_spec, tmp_path,
                                                  capsys):
        # the margins (about 2e298 and 9e198) fit in a float, though their squares do not
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["hautus", two_state_spec, "-o", str(out), "--vectors", "5",
                         *flags]) == EXIT_OK
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""
        doc = load_report(out)
        lines = (out / "hautus_margins.csv").read_text().splitlines()[1:]
        rows = [[float(v) for v in line.split(",")] for line in lines]
        assert len(rows) == 7 * (5 if flags[0] == "--re-max" else 1) * 5
        assert all(np.isfinite(row[3]) for row in rows)
        # at Re(lambda) = 1e300, e^{-Re(lambda) t} vanishes past t = 0: only the
        # trapezoid node t = 0 (weight 1/40) is left of the integral
        X = hautus.default_hautus_grid(2, n_vectors=5).test_vectors
        A0, C0 = np.array([[0.3, -0.1], [0.2, 0.4]]), np.array([1.0, 0.0])
        top = [row for row in rows if row[0] == 1e300]
        assert len(top) == (25 if flags[0] == "--re-max" else 0)
        for re, im, ix, margin in top:
            lam, x = complex(re, im), X[int(ix)]
            expect = (abs(C0 @ x) / np.sqrt(2 * re)
                      + doc["admissibility_M"] / 40 * abs(lam) * np.linalg.norm(x + A0 @ x / lam)
                      - doc["delta"] * np.linalg.norm(x))
            assert margin == pytest.approx(expect, rel=1e-12)


class TestFrozenCompare:
    def test_autonomous_scalar(self, simpson_scalar_spec, tmp_path):
        out = tmp_path / "out"
        assert main(["frozen-compare", simpson_scalar_spec, "-o", str(out),
                     "--stride", "50"]) == EXIT_OK
        doc = load_report(out)
        assert doc["inf_frozen"] == pytest.approx(doc["delta_ltv"], abs=1e-6)
        csv = (out / "frozen_constants.csv").read_text().splitlines()
        assert csv[0] == "s,m"
        assert len(csv) == 1 + 5  # stride 50 over 200 steps, endpoint included

    def test_frozen_overflow_is_the_only_stderr_line(self, tmp_path, capsys):
        # A(t) = diag(-600 t, 1): Q_tau is finite, the frozen Gramian at s = 1 is not
        path = tmp_path / "spec.json"
        write_spec(path, np.zeros((2, 2)), [[1.0], [1.0]], [[1.0, 1.0]], steps=50)
        doc = json.loads(path.read_text())
        doc["A"] = {"kind": "poly", "data": [[[0.0, 0.0], [0.0, 1.0]],
                                             [[-600.0, 0.0], [0.0, 0.0]]]}
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["frozen-compare", str(path), "-o", str(out)]) == EXIT_NUMERICAL
        assert [str(w.message) for w in caught] == []
        assert load_report(out)["verdict"] == "numerically_invalid"
        assert capsys.readouterr().err.splitlines() == [
            "numerically invalid: the frozen observability Gramian is not finite: "
            "the computation overflowed"]


class TestSelfCheck:
    def test_default_passes(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["self-check", "-o", str(out)]) == EXIT_OK
        doc = load_report(out)
        assert all(row["passed"] for row in doc["checks"])
        assert "PASS" in capsys.readouterr().out

    def test_failed_check_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(selfcheck, "cocycle_defect", lambda *args: 1.0)
        out = tmp_path / "out"
        assert main(["self-check", "-o", str(out)]) == EXIT_SELFCHECK
        doc = load_report(out)
        assert [row["system"] for row in doc["checks"] if not row["passed"]] == [
            "scalar_decay", "rotation_2d", "ramp_3d"]
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "failed" in captured.err


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json",
                          [[0.3, -0.1], [0.2, 0.4]], [[1.0], [0.5]],
                          [[1.0, 0.0]], steps=100)
        outputs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            for argv in (
                ["analyze", spec, "-o", str(out / "a")],
                ["gramian", spec, "-o", str(out / "g")],
                ["synthesize", spec, "-o", str(out / "s"),
                 "--x0", "0,0", "--target", "1,1"],
                ["hautus", spec, "-o", str(out / "h"),
                 "--vectors", "5", "--re-points", "3", "--seed", "9"],
            ):
                assert main(argv) in (EXIT_OK, EXIT_INFEASIBLE)
            blob = b"".join(sorted(
                f.read_bytes() for f in out.rglob("*") if f.is_file()))
            outputs.append(blob)
        assert outputs[0] == outputs[1]

    def test_seed_changes_hautus_vectors(self, two_state_spec, tmp_path):
        docs = []
        for seed in ("1", "2"):
            out = tmp_path / f"seed{seed}"
            assert main(["hautus", two_state_spec, "-o", str(out), "--vectors", "3",
                         "--re-points", "2", "--im", "0", "--seed", seed]) == EXIT_OK
            docs.append((out / "hautus_margins.csv").read_text())
        assert docs[0] != docs[1]


class TestColdStart:
    def test_scipy_is_imported_only_where_used(self, two_state_spec, tmp_path):
        # analyze, gramian, hautus and synthesize never load scipy; frozen-compare does (expm)
        code = "\n".join([
            "import sys",
            "import ltvcontrol.cli as cli",
            "def scipy_loaded():",
            "    return any(m.split('.')[0] == 'scipy' for m in sys.modules)",
            "codes = [cli.main([c, sys.argv[1], '-o', sys.argv[2] + c])",
            "         for c in ('analyze', 'gramian', 'hautus', 'synthesize')]",
            "before = scipy_loaded()",
            "codes.append(cli.main(['frozen-compare', sys.argv[1], '-o', sys.argv[2] + 'f']))",
            "print(codes, before, scipy_loaded())",
        ])
        src = str(Path(ltvcontrol.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code, two_state_spec, str(tmp_path / "o-")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] False True"


class TestFlagValues:
    @pytest.mark.parametrize("command, flags", [
        ("hautus", ["--vectors", "0"]),
        ("hautus", ["--re-points", "0"]),
        ("hautus", ["--re-min", "-1"]),
        ("hautus", ["--re-max", "inf"]),
        ("hautus", ["--re-min", "nan"]),
        ("hautus", ["--im="]),
        ("frozen-compare", ["--stride", "-3"]),
        ("hautus", ["--im", "nan"]),
        ("synthesize", ["--x0=nan,0"]),
        ("synthesize", ["--target=1,inf"]),
    ])
    def test_out_of_range_value_is_a_usage_error(self, command, flags, two_state_spec,
                                                 tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, two_state_spec, "-o", str(out), *flags])
        assert exc.value.code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "Traceback" not in err
        flag = flags[0].split("=")[0]
        assert err.splitlines()[-1].startswith(f"ltvctl {command}: error: argument {flag}")
        assert not out.exists()


    @pytest.mark.parametrize("command, flags", [
        ("check", ["--method", "midpoint"]),
        ("analyze", ["--substeps", "4"]),
        ("hautus", ["--method", "rk4"]),
        ("gramian", ["--coercivity-tol", "1e-3"]),
        ("analyze", ["--coercivity-tol", "0"]),
        ("synthesize", ["--coercivity-tol", "1e-3"]),
        ("gramian", ["--quadrature", "simpson"]),
        ("self-check", ["--quadrature", "simpson"]),
        ("self-check", ["--tolerance-scale", "2"]),
    ])
    def test_flag_the_command_does_not_read_is_rejected(self, command, flags, two_state_spec,
                                                        tmp_path):
        spec = [] if command == "self-check" else [two_state_spec]
        with pytest.raises(SystemExit) as exc:
            main([command, *spec, "-o", str(tmp_path / "out"), *flags])
        assert exc.value.code == EXIT_VALIDATION


class TestSchemaConformance:
    def test_every_report_has_version(self, scalar_spec, tmp_path):
        for i, argv in enumerate((
            ["check", scalar_spec],
            ["analyze", scalar_spec],
            ["self-check"],
        )):
            out = tmp_path / str(i)
            main(argv + ["-o", str(out)])
            doc = load_report(out)
            assert doc["schema_version"] == 1


class TestReadmeFlags:
    """README's "Command line" section and the parser name the same long options."""

    def test_readme_names_every_flag_and_only_those(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
        named = set(re.findall(r"--[a-z][a-z0-9-]*", section))
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        options = {opt for parser in sub.choices.values() for action in parser._actions
                   if action.dest != "help"
                   for opt in action.option_strings if opt.startswith("--")}
        assert options - named == set(), "flags missing from README"
        assert named - options == set(), "README names flags no subcommand has"
