"""Output checks applied to every benchmarked ltvctl call.

Each check returns a list of problems; an empty list means the call passed.
Tolerances are the ones the library's own tests use for the same invariants,
except the trapezoid allowance on the Gramian cross residual noted below.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import jsonschema
import numpy as np

from workloads import Spec

EXIT_OK, EXIT_INFEASIBLE = 0, 3
GRAMIAN_CROSS_RTOL = 1e-6      # tests/test_acceptance.py criterion 2 (Simpson, N = 200)
# trapezoid quadrature of W is only O(h^2) accurate; on such grids the cross
# residual may reach TRAPEZOID_CROSS_C * (h_max / tau)^2 relative
TRAPEZOID_CROSS_C = 4.0
TARGET_RESIDUAL_TOL = 1e-6     # criterion 4
COST_RTOL = 1e-6               # criterion 4: |cost - gramian_cost| <= 1e-6 (1 + |gramian_cost|)
HAUTUS_MARGIN_FLOOR = -1e-9    # criterion 6
KALMAN_RTOL = 1e-9             # tests/oracles.py kalman_rank
# reference comparison: roundoff relative to each number, plus roundoff
# relative to the largest number of the same report
REFERENCE_RTOL, REFERENCE_ATOL_SCALE = 1e-9, 1e-12

ARTIFACTS = {
    "gramian": "gramian_eigenvalues.csv",
    "synthesize": "control.csv",
    "hautus": "hautus_margins.csv",
    "frozen-compare": "frozen_constants.csv",
}


def kalman_rank(A, B, rtol: float = KALMAN_RTOL) -> int:
    """rank [B, (-A)B, ..., (-A)^{n-1} B] by singular values."""
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    blocks = [B]
    for _ in range(A.shape[0] - 1):
        blocks.append(-A @ blocks[-1])
    s = np.linalg.svd(np.hstack(blocks), compute_uv=False)
    return int(np.sum(s > rtol * s[0])) if s[0] > 0 else 0


class ReportChecker:
    def __init__(self, schema_path: Path):
        schema = json.loads(schema_path.read_text())
        self._validator = jsonschema.Draft7Validator(schema)

    def check(self, spec: Spec, command: str, rc, outdir: Path) -> tuple[list[str], dict | None]:
        """Problems with one call's exit code and report, plus the parsed report."""
        try:
            doc = json.loads((outdir / "report.json").read_text())
        except (OSError, ValueError) as exc:
            return [f"no readable report.json: {exc}"], None
        problems = [f"schema: {e.message}" for e in self._validator.iter_errors(doc)]
        if doc.get("command") != command:
            problems.append(f"command {doc.get('command')!r} != {command!r}")
        system = doc.get("system", {})
        for key in ("n", "m", "p", "steps"):
            if system.get(key) != spec.doc[key]:
                problems.append(f"system.{key} {system.get(key)!r} != spec {spec.doc[key]!r}")
        if problems:
            return problems, doc
        problems += _INVARIANTS[command](spec, rc, doc)
        artifact = ARTIFACTS.get(command)
        if artifact and rc == EXIT_OK and not (outdir / artifact).is_file():
            problems.append(f"missing {artifact}")
        return problems, doc


def _analyze(spec, rc, doc):
    problems = []
    want = EXIT_OK if doc["controllable"] else EXIT_INFEASIBLE
    if rc != want:
        problems.append(f"exit {rc} but controllable={doc['controllable']}")
    delta_sq = max(doc["lambda_min_W"], 0.0)
    if not math.isclose(doc["obs_constant_delta"] ** 2, delta_sq, rel_tol=1e-9, abs_tol=1e-300):
        problems.append("obs_constant_delta != sqrt(lambda_min_W)")
    if doc["null_controllable"] != (doc["null_inclusion_c"] is not None):
        problems.append("null_inclusion_c disagrees with null_controllable")
    return problems


def _gramian(spec, rc, doc):
    if rc != EXIT_OK:
        return [f"exit {rc}, expected {EXIT_OK}"]
    problems = []
    quad = doc["controllability"]["quadrature"]
    W = np.asarray(quad["W"])
    rel = doc["cross_residual"] / max(float(np.linalg.norm(W)), 1e-300)
    tol = GRAMIAN_CROSS_RTOL
    if doc["system"]["quadrature"] == "trapezoid":
        tau = doc["system"]["tau"]
        nodes = spec.doc.get("nodes") or np.linspace(0.0, tau, spec.doc["steps"] + 1)
        tol = max(tol, TRAPEZOID_CROSS_C * (float(np.max(np.diff(nodes))) / tau) ** 2)
    if not rel <= tol:
        problems.append(f"gramian cross residual {rel:.3g} (relative) > {tol:.3g}")
    if spec.constant_coeffs:
        A, B = spec.doc["A"]["data"], spec.doc["B"]["data"]
        coercive = quad["lambda_min"] > 1e-10 * quad["lambda_max"] and quad["lambda_max"] > 0
        full_rank = kalman_rank(A, B) == spec.doc["n"]
        if coercive != full_rank:
            problems.append(f"coercive W ({coercive}) disagrees with Kalman rank ({full_rank})")
    return problems


def _synthesize(spec, rc, doc):
    if "verdict" in doc:
        return [] if rc == EXIT_INFEASIBLE else [f"exit {rc} with verdict {doc['verdict']}"]
    if rc != EXIT_OK:
        return [f"exit {rc} without an infeasibility verdict"]
    problems = []
    if not doc["target_residual"] <= TARGET_RESIDUAL_TOL:
        problems.append(f"target_residual {doc['target_residual']:.3g} > {TARGET_RESIDUAL_TOL}")
    if not abs(doc["cost"] - doc["gramian_cost"]) <= COST_RTOL * (1 + abs(doc["gramian_cost"])):
        problems.append(f"cost {doc['cost']!r} != gramian_cost {doc['gramian_cost']!r}")
    return problems


def _hautus(spec, rc, doc):
    problems = [] if rc == EXIT_OK else [f"exit {rc}, expected {EXIT_OK}"]
    if not doc["min_margin"] >= HAUTUS_MARGIN_FLOOR:
        problems.append(f"hautus min_margin {doc['min_margin']!r} < {HAUTUS_MARGIN_FLOOR}")
    return problems


def _frozen(spec, rc, doc):
    problems = [] if rc == EXIT_OK else [f"exit {rc}, expected {EXIT_OK}"]
    if not (doc["inf_frozen"] >= 0 and doc["delta_ltv"] >= 0):
        problems.append("negative observability constant")
    return problems


_INVARIANTS = {
    "analyze": _analyze,
    "gramian": _gramian,
    "synthesize": _synthesize,
    "hautus": _hautus,
    "frozen-compare": _frozen,
}


def _numbers(doc):
    if isinstance(doc, dict):
        for v in doc.values():
            yield from _numbers(v)
    elif isinstance(doc, list):
        for v in doc:
            yield from _numbers(v)
    elif isinstance(doc, float):
        yield abs(doc)


def compare_reference(got, ref) -> list[str]:
    """Differences between a report and its recorded reference, beyond roundoff."""
    atol = REFERENCE_ATOL_SCALE * max(_numbers(ref), default=0.0)
    problems: list[str] = []

    def walk(a, b, path):
        if len(problems) >= 5:
            return
        if isinstance(b, dict):
            if not isinstance(a, dict) or a.keys() != b.keys():
                problems.append(f"{path}: keys differ from reference")
                return
            for k in b:
                walk(a[k], b[k], f"{path}.{k}")
        elif isinstance(b, list):
            if not isinstance(a, list) or len(a) != len(b):
                problems.append(f"{path}: length differs from reference")
                return
            for i, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{path}[{i}]")
        elif isinstance(b, float) and isinstance(a, (int, float)) and not isinstance(a, bool):
            if not abs(a - b) <= REFERENCE_RTOL * abs(b) + atol:
                problems.append(f"{path}: {a!r} != reference {b!r}")
        elif a != b or type(a) is not type(b):
            problems.append(f"{path}: {a!r} != reference {b!r}")

    walk(got, ref, "report")
    return problems
