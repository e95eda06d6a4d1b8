"""Run a range of benchmark specs through ltvctl and apply the benchmark's own checks.

    python tools/specscan.py WORKLOAD FIRST LAST [--seed S]

Builds the FULL-size specs FIRST..LAST (both included) of WORKLOAD with seed S
(default 1), runs every call of each through ltvcontrol.cli.main in this
interpreter, as perfbench/run.py does, and applies perfbench/checks.py's
ReportChecker to each call. perfbench/workloads.py and checks.py are executed
from their files, so nothing is written next to them; no bytecode is written,
and the spec files and outputs live in a temporary directory that is removed
afterwards. The timed loop of the benchmark reaches as many specs as the host's
speed allows, so this scans the specs past round 0 that only some runs see.

Each spec prints one line: every gated number of its calls as a fraction of its
bound, where at most 1 passes and the check fails above 1:
  analyze      delta     |delta^2 - lambda_min(W)| over its 1e-9 relative tolerance
  gramian      cross     the cross residual over its tolerance (trapezoid allowance
                         included)
               coerce    for constant A and B: 1e-10 lambda_max / lambda_min when the
                         Kalman rank is full, else its inverse (how near the
                         coercivity verdict is to disagreeing with the rank)
  synthesize   residual  target_residual over 1e-6
               cost      |cost - gramian_cost| over 1e-6 (1 + |gramian_cost|)
  hautus       margin    -min_margin over 1e-9 (the floor -1e-9; negative is clear)
A failed check prints its problems. The end prints, per gated number, the
largest fraction and the spec and call that hold it. Exits 1 when any check
failed, 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import shutil
import sys
import tempfile
import types
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name: str):
    """Execute perfbench/<name>.py as the module <name>, writing no bytecode."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(name)
    module.__file__ = str(path)
    sys.modules[name] = module  # checks imports workloads by this name
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def gated(checks, spec, command: str, rc, doc: dict) -> dict[str, float]:
    """The gated numbers of one call's report as fractions of their bounds."""
    out: dict[str, float] = {}
    if command == "analyze":
        a, b = doc["obs_constant_delta"] ** 2, max(doc["lambda_min_W"], 0.0)
        out["delta"] = abs(a - b) / max(1e-9 * max(abs(a), abs(b)), 1e-300)
    elif command == "gramian" and rc == checks.EXIT_OK:
        quad = doc["controllability"]["quadrature"]
        rel = doc["cross_residual"] / max(float(np.linalg.norm(quad["W"])), 1e-300)
        tol = checks.GRAMIAN_CROSS_RTOL
        if doc["system"]["quadrature"] == "trapezoid":
            tau, steps = doc["system"]["tau"], spec.doc["steps"]
            nodes = spec.doc.get("nodes") or np.linspace(0.0, tau, steps + 1)
            h = float(np.max(np.diff(nodes)))
            tol = max(tol, checks.TRAPEZOID_CROSS_C * (h / tau) ** 2)
        out["cross"] = rel / tol
        lo, hi = quad["lambda_min"], quad["lambda_max"]
        if spec.constant_coeffs and hi > 0 and lo > 0:
            rank = checks.kalman_rank(spec.doc["A"]["data"], spec.doc["B"]["data"])
            full = rank == spec.doc["n"]
            out["coerce"] = 1e-10 * hi / lo if full else lo / (1e-10 * hi)
    elif command == "synthesize" and rc == checks.EXIT_OK and "verdict" not in doc:
        out["residual"] = doc["target_residual"] / checks.TARGET_RESIDUAL_TOL
        out["cost"] = (abs(doc["cost"] - doc["gramian_cost"])
                       / (checks.COST_RTOL * (1 + abs(doc["gramian_cost"]))))
    elif command == "hautus":
        out["margin"] = -doc["min_margin"] / -checks.HAUTUS_MARGIN_FLOOR
    return out


def run_call(cli, argv: list[str]):
    """cli.main(argv) with its output swallowed: (exit code, exception or None)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv), None
        except SystemExit as exc:
            return exc.code, None
        except Exception as exc:  # counted as a failed call, as the benchmark counts it
            return None, exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("first", type=int)
    parser.add_argument("last", type=int)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True
    workloads, checks = _load("workloads"), _load("checks")
    if args.workload not in workloads.WORKLOADS or not 0 <= args.first <= args.last:
        parser.error(f"WORKLOAD is one of {sorted(workloads.WORKLOADS)}, 0 <= FIRST <= LAST")
    sys.path.insert(0, str(ROOT / "src"))
    from ltvcontrol import cli

    checker = checks.ReportChecker(ROOT / "src" / "ltvcontrol" / "schemas"
                                   / "report.schema.json")
    workload = workloads.WORKLOADS[args.workload]
    worst: dict[str, tuple[float, str]] = {}
    failed = calls = 0
    with tempfile.TemporaryDirectory(prefix="specscan-") as tmp:
        tmp = Path(tmp)
        for index in range(args.first, args.last + 1):
            spec = workload.spec(args.seed, index, workloads.FULL)
            path = tmp / "spec.json"
            workloads.write_spec(spec, path)
            parts = []
            for k, call in enumerate(spec.calls):
                outdir = tmp / f"out-{index}-{k}"
                rc, raised = run_call(cli, [call.command, str(path), "-o", str(outdir),
                                            "--seed", str(args.seed), *call.flags])
                problems, doc = checker.check(spec, call.command, rc, outdir)
                shutil.rmtree(outdir, ignore_errors=True)
                if raised is not None:
                    problems.insert(0, f"raised {raised!r}")
                calls += 1
                numbers = {} if doc is None or problems else gated(checks, spec, call.command,
                                                                   rc, doc)
                for name, value in numbers.items():
                    key = f"{call.command} {name}"
                    if key not in worst or value > worst[key][0]:
                        worst[key] = (value, f"spec {index}")
                text = " ".join(f"{name} {value:.3g}" for name, value in numbers.items())
                parts.append(f"{call.command} exit {rc}" + (f" {text}" if text else ""))
                if problems:
                    failed += 1
                    parts[-1] += " FAILED: " + "; ".join(problems)
            print(f"{args.workload} seed {args.seed} spec {index} {spec.shape}: "
                  + " | ".join(parts), flush=True)
    print(f"\n{calls} calls, {failed} failed; largest fraction of each bound:")
    for key, (value, where) in sorted(worst.items()):
        print(f"  {key:<22} {value:10.3g}  ({where})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
