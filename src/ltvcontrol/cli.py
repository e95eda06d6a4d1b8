"""Command-line front end: analyze | gramian | synthesize | hautus | frozen-compare | check | self-check.

All numeric output is written with shortest round-trip decimal representation
so two runs with the same config and seed produce byte-identical files.
Exit codes: 0 success, 1 self-check failure, 2 spec validation error,
3 infeasibility verdict (NotControllable and friends; the verdict is still
written).
"""

from __future__ import annotations

import argparse
import json
import math
import sys as _sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import duality, gramian, hautus, selfcheck, synth
from .propagate import Propagator
from .sysmodel import LtvSystem, SpecFormatError, parse_system

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_SELFCHECK = 1
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3


@dataclass
class RunConfig:
    command: str
    system_path: str | None = None
    output_dir: str = "."
    seed: int = 1
    quadrature: str | None = None
    substeps: int = 4
    method: str = "rk4"
    coercivity_tol: float = gramian.COERCIVITY_TOL
    x0: list[float] | None = None
    target: list[float] | None = None
    re_bounds: tuple[float, float] = (0.1, 10.0)
    re_points: int = 7
    im_values: tuple[float, ...] = (0.0, 1.0, -1.0, 10.0, -10.0)
    n_vectors: int = 50
    stride: int = 1
    tolerance_scale: float = 1.0
    extra: dict = field(default_factory=dict)


def _fmt(x: float) -> str:
    return repr(float(x))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return None if math.isinf(x) or math.isnan(x) else x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def _write_json(path: Path, doc: dict) -> None:
    doc = {"schema_version": SCHEMA_VERSION, **doc}
    path.write_text(json.dumps(_jsonable(doc), indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, (float, np.floating)) else str(v)
                              for v in row))
    path.write_text("\n".join(lines) + "\n")


def _system_summary(sys_: LtvSystem) -> dict:
    return {
        "n": sys_.n, "m": sys_.m, "p": sys_.p,
        "tau": sys_.tau, "steps": sys_.grid.steps,
        "quadrature": sys_.grid.quadrature,
    }


def _load(config: RunConfig) -> LtvSystem:
    text = Path(config.system_path).read_text()
    return parse_system(text, quadrature=config.quadrature)


def _propagator(sys_: LtvSystem, config: RunConfig) -> Propagator:
    return Propagator(sys_, method=config.method, substeps=config.substeps)


def _outdir(config: RunConfig) -> Path:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def run(config: RunConfig) -> int:
    """Execute one subcommand; returns the process exit status."""
    handler = {
        "check": _run_check,
        "analyze": _run_analyze,
        "gramian": _run_gramian,
        "synthesize": _run_synthesize,
        "hautus": _run_hautus,
        "frozen-compare": _run_frozen,
        "self-check": _run_selfcheck,
    }[config.command]
    if config.command not in ("self-check",):
        try:
            sys_ = _load(config)
        except SpecFormatError as exc:
            print(f"spec validation error: {exc}", file=_sys.stderr)
            out = _outdir(config)
            _write_json(out / "report.json", {
                "command": "check", "valid": False, "error": str(exc),
            })
            return EXIT_VALIDATION
        except OSError as exc:
            print(f"cannot read spec: {exc}", file=_sys.stderr)
            return EXIT_VALIDATION
        return handler(config, sys_)
    return handler(config)


def _run_check(config: RunConfig, sys_: LtvSystem) -> int:
    out = _outdir(config)
    _write_json(out / "report.json", {
        "command": "check", "valid": True, "system": _system_summary(sys_),
    })
    print(f"ok: n={sys_.n} m={sys_.m} p={sys_.p} tau={sys_.tau} steps={sys_.grid.steps}")
    return EXIT_OK


def _run_analyze(config: RunConfig, sys_: LtvSystem) -> int:
    out = _outdir(config)
    p = _propagator(sys_, config)
    report = duality.exact_controllability_test(sys_, propagator=p, tol=config.coercivity_tol)
    _write_json(out / "report.json", {
        "command": "analyze",
        "system": _system_summary(sys_),
        "controllable": report.controllable,
        "lambda_min_W": report.lambda_min_W,
        "obs_constant_delta": report.obs_constant_delta,
        "admissibility_M": report.admissibility_M,
        "null_controllable": report.null_controllable,
        "null_inclusion_c": report.null_inclusion_c,
        "coercivity_tol": report.coercivity_tol,
    })
    verdict = "controllable" if report.controllable else "NOT controllable"
    print(f"{verdict}: lambda_min(W)={report.lambda_min_W:.6g} "
          f"delta={report.obs_constant_delta:.6g} M={report.admissibility_M:.6g} "
          f"null={'yes' if report.null_controllable else 'no'}")
    return EXIT_OK if report.controllable else EXIT_INFEASIBLE


def _run_gramian(config: RunConfig, sys_: LtvSystem) -> int:
    out = _outdir(config)
    p = _propagator(sys_, config)
    quad, lyap = gramian.ctrl_gramian_cross(sys_, p, substeps=config.substeps)
    obs = gramian.obs_gramian(p)
    _write_json(out / "report.json", {
        "command": "gramian",
        "system": _system_summary(sys_),
        "controllability": {
            "quadrature": {"W": quad.W, "eigenvalues": quad.eigenvalues,
                           "lambda_min": quad.lambda_min, "lambda_max": quad.lambda_max},
            "lyapunov_ode": {"W": lyap.W, "eigenvalues": lyap.eigenvalues,
                             "lambda_min": lyap.lambda_min, "lambda_max": lyap.lambda_max},
        },
        "observability": {"Q": obs.W, "eigenvalues": obs.eigenvalues,
                          "lambda_min": obs.lambda_min, "lambda_max": obs.lambda_max},
        "cross_residual": quad.cross_residual,
    })
    rows = [(i, lam) for i, lam in enumerate(quad.eigenvalues)]
    _write_csv(out / "gramian_eigenvalues.csv", ["index", "eigenvalue"], rows)
    print(f"W eigenvalues in [{quad.lambda_min:.6g}, {quad.lambda_max:.6g}], "
          f"cross residual {quad.cross_residual:.3g}")
    return EXIT_OK


def _run_synthesize(config: RunConfig, sys_: LtvSystem) -> int:
    out = _outdir(config)
    p = _propagator(sys_, config)
    x0 = np.asarray(config.x0 if config.x0 is not None else np.zeros(sys_.n), dtype=float)
    target = np.asarray(config.target if config.target is not None else np.zeros(sys_.n),
                        dtype=float)
    if x0.size != sys_.n or target.size != sys_.n:
        print(f"x0/target must have dimension n={sys_.n}", file=_sys.stderr)
        return EXIT_VALIDATION
    try:
        result = synth.min_norm_control(p, x0, target, rank_tol=config.coercivity_tol)
    except (synth.NotControllableError, synth.NotNullControllableError) as exc:
        _write_json(out / "report.json", {
            "command": "synthesize", "system": _system_summary(sys_),
            "verdict": type(exc).__name__, "error": str(exc),
        })
        print(f"infeasible: {exc}", file=_sys.stderr)
        return EXIT_INFEASIBLE
    _write_json(out / "report.json", {
        "command": "synthesize",
        "system": _system_summary(sys_),
        "target_residual": result.target_residual,
        "cost": result.cost,
        "gramian_cost": result.gramian_cost,
        "condition_estimate": result.condition_estimate,
    })
    header = ["t"] + [f"u_{j + 1}" for j in range(sys_.m)]
    rows = [(t, *result.control.values[i].real)
            for i, t in enumerate(sys_.grid.nodes)]
    _write_csv(out / "control.csv", header, [[r[0], *r[1:]] for r in rows])
    print(f"steered with cost {result.cost:.6g}, residual {result.target_residual:.3g}")
    return EXIT_OK


def _run_hautus(config: RunConfig, sys_: LtvSystem) -> int:
    out = _outdir(config)
    p = _propagator(sys_, config)
    grid = hautus.default_hautus_grid(
        sys_.n, seed=config.seed, n_vectors=config.n_vectors,
        re_bounds=config.re_bounds, re_points=config.re_points,
        im_values=config.im_values,
    )
    report = hautus.hautus_sweep(sys_, grid, propagator=p)
    _write_json(out / "report.json", {
        "command": "hautus",
        "system": _system_summary(sys_),
        "seed": config.seed,
        "delta": report.delta,
        "admissibility_M": report.admissibility_M,
        "min_margin": report.min_margin,
        "constant_C": report.constant_C,
        "witness": {
            "lambda": complex(report.witness_lambda),
            "vector": report.witness_vector,
        },
    })
    rows = []
    for a, lam in enumerate(grid.lambdas):
        for ix in range(grid.test_vectors.shape[0]):
            rows.append((float(lam.real), float(lam.imag), ix, report.margins[a, ix]))
    _write_csv(out / "hautus_margins.csv",
               ["re_lambda", "im_lambda", "vector_index", "margin"], rows)
    print(f"min margin {report.min_margin:.6g} at lambda={report.witness_lambda} "
          f"(delta={report.delta:.6g}, M={report.admissibility_M:.6g})")
    return EXIT_OK


def _run_frozen(config: RunConfig, sys_: LtvSystem) -> int:
    out = _outdir(config)
    p = _propagator(sys_, config)
    report = hautus.frozen_vs_ltv_report(sys_, propagator=p, stride=config.stride)
    _write_json(out / "report.json", {
        "command": "frozen-compare",
        "system": _system_summary(sys_),
        "inf_frozen": report.inf_frozen,
        "delta_ltv": report.delta_ltv,
    })
    rows = list(zip(report.s_values, report.m_values))
    _write_csv(out / "frozen_constants.csv", ["s", "m"], rows)
    print(f"inf_s m(s) = {report.inf_frozen:.6g}, delta = {report.delta_ltv:.6g}")
    return EXIT_OK


def _run_selfcheck(config: RunConfig) -> int:
    rows = selfcheck.self_check(tolerance_scale=config.tolerance_scale, seed=config.seed)
    out = _outdir(config)
    _write_json(out / "report.json", {
        "command": "self-check",
        "checks": [{"system": r.system, "check": r.check, "value": r.value,
                    "tolerance": r.tolerance, "passed": r.passed} for r in rows],
    })
    width = max((len(f"{r.system}/{r.check}") for r in rows), default=10)
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        print(f"{f'{r.system}/{r.check}':<{width}}  {r.value:.3e} <= {r.tolerance:.3e}  {status}")
    failed = [r for r in rows if not r.passed]
    if failed:
        print(f"{len(failed)} check(s) failed", file=_sys.stderr)
        return EXIT_SELFCHECK
    return EXIT_OK


def _vector(text: str) -> list[float]:
    return [float(v) for v in text.replace(",", " ").split()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltvctl",
        description="Controllability/observability analysis of linear time-varying systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, spec=True):
        if spec:
            sp.add_argument("spec", help="system spec JSON file")
        sp.add_argument("-o", "--output-dir", default=".", help="report directory")
        sp.add_argument("--seed", type=int, default=1)
        sp.add_argument("--quadrature", choices=["trapezoid", "simpson"], default=None)
        sp.add_argument("--substeps", type=int, default=4)
        sp.add_argument("--method", choices=["rk4", "midpoint"], default="rk4")
        sp.add_argument("--coercivity-tol", type=float, default=gramian.COERCIVITY_TOL)

    common(sub.add_parser("check", help="validate a system spec"))
    common(sub.add_parser("analyze", help="duality/controllability report"))
    common(sub.add_parser("gramian", help="Gramians by both methods"))

    sp = sub.add_parser("synthesize", help="minimum-norm steering control")
    common(sp)
    sp.add_argument("--x0", type=_vector, default=None, help="initial state, comma separated")
    sp.add_argument("--target", type=_vector, default=None, help="target state, comma separated")

    sp = sub.add_parser("hautus", help="non-autonomous Hautus margin sweep")
    common(sp)
    sp.add_argument("--re-min", type=float, default=0.1)
    sp.add_argument("--re-max", type=float, default=10.0)
    sp.add_argument("--re-points", type=int, default=7)
    sp.add_argument("--im", type=_vector, default=[0.0, 1.0, -1.0, 10.0, -10.0])
    sp.add_argument("--vectors", type=int, default=50, help="random unit test vectors")

    sp = sub.add_parser("frozen-compare", help="frozen-coefficient constants m(s) vs delta")
    common(sp)
    sp.add_argument("--stride", type=int, default=1)

    sp = sub.add_parser("self-check", help="run the built-in invariant suite")
    common(sp, spec=False)
    sp.add_argument("--tolerance-scale", type=float, default=1.0)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(
        command=args.command,
        system_path=getattr(args, "spec", None),
        output_dir=args.output_dir,
        seed=args.seed,
        quadrature=args.quadrature,
        substeps=args.substeps,
        method=args.method,
        coercivity_tol=args.coercivity_tol,
    )
    if args.command == "synthesize":
        config.x0 = args.x0
        config.target = args.target
    elif args.command == "hautus":
        config.re_bounds = (args.re_min, args.re_max)
        config.re_points = args.re_points
        config.im_values = tuple(args.im)
        config.n_vectors = args.vectors
    elif args.command == "frozen-compare":
        config.stride = args.stride
    elif args.command == "self-check":
        config.tolerance_scale = args.tolerance_scale
    return config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return run(config_from_args(args))


if __name__ == "__main__":
    raise SystemExit(main())
