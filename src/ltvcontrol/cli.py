"""Command-line front end: analyze | gramian | synthesize | hautus | frozen-compare | check | self-check.

All numeric output is written with shortest round-trip decimal representation
so two runs with the same config and seed produce byte-identical files.
Exit codes: 0 success, 1 self-check failure, 2 spec validation error (an
undecodable spec file included), a rejected flag value or an output that
cannot be written, 3 infeasibility
verdict (NotControllable and friends; the verdict is still written), 4 a
computed matrix or result overflowed, or the grid is too coarse for A (verdict
"numerically_invalid"; no numbers are reported).

Each subcommand is one entry of a command table (its flags and one function);
``main`` loads the spec and writes the report and CSV files for all of them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys as _sys
from pathlib import Path

import numpy as np

from . import duality, gramian, hautus, selfcheck, synth
from .propagate import NumericalRangeError, Propagator
from .sysmodel import SpecFormatError, parse_system

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_SELFCHECK = 1
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4

# margins in one hautus table (re-points x im values x vectors): the default is 1750
MAX_MARGINS = 2**20


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):  # a finite float array is its list as it stands
        finite = obj.dtype.kind == "f" and np.isfinite(obj).all()
        return obj.tolist() if finite else _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return None if math.isinf(x) or math.isnan(x) else x
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def _write_json(path: Path, doc: dict) -> None:
    doc = {"schema_version": SCHEMA_VERSION, **doc}
    path.write_text(json.dumps(_jsonable(doc), indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    """rows of Python ints and floats (as .tolist() gives them), each printed by repr:
    the shortest round-trip decimal of a float."""
    lines = [",".join(header)]
    lines += [",".join(map(repr, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _vector(text: str) -> list[float]:
    values = [float(v) for v in text.replace(",", " ").split()]
    if not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(f"needs finite values, got {text!r}")
    return values


def _nonempty_vector(text: str) -> list[float]:
    values = _vector(text)
    if not values:
        raise argparse.ArgumentTypeError("needs at least one value")
    return values


def _checked(convert, accept, what: str):
    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be a {what}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names the type in "invalid int value"
    return parse


_positive_int = _checked(int, lambda v: v > 0, "positive integer")
_positive_float = _checked(float, lambda v: math.isfinite(v) and v > 0,
                           "finite positive number")


_COMMANDS: dict[str, tuple[str, bool, tuple, object]] = {}


def _flag(*names: str, **kwargs):
    return names, kwargs


def _command(name: str, help: str, *flags, spec: bool = True):
    """Register fn(args, sys_) -> (exit code, report fields or None, {csv: (header, rows)});
    sys_ is the parsed system, or None for a command without a spec. A numeric
    command builds its Propagator after its own flag checks."""
    def register(fn):
        _COMMANDS[name] = (help, spec, flags, fn)
        return fn
    return register


@_command("check", "validate a system spec")
def _check(args, sys_):
    print(f"ok: n={sys_.n} m={sys_.m} p={sys_.p} tau={sys_.tau} steps={sys_.grid.steps}")
    return EXIT_OK, {"valid": True}, {}


@_command("analyze", "duality/controllability report")
def _analyze(args, sys_):
    report = duality.exact_controllability_test(Propagator(sys_))
    verdict = "controllable" if report.controllable else "NOT controllable"
    print(f"{verdict}: lambda_min(W)={report.lambda_min_W:.6g} "
          f"delta={report.obs_constant_delta:.6g} M={report.admissibility_M:.6g} "
          f"null={'yes' if report.null_controllable else 'no'}")
    return EXIT_OK if report.controllable else EXIT_INFEASIBLE, dataclasses.asdict(report), {}


@_command("gramian", "Gramians by both methods")
def _gramian(args, sys_):
    p = Propagator(sys_)
    quad, lyap, residual = gramian.ctrl_gramian_cross(p)
    obs = gramian.obs_gramian(p)
    print(f"W eigenvalues in [{quad.lambda_min:.6g}, {quad.lambda_max:.6g}], "
          f"cross residual {residual:.3g}")
    return EXIT_OK, {
        "controllability": {
            "quadrature": {"W": quad.W, "eigenvalues": quad.eigenvalues,
                           "lambda_min": quad.lambda_min, "lambda_max": quad.lambda_max},
            "lyapunov_ode": {"W": lyap.W, "eigenvalues": lyap.eigenvalues,
                             "lambda_min": lyap.lambda_min, "lambda_max": lyap.lambda_max},
        },
        "observability": {"Q": obs.W, "eigenvalues": obs.eigenvalues,
                          "lambda_min": obs.lambda_min, "lambda_max": obs.lambda_max},
        "cross_residual": residual,
    }, {"gramian_eigenvalues.csv": (["index", "eigenvalue"],
                                    enumerate(quad.eigenvalues.tolist()))}


@_command("synthesize", "minimum-norm steering control",
          _flag("--x0", type=_vector, default=None, help="initial state, comma separated"),
          _flag("--target", type=_vector, default=None, help="target state, comma separated"))
def _synthesize(args, sys_):
    x0 = np.asarray(args.x0 if args.x0 is not None else np.zeros(sys_.n), dtype=float)
    target = np.asarray(args.target if args.target is not None else np.zeros(sys_.n),
                        dtype=float)
    if x0.size != sys_.n or target.size != sys_.n:
        print(f"x0/target must have dimension n={sys_.n}", file=_sys.stderr)
        return EXIT_VALIDATION, None, {}
    try:
        result = synth.min_norm_control(Propagator(sys_), x0, target)
    except synth.NotControllableError as exc:
        print(f"infeasible: {exc}", file=_sys.stderr)
        return EXIT_INFEASIBLE, {"verdict": type(exc).__name__, "error": str(exc)}, {}
    print(f"steered with cost {result.cost:.6g}, residual {result.target_residual:.3g}")
    header = ["t"] + [f"u_{j + 1}" for j in range(sys_.m)]
    rows = np.column_stack([sys_.grid.nodes, result.control.values.real]).tolist()
    return EXIT_OK, {
        "target_residual": result.target_residual,
        "cost": result.cost,
        "gramian_cost": result.gramian_cost,
        "condition_estimate": result.condition_estimate,
    }, {"control.csv": (header, rows)}


@_command("hautus", "non-autonomous Hautus margin sweep",
          _flag("--re-min", type=_positive_float, default=0.1),
          _flag("--re-max", type=_positive_float, default=10.0),
          _flag("--re-points", type=_positive_int, default=7),
          _flag("--im", type=_nonempty_vector, default=[0.0, 1.0, -1.0, 10.0, -10.0]),
          _flag("--vectors", type=_positive_int, default=50, help="random unit test vectors"))
def _hautus(args, sys_):
    margins = args.re_points * len(args.im) * args.vectors
    if margins > MAX_MARGINS:
        print(f"the margin table would hold {margins} margins (--re-points x --im values "
              f"x --vectors); at most {MAX_MARGINS} are allowed", file=_sys.stderr)
        return EXIT_VALIDATION, None, {}
    grid = hautus.default_hautus_grid(
        sys_.n, seed=args.seed, n_vectors=args.vectors,
        re_bounds=(args.re_min, args.re_max), re_points=args.re_points,
        im_values=tuple(args.im),
    )
    report = hautus.hautus_sweep(Propagator(sys_), grid)
    print(f"min margin {report.min_margin:.6g} at lambda={report.witness_lambda} "
          f"(delta={report.delta:.6g}, M={report.admissibility_M:.6g})")
    rows = [(lam.real, lam.imag, ix, margin)
            for lam, margins in zip(grid.lambdas.tolist(), report.margins.tolist())
            for ix, margin in enumerate(margins)]
    return EXIT_OK, {
        "seed": args.seed,
        "delta": report.delta,
        "admissibility_M": report.admissibility_M,
        "min_margin": report.min_margin,
        "constant_C": report.constant_C,
        "witness": {
            "lambda": complex(report.witness_lambda),
            "vector": report.witness_vector,
        },
    }, {"hautus_margins.csv": (["re_lambda", "im_lambda", "vector_index", "margin"], rows)}


@_command("frozen-compare", "frozen-coefficient constants m(s) vs delta",
          _flag("--stride", type=_positive_int, default=1))
def _frozen(args, sys_):
    report = hautus.frozen_vs_ltv_report(Propagator(sys_), stride=args.stride)
    print(f"inf_s m(s) = {report.inf_frozen:.6g}, delta = {report.delta_ltv:.6g}")
    return EXIT_OK, {
        "inf_frozen": report.inf_frozen,
        "delta_ltv": report.delta_ltv,
    }, {"frozen_constants.csv": (["s", "m"],
                                 zip(report.s_values.tolist(), report.m_values.tolist()))}


@_command("self-check", "run the built-in invariant suite", spec=False)
def _selfcheck(args, sys_):
    rows = selfcheck.self_check()
    width = max((len(f"{r.system}/{r.check}") for r in rows), default=10)
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        print(f"{f'{r.system}/{r.check}':<{width}}  {r.value:.3e} <= {r.tolerance:.3e}  {status}")
    failed = [r for r in rows if not r.passed]
    if failed:
        print(f"{len(failed)} check(s) failed", file=_sys.stderr)
    return EXIT_SELFCHECK if failed else EXIT_OK, {
        "checks": [{"system": r.system, "check": r.check, "value": r.value,
                    "tolerance": r.tolerance, "passed": r.passed} for r in rows],
    }, {}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltvctl",
        description="Controllability/observability analysis of linear time-varying systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, spec, flags, fn) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        if spec:
            sp.add_argument("spec", help="system spec JSON file")
        else:
            sp.set_defaults(spec=None)
        sp.add_argument("-o", "--output-dir", default=".", help="report directory")
        sp.add_argument("--seed", type=int, default=1)
        for names, kwargs in flags:
            sp.add_argument(*names, **kwargs)
        sp.set_defaults(run=fn)
    return parser


def _cannot_write(exc: OSError) -> int:
    print(f"cannot write output: {exc}", file=_sys.stderr)
    return EXIT_VALIDATION


def _write_outputs(out: Path, code: int, report: dict | None, tables: dict) -> int:
    """Write report.json (unless report is None) and the CSV tables into out, creating
    it; returns code, or EXIT_VALIDATION when the directory or a file cannot be written."""
    try:
        out.mkdir(parents=True, exist_ok=True)
        if report is not None:
            _write_json(out / "report.json", report)
        for name, (header, rows) in tables.items():
            _write_csv(out / name, header, rows)
    except OSError as exc:
        return _cannot_write(exc)
    return code


def main(argv: list[str] | None = None) -> int:
    """Parse argv, run one subcommand, write its report and CSVs; returns the exit code."""
    args = build_parser().parse_args(argv)
    out = Path(args.output_dir)
    sys_ = None
    if args.spec is not None:
        try:
            sys_ = parse_system(Path(args.spec).read_text(encoding="utf-8"))
        except (SpecFormatError, UnicodeDecodeError) as exc:
            print(f"spec validation error: {exc}", file=_sys.stderr)
            return _write_outputs(out, EXIT_VALIDATION, {
                "command": args.command, "valid": False, "error": str(exc),
            }, {})
        except OSError as exc:
            print(f"cannot read spec: {exc}", file=_sys.stderr)
            return EXIT_VALIDATION
    try:  # an output directory that cannot be made is refused before any work
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _cannot_write(exc)
    # the library refuses an overflowed result with NumericalRangeError; the one
    # stderr line below reports it, and numpy's warnings would only repeat it
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            code, fields, tables = args.run(args, sys_)
    except NumericalRangeError as exc:
        print(f"numerically invalid: {exc}", file=_sys.stderr)
        code, fields, tables = EXIT_NUMERICAL, {
            "verdict": "numerically_invalid", "error": str(exc)}, {}
    report = None
    if fields is not None:
        report = {"command": args.command, **fields}
        if sys_ is not None:
            report["system"] = {
                "n": sys_.n, "m": sys_.m, "p": sys_.p,
                "tau": sys_.tau, "steps": sys_.grid.steps,
                "quadrature": sys_.grid.quadrature,
            }
    return _write_outputs(out, code, report, tables)


if __name__ == "__main__":
    raise SystemExit(main())
