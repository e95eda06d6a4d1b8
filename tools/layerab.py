"""In-process A/B timing of one layer between two source trees.

    python tools/layerab.py PARENT_TREE CHANGE_TREE [--pairs 9]
                            [--layer lyapunov|build|admissibility]

The layer is ctrl_gramian_lyapunov (lyapunov, the default), the step build
Propagator(sys) (build), or admissibility_constant on a Propagator that each tree
builds once per row, outside the timed calls (admissibility).

Numpy and the standard library only. Each tree's src/ltvcontrol is copied, under
the package names ltv_parent and ltv_change, into a temporary directory that is
removed afterwards, and both are imported into this one interpreter, so the two
run on the same process state. BLAS is held to one thread unless the caller set
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS.

For each row of the ladder both trees build the same system from the same random
coefficients; one untimed call each gives the two results (W, the step matrices, or M).
Then --pairs alternating pairs of calls are timed (parent first in odd pairs, change
first in even ones). A row prints K, the RK4 substeps per interval of each tree as
parent/change (rk4_substeps for lyapunov, the Propagator's substeps otherwise), S (the
change tree's lyapunov_segments, or its Propagator's segments), both median times, their
ratio parent / change (above 1: the change is faster), the pairs the change won, and how
the results compare: the Frobenius distance of the two Ws relative to the parent's,
whether the two stacks of step matrices are np.array_equal, or whether the two Ms are
equal bit for bit. Where the two Ks differ the results differ by the change of method,
and equality is not expected. A row whose layer a tree refuses (NumericalRangeError, as
admissibility on the cap-conflict row, whose windows overflow) prints the refusal.
"""

from __future__ import annotations

import argparse
import importlib
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # read once, when numpy loads BLAS

import numpy as np  # noqa: E402

NAMES = ("ltv_parent", "ltv_change")
SLOW_ROW_PAIRS = 3  # pairs at most for a row whose call takes seconds


def _poly_row(n, steps, quadrature="trapezoid"):
    """A poly A of degree 2 (entries of scale 1/sqrt(n)), a constant B with n // 2 inputs
    and a poly C of degree 1 with n // 2 outputs, as the benchmark's verdict specs draw
    them."""
    rng = np.random.default_rng([n, steps])
    A = rng.normal(scale=1 / np.sqrt(n), size=(3, n, n))
    B = rng.normal(size=(n, max(1, n // 2)))
    C = rng.normal(size=(2, max(1, n // 2), n))

    def build(pkg):
        grid = pkg.TimeGrid.uniform(1.0, steps, quadrature)
        return pkg.LtvSystem(pkg.CoeffMatrixFn.poly(A, grid),
                             pkg.CoeffMatrixFn.constant(B, grid), pkg.CoeffMatrixFn.poly(C, grid))
    return build


def _cap_conflict(pkg):
    """-A = diag(2e5, -1) on 4000 steps: K = 51, and the span cap asks for more segments
    (1334) than one stack holds (79), so the sweep takes them in 17 stacks."""
    grid = pkg.TimeGrid.uniform(1.0, 4000, "trapezoid")
    return pkg.LtvSystem(pkg.CoeffMatrixFn.constant(np.diag([-2e5, 1.0]), grid),
                         pkg.CoeffMatrixFn.constant(np.array([[0.0], [1.0]]), grid),
                         pkg.CoeffMatrixFn.constant(np.array([[1.0, 1.0]]), grid))


# (label, system builder, pairs cap)
LADDER = [
    ("n=64 N=200 simpson (wide)", _poly_row(64, 200, "simpson"), None),
    ("n=4 N=2000 (steer)", _poly_row(4, 2000), None),
    ("n=6 N=500 (verdict)", _poly_row(6, 500), None),
    ("n=7 N=2000", _poly_row(7, 2000), None),
    ("n=12 N=500", _poly_row(12, 500), None),
    ("n=20 N=500", _poly_row(20, 500), None),
    ("n=32 N=500", _poly_row(32, 500), None),
    ("n=2 K=51 N=4000 (cap conflict)", _cap_conflict, SLOW_ROW_PAIRS),
]


def _import_trees(parent: Path, change: Path, into: Path):
    sys.dont_write_bytecode = True
    for tree, name in zip((parent, change), NAMES):
        shutil.copytree(tree / "src" / "ltvcontrol", into / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(into))
    try:
        return [importlib.import_module(name) for name in NAMES]
    finally:
        sys.path.remove(str(into))


def _lyapunov_plan(pkg, system) -> tuple[int, int]:
    substeps = pkg.propagate.rk4_substeps(system)
    return substeps, pkg.gramian.lyapunov_segments(system, substeps)


def _propagator_plan(pkg, p) -> tuple[int, int]:
    return p.substeps, p.segments()[0]


def _same(a, b) -> str:
    return f"{'yes' if np.array_equal(a, b) else 'no':>11}"


# layer: (the timed call's input from a system, its result, a tree's (K, S) from that
# input, the results compared; that column's header)
LAYERS = {
    "lyapunov": (lambda pkg, system: system,
                 lambda pkg, system: pkg.ctrl_gramian_lyapunov(system).W,
                 _lyapunov_plan,
                 lambda Wp, Wc: f"{np.linalg.norm(Wc - Wp) / np.linalg.norm(Wp):10.1e}",
                 "W rel dist"),
    "build": (lambda pkg, system: system,
              lambda pkg, system: pkg.Propagator(system).step_transitions,
              lambda pkg, system: _propagator_plan(pkg, pkg.Propagator(system)),
              _same, "steps equal"),
    "admissibility": (lambda pkg, system: pkg.Propagator(system),
                      lambda pkg, p: pkg.admissibility_constant(p),
                      _propagator_plan, _same, "    M equal"),
}


def _timed(call, pkg, given) -> float:
    start = time.perf_counter()
    call(pkg, given)
    return time.perf_counter() - start


def run_row(pkgs, build, pairs: int, layer: str = "lyapunov") -> dict:
    prepare, call, plan, compare, _ = LAYERS[layer]
    inputs = [prepare(pkg, build(pkg)) for pkg in pkgs]
    results = [call(pkg, given) for pkg, given in zip(pkgs, inputs)]
    (Kp, _), (Kc, S) = (plan(pkg, given) for pkg, given in zip(pkgs, inputs))
    times = ([], [])
    for k in range(pairs):
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            times[side].append(_timed(call, pkgs[side], inputs[side]))
    return {"K": f"{Kp}/{Kc}", "S": S, "parent": statistics.median(times[0]),
            "change": statistics.median(times[1]),
            "won": sum(c < p for p, c in zip(*times)), "pairs": pairs,
            "compared": compare(*results)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=9)
    parser.add_argument("--layer", choices=tuple(LAYERS), default="lyapunov")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        pkgs = _import_trees(args.parent.resolve(), args.change.resolve(), Path(tmp))
        print(f"{'row':32} {'K':>5} {'S':>3} {'parent ms':>10} {'change ms':>10} {'ratio':>6} "
              f"{'won':>5} {LAYERS[args.layer][4]}")
        for label, build, cap in LADDER:
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    r = run_row(pkgs, build, min(args.pairs, cap or args.pairs), args.layer)
            except ArithmeticError as exc:  # the library's NumericalRangeError
                print(f"{label:32} refused: {exc}", flush=True)
                continue
            print(f"{label:32} {r['K']:>5} {r['S']:3d} {1e3 * r['parent']:10.1f} "
                  f"{1e3 * r['change']:10.1f} {r['parent'] / r['change']:6.2f} "
                  f"{r['won']:2d}/{r['pairs']:<2d} {r['compared']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
