"""Built-in invariant suite over bundled reference systems.

Each check recomputes a structural identity (cocycle law, adjointness of the
input map, Lyapunov-vs-quadrature Gramian agreement, the averaging identity)
and compares it against its contract tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .duality import key_identity_residual
from .gramian import ctrl_gramian_cross
from .propagate import Propagator, cocycle_defect
from .sysmodel import ControlSignal, CoeffMatrixFn, LtvSystem, TimeGrid


@dataclass(frozen=True)
class CheckRow:
    system: str
    check: str
    value: float
    tolerance: float
    passed: bool


def reference_systems() -> list[tuple[str, LtvSystem]]:
    # Simpson keeps the quadrature Gramian inside the 1e-6 agreement budget
    grid = TimeGrid.uniform(1.0, 200, quadrature="simpson")
    scalar = LtvSystem(
        CoeffMatrixFn.constant([[1.0]], grid),
        CoeffMatrixFn.constant([[1.0]], grid),
        CoeffMatrixFn.constant([[1.0]], grid),
    )
    rotation = LtvSystem(
        CoeffMatrixFn.poly([[[0.3, 1.0], [-1.0, 0.3]], [[0.2, 0.0], [0.0, -0.1]]], grid),
        CoeffMatrixFn.constant([[0.0], [1.0]], grid),
        CoeffMatrixFn.constant([[1.0, 0.0], [0.0, 1.0]], grid),
    )
    ramp = LtvSystem(
        CoeffMatrixFn.poly([
            [[0.5, 0.1, 0.0], [0.0, 0.4, 0.2], [0.1, 0.0, 0.6]],
            [[0.0, 0.2, 0.0], [0.2, 0.0, 0.0], [0.0, 0.0, -0.3]],
        ], grid),
        CoeffMatrixFn.constant([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]], grid),
        CoeffMatrixFn.constant([[1.0, 1.0, 0.0]], grid),
    )
    return [("scalar_decay", scalar), ("rotation_2d", rotation), ("ramp_3d", ramp)]


def self_check() -> list[CheckRow]:
    """Run the invariant suite on the reference systems; one row per (system, check),
    each against its fixed contract tolerance. The adjoint identity is checked on the
    fixed signals u_j(t) = cos(7 (j+1) t + j) and z = (1, -1/2, 1/3, ...)."""
    rows: list[CheckRow] = []
    for name, sys in reference_systems():
        p = Propagator(sys)
        N = p.steps

        defect = max(
            cocycle_defect(p, i, j, k)
            for i in range(0, N + 1, N // 4)
            for j in range(i, N + 1, N // 4)
            for k in range(j, N + 1, N // 4)
        )
        rows.append(_row(name, "cocycle_defect", defect, 1e-8))

        j = np.arange(sys.m)
        u = ControlSignal(sys.grid, np.cos(np.outer(sys.grid.nodes, 7 * (j + 1)) + j))
        z = (-1.0) ** np.arange(sys.n) / np.arange(1, sys.n + 1)
        rows.append(_row(name, "adjoint_identity", key_identity_residual(p, u, z), 1e-8))

        quad, _, residual = ctrl_gramian_cross(p)
        rows.append(_row(name, "lyapunov_vs_quadrature", residual,
                         1e-6 * (1 + float(np.linalg.norm(quad.W)))))

    from .hautus import averaging_identity_residual
    t = np.linspace(0.0, 1.0, 1001)
    rows.append(_row("cosine", "averaging_identity",
                     averaging_identity_residual(np.cos(t), 1.0), 1e-5))
    return rows


def _row(system: str, check: str, value: float, tol: float) -> CheckRow:
    return CheckRow(system=system, check=check, value=float(value),
                    tolerance=float(tol), passed=bool(value <= tol))
