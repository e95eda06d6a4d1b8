"""Controllability and observability Gramians on a finite horizon.

The controllability Gramian W_tau = int_0^tau U(tau,s) B(s) B(s)* U(tau,s)* ds
is built either by grid quadrature or by integrating the differential
Lyapunov equation

    dW/dt = -A(t) W - W A(t)* + B(t) B(t)*,   W(0) = 0,

which is the correct form for the sign convention x' = -A(t) x. The
observability Gramian is Q_tau = int_0^tau U(t,0)* C(t)* C(t) U(t,0) dt; its
minimum eigenvalue's square root is the exact-observability constant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .propagate import Propagator
from .sysmodel import LtvSystem

COERCIVITY_TOL = 1e-10


@dataclass(frozen=True)
class GramianResult:
    W: np.ndarray
    kind: str                    # "controllability" | "observability"
    method: str                  # "quadrature" | "lyapunov_ode"
    eigenvalues: np.ndarray      # ascending
    lambda_min: float
    lambda_max: float
    cross_residual: float | None = None


def _finalize(W: np.ndarray, kind: str, method: str) -> GramianResult:
    W = 0.5 * (W + W.conj().T)
    W.setflags(write=False)
    eigs = np.linalg.eigvalsh(W)
    eigs.setflags(write=False)
    return GramianResult(
        W=W,
        kind=kind,
        method=method,
        eigenvalues=eigs,
        lambda_min=float(eigs[0]),
        lambda_max=float(eigs[-1]),
    )


def ctrl_gramian_quadrature(p: Propagator) -> GramianResult:
    """W_tau by grid quadrature of U(tau,s) B(s) B(s)* U(tau,s)*."""
    grid = p.grid
    w = grid.weights()
    to_end = p.transitions_to_end()
    B = p.sys.B
    W = np.zeros((p.sys.n, p.sys.n))
    for i, t in enumerate(grid.nodes):
        if w[i] == 0.0:
            continue
        UB = to_end[i] @ B(t)
        W += w[i] * (UB @ UB.T)
    return _finalize(W, "controllability", "quadrature")


def ctrl_gramian_lyapunov(sys: LtvSystem, substeps: int = 4) -> GramianResult:
    """W(tau) from RK4 integration of the differential Lyapunov equation."""
    A, B = sys.A, sys.B

    def rhs(t: float, W: np.ndarray) -> np.ndarray:
        At = A(t)
        Bt = B(t)
        return -At @ W - W @ At.T + Bt @ Bt.T

    W = np.zeros((sys.n, sys.n))
    nodes = sys.grid.nodes
    for i in range(nodes.size - 1):
        h = (nodes[i + 1] - nodes[i]) / substeps
        t = nodes[i]
        for _ in range(substeps):
            k1 = rhs(t, W)
            k2 = rhs(t + h / 2, W + (h / 2) * k1)
            k3 = rhs(t + h / 2, W + (h / 2) * k2)
            k4 = rhs(t + h, W + h * k3)
            W = W + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
    return _finalize(W, "controllability", "lyapunov_ode")


def ctrl_gramian_cross(sys: LtvSystem, p: Propagator | None = None,
                       substeps: int = 4) -> tuple[GramianResult, GramianResult]:
    """Run both controllability methods and attach the Frobenius cross residual."""
    if p is None:
        p = Propagator(sys, substeps=substeps)
    quad = ctrl_gramian_quadrature(p)
    lyap = ctrl_gramian_lyapunov(sys, substeps=substeps)
    res = float(np.linalg.norm(quad.W - lyap.W))
    return replace(quad, cross_residual=res), replace(lyap, cross_residual=res)


def obs_gramian(p: Propagator) -> GramianResult:
    """Q_tau by grid quadrature of U(t,0)* C(t)* C(t) U(t,0)."""
    grid = p.grid
    w = grid.weights()
    from_start = p.transitions_from_start()
    C = p.sys.C
    Q = np.zeros((p.sys.n, p.sys.n))
    for i, t in enumerate(grid.nodes):
        if w[i] == 0.0:
            continue
        CU = C(t) @ from_start[i]
        Q += w[i] * (CU.T @ CU)
    return _finalize(Q, "observability", "quadrature")


def observability_constant(p: Propagator) -> float:
    """delta = sqrt(lambda_min(Q_tau)), the exact-observability constant."""
    return float(np.sqrt(max(obs_gramian(p).lambda_min, 0.0)))


def coercivity_check(g: GramianResult, tol: float = COERCIVITY_TOL) -> tuple[bool, float]:
    """Coercive iff lambda_min > tol * lambda_max (relative threshold)."""
    coercive = g.lambda_min > tol * max(g.lambda_max, 0.0) and g.lambda_max > 0.0
    return bool(coercive), g.lambda_min
