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

from dataclasses import dataclass

import numpy as np

from .propagate import Propagator, batches, require_finite, rk4_substeps, substep_times
from .sysmodel import LtvSystem

COERCIVITY_TOL = 1e-10


@dataclass(frozen=True)
class GramianResult:
    W: np.ndarray
    eigenvalues: np.ndarray      # ascending
    lambda_min: float
    lambda_max: float


def _finalize(W: np.ndarray) -> GramianResult:
    require_finite(W, "the Gramian")
    W = 0.5 * (W + W.conj().T)
    W.setflags(write=False)
    eigs = np.linalg.eigvalsh(W)
    eigs.setflags(write=False)
    return GramianResult(
        W=W,
        eigenvalues=eigs,
        lambda_min=float(eigs[0]),
        lambda_max=float(eigs[-1]),
    )


def ctrl_gramian_quadrature(p: Propagator) -> GramianResult:
    """W_tau by grid quadrature of U(tau,s) B(s) B(s)* U(tau,s)*, summed from s = tau to 0."""
    w = p.grid.weights()
    B = p.sys.B(p.grid.nodes)
    W = np.zeros((p.sys.n, p.sys.n))
    with np.errstate(over="ignore", invalid="ignore"):
        for i, U in p.transitions_to_end():
            if w[i] != 0.0:
                UB = U @ B[i]
                W += w[i] * (UB @ UB.T)
    return _finalize(W)


def ctrl_gramian_lyapunov(sys: LtvSystem) -> GramianResult:
    """W(tau) from RK4 integration of the differential Lyapunov equation, with
    rk4_substeps(sys) RK4 substeps per interval, as the Propagator's steps.

    The integration is sequential; only the coefficients are sampled ahead,
    -A and B B* at every stage time of a chunk of intervals in one call each.
    """
    substeps = rk4_substeps(sys)
    n = sys.n
    nodes = sys.grid.nodes
    W = np.zeros((n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk in batches(nodes.size - 1, 3 * substeps * n * n):
            span = nodes[chunk.start:chunk.stop + 1]
            # stage times t, t + h/2, t + h ordered by interval, then substep, then stage
            stages = [x for t, h in substep_times(span, substeps) for x in (t, t + h / 2, t + h)]
            times = np.stack(stages, axis=1).reshape(-1)
            negA = -sys.A(times)
            Bs = sys.B(times)
            BBT = Bs @ Bs.transpose(0, 2, 1)
            # -A W - W A* equals negA W + W negA* bit for bit: negation is exact
            s = 0
            for h in (span[1:] - span[:-1]) / substeps:
                for _ in range(substeps):
                    a, q = negA[s], BBT[s]
                    k1 = a @ W + W @ a.T + q
                    a, q = negA[s + 1], BBT[s + 1]
                    V = W + (h / 2) * k1
                    k2 = a @ V + V @ a.T + q
                    V = W + (h / 2) * k2
                    k3 = a @ V + V @ a.T + q
                    a, q = negA[s + 2], BBT[s + 2]
                    V = W + h * k3
                    k4 = a @ V + V @ a.T + q
                    W = W + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
                    s += 3
    return _finalize(W)


def ctrl_gramian_cross(p: Propagator) -> tuple[GramianResult, GramianResult, float]:
    """Both controllability methods and the Frobenius norm of their difference."""
    quad = ctrl_gramian_quadrature(p)
    lyap = ctrl_gramian_lyapunov(p.sys)
    return quad, lyap, float(np.linalg.norm(quad.W - lyap.W))


def obs_gramian(p: Propagator) -> GramianResult:
    """Q_tau by grid quadrature of U(t,0)* C(t)* C(t) U(t,0) over one stream of U(t_i, 0)."""
    w = p.grid.weights()
    C = p.sys.C(p.grid.nodes)
    Q = np.zeros((p.sys.n, p.sys.n))
    with np.errstate(over="ignore", invalid="ignore"):
        for i, U in enumerate(p.transitions_from_start()):
            if w[i] != 0.0:
                CU = C[i] @ U
                Q += w[i] * (CU.T @ CU)
    return _finalize(Q)


def observability_constant(p: Propagator) -> float:
    """delta = sqrt(lambda_min(Q_tau)), the exact-observability constant."""
    return float(np.sqrt(max(obs_gramian(p).lambda_min, 0.0)))


def coercivity_check(g: GramianResult, tol: float = COERCIVITY_TOL) -> tuple[bool, float]:
    """Coercive iff lambda_min > tol * lambda_max (relative threshold)."""
    coercive = g.lambda_min > tol * max(g.lambda_max, 0.0) and g.lambda_max > 0.0
    return bool(coercive), g.lambda_min
