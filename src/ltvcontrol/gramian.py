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

from .propagate import Propagator, batches, pow2_scale, require_finite, rk4_substeps, stage_times
from .sysmodel import LtvSystem

COERCIVITY_TOL = 1e-10


@dataclass(frozen=True)
class GramianResult:
    """W and its one eigen-decomposition, from which every verdict on W is read."""

    W: np.ndarray
    eigenvalues: np.ndarray      # ascending, from one eigh of W
    eigenvectors: np.ndarray     # their columns
    U_tau_0: np.ndarray | None = None  # U(tau, 0), handed over by the quadrature stream

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def numerical_range(self) -> tuple[np.ndarray, np.ndarray]:
        """The eigenvalues above COERCIVITY_TOL * max(lambda_max, 0) and their eigenvector
        columns: a suffix of the ascending eigenpairs."""
        cut = COERCIVITY_TOL * max(self.lambda_max, 0.0)
        k = int(np.searchsorted(self.eigenvalues, cut, side="right"))
        return self.eigenvalues[k:], self.eigenvectors[:, k:]

    @property
    def coercive(self) -> bool:
        """The coercivity rule: lambda_min > COERCIVITY_TOL * max(lambda_max, 0), so
        lambda_max > 0; that is, the numerical range holds all n eigenpairs."""
        return self.numerical_range[0].size == self.eigenvalues.size


def _finalize(W: np.ndarray, U_tau_0: np.ndarray | None = None) -> GramianResult:
    W = 0.5 * (W + W.conj().T)  # past about 9e307, W + W* overflows: checked after it
    require_finite(W, "the Gramian")
    W.setflags(write=False)
    lam, V = np.linalg.eigh(W)
    lam.setflags(write=False)
    V.setflags(write=False)
    return GramianResult(W=W, eigenvalues=lam, eigenvectors=V, U_tau_0=U_tau_0)


def ctrl_gramian_quadrature(p: Propagator) -> GramianResult:
    """W_tau by grid quadrature of U(tau,s) B(s) B(s)* U(tau,s)*, summed from s = tau to 0;
    the stream's last U, U(tau, 0), is handed over as U_tau_0."""
    w = p.grid.weights().tolist()[::-1]
    B = p.sys.B(p.grid.nodes)[::-1]
    W = np.zeros((p.sys.n, p.sys.n))
    for wi, Bi, (_, U) in zip(w, B, p.transitions_to_end()):
        UB = np.dot(U, Bi)
        W += wi * np.dot(UB, UB.T)
    U.setflags(write=False)
    return _finalize(W, U)


def ctrl_gramian_lyapunov(sys: LtvSystem) -> GramianResult:
    """W(tau) from RK4 integration of the differential Lyapunov equation, with
    rk4_substeps(sys) RK4 substeps per interval, as the Propagator's steps.

    The integration is sequential; only the coefficients are sampled ahead, -A and
    B B* at the 2K+1 distinct stage times of a chunk of intervals in one call each.
    Stages and the sum k1 + 2 k2 + 2 k3 + k4 are formed in place in the written
    order; doubling is exact and addition commutes, so W is the same bit for bit."""
    substeps = rk4_substeps(sys)
    n = sys.n
    nodes = sys.grid.nodes
    dot = np.dot
    W = np.zeros((n, n))
    for chunk in batches(nodes.size - 1, (2 * substeps + 1) * n * n):
        times, hs = stage_times(nodes[chunk.start:chunk.stop + 1], substeps)
        negA = -sys.A(times.reshape(-1))
        Bs = sys.B(times.reshape(-1))
        BBT = Bs @ Bs.transpose(0, 2, 1)
        # -A W - W A* equals negA W + W negA* bit for bit: negation is exact
        stages = zip(negA, negA.transpose(0, 2, 1), BBT)
        for h, h2, h6 in zip(hs.tolist(), (hs / 2).tolist(), (hs / 6).tolist()):
            a, aT, q = next(stages)
            for _, (a2, a2T, q2), (a4, a4T, q4) in zip(range(substeps), stages, stages):
                k1 = dot(a, W)
                k1 += dot(W, aT)
                k1 += q
                V = W + h2 * k1
                k2 = dot(a2, V)
                k2 += dot(V, a2T)
                k2 += q2
                V = W + h2 * k2
                k3 = dot(a2, V)
                k3 += dot(V, a2T)
                k3 += q2
                V = W + h * k3
                k4 = dot(a4, V)
                k4 += dot(V, a4T)
                k4 += q4
                k2 += k2
                k2 += k1
                k3 += k3
                k2 += k3
                k2 += k4
                k2 *= h6
                W = W + k2
                a, aT, q = a4, a4T, q4  # a substep's end is the next one's start
    return _finalize(W)


def ctrl_gramian_cross(p: Propagator) -> tuple[GramianResult, GramianResult, float]:
    """Both controllability methods and the Frobenius norm of their difference, taken
    on the difference scaled by an exact power of two so that it cannot overflow."""
    quad = ctrl_gramian_quadrature(p)
    lyap = ctrl_gramian_lyapunov(p.sys)
    diff = quad.W - lyap.W
    scale = pow2_scale(diff)
    return quad, lyap, float(np.linalg.norm(diff / scale) * scale)


def obs_gramian(p: Propagator) -> GramianResult:
    """Q_tau by grid quadrature of U(t,0)* C(t)* C(t) U(t,0) over one stream of U(t_i, 0)."""
    w = p.grid.weights().tolist()
    C = p.sys.C(p.grid.nodes)
    Q = np.zeros((p.sys.n, p.sys.n))
    for wi, Ci, U in zip(w, C, p.transitions_from_start()):
        CU = np.dot(Ci, U)
        Q += wi * np.dot(CU.T, CU)
    return _finalize(Q)


def observability_constant(p: Propagator) -> float:
    """delta = sqrt(lambda_min(Q_tau)), the exact-observability constant."""
    return float(np.sqrt(max(obs_gramian(p).lambda_min, 0.0)))

