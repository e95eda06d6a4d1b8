"""Evolution family U(t, s) of x'(t) = -A(t) x(t) on a time grid.

Convention: d/dt U(t, s) = -A(t) U(t, s) and d/ds U(t, s) = +U(t, s) A(s),
so z(t) = U(tau, t)* z_tau solves the adjoint final-value problem
z'(t) = A(t)* z(t), z(tau) = z_tau.

Per-interval step matrices Phi_i ~ U(t_{i+1}, t_i) are integrated once with
RK4 (default, 4 substeps per interval) or the explicit midpoint rule;
arbitrary transitions are on-demand products of the cached steps.
"""

from __future__ import annotations

import numpy as np

from .sysmodel import ControlSignal, LtvSystem


class Propagator:
    """Cached discretized evolution family of one LtvSystem.

    Immutable after construction; all queries are pure.
    """

    def __init__(self, sys: LtvSystem, method: str = "rk4", substeps: int = 4):
        if method not in ("rk4", "midpoint"):
            raise ValueError(f"unknown integrator {method!r}")
        if substeps < 1:
            raise ValueError("substeps must be >= 1")
        self.sys = sys
        self.method = method
        self.substeps = substeps

        nodes = sys.grid.nodes
        n = sys.n
        steps = []
        for i in range(nodes.size - 1):
            phi = np.eye(n)
            h = (nodes[i + 1] - nodes[i]) / substeps
            t = nodes[i]
            for _ in range(substeps):
                phi = self._step(phi, t, h)
                t += h
            steps.append(phi)
        self.step_transitions = steps
        self._to_end: list[np.ndarray] | None = None
        self._from_start: list[np.ndarray] | None = None

    def _step(self, phi: np.ndarray, t: float, h: float) -> np.ndarray:
        A = self.sys.A
        if self.method == "midpoint":
            k1 = -A(t) @ phi
            k2 = -A(t + h / 2) @ (phi + (h / 2) * k1)
            return phi + h * k2
        k1 = -A(t) @ phi
        k2 = -A(t + h / 2) @ (phi + (h / 2) * k1)
        k3 = -A(t + h / 2) @ (phi + (h / 2) * k2)
        k4 = -A(t + h) @ (phi + h * k3)
        return phi + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)

    @property
    def grid(self):
        return self.sys.grid

    @property
    def steps(self) -> int:
        return self.sys.grid.steps

    def transition(self, s_idx: int, t_idx: int) -> np.ndarray:
        """U(t_{t_idx}, t_{s_idx}) as a product of interval steps; identity when equal."""
        N = self.steps
        if not (0 <= s_idx <= N and 0 <= t_idx <= N):
            raise IndexError(f"grid index out of range 0..{N}")
        if s_idx > t_idx:
            raise ValueError("backward transition s_idx > t_idx is not defined")
        if s_idx == t_idx:
            return np.eye(self.sys.n)
        out = self.step_transitions[s_idx]
        for i in range(s_idx + 1, t_idx):
            out = self.step_transitions[i] @ out
        return out

    def transitions_to_end(self) -> list[np.ndarray]:
        """[U(tau, t_i) for every node i], computed by one backward recursion."""
        if self._to_end is None:
            N = self.steps
            out = [np.eye(self.sys.n)] * (N + 1)
            for i in range(N - 1, -1, -1):
                out[i] = out[i + 1] @ self.step_transitions[i]
            self._to_end = out
        return self._to_end

    def transitions_from_start(self) -> list[np.ndarray]:
        """[U(t_i, 0) for every node i], computed by one forward recursion."""
        if self._from_start is None:
            out = [np.eye(self.sys.n)]
            for phi in self.step_transitions:
                out.append(phi @ out[-1])
            self._from_start = out
        return self._from_start

    def propagate_state(self, x0, u: ControlSignal | None = None,
                        t_idx: int | None = None) -> np.ndarray:
        """Variation-of-constants state x(t_k) = U(t_k,0)x0 + int_0^{t_k} U(t_k,s)B(s)u(s) ds.

        The forcing integral uses the grid quadrature restricted to [0, t_k],
        so it is exactly consistent with the Gramian and input-map quadratures.
        """
        N = self.steps
        k = N if t_idx is None else t_idx
        if not 0 <= k <= N:
            raise IndexError(f"grid index {k} out of range 0..{N}")
        x0 = np.asarray(x0).reshape(self.sys.n)
        if u is None:
            return self.transitions_from_start()[k] @ x0
        if not np.array_equal(u.grid.nodes, self.grid.nodes):
            raise ValueError("control signal grid does not match propagator grid")
        if u.dim != self.sys.m:
            raise ValueError(f"control dimension {u.dim} != m = {self.sys.m}")
        w = self.grid.prefix_weights(k)
        nodes = self.grid.nodes
        B = self.sys.B
        acc = np.eye(self.sys.n)  # U(t_k, t_i), built backward
        forced = np.zeros(self.sys.n, dtype=np.result_type(float, u.values.dtype))
        for i in range(k, -1, -1):
            if w[i] != 0.0:
                forced += w[i] * (acc @ (B(nodes[i]) @ u.values[i]))
            if i > 0:
                acc = acc @ self.step_transitions[i - 1]
        return acc @ x0 + forced

    def adjoint_state(self, z_tau, t_idx: int) -> np.ndarray:
        """z(t_i) = U(tau, t_i)* z_tau, the backward adjoint solution."""
        z = np.asarray(z_tau).reshape(self.sys.n)
        return self.transitions_to_end()[t_idx].conj().T @ z


def cocycle_defect(p: Propagator, i: int, j: int, k: int) -> float:
    """Relative Frobenius defect ||U(t_k,t_i) - U(t_k,t_j)U(t_j,t_i)|| / ||U(t_k,t_i)||."""
    direct = p.transition(i, k)
    split = p.transition(j, k) @ p.transition(i, j)
    return float(np.linalg.norm(direct - split) / max(np.linalg.norm(direct), 1e-300))
