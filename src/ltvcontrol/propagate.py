"""Evolution family U(t, s) of x'(t) = -A(t) x(t) on a time grid.

Convention: d/dt U(t, s) = -A(t) U(t, s) and d/ds U(t, s) = +U(t, s) A(s),
so z(t) = U(tau, t)* z_tau solves the adjoint final-value problem
z'(t) = A(t)* z(t), z(tau) = z_tau.

Per-interval step matrices Phi_i ~ U(t_{i+1}, t_i) are integrated once with
RK4 (default, 4 substeps per interval) or the explicit midpoint rule;
arbitrary transitions are on-demand products of the cached steps. Every
interval starts from the identity, so the steps are integrated together on
stacks of intervals, with A sampled once per substep for the whole stack.
"""

from __future__ import annotations

import numpy as np

from .sysmodel import ControlSignal, LtvSystem

# float64 entries in one batched stack of matrices (256 kB); bounds the memory
# of every chunked loop whatever the state dimension
STACK_ELEMENTS = 2**15


class NumericalRangeError(ArithmeticError):
    """A computed matrix left the floating-point range (inf or nan); no verdict is possible."""


def batches(count: int, item_size: int) -> list[slice]:
    """Consecutive slices of range(count), each of at most STACK_ELEMENTS // item_size
    items (at least one), for stacks whose items hold item_size entries each."""
    size = max(1, STACK_ELEMENTS // item_size)
    return [slice(a, min(a + size, count)) for a in range(0, count, size)]


def substep_times(nodes: np.ndarray, substeps: int):
    """Yield (t, h) for each substep of the intervals between consecutive nodes.

    t and h are arrays over the intervals; h = (t_{i+1} - t_i) / substeps and t
    advances by t + h, exactly as a per-interval loop forms them, so stage times
    t + h/2 and t + h are bit-identical to that loop's.
    """
    h = (nodes[1:] - nodes[:-1]) / substeps
    t = nodes[:-1]
    for _ in range(substeps):
        yield t, h
        t = t + h


def require_finite(M: np.ndarray, what: str) -> None:
    """Raise NumericalRangeError, naming what M is, unless every entry is finite."""
    if not np.all(np.isfinite(M)):
        raise NumericalRangeError(f"{what} is not finite: the computation overflowed")


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

        nodes = sys.grid.nodes
        n = sys.n
        steps = np.empty((nodes.size - 1, n, n))
        for chunk in batches(steps.shape[0], n * n):
            phi = np.broadcast_to(np.eye(n), (chunk.stop - chunk.start, n, n))
            for t, h in substep_times(nodes[chunk.start:chunk.stop + 1], substeps):
                phi = self._step(phi, t, h)
            require_finite(phi, "a step matrix")
            steps[chunk] = phi
        steps.setflags(write=False)
        self.step_transitions = steps
        self._to_end: list[np.ndarray] | None = None
        self._from_start: list[np.ndarray] | None = None

    def _step(self, phi: np.ndarray, t: np.ndarray, h: np.ndarray) -> np.ndarray:
        """One substep from times t of length h for a (K, n, n) stack of intervals."""
        A = self.sys.A
        hk = h[:, None, None]
        k1 = -A(t) @ phi
        a2 = -A(t + h / 2)
        k2 = a2 @ (phi + (hk / 2) * k1)
        if self.method == "midpoint":
            return phi + hk * k2
        k3 = a2 @ (phi + (hk / 2) * k2)
        k4 = -A(t + h) @ (phi + hk * k3)
        return phi + (hk / 6) * (k1 + 2 * k2 + 2 * k3 + k4)

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
            require_finite(out[0], "U(tau, 0)")
            self._to_end = out
        return self._to_end

    def transitions_from_start(self) -> list[np.ndarray]:
        """[U(t_i, 0) for every node i], computed by one forward recursion."""
        if self._from_start is None:
            out = [np.eye(self.sys.n)]
            for phi in self.step_transitions:
                out.append(phi @ out[-1])
            require_finite(out[-1], "U(tau, 0)")
            self._from_start = out
        return self._from_start

    def propagate_state(self, x0, u: ControlSignal | None = None) -> np.ndarray:
        """Variation-of-constants state x(tau) = U(tau,0)x0 + int_0^tau U(tau,s)B(s)u(s) ds.

        The forcing integral is the grid quadrature over the cached U(tau, t_i),
        so it is exactly consistent with the Gramian and input-map quadratures.
        """
        x0 = np.asarray(x0).reshape(self.sys.n)
        to_end = self.transitions_to_end()
        if u is None:
            return to_end[0] @ x0
        if not np.array_equal(u.grid.nodes, self.grid.nodes):
            raise ValueError("control signal grid does not match propagator grid")
        if u.dim != self.sys.m:
            raise ValueError(f"control dimension {u.dim} != m = {self.sys.m}")
        w = self.grid.weights()
        B = self.sys.B(self.grid.nodes)
        forced = np.zeros(self.sys.n, dtype=np.result_type(float, u.values.dtype))
        for i in range(self.steps, -1, -1):
            if w[i] != 0.0:
                forced += w[i] * (to_end[i] @ (B[i] @ u.values[i]))
        return to_end[0] @ x0 + forced


def cocycle_defect(p: Propagator, i: int, j: int, k: int) -> float:
    """Relative Frobenius defect ||U(t_k,t_i) - U(t_k,t_j)U(t_j,t_i)|| / ||U(t_k,t_i)||."""
    direct = p.transition(i, k)
    split = p.transition(j, k) @ p.transition(i, j)
    return float(np.linalg.norm(direct - split) / max(np.linalg.norm(direct), 1e-300))
