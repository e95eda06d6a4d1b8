"""Evolution family U(t, s) of x'(t) = -A(t) x(t) on a time grid.

Convention: d/dt U(t, s) = -A(t) U(t, s) and d/ds U(t, s) = +U(t, s) A(s),
so z(t) = U(tau, t)* z_tau solves the adjoint final-value problem
z'(t) = A(t)* z(t), z(tau) = z_tau.

Per-interval step matrices Phi_i ~ U(t_{i+1}, t_i) are integrated once with
RK4 (a substep count chosen from A, see rk4_substeps), on stacks of intervals
with A sampled once per distinct stage time for the whole stack. They are all
that is stored: transitions are products of them formed on demand, singly or
streamed node by node, so a pass holds O(n^2) beyond the steps.
"""

from __future__ import annotations

import math

import numpy as np

from .sysmodel import MAX_STEPS, ControlSignal, LtvSystem

# float64 entries in one batched stack of matrices (256 kB); bounds the memory
# of every chunked loop whatever the state dimension
STACK_ELEMENTS = 2**15

# RK4 substeps per interval: at least the classical 4, and never more than 64, which
# keeps the Lyapunov loop's per-interval stage stack, (2K+1) n^2 floats, near 4.2 MB
MIN_SUBSTEPS = 4
MAX_SUBSTEPS = 64


class NumericalRangeError(ArithmeticError):
    """A computed matrix left the floating-point range (inf or nan); no verdict is possible."""


def batches(count: int, item_size: int) -> list[slice]:
    """Consecutive slices of range(count), each of at most STACK_ELEMENTS // item_size
    items (at least one), for stacks whose items hold item_size entries each."""
    size = max(1, STACK_ELEMENTS // item_size)
    return [slice(a, min(a + size, count)) for a in range(0, count, size)]


def stage_times(nodes: np.ndarray, substeps: int) -> tuple[np.ndarray, np.ndarray]:
    """The 2K+1 distinct RK4 stage times of K substeps on each interval between
    consecutive nodes, one row per interval, and the substep length h of each.

    Column 2k holds t_k and column 2k+1 holds t_k + h/2, with h = (t_{i+1} - t_i) / K
    and t_{k+1} = t_k + h as a per-interval loop forms them, so column 2K is t_K."""
    h = (nodes[1:] - nodes[:-1]) / substeps
    cols = [nodes[:-1]]
    for _ in range(substeps):
        cols += [cols[-1] + h / 2, cols[-1] + h]
    return np.stack(cols, axis=1), h


def require_finite(M: np.ndarray, what: str) -> None:
    """Raise NumericalRangeError, naming what M is, unless every entry is finite.

    Every pass that calls this runs under np.errstate(over="ignore",
    invalid="ignore"): it reports their overflow, and numpy's warnings would
    only repeat it.
    """
    if not np.all(np.isfinite(M)):
        raise NumericalRangeError(f"{what} is not finite: the computation overflowed")


def rk4_substeps(sys: LtvSystem) -> int:
    """RK4 substeps per interval for sys: K = max(4, ceil(h_max * ||A||_inf)),
    with ||A||_inf bounded from the coefficient data.

    Every eigenvalue z of -hA/K then has |z| <= 1, and those of the Lyapunov
    operator W -> -AW - WA* have |z| <= 2; RK4's |R(z)| <= 1 on the closed left
    half-disk of radius 2.6, so decaying modes decay in the steps and in the
    Lyapunov ODE alike. A grid that would need more than MAX_SUBSTEPS (or a
    non-finite bound) is refused with NumericalRangeError.
    """
    bound = sys.A.inf_norm_bound()
    need = float(np.max(np.diff(sys.grid.nodes))) * bound
    if not need <= MAX_SUBSTEPS:
        uniform = sys.tau * bound / MAX_SUBSTEPS
        hint = (f"{math.floor(uniform) + 1} uniform steps would pass" if uniform < MAX_STEPS
                else f"no grid of at most {MAX_STEPS} steps would pass")
        raise NumericalRangeError(
            f"a step matrix needs more than {MAX_SUBSTEPS} RK4 substeps: the grid "
            f"is too coarse for A ({hint})")
    return max(MIN_SUBSTEPS, math.ceil(need))


class Propagator:
    """Discretized evolution family of one LtvSystem, held as its step matrices,
    each integrated with rk4_substeps(sys) RK4 substeps.

    Immutable after construction; all queries are pure.
    """

    def __init__(self, sys: LtvSystem):
        self.sys = sys
        self.substeps = rk4_substeps(sys)

        nodes = sys.grid.nodes
        n = sys.n
        steps = np.empty((nodes.size - 1, n, n))
        with np.errstate(over="ignore", invalid="ignore"):
            for chunk in batches(steps.shape[0], n * n):
                times, h = stage_times(nodes[chunk.start:chunk.stop + 1], self.substeps)
                hk = h[:, None, None]
                phi = np.broadcast_to(np.eye(n), (chunk.stop - chunk.start, n, n))
                a = -sys.A(times[:, 0])
                for t2, t4 in zip(times[:, 1::2].T, times[:, 2::2].T):
                    k1 = a @ phi
                    a = -sys.A(t2)
                    k2 = a @ (phi + (hk / 2) * k1)
                    k3 = a @ (phi + (hk / 2) * k2)
                    a = -sys.A(t4)  # also -A at the next substep's start
                    k4 = a @ (phi + hk * k3)
                    phi = phi + (hk / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
                require_finite(phi, "a step matrix")
                steps[chunk] = phi
        steps.setflags(write=False)
        self.step_transitions = steps

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

    def transitions_to_end(self):
        """Yield (i, U(tau, t_i)) for i = N down to 0 by U <- U Phi_i; raises
        NumericalRangeError in place of a non-finite U(tau, 0)."""
        U = np.eye(self.sys.n)
        yield self.steps, U
        for i in range(self.steps - 1, -1, -1):
            U = U @ self.step_transitions[i]
            if i == 0:
                require_finite(U, "U(tau, 0)")
            yield i, U

    def transitions_from_start(self):
        """Yield U(t_i, 0) for i = 0 up to N by U <- Phi_i U; raises
        NumericalRangeError in place of a non-finite U(tau, 0)."""
        U = np.eye(self.sys.n)
        yield U
        for i, phi in enumerate(self.step_transitions, 1):
            U = phi @ U
            if i == self.steps:
                require_finite(U, "U(tau, 0)")
            yield U

    def propagate_state(self, x0, u: ControlSignal | None = None) -> np.ndarray:
        """Variation-of-constants state x(tau) = U(tau,0)x0 + int_0^tau U(tau,s)B(s)u(s) ds.

        The forcing integral is the grid quadrature, summed by the forward sweep
        x <- Phi_i x + w_{i+1} B(t_{i+1}) u(t_{i+1}) from x = x0 + w_0 B(t_0) u(t_0).
        Raises NumericalRangeError in place of a non-finite x(tau).
        """
        x = np.asarray(x0).reshape(self.sys.n)
        forcing = np.zeros((self.steps + 1, 1))
        if u is not None:
            if not np.array_equal(u.grid.nodes, self.grid.nodes):
                raise ValueError("control signal grid does not match propagator grid")
            if u.dim != self.sys.m:
                raise ValueError(f"control dimension {u.dim} != m = {self.sys.m}")
            B = self.sys.B(self.grid.nodes)
            forcing = np.einsum("i,ijk,ik->ij", self.grid.weights(), B, u.values)
        with np.errstate(over="ignore", invalid="ignore"):
            x = x + forcing[0]
            for phi, f in zip(self.step_transitions, forcing[1:]):
                x = np.dot(phi, x) + f
        require_finite(x, "the state x(tau)")
        return x


def cocycle_defect(p: Propagator, i: int, j: int, k: int) -> float:
    """Relative Frobenius defect ||U(t_k,t_i) - U(t_k,t_j)U(t_j,t_i)|| / ||U(t_k,t_i)||."""
    direct = p.transition(i, k)
    split = p.transition(j, k) @ p.transition(i, j)
    return float(np.linalg.norm(direct - split) / max(np.linalg.norm(direct), 1e-300))
