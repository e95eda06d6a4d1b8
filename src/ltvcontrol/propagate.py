"""Evolution family U(t, s) of x'(t) = -A(t) x(t) on a time grid.

Convention: d/dt U(t, s) = -A(t) U(t, s) and d/ds U(t, s) = +U(t, s) A(s),
so z(t) = U(tau, t)* z_tau solves the adjoint final-value problem
z'(t) = A(t)* z(t), z(tau) = z_tau.

Per-interval step matrices Phi_i ~ U(t_{i+1}, t_i) are integrated once with RK4 (as few
substeps as h ||A||_inf <= 1/STEP_RESOLUTION allows, at most rk4_substeps, see Propagator),
on stacks of intervals with A sampled once per distinct stage time for the whole stack.
They are stored with the segment products (Propagator.segments), bounded by one growth
rule: transitions are products of them formed on demand, so a pass holds a few stacks
beyond them.
"""

from __future__ import annotations

import math

import numpy as np

from .sysmodel import MAX_STEPS, ControlSignal, LtvSystem

# float64 entries in one batched stack of matrices (256 kB); bounds the memory
# of every chunked loop whatever the state dimension
STACK_ELEMENTS = 2**15

# rk4_substeps per interval: at least 4 (the step build takes fewer) and at most 64, which
# keeps the Lyapunov sweep's stage stack of one position of one segment, -A and B B* at
# its 2K+1 stage times, (2K+1) n^2 floats each (one for a constant A or B, broadcast),
# near 4.2 MB at n = 64 (with more than one segment the stacks stay within STACK_ELEMENTS)
MIN_SUBSTEPS = 4
MAX_SUBSTEPS = 64
# a step build substep spans h ||A||_inf <= 1/STEP_RESOLUTION: local error below 2.5e-13
STEP_RESOLUTION = 128

# passes are segmented up to this dimension (measured in README.md)
SEGMENTED_MAX_DIM = 32
# a segment's products grow by at most e^SEGMENT_GROWTH, about 2^511: finite, and
# finite times any coefficient below 2^512
SEGMENT_GROWTH = 354.0


class NumericalRangeError(ArithmeticError):
    """A computed matrix left the floating-point range (inf or nan); no verdict is possible.

    The library leaves numpy's error state as the caller set it, so a direct
    caller sees numpy's overflow warning first (or a FloatingPointError in place
    of this error under np.seterr(all="raise")); ltvctl silences both.
    """


def batches(count: int, item_size: int) -> list[slice]:
    """Consecutive slices of range(count), each of at most STACK_ELEMENTS // item_size
    items (at least one), for stacks whose items hold item_size entries each."""
    size = max(1, STACK_ELEMENTS // item_size)
    return [slice(a, min(a + size, count)) for a in range(0, count, size)]


def segment_plan(count: int, per_position: int = 1, cap: int | None = None,
                 longest: int | None = None) -> tuple[int, int]:
    """(S, L): count positions as S segments of L = ceil(count / S), the last one short.
    S aims at round(sqrt(count per_position)), where L positions of per_position substeps
    plus S combines are fewest, within cap and count; L is then at most longest, and
    S = ceil(count / L)."""
    S = min(round(math.sqrt(count * per_position)), count, count if cap is None else cap)
    L = min(-(-count // S), count if longest is None else longest)
    return -(-count // L), L


def longest_segment(sys: LtvSystem, rate: int) -> int | None:
    """floor(SEGMENT_GROWTH / (rate h_max ||A||_inf)) intervals, None when ||A|| = 0: a segment
    product growing by at most e^(rate ||A||_inf) per unit time stays within e^SEGMENT_GROWTH."""
    growth = rate * substep_need(sys)
    return math.floor(SEGMENT_GROWTH / growth) if growth > 0 else None


def stage_times(nodes: np.ndarray, substeps: int) -> tuple[np.ndarray, np.ndarray]:
    """The 2K+1 distinct RK4 stage times of K substeps on each interval between
    consecutive nodes along the last axis, one row per interval, and the substep
    length h of each.

    Column 2k holds t_k and column 2k+1 holds t_k + h/2, with h = (t_{i+1} - t_i) / K
    and t_{k+1} = t_k + h as a per-interval loop forms them, so column 2K is t_K."""
    h = (nodes[..., 1:] - nodes[..., :-1]) / substeps
    cols = [nodes[..., :-1]]
    for _ in range(substeps):
        cols += [cols[-1] + h / 2, cols[-1] + h]
    return np.stack(cols, axis=-1), h


def require_finite(M: np.ndarray, what: str) -> None:
    """Raise NumericalRangeError, naming what M is, unless every entry is finite."""
    if not np.all(np.isfinite(M)):
        raise NumericalRangeError(f"{what} is not finite: the computation overflowed")


def pow2_scale(X: np.ndarray, axis: int | None = None) -> np.ndarray:
    """Exact powers of two that bring the largest |entry| of X (per slice along axis, or
    of all X) into [2^-250, 2), and are 1 where it already is: x -> x / 2^k is exact, so
    the norms of X / scale stay finite and, times scale, are those of X."""
    e = np.frexp(np.max(np.abs(X), axis=axis))[1]
    return 2.0 ** (e - np.clip(e, -250, 1))


def substep_need(sys: LtvSystem) -> float:
    """need = h_max ||A||_inf, the largest grid gap times A's bound from its data."""
    return float(np.max(np.diff(sys.grid.nodes))) * sys.A.inf_norm_bound()


def rk4_substeps(sys: LtvSystem) -> int:
    """K0 = max(4, ceil(need)) RK4 substeps per interval (need = substep_need(sys)), for
    the Lyapunov sweep and the frozen pass, and the most the Propagator's steps take.

    Every eigenvalue z of -hA/K then has |z| <= 1, and those of the Lyapunov
    operator W -> -AW - WA* have |z| <= 2; RK4's |R(z)| <= 1 on the closed left
    half-disk of radius 2.6, so decaying modes decay in the steps and in the
    Lyapunov ODE alike. A grid that would need more than MAX_SUBSTEPS (or a
    non-finite bound) is refused with NumericalRangeError.
    """
    need = substep_need(sys)
    if not need <= MAX_SUBSTEPS:
        uniform = sys.tau * sys.A.inf_norm_bound() / MAX_SUBSTEPS
        hint = (f"{math.floor(uniform) + 1} uniform steps would pass" if uniform < MAX_STEPS
                else f"no grid of at most {MAX_STEPS} steps would pass")
        raise NumericalRangeError(
            f"a step matrix needs more than {MAX_SUBSTEPS} RK4 substeps: the grid "
            f"is too coarse for A ({hint})")
    return max(MIN_SUBSTEPS, math.ceil(need))


def rk4_steps(neg_a, h, substeps: int) -> np.ndarray:
    """Phi ~ U(t + Kh, t) of x' = -A(t) x by K = substeps RK4 substeps of length h, for a
    stack of intervals: the iterator neg_a yields -A at the 2K+1 stage times of
    stage_times in column order, each a stack of matrices; h broadcasts against them.
    The first substep takes k1 = -A(t_0) itself, as Phi = I there."""
    a = next(neg_a)
    hk = np.asarray(h)[..., None, None]
    phi = np.eye(a.shape[-1])
    for k in range(substeps):
        k1 = a @ phi if k else a
        a = next(neg_a)
        k2 = a @ (phi + (hk / 2) * k1)
        k3 = a @ (phi + (hk / 2) * k2)
        a = next(neg_a)  # also -A at the next substep's start
        k4 = a @ (phi + hk * k3)
        phi = phi + (hk / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return phi


class Propagator:
    """Discretized evolution family of one LtvSystem, held as its step matrices, each
    integrated with max(1, min(K0, ceil(STEP_RESOLUTION need))) RK4 substeps (K0 =
    rk4_substeps(sys), need = substep_need(sys)), and its segment_products U(e_s, t_sL)
    (None when S = 1, see segments).

    Immutable after construction; all queries are pure.
    """

    def __init__(self, sys: LtvSystem):
        self.sys = sys
        K0 = rk4_substeps(sys)  # refuses a grid too coarse for A: need is finite below
        self.substeps = max(1, min(K0, math.ceil(STEP_RESOLUTION * substep_need(sys))))

        nodes, neg_a = sys.grid.nodes, -sys.A
        steps = np.empty((nodes.size - 1, sys.n, sys.n))
        for chunk in batches(steps.shape[0], sys.n * sys.n):
            times, h = stage_times(nodes[chunk.start:chunk.stop + 1], self.substeps)
            steps[chunk] = rk4_steps(map(neg_a, times.T), h, self.substeps)
            require_finite(steps[chunk], "a step matrix")
        steps.setflags(write=False)
        self.step_transitions = steps
        one = sys.n > SEGMENTED_MAX_DIM  # a node sweep: no segment product to bound
        cap, longest = (1, None) if one else (STACK_ELEMENTS // sys.n**2, longest_segment(sys, 1))
        S, L = self._segments = segment_plan(steps.shape[0], cap=cap, longest=longest)
        P = None
        if S > 1:  # by L stacked products
            P = steps[::L].copy()
            for j in range(1, L):
                P[:len(steps[j::L])] = steps[j::L] @ P[:len(steps[j::L])]
            P.setflags(write=False)
        self.segment_products = P

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

    def segments(self) -> tuple[int, int]:
        """(S, L) = segment_plan(N): segment s holds intervals sL .. e_s - 1, with
        e_s = min(sL + L, N), and the steps at position j of every segment are the view
        step_transitions[j::L]. S aims at most at STACK_ELEMENTS // n^2, L is at most
        longest_segment(sys, 1) (||Phi_i||_inf <= e^(h_i ||A||_inf)), and S = ceil(N / L) can
        pass that cap, and its stacks STACK_ELEMENTS. S = 1 past SEGMENTED_MAX_DIM."""
        return self._segments

    def segment_boundaries(self, to_end: bool) -> np.ndarray:
        """U(tau, e_s) (to_end) or U(t_sL, 0) of every segment s, stacked: segment_products
        chained in S - 1 products; the lone identity when S = 1. A non-finite chain (as the
        U(tau, 0) chained from it) raises NumericalRangeError."""
        S, P = self.segments()[0], self.segment_products
        U = np.empty((S, self.sys.n, self.sys.n))
        order = range(S - 1, -1, -1) if to_end else range(S)
        U[order[0]] = np.eye(self.sys.n)
        for a, b in zip(order, order[1:]):
            U[b] = U[a] @ P[a] if to_end else P[a] @ U[a]
        require_finite(U, "U(tau, 0)")
        return U

    def transitions_to_end(self):
        """Yield (nodes, stack of U(tau, t_i) for i in the slice nodes): node N, then position
        j of every segment for j = L-1 down to 0. U(tau, 0) opens the last stack."""
        return self._stream(to_end=True)

    def transitions_from_start(self):
        """Yield (nodes, stack of U(t_i, 0) for i in the slice nodes): node 0, then j + 1 + sL."""
        return self._stream(to_end=False)

    def _stream(self, to_end: bool):
        """Both streams, by U <- U Phi_i or Phi_i U from the segment boundaries; each raises
        NumericalRangeError in place of a non-finite U(tau, 0)."""
        L, N = self.segments()[1], self.steps
        yield (slice(N, N + 1) if to_end else slice(0, 1)), np.eye(self.sys.n)[None]
        U = self.segment_boundaries(to_end)
        for j in (range(L - 1, -1, -1) if to_end else range(L)):
            steps = self.step_transitions[j::L]
            head = U[:len(steps)] @ steps if to_end else steps @ U[:len(steps)]
            U = head if len(head) == len(U) else np.concatenate([head, U[len(head):]])
            if j == (0 if to_end else (N - 1) % L):
                require_finite(head, "U(tau, 0)")
            yield (slice(j, N, L) if to_end else slice(j + 1, N + 1, L)), head

    def propagate_state(self, x0, u: ControlSignal | None = None) -> np.ndarray:
        """Variation-of-constants state x(tau) = U(tau,0)x0 + int_0^tau U(tau,s)B(s)u(s) ds.

        The forcing integral is the grid quadrature, summed by the forward sweep
        x_s <- Phi_i x_s + w_{i+1} B(t_{i+1}) u(t_{i+1}) in every segment at once, each from
        0 but segment 0, from x0 + w_0 B(t_0) u(t_0); then x(tau) = sum_s U(tau, e_s) x_s,
        as input_map_adjoint sweeps Psi* z. Raises NumericalRangeError for a non-finite x(tau).
        """
        forcing = np.zeros((self.steps + 1, 1))
        if u is not None:
            if not np.array_equal(u.grid.nodes, self.grid.nodes):
                raise ValueError("control signal grid does not match propagator grid")
            if u.dim != self.sys.m:
                raise ValueError(f"control dimension {u.dim} != m = {self.sys.m}")
            B = self.sys.B(self.grid.nodes)
            forcing = np.einsum("i,ijk,ik->ij", self.grid.weights(), B, u.values)
        x = np.asarray(x0).reshape(self.sys.n) + forcing[0]
        S, L = self.segments()
        X = np.zeros((S, self.sys.n, 1), dtype=x.dtype)  # x_s as columns
        X[0, :, 0] = x
        for j in range(L):
            steps = self.step_transitions[j::L]
            X[:len(steps)] = steps @ X[:len(steps)]
            X[:len(steps), :, 0] += forcing[j + 1::L]
        x = np.einsum("sij,sj->i", self.segment_boundaries(to_end=True), X[..., 0])
        require_finite(x, "the state x(tau)")
        return x


def cocycle_defect(p: Propagator, i: int, j: int, k: int) -> float:
    """Relative Frobenius defect ||U(t_k,t_i) - U(t_k,t_j)U(t_j,t_i)|| / ||U(t_k,t_i)||."""
    direct = p.transition(i, k)
    split = p.transition(j, k) @ p.transition(i, j)
    return float(np.linalg.norm(direct - split) / max(np.linalg.norm(direct), 1e-300))
