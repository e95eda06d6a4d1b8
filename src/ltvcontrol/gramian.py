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

from .propagate import (STACK_ELEMENTS, Propagator, batches, longest_segment, pow2_scale,
                        require_finite, rk4_substeps, segment_plan, stage_times)
from .sysmodel import LtvSystem

COERCIVITY_TOL = 1e-10

# the Lyapunov sweep is segmented up to this state dimension; past it the n(n+1)/2
# basis images of a segment cost more than the Python steps they save
SEGMENTED_MAX_N = 6


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
    """W_tau by grid quadrature of U(tau,s) B(s) B(s)* U(tau,s)*, X* (w X) per stack of the
    stream from tau to 0, X the rows of its B_i* U(tau, t_i)*; U(tau, 0) is U_tau_0."""
    n, w = p.sys.n, p.grid.weights()
    BT = p.sys.B(p.grid.nodes).transpose(0, 2, 1)
    W = np.zeros((n, n))
    for nodes, U in p.transitions_to_end():
        X = BT[nodes] @ U.transpose(0, 2, 1)
        W += np.dot(X.reshape(-1, n).T, (w[nodes, None, None] * X).reshape(-1, n))
    U.setflags(write=False)
    return _finalize(W, U[0])


def _segment_entries(n: int, substeps: int) -> int:
    """Entries per segment of a Lyapunov stack: 1 + n(n+1)/2 members, or 2K+1 stage times."""
    return max(1 + n * (n + 1) // 2, 2 * substeps + 1) * n * n


def lyapunov_segments(sys: LtvSystem, substeps: int) -> int:
    """S, the segments ctrl_gramian_lyapunov sweeps: the segment_plan of N intervals of K
    substeps, about sqrt(N K), capped at one stack. A basis image grows by at most
    e^(2 ||A||_inf span) over a segment's span (the Lyapunov operator's norm is at most
    2 ||A||_inf on the largest |entry|): segments take the shared growth rule at rate 2,
    longest_segment(sys, 2), in more stacks if need be. S = 1 (no images) past SEGMENTED_MAX_N."""
    if sys.n > SEGMENTED_MAX_N:
        return 1
    cap = STACK_ELEMENTS // _segment_entries(sys.n, substeps)
    return segment_plan(sys.grid.steps, substeps, cap, longest_segment(sys, 2))[0]


def _lyapunov_coefficients(sys: LtvSystem, substeps: int, segments: int, stack: slice):
    """For each position j = 0 .. L-1 (interval sL + j of segment s) of the segments in the
    slice stack of the S = segments: h, h/2 and h/6 as (size, 1, 1) arrays, and -A and
    B B* at its 2K+1 stage times, each stacked over those size segments. The intervals
    past N, which pad the last segment to L, have length 0. The coefficients are sampled
    for a chunk of positions in one call each; a constant B B* is formed once, on a stack
    of one, and broadcast."""
    n, N = sys.n, sys.grid.steps
    L = -(-N // segments)
    nodes = np.concatenate([sys.grid.nodes, np.full(segments * L - N, sys.grid.tau)])
    starts = np.arange(segments)[stack, None] * L
    size = stack.stop - stack.start
    neg_a, bbt = -sys.A, lambda Bs: Bs @ Bs.transpose(0, 2, 1)
    once = bbt(sys.B(nodes[:1])) if sys.B.kind == "constant" else None
    for chunk in batches(L, (2 * substeps + 1) * size * n * n):
        times, h = stage_times(nodes[starts + np.arange(chunk.start, chunk.stop + 1)], substeps)
        times = times.transpose(1, 2, 0).reshape(-1)  # position, stage time, segment
        negA = neg_a(times).reshape(-1, 2 * substeps + 1, size, n, n)
        BBT = (bbt(sys.B(times)).reshape(negA.shape) if once is None
               else np.broadcast_to(once, negA.shape))
        h = h.T.reshape(-1, size, 1, 1)
        yield from zip(h, h / 2, h / 6, negA, BBT)


def ctrl_gramian_lyapunov(sys: LtvSystem) -> GramianResult:
    """W(tau) from RK4 integration of the differential Lyapunov equation, with
    rk4_substeps(sys) RK4 substeps per interval, as the Propagator's steps.

    The RK4 map is affine in W. So the N intervals are cut into S = lyapunov_segments
    segments of L = ceil(N / S) intervals, swept side by side, one stacked RK4 substep
    per position, in consecutive stacks (_segment_entries). Segment s carries its forced
    solution X_s from W = 0 and, when S > 1, the homogeneous images H_s(E_b) of the
    n(n+1)/2 symmetric basis matrices E_b (E_ii, and E_ij + E_ji for i < j). The segments
    are then combined in order on the upper triangle, W <- sum_b W_b H_s(E_b) + X_s,
    where W_b is the entry W_ij that E_b picks out. With S = 1 the lone segment's X is W,
    and there is nothing to combine.

    Every member is symmetric, so a stage is P + P* + B B* with P = (-A) V."""
    substeps = rk4_substeps(sys)
    segments = lyapunov_segments(sys, substeps)
    n = sys.n
    iu, ju = np.triu_indices(n)
    basis = iu.size if segments > 1 else 0  # segment 0's images are never combined
    b = np.arange(basis)

    def views(X):
        """X's members side by side, the members, their transposes, and member 0: built
        once per stack, so that a stage reshapes nothing."""
        members = X.reshape(-1, n, basis + 1, n)  # [s, i, m, j]: entry (i, j) of member m
        X = X.reshape(len(members), n, -1)
        return X, members, members.swapaxes(-1, -3), X[..., :n]

    def stage(a, V, q, P, k):
        """k = P + P* per member with P = (-A) V, plus B B* on member 0 only; P is
        scratch, and k may be V's buffer."""
        np.matmul(a, V[0], out=P[0])
        np.add(P[1], P[2], out=k[1])
        np.add(k[3], q, out=k[3])

    w = None
    for stack in batches(segments, _segment_entries(n, substeps)):
        # four stacks, as a position's stack can fill STACK_ELEMENTS: W, two that take
        # turns as V, P and k, and acc, where k1 + 2 k2 + 2 k3 + k4 accumulates
        shape = (stack.stop - stack.start, n, basis + 1, n)
        Wv, accv, Xv, Yv = map(views, [np.zeros(shape)] + [np.empty(shape) for _ in range(3)])
        W, acc, X, Y = Wv[0], accv[0], Xv[0], Yv[0]
        Wv[1][:, iu[b], b + 1, ju[b]] = 1.0
        Wv[1][:, ju[b], b + 1, iu[b]] = 1.0
        for h, h2, h6, negA, BBT in _lyapunov_coefficients(sys, substeps, segments, stack):
            stages = zip(negA, BBT)
            a, q = next(stages)
            for _, (a2, q2), (a4, q4) in zip(range(substeps), stages, stages):
                stage(a, Wv, q, Xv, accv)
                np.multiply(h2, acc, out=X)
                X += W
                stage(a2, Xv, q2, Yv, Xv)
                np.multiply(h2, X, out=Y)
                Y += W
                X += X
                acc += X
                stage(a2, Yv, q2, Xv, Yv)
                np.multiply(h, Y, out=X)
                X += W
                Y += Y
                acc += Y
                stage(a4, Xv, q4, Yv, Xv)
                acc += X
                acc *= h6
                W += acc
                a, q = a4, q4  # a substep's end is the next one's start
        # each segment's [e, m], upper-triangle entry e of member m, combined in order
        for X_H in Wv[1][..., iu, :, ju].transpose(1, 0, 2):
            w = X_H[:, 0] if w is None else X_H[:, 1:] @ w + X_H[:, 0]
    W = np.empty((n, n))
    W[iu, ju] = W[ju, iu] = w
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
    """Q_tau by quadrature: X* (w X) per stack of the stream, X the rows of its C_i U(t_i, 0)."""
    n, w = p.sys.n, p.grid.weights()
    C = p.sys.C(p.grid.nodes)
    Q = np.zeros((n, n))
    for nodes, U in p.transitions_from_start():
        X = C[nodes] @ U
        Q += np.dot(X.reshape(-1, n).T, (w[nodes, None, None] * X).reshape(-1, n))
    return _finalize(Q)


def observability_constant(p: Propagator) -> float:
    """delta = sqrt(lambda_min(Q_tau)), the exact-observability constant."""
    return float(np.sqrt(max(obs_gramian(p).lambda_min, 0.0)))

