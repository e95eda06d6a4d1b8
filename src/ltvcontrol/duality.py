"""Input-to-state map, its adjoint, duality identities, and controllability verdicts.

The input map Psi_tau u = int_0^tau U(tau,s) B(s) u(s) ds and its adjoint
(Psi_tau* z)(t) = B(t)* U(tau,t)* z tie exact controllability to coercivity of
W_tau = Psi_tau Psi_tau*: the duality constant delta = sqrt(lambda_min(W_tau))
is the observability constant of the adjoint final-value problem. Null
controllability is the range inclusion Ran U(tau,0) within Ran W_tau^{1/2},
certified by the smallest c with ||U(tau,0)* z|| <= c ||Psi_tau* z||_{L2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gramian import COERCIVITY_TOL, GramianResult, ctrl_gramian_quadrature
from .propagate import Propagator, batches, pow2_scale, require_finite
from .sysmodel import ControlSignal, l2_inner

RANGE_INCLUSION_TOL = 1e-8


@dataclass(frozen=True)
class DualityReport:
    controllable: bool
    lambda_min_W: float
    obs_constant_delta: float
    admissibility_M: float
    null_controllable: bool
    null_inclusion_c: float      # +inf sentinel when inclusion fails
    coercivity_tol: float = COERCIVITY_TOL


def input_map(p: Propagator, u: ControlSignal) -> np.ndarray:
    """Psi_tau u; equals propagate_state with x0 = 0."""
    return p.propagate_state(np.zeros(p.sys.n), u)


def input_map_adjoint(p: Propagator, z) -> ControlSignal:
    """The signal t_i -> B(t_i)* z_i of the adjoint state z_i = U(tau, t_i)* z, swept
    backward by z_i = Phi_i* z_{i+1} in every segment at once (p.segments), from z_N = z
    and z_{e_s} = U(tau, e_s)* z; raises NumericalRangeError in place of a non-finite signal."""
    z = np.asarray(z).reshape(p.sys.n)
    Z = np.empty((p.steps + 1, 1, p.sys.n), dtype=np.result_type(float, z.dtype))  # z_i as rows
    Z[-1] = z
    L = p.segments()[1]
    steps = p.step_transitions
    # each segment end but node N (none when S = 1); segment s + 1 rewrites it last
    Z[L:-1:L, 0] = (z @ p.segment_boundaries(to_end=True))[:-1]
    for j in range(L - 1, -1, -1):
        np.matmul(Z[j + 1::L], steps[j::L], out=Z[j:-1:L])
    values = np.einsum("ijk,ij->ik", p.sys.B(p.grid.nodes), Z[:, 0])
    require_finite(values, "the adjoint signal")
    return ControlSignal(p.grid, values)


def key_identity_residual(p: Propagator, u: ControlSignal, z_tau) -> float:
    """| <x(tau), z_tau> - int_0^tau <u(s), B(s)* z(s)> ds | with x(0) = 0.

    The key identity <Psi u, z_tau> = <u, Psi* z_tau>_{L2} tying the control
    system to its adjoint; the residual is the numerical adjointness witness.
    """
    z_tau = np.asarray(z_tau).reshape(p.sys.n)
    lhs = np.vdot(z_tau, input_map(p, u))
    rhs = l2_inner(u, input_map_adjoint(p, z_tau))
    return float(abs(lhs - rhs))


# window_bound's slack per dimension: eigvalsh's error p(n) eps ||Q||_2 (p(n) taken as 8n) in
# both windows, and the roundoff of Q - Q_a, of the norms (33 n eps as n <= 64) and of the sum
SLACK_PER_DIM = 64 * np.finfo(float).eps


def window_bound(top_a, Q_a, Q):
    """A bound that eigvalsh(Q)[..., -1] does not exceed, for stacks of symmetric Q, anchors
    Q_a and top_a = eigvalsh(Q_a)[..., -1]: Weyl's lambda_max(Q) <= lambda_max(Q_a) +
    ||Q - Q_a||_2, widened to top_a + (1 + delta) ||Q - Q_a||_F + delta ||Q_a||_F + 2^-530,
    delta = SLACK_PER_DIM n; 2^-530 covers squares lost below 2^-1022 (n 2^-537 a norm)."""
    delta = SLACK_PER_DIM * Q.shape[-1]
    fro = [np.sqrt(np.einsum("...ij,...ij->...", X, X)) for X in (Q - Q_a, Q_a)]
    return top_a + (1 + delta) * fro[0] + delta * fro[1] + 2.0**-530


def admissibility_constant(p: Propagator) -> float:
    """Smallest M with int_s^tau ||C(t) U(t,s) x||^2 dt <= M^2 ||x||^2 for all x, s.

    Realized as the max over grid nodes s of sqrt(lambda_max) of the windowed
    observability Gramian Q_s = int_s^tau U(t,s)* C(t)* C(t) U(t,s) dt, each
    window integrated by the trapezoid rule on nodes s..N whatever the grid's
    own rule (windows generally have odd panel counts, so Simpson does not
    apply). All windows come from one backward pass over the step matrices,
    in chunks of one stack checked at once, by the Gramian recursion with
    d_s = t_{s+1} - t_s and Q_N = 0:

        Q_s = (d_s/2) C_s* C_s + Phi_s* (Q_{s+1} + (d_s/2) C_{s+1}* C_{s+1}) Phi_s.

    Stacked eigvalsh solve each chunk's anchors, one amid each part of at most ceil(sqrt(N))
    windows (sqrt(N) weighs anchor solves against the bound's distance to them), and from a pool
    of one stack the windows whose window_bound passes the top so far: no other could give more.
    """
    n, C = p.sys.n, p.sys.C(p.grid.nodes)
    half = np.diff(p.grid.nodes)[:, None, None] / 2
    chunks = batches(p.steps, n * n)
    pool, pool_bound = np.empty((chunks[0].stop, n, n)), np.full(chunks[0].stop, -np.inf)
    best, Q = 0.0, np.zeros((n, n))
    for chunk in reversed(chunks):
        Cs = C[chunk.start:chunk.stop + 1]
        CtC = Cs.transpose(0, 2, 1) @ Cs
        # Qs[j] holds (d_j/2) C_{j+1}* C_{j+1} until Q_j replaces it, CtC[j] (d_j/2) C_j* C_j
        Qs, steps = half[chunk] * CtC[1:], p.step_transitions[chunk]
        CtC[:-1] *= half[chunk]
        for j in range(len(Qs) - 1, -1, -1):
            Q = CtC[j] + np.dot(np.dot(steps[j].T, Q + Qs[j]), steps[j])
            Qs[j] = Q = 0.5 * (Q + Q.T)
        require_finite(Qs, "a windowed observability Gramian")
        k, parts = len(Qs), -(-len(Qs) // (math.isqrt(p.steps - 1) + 1))
        anchors = (2 * np.arange(parts) + 1) * k // (2 * parts)
        top = np.linalg.eigvalsh(Qs[anchors])[:, -1]
        best, part = max(best, float(top.max())), np.arange(k) * parts // k
        bound = window_bound(top[part], Qs[anchors[part]], Qs)
        new = np.flatnonzero((bound > best) & (anchors[part] != np.arange(k)))  # not anchors
        solve = (pool_bound > best) & (np.count_nonzero(pool_bound > best) + len(new) > len(pool))
        best = float(np.max(np.linalg.eigvalsh(pool[solve])[:, -1], initial=best))
        pool_bound[solve], new = -np.inf, new[bound[new] > best]
        free = np.flatnonzero(pool_bound <= best)[:len(new)]  # a free slot's bound <= best
        pool[free], pool_bound[free] = Qs[new], bound[new]
    return float(np.sqrt(np.max(np.linalg.eigvalsh(pool[pool_bound > best])[:, -1], initial=best)))


def null_controllability_test(gram: GramianResult) -> tuple[bool, float]:
    """Range-inclusion test Ran K within Ran W_tau^{1/2} for the W_tau pass gram and
    K = gram.U_tau_0 = U(tau,0), with constant c.

    feasible iff every column of K projects onto the numerical range of W_tau
    (gram.numerical_range) with residual <= RANGE_INCLUSION_TOL * column norm; c is
    the largest generalized singular value of the pair (K, W_tau^{1/2}) on that range,
    so ||U(tau,0)* z|| <= c ||Psi_tau* z||_{L2} for all z. Infeasible verdicts report
    c = +inf. Raises ValueError for a Gramian without U(tau, 0) (Lyapunov W, Q_tau).
    """
    K = gram.U_tau_0
    if K is None:
        raise ValueError("the range test needs U(tau, 0) from ctrl_gramian_quadrature")
    lam, Vr = gram.numerical_range
    if lam.size == 0:
        return False, math.inf
    VtK = Vr.T @ K
    # each column of K and of its residual divided by the same exact power of two, so a
    # huge U(tau,0) cannot pass as inf <= tol * inf
    scale = pow2_scale(K, axis=0)
    col_norms = np.linalg.norm(K / scale, axis=0)
    res_norms = np.linalg.norm((K - Vr @ VtK) / scale, axis=0)
    feasible = bool(np.all(res_norms <= RANGE_INCLUSION_TOL * np.maximum(col_norms, 1e-300)))
    if not feasible:
        return False, math.inf
    scaled = VtK / np.sqrt(lam)[:, None]
    c = float(np.linalg.norm(scaled, 2))
    return True, c


def exact_controllability_test(p: Propagator) -> DualityReport:
    """Full duality verdict: coercivity of W_tau, duality constant, admissibility,
    and the null-controllability range test, all at the one threshold COERCIVITY_TOL."""
    gram = ctrl_gramian_quadrature(p)
    null_ok, c = null_controllability_test(gram)
    return DualityReport(
        controllable=gram.coercive,
        lambda_min_W=gram.lambda_min,
        obs_constant_delta=float(np.sqrt(max(gram.lambda_min, 0.0))),
        admissibility_M=admissibility_constant(p),
        null_controllable=null_ok,
        null_inclusion_c=c,
    )
