"""Independent numerical oracles used only by tests.

Kept deliberately separate from the library: the matrix exponential here is a
hand-rolled scaling-and-squaring Taylor evaluation, and the Kalman rank test
is the classical finite-dimensional controllability criterion.
"""

import math

import numpy as np
import scipy.linalg

from ltvcontrol import ctrl_gramian_quadrature, input_map_adjoint, l2_norm
from ltvcontrol.propagate import rk4_substeps


def expm_oracle(A: np.ndarray, terms: int = 24) -> np.ndarray:
    """Scaling-and-squaring Taylor series for e^A (independent of scipy)."""
    A = np.asarray(A, dtype=float)
    norm = np.linalg.norm(A, 1)
    squarings = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0 else 0
    As = A / (2.0**squarings)
    out = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, terms + 1):
        term = term @ As / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def kalman_rank(A: np.ndarray, B: np.ndarray, rtol: float = 1e-9) -> int:
    """rank [B, (-A)B, ..., (-A)^{n-1} B] via singular values."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(-A @ blocks[-1])
    K = np.hstack(blocks)
    s = np.linalg.svd(K, compute_uv=False)
    return int(np.sum(s > rtol * s[0])) if s[0] > 0 else 0


def poly_eval_naive(coeffs: np.ndarray, t: float) -> np.ndarray:
    """Power-sum polynomial evaluation, the non-Horner reference."""
    out = np.zeros_like(coeffs[0])
    for k, c in enumerate(coeffs):
        out = out + c * t**k
    return out


def admissibility_oracle(p) -> float:
    """M by building every windowed observability Gramian from scratch, O(N^2).

    For each start node s, Q_s = sum_i w_i U(t_i, t_s)* C(t_i)* C(t_i) U(t_i, t_s)
    with trapezoid weights on nodes s..N; M = sqrt(max_s lambda_max(Q_s)).
    """
    nodes = p.grid.nodes
    N = p.steps
    n = p.sys.n
    CC = [p.sys.C(t) for t in nodes]
    best = 0.0
    for s in range(N):
        d = np.diff(nodes[s:])
        w = np.zeros(nodes.size - s)
        w[:-1] += d / 2
        w[1:] += d / 2
        Q = np.zeros((n, n))
        acc = np.eye(n)  # U(t_i, t_s)
        for i in range(s, N + 1):
            CU = CC[i] @ acc
            Q += w[i - s] * (CU.T @ CU)
            if i < N:
                acc = p.step_transitions[i] @ acc
        best = max(best, float(np.linalg.eigvalsh(0.5 * (Q + Q.T))[-1]))
    return float(np.sqrt(max(best, 0.0)))


def _frozen_constant(Q: np.ndarray) -> float:
    Q = 0.5 * (Q + Q.T)
    return float(np.sqrt(max(np.linalg.eigvalsh(Q)[0], 0.0)))


def frozen_gramian_oracle(sys, s0: float) -> np.ndarray:
    """The frozen Gramian int_0^tau e^{-A0* t} C0* C0 e^{-A0 t} dt, A0 = A(s0) and
    C0 = C(s0), summed by its own loop over the nodes and not symmetrized.

    It takes the Propagator's step: E ~ e^{-A0 h} by K = rk4_substeps(sys) RK4
    substeps, one substep at a time, and P <- E P with one E on a uniform grid, else
    one per gap.
    """
    a, C0 = -sys.A(s0), sys.C(s0)
    substeps = rk4_substeps(sys)
    nodes = sys.grid.nodes
    w = sys.grid.weights()
    uniform = sys.grid.is_uniform()
    Q = np.zeros((sys.n, sys.n))
    P = np.eye(sys.n)
    for i in range(nodes.size):
        if w[i] != 0.0:
            CU = C0 @ P
            Q += w[i] * (CU.T @ CU)
        if i < nodes.size - 1:
            if i == 0 or not uniform:
                h = (nodes[i + 1] - nodes[i]) / substeps
                E = np.eye(sys.n)
                for _ in range(substeps):
                    E = rk4_substep(E, a, a, a, h)
            P = E @ P
    return Q


def frozen_constant_oracle(sys, s0: float) -> float:
    """m(s0) = sqrt(lambda_min) of frozen_gramian_oracle(sys, s0).

    This is the bit-identity reference of the library pass on non-uniform grids, which
    sweeps node by node as it does. On uniform grids it is the within-bound reference:
    the library sums the powers of E by segments, so m^2 moves by roundoff against
    the Gramian's scale lambda_max.
    """
    return _frozen_constant(frozen_gramian_oracle(sys, s0))


def frozen_constant_per_node_oracle(sys, s0: float) -> float:
    """m(s0) as frozen_constant_oracle, but with e^{-A0 t_i} taken by scipy's expm at
    every node rather than as a product of per-gap RK4 steps."""
    A0, C0 = sys.A(s0), sys.C(s0)
    w = sys.grid.weights()
    Q = np.zeros((sys.n, sys.n))
    for wi, t in zip(w, sys.grid.nodes):
        if wi != 0.0:
            CU = C0 @ scipy.linalg.expm(-A0 * t)
            Q += wi * (CU.T @ CU)
    return _frozen_constant(Q)


def hautus_integral_oracle(sys, lam, X) -> np.ndarray:
    """int_0^tau ||(lambda I + A(s)) x|| e^{-Re(lambda) s} ds for each column x of X:
    one complex (nodes, n, columns) array lambda X + A(s) X and its norm over n
    for each frequency in turn, on the whole grid at once."""
    lams = np.atleast_1d(np.asarray(lam, dtype=complex))
    t = sys.grid.nodes
    w = sys.grid.weights()
    AX = sys.A(t) @ X
    out = np.array([(w * np.exp(-lam_a.real * t)) @ np.linalg.norm(lam_a * X + AX, axis=1)
                    for lam_a in lams])
    return out.reshape(np.shape(lam) + (X.shape[1],))


def propagate_state_oracle(p, x0, u) -> np.ndarray:
    """x(tau) by a private backward product U(tau, t_i) = U(tau, t_{i+1}) Phi_i,
    summing the quadrature of U(tau, t_i) B(t_i) u(t_i) from i = N down to 0."""
    w = p.grid.weights()
    nodes = p.grid.nodes
    acc = np.eye(p.sys.n)  # U(tau, t_i), built backward
    forced = np.zeros(p.sys.n, dtype=np.result_type(float, u.values.dtype))
    for i in range(p.steps, -1, -1):
        if w[i] != 0.0:
            forced += w[i] * (acc @ (p.sys.B(nodes[i]) @ u.values[i]))
        if i > 0:
            acc = acc @ p.step_transitions[i - 1]
    return acc @ np.asarray(x0).reshape(p.sys.n) + forced


def transitions_to_end_oracle(p) -> list:
    """[U(tau, t_i) for every node i], stored, by U(tau, t_i) = U(tau, t_{i+1}) Phi_i."""
    out = [np.eye(p.sys.n)] * (p.steps + 1)
    for i in range(p.steps - 1, -1, -1):
        out[i] = out[i + 1] @ p.step_transitions[i]
    return out


def transitions_from_start_oracle(p) -> list:
    """[U(t_i, 0) for every node i], stored, by U(t_{i+1}, 0) = Phi_i U(t_i, 0)."""
    out = [np.eye(p.sys.n)]
    for phi in p.step_transitions:
        out.append(phi @ out[-1])
    return out


def ctrl_gramian_oracle(p) -> np.ndarray:
    """Symmetrized W_tau = sum_i w_i U(tau, t_i) B_i B_i* U(tau, t_i)*, summed for
    i = 0 up to N over the stored U(tau, t_i) list."""
    w = p.grid.weights()
    to_end = transitions_to_end_oracle(p)
    W = np.zeros((p.sys.n, p.sys.n))
    for i, t in enumerate(p.grid.nodes):
        if w[i] != 0.0:
            UB = to_end[i] @ p.sys.B(t)
            W += w[i] * (UB @ UB.T)
    return 0.5 * (W + W.T)


def obs_gramian_oracle(p) -> np.ndarray:
    """Symmetrized Q_tau = sum_i w_i U(t_i, 0)* C_i* C_i U(t_i, 0) over the stored
    U(t_i, 0) list."""
    w = p.grid.weights()
    from_start = transitions_from_start_oracle(p)
    Q = np.zeros((p.sys.n, p.sys.n))
    for i, t in enumerate(p.grid.nodes):
        if w[i] != 0.0:
            CU = p.sys.C(t) @ from_start[i]
            Q += w[i] * (CU.T @ CU)
    return 0.5 * (Q + Q.T)


def input_map_adjoint_oracle(p, z) -> np.ndarray:
    """Psi_tau* z at every node, B(t_i)* (U(tau, t_i)* z) over the stored list."""
    to_end = transitions_to_end_oracle(p)
    return np.array([p.sys.B(t).T @ (to_end[i].T @ z) for i, t in enumerate(p.grid.nodes)])


def eval_coeff_oracle(f, t: float) -> np.ndarray:
    """A coefficient function at one time, evaluated as a scalar: Horner for
    poly, one searchsorted and one interpolation weight for samples."""
    t = float(t)
    if f.kind == "constant":
        return f.data
    if f.kind == "poly":
        out = np.array(f.data[-1])
        for coeff in f.data[-2::-1]:
            out = out * t + coeff
        return out
    nodes = f.grid.nodes
    j = int(np.searchsorted(nodes, t, side="right"))
    j = min(max(j, 1), nodes.size - 1)
    t0, t1 = nodes[j - 1], nodes[j]
    theta = (t - t0) / (t1 - t0)
    return (1 - theta) * f.data[j - 1] + theta * f.data[j]


def rk4_substep(phi, a0, a_half, a1, h) -> np.ndarray:
    """One RK4 substep of phi' = a(t) phi given a at the substep's start, middle and end."""
    k1 = a0 @ phi
    k2 = a_half @ (phi + (h / 2) * k1)
    k3 = a_half @ (phi + (h / 2) * k2)
    k4 = a1 @ (phi + h * k3)
    return phi + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def step_transitions_oracle(sys, substeps: int) -> list:
    """Phi_i ~ U(t_{i+1}, t_i) integrated by RK4 one interval and one stage at a time."""
    def A(t):
        return eval_coeff_oracle(sys.A, t)

    nodes = sys.grid.nodes
    steps = []
    for i in range(nodes.size - 1):
        phi = np.eye(sys.n)
        h = (nodes[i + 1] - nodes[i]) / substeps
        t = nodes[i]
        for _ in range(substeps):
            phi = rk4_substep(phi, -A(t), -A(t + h / 2), -A(t + h), h)
            t += h
        steps.append(phi)
    return steps


def lyapunov_oracle(sys, substeps: int = 4) -> np.ndarray:
    """Symmetrized W(tau) of W' = -A W - W A* + B B*, W(0) = 0, by RK4 with A and
    B evaluated at each stage time."""
    def rhs(t, W):
        At = eval_coeff_oracle(sys.A, t)
        Bt = eval_coeff_oracle(sys.B, t)
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
    return 0.5 * (W + W.T)


# The sweeps below are the library's own loops as they were written node by node,
# with one `@` per product and weights indexed per node. The library's admissibility
# recursion must match its oracle bit for bit; its segmented W, x(tau) and Psi* z
# passes sum in another order, and match theirs to a stated relative bound.

def ctrl_gramian_stream_oracle(p) -> np.ndarray:
    """Symmetrized W_tau summed node by node from tau back to 0 over the streamed stacks
    of U(tau, t_i)."""
    w = p.grid.weights()
    B = p.sys.B(p.grid.nodes)
    W = np.zeros((p.sys.n, p.sys.n))
    for nodes, stack in p.transitions_to_end():
        for i, U in zip(range(p.steps + 1)[nodes], stack, strict=True):
            if w[i] != 0.0:
                UB = U @ B[i]
                W += w[i] * (UB @ UB.T)
    return 0.5 * (W + W.T)


def admissibility_recursion_oracle(p) -> float:
    """M by the windowed Gramian recursion, one symmetric eigenproblem per node."""
    nodes = p.grid.nodes
    C = p.sys.C(nodes)
    Q = np.zeros((p.sys.n, p.sys.n))
    CtC_next = C[-1].T @ C[-1]
    best = 0.0
    for s in range(p.steps - 1, -1, -1):
        half = (nodes[s + 1] - nodes[s]) / 2
        CtC = C[s].T @ C[s]
        phi = p.step_transitions[s]
        Q = half * CtC + phi.T @ (Q + half * CtC_next) @ phi
        Q = 0.5 * (Q + Q.T)
        best = max(best, float(np.linalg.eigvalsh(Q)[-1]))
        CtC_next = CtC
    return float(np.sqrt(max(best, 0.0)))


def state_sweep_oracle(p, x0, u) -> np.ndarray:
    """x(tau) by the forward sweep x <- Phi_i x + w_{i+1} B(t_{i+1}) u(t_{i+1})."""
    B = p.sys.B(p.grid.nodes)
    forcing = np.einsum("i,ijk,ik->ij", p.grid.weights(), B, u.values)
    x = np.asarray(x0).reshape(p.sys.n) + forcing[0]
    for phi, f in zip(p.step_transitions, forcing[1:]):
        x = phi @ x + f
    return x


def adjoint_sweep_oracle(p, z) -> np.ndarray:
    """Psi_tau* z at every node by the backward sweep z_i = Phi_i* z_{i+1}."""
    z = np.asarray(z).reshape(p.sys.n)
    Z = np.empty((p.steps + 1, p.sys.n), dtype=np.result_type(float, z.dtype))
    Z[-1] = z
    for i in range(p.steps - 1, -1, -1):
        Z[i] = p.step_transitions[i].T @ Z[i + 1]
    return np.einsum("ijk,ij->ik", p.sys.B(p.grid.nodes), Z)


def cholesky_steer_oracle(p, x0, x_tau) -> tuple[np.ndarray, float, np.ndarray]:
    """The minimum-norm steering solve by SPD factorization, as the library did it
    before its eigen-range solve: eta = W_tau^{-1} d by scipy's Cholesky, with
    d = x_tau - U(tau, 0) x0. Returns eta, the cost ||Psi_tau* eta||^2 and the
    control values at the nodes."""
    W = ctrl_gramian_quadrature(p).W
    d = np.asarray(x_tau, dtype=float) - p.propagate_state(np.asarray(x0, dtype=float))
    eta = scipy.linalg.cho_solve(scipy.linalg.cho_factor(W), d)
    control = input_map_adjoint(p, eta)
    return eta, l2_norm(control) ** 2, control.values
