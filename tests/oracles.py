"""Independent numerical oracles used only by tests.

Kept deliberately separate from the library: the matrix exponential here is a
hand-rolled scaling-and-squaring Taylor evaluation, and the Kalman rank test
is the classical finite-dimensional controllability criterion.
"""

import math

import numpy as np


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
