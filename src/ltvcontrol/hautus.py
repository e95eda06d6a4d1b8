"""Hautus-type observability certificates.

Frozen-time generators are G = -A(s0), matching the sign of x' + A(t)x = 0.
Two inequalities are evaluated:

* the classical frequency-domain bound for a generator G over the open left
  half-plane, ||(sI - G)x||^2 + |Re s| ||Cx||^2 >= m^2 |Re s|^2 ||x||^2, with
  the constant m carried explicitly so callers can bisect for the largest
  feasible value; and

* the non-autonomous functional over Re(lambda) > 0,

      ||C x|| / sqrt(2 Re lambda)
      + M * int_0^tau ||(lambda I + A(s)) x|| e^{-Re(lambda) s} ds
      >= delta ||x||,

  a necessary condition for exact observability when delta is the
  observability constant and M the admissibility constant of C.

Also here: the frozen-parameter observability constants m(s0) of the
autonomous systems obtained by fixing A at one instant, the measure-witness
selection of a time where ||f(s)x|| clears its average lower bound, and the
averaging identity f(0) = (1/sigma) int f - int (1/t^2) int (f(t) - f(s)).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .duality import admissibility_constant
from .gramian import observability_constant
from .propagate import (Propagator, batches, pow2_scale, require_finite, rk4_steps, rk4_substeps,
                        segment_plan)
from .sysmodel import LtvSystem, TimeGrid

# a stack of s0 of the uniform frozen pass holds its segment sums in this many
# STACK_ELEMENTS, about what the RK4 temporaries of one per-node stack held
UNIFORM_STACKS = 4


@dataclass(frozen=True)
class HautusGrid:
    """Complex test frequencies with Re(lambda) > 0, plus unit test vectors."""

    lambdas: np.ndarray
    test_vectors: np.ndarray     # shape (count, n), unit rows

    def __post_init__(self):
        lambdas = np.asarray(self.lambdas, dtype=complex)
        vectors = np.asarray(self.test_vectors)
        object.__setattr__(self, "lambdas", lambdas)
        object.__setattr__(self, "test_vectors", vectors)
        if not np.all(lambdas.real > 0):
            raise ValueError("all lambdas must satisfy Re(lambda) > 0")
        norms = np.linalg.norm(vectors, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-12):
            raise ValueError("test vectors must have unit norm")


@dataclass(frozen=True)
class HautusReport:
    margins: np.ndarray          # lambdas x test vectors
    min_margin: float
    witness_lambda: complex
    witness_vector: np.ndarray
    delta: float
    admissibility_M: float
    constant_C: bool             # False when C(t) varies; C(0) used then


def default_hautus_grid(n: int, seed: int = 1, n_vectors: int = 50,
                        re_bounds: tuple[float, float] = (0.1, 10.0),
                        re_points: int = 7,
                        im_values: tuple[float, ...] = (0.0, 1.0, -1.0, 10.0, -10.0)) -> HautusGrid:
    """Logarithmic Re(lambda) sweep crossed with fixed imaginary offsets, plus
    n_vectors unit test vectors: each is n consecutive normals of the seed's LCG
    stream, drawn again when its norm is at most 1e-12, divided by that norm."""
    res = np.geomspace(re_bounds[0], re_bounds[1], re_points)
    lambdas = np.array([complex(r, im) for r in res for im in im_values])
    normals = _lcg_normals(seed)
    vectors = []
    while len(vectors) < n_vectors:
        v = np.fromiter(normals, float, n)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            vectors.append(v / norm)
    return HautusGrid(lambdas, np.array(vectors))


def _lcg_normals(seed: int):
    """Normals of the documented stream: state <- (6364136223846793005 state +
    1442695040888963407) mod 2^64 from seed mod 2^64; each two states give uniforms
    from their top 53 bits, u1 shifted into (0, 1] so that log(u1) is finite, and
    Box-Muller yields r cos(2 pi u2), then r sin(2 pi u2), with r = sqrt(-2 log u1)."""
    state = seed % 2**64
    while True:
        state = (6364136223846793005 * state + 1442695040888963407) % 2**64
        u1 = ((state >> 11) + 1) * 2.0**-53
        state = (6364136223846793005 * state + 1442695040888963407) % 2**64
        u2 = (state >> 11) * 2.0**-53
        r = math.sqrt(-2.0 * math.log(u1))
        yield r * math.cos(2.0 * math.pi * u2)
        yield r * math.sin(2.0 * math.pi * u2)


# --- classical left half-plane form ----------------------------------------

def russell_weiss_margin(G: np.ndarray, C: np.ndarray, s: complex, x, m: float) -> float:
    """||(sI - G)x||^2 + |Re s| ||Cx||^2 - m^2 |Re s|^2 ||x||^2 for Re s < 0."""
    s = complex(s)
    if s.real >= 0:
        raise ValueError("Re(s) must be negative")
    G = np.asarray(G)
    C = np.asarray(C)
    x = np.asarray(x).reshape(G.shape[0])
    res = s * x - G @ x
    re = abs(s.real)
    return float(
        np.vdot(res, res).real + re * np.vdot(C @ x, C @ x).real
        - m * m * re * re * np.vdot(x, x).real
    )


def russell_weiss_min_margin(G: np.ndarray, C: np.ndarray, s: complex,
                             m: float) -> tuple[float, np.ndarray]:
    """Minimum of russell_weiss_margin over unit x, with the minimizing vector.

    The quadratic form is (sI-G)*(sI-G) + |Re s| C*C, Hermitian PSD, so the
    minimum is its smallest eigenvalue minus m^2 |Re s|^2.
    """
    s = complex(s)
    if s.real >= 0:
        raise ValueError("Re(s) must be negative")
    G = np.asarray(G, dtype=complex)
    C = np.asarray(C, dtype=complex)
    n = G.shape[0]
    R = s * np.eye(n) - G
    H = R.conj().T @ R + abs(s.real) * (C.conj().T @ C)
    eigs, vecs = np.linalg.eigh(H)
    return float(eigs[0] - m * m * s.real * s.real), vecs[:, 0]


# --- non-autonomous functional ----------------------------------------------

def nonautonomous_hautus_margin(sys: LtvSystem, lam: complex, x,
                                delta: float, M: float) -> float:
    """Signed margin of the non-autonomous inequality at one (lambda, x).

    Nonnegative whenever the system is exactly observable with constant delta
    and C is admissible with constant M. When C(t) varies, the boundary term
    uses C(0).
    """
    lam = complex(lam)
    if lam.real <= 0:
        raise ValueError("Re(lambda) must be positive")
    x = np.asarray(x).reshape(sys.n, 1)
    return float(_hautus_margins(sys, np.array([lam]), x, delta, M)[0, 0])


def _hautus_margins(sys: LtvSystem, lams: np.ndarray, X: np.ndarray,
                    delta: float, M: float) -> np.ndarray:
    """Margins ||C(0)x|| / sqrt(2 Re lambda) + M * integral - delta ||x|| for every
    frequency of lams (rows) and column x of X (columns); raises
    NumericalRangeError if any of them is not finite."""
    # the margin is homogeneous in x: scale each column exactly (by 1 for unit vectors)
    scale = pow2_scale(X, axis=0)
    X = X / scale
    boundary = np.linalg.norm(sys.C(0.0) @ X, axis=0) / np.sqrt(2 * lams.real)[:, None]
    margins = (boundary + M * _hautus_integral(sys, lams, X)
               - delta * np.linalg.norm(X, axis=0)) * scale
    require_finite(margins, "a Hautus margin")
    return margins


def _hautus_integral(sys: LtvSystem, lam, X: np.ndarray) -> np.ndarray:
    """Columnwise quadrature of int_0^tau ||(lambda I + A(s)) x|| e^{-Re(lambda) s} ds.

    lam is one frequency (result shape (columns,)) or an array of them
    (result shape (lambdas, columns)); A(s) X is formed once per chunk of
    nodes and shared by every lambda.

    The frequencies are grouped by their real part a: with U = aX + A(s)X,
    ||(a + ib)x + A(s)x||^2 = ||U||^2 + b^2 ||x||^2 - 2b Im(U* x), so the
    n-dimensional work is one real pass per distinct a and each frequency of
    the group costs one (nodes, columns) square root. Im(U* x) = Im((A(s)x)* x)
    does not depend on a; for real X it is exactly 0 and every term is
    nonnegative. For complex X it can cancel the others only where
    (lambda + A(s))x ~ 0, and the clamp at 0 keeps that finite.
    """
    lams = np.atleast_1d(np.asarray(lam, dtype=complex))
    res, group = np.unique(lams.real, return_inverse=True)
    xx = np.einsum("ij,ij->j", X.conj(), X).real
    nodes = sys.grid.nodes
    w = sys.grid.weights()
    # exact powers of two, 1 for ordinary frequencies, bringing |a| + ||A||_inf (sa, per
    # real part) and |b| (s, per frequency) below 2^500, so the squares stay finite
    sa = 2.0 ** np.maximum(np.frexp(np.abs(res) + sys.A.inf_norm_bound())[1] - 500, 0)
    s = np.maximum(sa[group], 2.0 ** np.maximum(np.frexp(lams.imag)[1] - 500, 0))
    b = lams.imag / s
    r2, bb, c = ((sa[group] / s) ** 2).tolist(), (b * b).tolist(), (2 * b / s).tolist()
    out = np.zeros((lams.size, X.shape[1]))
    for chunk in batches(nodes.size, X.size):
        t = nodes[chunk]
        AX = sys.A(t) @ X
        cross = np.einsum("kij,ij->kj", AX.conj(), X).imag
        for g, a in enumerate(res):
            U = a * X + AX if sa[g] == 1.0 else (a / sa[g]) * X + AX / sa[g]
            uu = np.einsum("kij,kij->kj", U.conj(), U).real
            weights = w[chunk] * np.exp(-a * t)
            for k in np.flatnonzero(group == g):
                q = uu if r2[k] == 1.0 else r2[k] * uu
                out[k] += weights @ np.sqrt(np.maximum(q + bb[k] * xx - c[k] * cross, 0.0))
    return (out * s[:, None]).reshape(np.shape(lam) + (X.shape[1],))


def hautus_sweep(p: Propagator, grid: HautusGrid) -> HautusReport:
    """Margins over all (lambda, test vector) pairs with internally computed
    delta and M; min_margin >= -1e-9 certifies the necessary condition on the grid."""
    delta = observability_constant(p)
    M = admissibility_constant(p)
    X = grid.test_vectors.T  # n x count
    margins = _hautus_margins(p.sys, grid.lambdas, X, delta, M)
    flat = int(np.argmin(margins))
    ia, ix = divmod(flat, X.shape[1])
    return HautusReport(
        margins=margins,
        min_margin=float(margins[ia, ix]),
        witness_lambda=complex(grid.lambdas[ia]),
        witness_vector=np.array(grid.test_vectors[ix]),
        delta=delta,
        admissibility_M=M,
        constant_C=p.sys.C.kind == "constant",
    )


# --- frozen-parameter comparison ---------------------------------------------

def _frozen_gramian(G0: np.ndarray, C0: np.ndarray, grid: TimeGrid, substeps: int) -> np.ndarray:
    """int_0^tau e^{-A0* t} C0* C0 e^{-A0 t} dt by the grid's quadrature, for each
    matrix of the (S, n, n) and (S, p, n) stacks G0 = -A0 (the generators) and C0.

    e^{-A0 t_i} is a product of steps E ~ e^{-A0 (t_{i+1} - t_i)}, K0 = substeps RK4
    substeps with -A0 at every stage time. A uniform grid has one E per stack, so
    e^{-A0 t_i} = E^i and the sum is taken by segments (_segmented_sum). Non-uniform
    nodes take one E per gap, built for batches of gaps at once, and sweep
    P ~ e^{-A0 t_i} node by node as P <- E P."""
    h = np.diff(grid.nodes) / substeps
    stages = itertools.repeat(G0)
    if grid.is_uniform():
        Q = _segmented_sum(rk4_steps(stages, h[0], substeps), C0, grid.weights())
    else:
        steps = itertools.chain.from_iterable(rk4_steps(stages, h[chunk, None], substeps)
                                              for chunk in batches(h.size, G0.size))
        Q = np.zeros(G0.shape)
        P = np.eye(G0.shape[-1])
        for w, E in zip(grid.weights(), itertools.chain([P], steps)):  # E = I at t_0
            P = E @ P
            CU = C0 @ P
            Q += w * (CU.mT @ CU)
    Q = 0.5 * (Q + Q.mT)
    require_finite(Q, "the frozen observability Gramian")
    return Q


def _segmented_sum(E: np.ndarray, C0: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_i w_i (C0 E^i)* (C0 E^i) over the nodes i of the weights w, for each matrix of
    the (S, n, n) and (S, p, n) stacks E and C0, in about 3 L + 2 segments stacked
    products where a node sweep takes 3 per node.

    With i = sL + j, the segment_plan of the nodes (L = ceil(sqrt(nodes)), so that
    L + segments, the matrices held per stacked E, is least): Y_j = (C0 E^j)* (C0 E^j)
    for j < L from one sweep P <- E P from P = I, whose last P is F = E^L;
    Z_s = sum_j w_{sL+j} Y_j, one product for all segments; and the sum by Horner from
    the last segment down, Q <- Z_s + F* Q F."""
    segments, L = segment_plan(w.size)
    S, n = E.shape[0], E.shape[-1]
    Y = np.empty((S, L, n * n))
    P = np.eye(n)
    for j in range(L):
        CP = C0 @ P
        Y[:, j] = (CP.mT @ CP).reshape(S, n * n)
        P = E @ P
    weights = np.zeros(segments * L)
    weights[:w.size] = w
    Z = (weights.reshape(segments, L) @ Y).reshape(S, segments, n, n)
    Q = Z[:, -1]
    for s in range(segments - 2, -1, -1):
        Q = Z[:, s] + P.mT @ Q @ P
    return Q


def frozen_observability_constant(sys: LtvSystem, s0: float | np.ndarray) -> float | np.ndarray:
    """m(s0) = sqrt(lambda_min) of the frozen-coefficient observability Gramian
    at time s0; independent of s0 for autonomous systems.

    s0 is one time (the result is a float) or an array of times (the result is an array
    of the same shape), computed in stacks of values of s0, each value bit-identical to
    its own call. On non-uniform nodes a stack holds batches(S, n*n) values; on a uniform
    grid _segmented_sum holds L + segments matrices per value, and a stack holds them in
    UNIFORM_STACKS times STACK_ELEMENTS entries. The RK4 steps take K = rk4_substeps(sys),
    so a grid too coarse for A is refused (NumericalRangeError) as the Propagator
    refuses it. With A and C both constant, every s0 has one Gramian, formed once."""
    s = np.asarray(s0, dtype=float)
    times = s.reshape(-1)
    substeps, neg_a = rk4_substeps(sys), -sys.A
    if sys.A.kind == sys.C.kind == "constant":
        sys.C(times)  # refuses a time outside the horizon, as the stacks do
        times = times[:1]
    per_s0 = (-(-sys.n**2 * sum(segment_plan(sys.grid.nodes.size)) // UNIFORM_STACKS)
              if sys.grid.is_uniform() else sys.n**2)
    m = np.empty(times.size)
    for chunk in batches(times.size, per_s0):
        t = times[chunk]
        lam = np.linalg.eigvalsh(_frozen_gramian(neg_a(t), sys.C(t), sys.grid, substeps))[:, 0]
        m[chunk] = np.sqrt(np.where(lam < 0.0, 0.0, lam))
    return float(m[0]) if s.ndim == 0 else np.resize(m, s.shape)


@dataclass(frozen=True)
class FrozenComparison:
    s_values: np.ndarray
    m_values: np.ndarray
    inf_frozen: float
    delta_ltv: float


def frozen_vs_ltv_report(p: Propagator, stride: int = 1) -> FrozenComparison:
    """Frozen constants m(s) across grid nodes next to the LTV constant delta.

    Observational only: positivity of both is reported, never asserted as an
    implication between the frozen and time-varying notions.
    """
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    sys = p.sys
    delta = observability_constant(p)
    N = sys.grid.steps
    s_values = sys.grid.nodes[np.append(np.arange(0, N, stride), N)]  # every stride-th, and tau
    m_values = frozen_observability_constant(sys, s_values)
    return FrozenComparison(
        s_values=s_values,
        m_values=m_values,
        inf_frozen=float(np.min(m_values)),
        delta_ltv=delta,
    )


# --- measure witness and averaging identity ---------------------------------

def find_witness_time(samples, a: float, b: float, delta: float, x_norm: float) -> float:
    """Pick a sample time s* with value(s*) >= (delta / (b - a)) * x_norm.

    Requires the trapezoid quadrature of the samples over [a, b] to reach
    delta * x_norm; the argmax sample then clears the averaged bound.
    """
    pairs = sorted((float(s), float(v)) for s, v in samples)
    s_vals = np.array([s for s, _ in pairs])
    values = np.array([v for _, v in pairs])
    if s_vals.size < 2 or s_vals[0] < a - 1e-12 or s_vals[-1] > b + 1e-12:
        raise ValueError("samples must contain at least two points inside [a, b]")
    total = float(np.trapezoid(values, s_vals))
    if total < delta * x_norm * (1 - 1e-12):
        raise ValueError(
            f"quadrature {total} below the required mass {delta * x_norm}"
        )
    return float(s_vals[int(np.argmax(values))])


def averaging_identity_residual(f_samples, sigma: float) -> float:
    """Residual of f(0) = (1/sigma) int_0^sigma f(s) ds
    - int_0^sigma (1/t^2) (int_0^t (f(t) - f(s)) ds) dt on uniform samples.

    The inner cancellation t f(t) - int_0^t f is carried out before dividing
    by t^2; its value at t = 0 (which tends to f'(0)/2) is filled by linear
    extrapolation from the first two interior nodes.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    f = np.asarray(f_samples, dtype=float)
    if f.ndim != 1 or f.size < 3:
        raise ValueError("need at least 3 uniform samples on [0, sigma]")
    t = np.linspace(0.0, float(sigma), f.size)
    h = t[1] - t[0]
    F = np.concatenate([[0.0], np.cumsum((f[1:] + f[:-1]) * h / 2)])
    g = np.empty_like(f)
    g[1:] = (t[1:] * f[1:] - F[1:]) / t[1:] ** 2
    g[0] = 2 * g[1] - g[2]
    rhs = F[-1] / sigma - float(np.trapezoid(g, t))
    return float(abs(f[0] - rhs))
