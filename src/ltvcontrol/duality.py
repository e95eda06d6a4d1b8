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

from .gramian import COERCIVITY_TOL, GramianResult, coercivity_check, ctrl_gramian_quadrature
from .propagate import Propagator, batches, require_finite
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
    """The signal t_i -> B(t_i)* z_i of the adjoint state z_i = U(tau, t_i)* z,
    swept backward by z_i = Phi_i* z_{i+1} from z_N = z; raises NumericalRangeError
    in place of a non-finite signal."""
    z = np.asarray(z).reshape(p.sys.n)
    Z = np.empty((p.steps + 1, p.sys.n), dtype=np.result_type(float, z.dtype))
    Z[-1] = z
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(p.steps - 1, -1, -1):
            Z[i] = p.step_transitions[i].T @ Z[i + 1]
        values = np.einsum("ijk,ij->ik", p.sys.B(p.grid.nodes), Z)
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


def admissibility_constant(p: Propagator) -> float:
    """Smallest M with int_s^tau ||C(t) U(t,s) x||^2 dt <= M^2 ||x||^2 for all x, s.

    Realized as the max over grid nodes s of sqrt(lambda_max) of the windowed
    observability Gramian Q_s = int_s^tau U(t,s)* C(t)* C(t) U(t,s) dt, each
    window integrated by the trapezoid rule on nodes s..N whatever the grid's
    own rule (windows generally have odd panel counts, so Simpson does not
    apply). All windows come from one backward pass over the step matrices,
    in chunks whose windows are checked and diagonalized as one stack, by the
    Gramian recursion with d_s = t_{s+1} - t_s and Q_N = 0:

        Q_s = (d_s/2) C_s* C_s + Phi_s* (Q_{s+1} + (d_s/2) C_{s+1}* C_{s+1}) Phi_s.
    """
    n = p.sys.n
    half = (np.diff(p.grid.nodes) / 2).tolist()
    C = p.sys.C(p.grid.nodes)
    Q = np.zeros((n, n))
    best = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk in reversed(batches(p.steps, n * n)):
            Cs = C[chunk.start:chunk.stop + 1]
            CtC = Cs.transpose(0, 2, 1) @ Cs
            Qs = np.empty((chunk.stop - chunk.start, n, n))
            for j, d, phi in zip(range(len(Qs) - 1, -1, -1), half[chunk][::-1],
                                 p.step_transitions[chunk][::-1]):
                Q = d * CtC[j] + np.dot(np.dot(phi.T, Q + d * CtC[j + 1]), phi)
                Qs[j] = Q = 0.5 * (Q + Q.T)
            require_finite(Qs, "a windowed observability Gramian")
            best = max(best, float(np.max(np.linalg.eigvalsh(Qs)[:, -1])))
    return float(np.sqrt(max(best, 0.0)))


def null_controllability_test(gram: GramianResult, K: np.ndarray) -> tuple[bool, float]:
    """Range-inclusion test Ran K within Ran W_tau^{1/2} for the W_tau pass gram and
    K = U(tau,0) (gram.U_tau_0 for the quadrature pass), with constant c.

    feasible iff every column of K projects onto the numerical range of W_tau
    (eigenvalues above COERCIVITY_TOL * lambda_max) with residual <=
    RANGE_INCLUSION_TOL * column norm; c is the largest generalized singular
    value of the pair (K, W_tau^{1/2}) on that range, so
    ||U(tau,0)* z|| <= c ||Psi_tau* z||_{L2} for all z. Infeasible verdicts
    report c = +inf.
    """
    lam, Vr = gram.numerical_range
    if lam.size == 0:
        return False, math.inf
    resid = K - Vr @ (Vr.T @ K)
    col_norms = np.linalg.norm(K, axis=0)
    res_norms = np.linalg.norm(resid, axis=0)
    feasible = bool(np.all(res_norms <= RANGE_INCLUSION_TOL * np.maximum(col_norms, 1e-300)))
    if not feasible:
        return False, math.inf
    scaled = (Vr.T @ K) / np.sqrt(lam)[:, None]
    c = float(np.linalg.norm(scaled, 2))
    return True, c


def exact_controllability_test(p: Propagator) -> DualityReport:
    """Full duality verdict: coercivity of W_tau, duality constant, admissibility,
    and the null-controllability range test, all at the one threshold COERCIVITY_TOL."""
    gram = ctrl_gramian_quadrature(p)
    controllable, lam_min = coercivity_check(gram)
    delta = float(np.sqrt(max(lam_min, 0.0)))
    adm = admissibility_constant(p)
    null_ok, c = null_controllability_test(gram, gram.U_tau_0)
    return DualityReport(
        controllable=controllable,
        lambda_min_W=lam_min,
        obs_constant_delta=delta,
        admissibility_M=adm,
        null_controllable=null_ok,
        null_inclusion_c=c,
    )
