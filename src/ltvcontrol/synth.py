"""Minimum-L2-norm control synthesis through the Gramian inverse.

The steering control for d = x_tau - U(tau,0) x0 is
u(s) = B(s)* U(tau,s)* W_tau^{-1} d; its cost ||u||_{L2}^2 equals
<W_tau^{-1} d, d>, and any control with the same endpoint differs from it by
an element of ker Psi_tau orthogonal to it, so the norm is minimal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .duality import _numerical_range, _range_inclusion, input_map_adjoint
from .gramian import COERCIVITY_TOL, GramianResult, coercivity_check, ctrl_gramian_quadrature
from .propagate import Propagator
from .sysmodel import ControlSignal, l2_norm


class NotControllableError(RuntimeError):
    """W_tau is not coercive; the minimum-norm formula is unavailable."""


class NotNullControllableError(RuntimeError):
    """Ran U(tau,0) is not contained in Ran W_tau^{1/2}."""


@dataclass(frozen=True)
class SynthesisResult:
    control: ControlSignal
    target_residual: float       # ||x(tau) - x_tau||
    cost: float                  # l2_norm(control)^2
    gramian_cost: float          # <W_tau^{-1} d, d>
    condition_estimate: float    # lambda_max / lambda_min of W_tau


def _solve_gramian(gram: GramianResult, d: np.ndarray, rank_tol: float,
                   allow_singular: bool = False) -> np.ndarray:
    """Solve W eta = d by SPD factorization, or by the range-restricted
    pseudo-inverse when the Gramian is singular and that is allowed."""
    import scipy.linalg  # on first use only: it is most of ltvctl's start-up time

    coercive, _ = coercivity_check(gram, rank_tol)
    if coercive:
        try:
            factor = scipy.linalg.cho_factor(gram.W)
            return scipy.linalg.cho_solve(factor, d)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
            raise NotControllableError(
                f"Gramian factorization failed (condition ~ {_condition(gram):.3e}): {exc}"
            ) from None
    if not allow_singular:
        raise NotControllableError(
            f"Gramian not coercive: lambda_min = {gram.lambda_min:.3e}, "
            f"lambda_max = {gram.lambda_max:.3e}"
        )
    lam, Vr = _numerical_range(gram.W, rank_tol)
    if lam.size == 0:
        raise NotNullControllableError("Gramian has numerical rank zero")
    return Vr @ ((Vr.T @ d) / lam)


def _condition(gram: GramianResult) -> float:
    if gram.lambda_min <= 0:
        return np.inf
    return gram.lambda_max / gram.lambda_min


def min_norm_control(p: Propagator, x0, x_tau,
                     rank_tol: float = COERCIVITY_TOL) -> SynthesisResult:
    """Minimum-energy control steering x0 to x_tau at time tau.

    Raises NotControllableError when W_tau is below the coercivity threshold.
    """
    x0 = np.asarray(x0, dtype=float).reshape(p.sys.n)
    x_tau = np.asarray(x_tau, dtype=float).reshape(p.sys.n)
    gram = ctrl_gramian_quadrature(p)
    d = x_tau - p.propagate_state(x0)
    eta = _solve_gramian(gram, d, rank_tol)
    return _assemble(p, x0, x_tau, d, eta, gram)


def null_control(p: Propagator, x0) -> SynthesisResult:
    """Minimum-energy control steering x0 to the origin at time tau.

    When W_tau is singular but the range inclusion of the null-controllability
    test holds, the solve falls back to the pseudo-inverse on Ran W_tau.
    """
    x0 = np.asarray(x0, dtype=float).reshape(p.sys.n)
    gram = ctrl_gramian_quadrature(p)
    d = -p.propagate_state(x0)
    coercive, _ = coercivity_check(gram)
    if not coercive:
        feasible, _ = _range_inclusion(gram.W, p.transition(0, p.steps), COERCIVITY_TOL)
        if not feasible:
            raise NotNullControllableError(
                "range of U(tau,0) is not contained in the range of W_tau^{1/2}"
            )
    eta = _solve_gramian(gram, d, COERCIVITY_TOL, allow_singular=True)
    return _assemble(p, x0, np.zeros(p.sys.n), d, eta, gram)


def _assemble(p: Propagator, x0, x_tau, d, eta, gram: GramianResult) -> SynthesisResult:
    control = input_map_adjoint(p, eta)
    cost = l2_norm(control) ** 2
    gramian_cost = float(eta @ d)
    residual = float(np.linalg.norm(p.propagate_state(x0, control) - x_tau))
    return SynthesisResult(
        control=control,
        target_residual=residual,
        cost=cost,
        gramian_cost=gramian_cost,
        condition_estimate=_condition(gram),
    )

