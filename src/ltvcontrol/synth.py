"""Minimum-L2-norm control synthesis through the Gramian inverse.

The steering control for d = x_tau - U(tau,0) x0 is
u(s) = B(s)* U(tau,s)* W_tau^{-1} d; its cost ||u||_{L2}^2 equals
<W_tau^{-1} d, d>, and any control with the same endpoint differs from it by
an element of ker Psi_tau orthogonal to it, so the norm is minimal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .duality import input_map_adjoint, null_controllability_test
from .gramian import GramianResult, coercivity_check, ctrl_gramian_quadrature
from .propagate import Propagator, require_finite
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


def _condition(gram: GramianResult) -> float:
    if gram.lambda_min <= 0:
        return np.inf
    return gram.lambda_max / gram.lambda_min


def min_norm_control(p: Propagator, x0, x_tau) -> SynthesisResult:
    """Minimum-energy control steering x0 to x_tau at time tau.

    Raises NotControllableError when W_tau is below the coercivity threshold.
    """
    return _steer(p, x0, x_tau, singular_ok=False)


def null_control(p: Propagator, x0) -> SynthesisResult:
    """Minimum-energy control steering x0 to the origin at time tau.

    When W_tau is singular but the range inclusion of the null-controllability
    test holds, the solve falls back to the pseudo-inverse on Ran W_tau.
    """
    return _steer(p, x0, np.zeros(p.sys.n), singular_ok=True)


def _steer(p: Propagator, x0, x_tau, singular_ok: bool) -> SynthesisResult:
    """Solve W eta = d for d = x_tau - U(tau,0) x0 as eta = V (V* d / lam) over W_tau's
    eigenpairs: all n of them when W_tau is coercive, else, if singular_ok and the
    range inclusion holds, those of its numerical range (the pseudo-inverse on Ran W_tau)."""
    x0 = np.asarray(x0, dtype=float).reshape(p.sys.n)
    x_tau = np.asarray(x_tau, dtype=float).reshape(p.sys.n)
    gram = ctrl_gramian_quadrature(p)
    d = x_tau - p.propagate_state(x0)
    if coercivity_check(gram)[0]:
        lam, V = np.linalg.eigh(gram.W)
    elif not singular_ok:
        raise NotControllableError(
            f"Gramian not coercive: lambda_min = {gram.lambda_min:.3e}, "
            f"lambda_max = {gram.lambda_max:.3e}"
        )
    elif not null_controllability_test(gram, gram.U_tau_0)[0]:
        raise NotNullControllableError(
            "range of U(tau,0) is not contained in the range of W_tau^{1/2}"
        )
    else:
        lam, V = gram.numerical_range
    # overflow is refused by require_finite; numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        eta = V @ ((V.T @ d) / lam)
        require_finite(eta, "the Gramian solve")
        control = input_map_adjoint(p, eta)
        cost = l2_norm(control) ** 2
        gramian_cost = float(eta @ d)
        residual = float(np.linalg.norm(p.propagate_state(x0, control) - x_tau))
        require_finite(np.array([cost, gramian_cost, residual]), "the steering cost or residual")
    return SynthesisResult(
        control=control,
        target_residual=residual,
        cost=cost,
        gramian_cost=gramian_cost,
        condition_estimate=_condition(gram),
    )

