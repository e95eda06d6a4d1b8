import numpy as np
import pytest

from ltvcontrol import (
    ControlSignal,
    NotControllableError,
    NotNullControllableError,
    Propagator,
    coercivity_check,
    ctrl_gramian_quadrature,
    input_map,
    input_map_adjoint,
    l2_inner,
    l2_norm,
    min_norm_control,
    null_control,
)
from ltvcontrol import synth
from ltvcontrol.gramian import COERCIVITY_TOL
from conftest import BATCH_SIZES, kind_system, make_system, random_poly_system, scalar_system
from oracles import cholesky_steer_oracle


class TestMinNormControl:
    def test_zero_task_zero_control(self):
        p = Propagator(scalar_system(a=0.0))
        res = min_norm_control(p, [0.0], [0.0])
        assert res.cost == 0.0
        assert res.target_residual <= 1e-14

    def test_integrator_unit_transfer(self):
        p = Propagator(scalar_system(a=0.0, quadrature="simpson"))
        res = min_norm_control(p, [0.0], [1.0])
        assert np.allclose(res.control.values, 1.0, atol=1e-8)
        assert res.cost == pytest.approx(1.0, abs=1e-8)
        assert res.target_residual <= 1e-8

    def test_scalar_decay_closed_form(self):
        p = Propagator(scalar_system(a=1.0, quadrature="simpson"))
        res = min_norm_control(p, [0.0], [1.0])
        W = (1 - np.exp(-2)) / 2
        assert res.cost == pytest.approx(1 / W, abs=1e-5)
        # u(s) = e^{-(1-s)} / W
        t = p.grid.nodes
        assert np.allclose(res.control.values[:, 0], np.exp(-(1 - t)) / W, atol=1e-6)
        assert res.target_residual <= 1e-8

    def test_not_controllable_raises(self):
        p = Propagator(make_system(np.zeros((2, 2)), np.zeros((2, 1)), np.eye(2)[:1]))
        with pytest.raises(NotControllableError):
            min_norm_control(p, np.zeros(2), np.ones(2))

    def test_cost_matches_gramian_cost(self, rng):
        sys = random_poly_system(rng, n=3, m=3, steps=80)
        p = Propagator(sys)
        res = min_norm_control(p, rng.normal(size=3), rng.normal(size=3))
        assert abs(res.cost - res.gramian_cost) <= 1e-6 * (1 + res.gramian_cost)

    def test_kernel_perturbations_cannot_lower_cost(self, rng):
        sys = random_poly_system(rng, n=3, m=3, steps=60)
        p = Propagator(sys)
        W = ctrl_gramian_quadrature(p)
        res = min_norm_control(p, rng.normal(size=3), rng.normal(size=3))
        u_norm_sq = l2_norm(res.control) ** 2
        for _ in range(20):
            w_sig = ControlSignal(p.grid, rng.normal(size=(61, sys.m)))
            eta = np.linalg.solve(W.W, input_map(p, w_sig))
            v = ControlSignal(p.grid, w_sig.values - input_map_adjoint(p, eta).values)
            assert np.linalg.norm(input_map(p, v)) <= 1e-8
            cross = l2_inner(v, res.control)
            assert abs(cross) <= 1e-8
            combined = ControlSignal(p.grid, res.control.values + v.values)
            assert l2_norm(combined) ** 2 >= u_norm_sq - 1e-8

    def test_linearity_in_target(self, rng):
        sys = random_poly_system(rng, n=3, m=3, steps=60)
        p = Propagator(sys)
        x1 = rng.normal(size=3)
        x2 = rng.normal(size=3)
        r1 = min_norm_control(p, np.zeros(3), x1)
        r2 = min_norm_control(p, np.zeros(3), x2)
        r12 = min_norm_control(p, np.zeros(3), x1 + 2 * x2)
        assert np.allclose(r12.control.values,
                           r1.control.values + 2 * r2.control.values, atol=1e-8)


class TestNullControl:
    def test_origin_stays_put(self):
        p = Propagator(scalar_system(a=1.0))
        res = null_control(p, [0.0])
        assert res.cost <= 1e-20

    def test_scalar_decay_closed_form(self):
        p = Propagator(scalar_system(a=1.0, quadrature="simpson"))
        res = null_control(p, [1.0])
        W = (1 - np.exp(-2)) / 2
        t = p.grid.nodes
        expect = -np.exp(-1) * np.exp(-(1 - t)) / W
        assert np.allclose(res.control.values[:, 0], expect, atol=1e-6)
        assert np.linalg.norm(p.propagate_state([1.0], res.control)) <= 1e-8

    def test_zero_input_rejected(self):
        p = Propagator(make_system([[0.0]], [[0.0]], [[1.0]]))
        with pytest.raises(NotNullControllableError):
            null_control(p, [1.0])

    def test_singular_solve_uses_range_restriction(self):
        # A = diag(0, 2000): U(tau, 0)_22 underflows to exactly 0, so W = diag(1, 0) is
        # singular while Ran U(tau, 0) lies in Ran W; only null_control takes the
        # pseudo-inverse on Ran W
        p = Propagator(make_system(np.diag([0.0, 2000.0]), [[1.0], [0.0]], np.eye(2)))
        assert p.transition(0, p.steps)[1, 1] == 0.0
        assert ctrl_gramian_quadrature(p).lambda_min == 0.0
        res = null_control(p, [1.0, 1.0])
        assert np.linalg.norm(p.propagate_state([1.0, 1.0], res.control)) <= 1e-8
        with pytest.raises(NotControllableError):
            min_norm_control(p, [1.0, 1.0], [0.0, 0.0])


class TestVerifySteering:
    def test_synthesized_control_steers(self, rng):
        sys = random_poly_system(rng, n=4, m=4, steps=80)
        p = Propagator(sys)
        x0 = rng.normal(size=4)
        target = rng.normal(size=4)
        res = min_norm_control(p, x0, target)
        assert np.linalg.norm(p.propagate_state(x0, res.control) - target) <= 1e-6


def _assert_matches_cholesky(p, x0, x_tau, monkeypatch):
    """min_norm_control's eta (the z it hands to Psi_tau*), cost and control agree
    with the Cholesky oracle within 1e-12 cond(W) relative."""
    etas = []

    def spy(p_, z):
        etas.append(z)
        return input_map_adjoint(p_, z)

    monkeypatch.setattr(synth, "input_map_adjoint", spy)
    res = min_norm_control(p, x0, x_tau)
    eta, cost, control = cholesky_steer_oracle(p, x0, x_tau)
    tol = 1e-12 * res.condition_estimate
    assert np.linalg.norm(etas[0] - eta) <= tol * np.linalg.norm(eta)
    assert abs(res.cost - cost) <= tol * cost
    assert np.linalg.norm(res.control.values - control) <= tol * np.linalg.norm(control)


class TestEigenRangeSolve:
    @pytest.mark.parametrize("n, steps", BATCH_SIZES)
    @pytest.mark.parametrize("kind", ["constant", "poly", "samples"])
    @pytest.mark.parametrize("nonuniform", [False, True], ids=["uniform", "nonuniform"])
    def test_matches_cholesky_oracle(self, rng, monkeypatch, n, steps, kind, nonuniform):
        p = Propagator(kind_system(rng, n, kind, steps, nonuniform, m=n))
        _assert_matches_cholesky(p, rng.normal(size=n), rng.normal(size=n), monkeypatch)

    def test_coercive_solve_keeps_every_eigenpair(self, monkeypatch):
        # W = R diag(1, 1.1e-10) R^T: lambda_min sits just above COERCIVITY_TOL * lambda_max,
        # so the verdict is "coercive" and the solve must still use the small eigenpair
        c, s = np.cos(0.3), np.sin(0.3)
        R = np.array([[c, -s], [s, c]])
        B = R @ np.diag([1.0, np.sqrt(1.1e-10)])
        p = Propagator(make_system(np.zeros((2, 2)), B, np.eye(2)[:1], steps=50))
        gram = ctrl_gramian_quadrature(p)
        assert coercivity_check(gram)[0]
        assert gram.lambda_min < 1.2 * COERCIVITY_TOL * gram.lambda_max
        assert gram.numerical_range[0].size == 2
        _assert_matches_cholesky(p, [1.0, -2.0], [0.5, 3.0], monkeypatch)
