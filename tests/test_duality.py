import math

import numpy as np
import pytest

from ltvcontrol import (
    CoeffMatrixFn,
    ControlSignal,
    NumericalRangeError,
    Propagator,
    admissibility_constant,
    ctrl_gramian_lyapunov,
    ctrl_gramian_quadrature,
    exact_controllability_test,
    input_map,
    input_map_adjoint,
    key_identity_residual,
    l2_norm,
    null_controllability_test,
    obs_gramian,
)
from conftest import make_grid, make_system, random_poly_system, scalar_system
from oracles import admissibility_oracle, kalman_rank


def random_constant_system(rng, n, deficient=False):
    """Constant-coefficient system; optionally with an unreachable subspace."""
    if not deficient or n == 1:
        A = rng.uniform(-1, 1, size=(n, n))
        B = rng.uniform(-1, 1, size=(n, max(1, n // 2)))
        if deficient:  # n == 1: kill the input instead
            B = np.zeros_like(B)
        return make_system(A, B, np.eye(n)[:1], steps=100)
    k = int(rng.integers(1, n))  # controllable block size
    A = np.zeros((n, n))
    A[:k, :] = rng.uniform(-1, 1, size=(k, n))
    A[k:, k:] = rng.uniform(-1, 1, size=(n - k, n - k))
    B = np.vstack([rng.uniform(-1, 1, size=(k, max(1, n // 2))),
                   np.zeros((n - k, max(1, n // 2)))])
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return make_system(Q @ A @ Q.T, Q @ B, np.eye(n)[:1], steps=100)


class TestInputMap:
    def test_zero_control(self):
        p = Propagator(scalar_system(a=0.0))
        assert input_map(p, ControlSignal(p.grid, np.zeros((201, 1))))[0] == 0.0

    def test_unit_control(self):
        p = Propagator(scalar_system(a=0.0))
        u = ControlSignal(p.grid, np.ones((201, 1)))
        assert input_map(p, u)[0] == pytest.approx(1.0, abs=1e-8)

    def test_matched_exponential_control(self):
        p = Propagator(scalar_system(a=1.0, steps=2000))
        u = ControlSignal(p.grid, np.exp(-(1 - p.grid.nodes)))
        assert input_map(p, u)[0] == pytest.approx((1 - np.exp(-2)) / 2, abs=1e-7)

    def test_equals_propagate_from_origin(self, rng):
        sys = random_poly_system(rng, n=3, steps=50)
        p = Propagator(sys)
        u = ControlSignal(p.grid, rng.normal(size=(51, sys.m)))
        assert np.allclose(input_map(p, u), p.propagate_state(np.zeros(3), u))


class TestInputMapAdjoint:
    def test_zero_vector(self):
        p = Propagator(scalar_system())
        sig = input_map_adjoint(p, [0.0])
        assert l2_norm(sig) == 0.0

    def test_identity_evolution(self):
        p = Propagator(scalar_system(a=0.0))
        sig = input_map_adjoint(p, [1.0])
        assert np.allclose(sig.values, 1.0)

    def test_scalar_adjoint_profile(self):
        p = Propagator(scalar_system(a=1.0))
        sig = input_map_adjoint(p, [1.0])
        assert sig.values[0, 0] == pytest.approx(np.exp(-1), abs=1e-9)

    def test_norm_squared_is_gramian_quadratic_form(self, rng):
        p = Propagator(random_poly_system(rng, n=4, steps=60))
        W = ctrl_gramian_quadrature(p).W
        for _ in range(10):
            z = rng.normal(size=4)
            assert l2_norm(input_map_adjoint(p, z)) ** 2 == pytest.approx(
                z @ W @ z, abs=1e-10 * (z @ z))


class TestIdentities:
    def test_adjoint_identity_zero_cases(self, rng):
        p = Propagator(scalar_system())
        u = ControlSignal(p.grid, np.zeros((201, 1)))
        assert key_identity_residual(p, u, rng.normal(size=1)) <= 1e-12
        u = ControlSignal(p.grid, rng.normal(size=(201, 1)))
        assert key_identity_residual(p, u, np.zeros(1)) <= 1e-12

    def test_adjoint_identity_random(self, rng):
        p = Propagator(scalar_system(a=1.0))
        for _ in range(20):
            u = ControlSignal(p.grid, rng.normal(size=(201, 1)))
            z = rng.normal(size=1)
            scale = l2_norm(u) * np.linalg.norm(z)
            assert key_identity_residual(p, u, z) <= 1e-8 * scale

    def test_key_identity_unit_case(self):
        p = Propagator(scalar_system(a=0.0))
        u = ControlSignal(p.grid, np.ones((201, 1)))
        assert key_identity_residual(p, u, [1.0]) <= 1e-8

    def test_key_identity_random_system(self, rng):
        sys = random_poly_system(rng, n=3, steps=80)
        p = Propagator(sys)
        for _ in range(20):
            u = ControlSignal(p.grid, rng.normal(size=(81, sys.m)))
            z = rng.normal(size=3)
            scale = l2_norm(u) * np.linalg.norm(z)
            assert key_identity_residual(p, u, z) <= 1e-8 * scale


class TestExactControllability:
    def test_scalar_integrator(self):
        rep = exact_controllability_test(Propagator(scalar_system(a=0.0, tau=2.0)))
        assert rep.controllable
        assert rep.obs_constant_delta == pytest.approx(np.sqrt(2.0), abs=1e-6)

    def test_zero_input(self):
        rep = exact_controllability_test(Propagator(make_system(
            np.zeros((2, 2)), np.zeros((2, 1)), np.eye(2)[:1])))
        assert not rep.controllable
        assert rep.lambda_min_W == pytest.approx(0.0, abs=1e-14)

    def test_unreachable_rotated_mode_is_not_coercive(self):
        # A = R diag(1, 2) R^T, B = R e1 with R the rotation by 0.3: the second mode is
        # unreachable, and lambda_min(W) is roundoff, far below COERCIVITY_TOL lambda_max
        c, s = np.cos(0.3), np.sin(0.3)
        R = np.array([[c, -s], [s, c]])
        A, B = R @ np.diag([1.0, 2.0]) @ R.T, R[:, :1]
        rep = exact_controllability_test(Propagator(make_system(A, B, [[1.0, 0.0]])))
        assert kalman_rank(A, B) == 1
        assert abs(rep.lambda_min_W) < 1e-15
        assert rep.coercivity_tol == 1e-10
        assert not rep.controllable
        assert not rep.null_controllable
        assert rep.null_inclusion_c == math.inf

    def test_double_integrator_chain(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.array([[0.0], [1.0]])
        rep = exact_controllability_test(Propagator(make_system(A, B, np.eye(2)[:1])))
        assert rep.controllable
        assert kalman_rank(A, B) == 2

    def test_delta_squared_is_lambda_min(self, rng):
        sys = random_poly_system(rng, n=3, steps=60)
        rep = exact_controllability_test(Propagator(sys))
        assert rep.obs_constant_delta**2 == pytest.approx(
            max(rep.lambda_min_W, 0.0), rel=1e-8, abs=1e-14)

    def test_duality_constant_chain(self, rng):
        # ||z|| <= (1/delta) * ||Psi* z||_{L2} for every z when coercive
        sys = random_poly_system(rng, n=4, steps=60)
        p = Propagator(sys)
        rep = exact_controllability_test(p)
        if not rep.controllable:
            pytest.skip("random draw not controllable")
        for _ in range(100):
            z = rng.normal(size=4)
            assert np.linalg.norm(z) <= (1 / rep.obs_constant_delta) * l2_norm(
                input_map_adjoint(p, z)) * (1 + 1e-9)

    def test_kalman_oracle_agreement(self, rng):
        agree = 0
        for trial in range(40):
            n = int(rng.integers(2, 6))
            sys = random_constant_system(rng, n, deficient=trial % 2 == 0)
            rep = exact_controllability_test(Propagator(sys))
            oracle = kalman_rank(sys.A(0.0), sys.B(0.0)) == n
            agree += rep.controllable == oracle
        assert agree == 40


class TestAdmissibility:
    def test_zero_output(self):
        p = Propagator(make_system([[0.0]], [[1.0]], [[0.0]]))
        assert admissibility_constant(p) == 0.0

    def test_integrator_window(self):
        p = Propagator(scalar_system(a=0.0))
        assert admissibility_constant(p) == pytest.approx(1.0, abs=1e-8)

    def test_scalar_decay_window(self):
        p = Propagator(scalar_system(a=1.0, steps=1000))
        assert admissibility_constant(p) == pytest.approx(0.657519854, abs=1e-6)

    def test_bounds_windowed_energy(self, rng):
        sys = random_poly_system(rng, n=3, steps=50)
        p = Propagator(sys)
        M = admissibility_constant(p)
        nodes = p.grid.nodes
        for s in range(0, 50, 10):
            d = np.diff(nodes[s:])
            w = np.zeros(nodes.size - s)
            w[:-1] += d / 2
            w[1:] += d / 2
            for _ in range(10):
                x = rng.normal(size=3)
                energy = sum(
                    w[i - s] * np.linalg.norm(sys.C(nodes[i]) @ p.transition(s, i) @ x) ** 2
                    for i in range(s, 51)
                )
                assert energy <= (M**2) * (x @ x) * (1 + 1e-9)

    @pytest.mark.parametrize("n", [1, 3, 6, 20])
    @pytest.mark.parametrize("quadrature", ["trapezoid", "simpson"])
    def test_recursion_matches_oracle(self, rng, n, quadrature):
        # A and C both vary in time, so each window sees its own C(t_i)
        for steps in (2, 3, 17, 200):
            for uniform in (True, False):
                if quadrature == "simpson" and not uniform:
                    continue  # Simpson needs a uniform grid
                nodes = None
                if not uniform:
                    nodes = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.0, steps))])
                    nodes /= nodes[-1]
                grid = make_grid(steps=steps, quadrature=quadrature, nodes=nodes)
                A = CoeffMatrixFn.poly(rng.uniform(-0.5, 0.5, size=(3, n, n)), grid)
                C = CoeffMatrixFn.poly(rng.uniform(-1, 1, size=(2, max(1, n // 2), n)), grid)
                sys = make_system(A, np.eye(n)[:, :1], C, grid=grid)
                p = Propagator(sys)
                expect = admissibility_oracle(p)
                assert admissibility_constant(p) == pytest.approx(expect, rel=1e-12, abs=0.0)


    def test_overflow_is_refused(self):
        p = Propagator(make_system(np.diag([-900.0, 1.0]), [[1.0], [1.0]], [[1.0, 1.0]],
                                   steps=50))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalRangeError, match="windowed"):
                admissibility_constant(p)


class TestNullControllability:
    def test_zero_input_infeasible(self):
        p = Propagator(make_system(np.zeros((2, 2)), np.zeros((2, 1)), np.eye(2)[:1]))
        gram = ctrl_gramian_quadrature(p)
        feasible, c = null_controllability_test(gram)
        assert not feasible
        assert math.isinf(c)

    def test_scalar_constant(self):
        p = Propagator(scalar_system(a=1.0, quadrature="simpson"))
        gram = ctrl_gramian_quadrature(p)
        feasible, c = null_controllability_test(gram)
        closed = np.exp(-1) / np.sqrt((1 - np.exp(-2)) / 2)
        assert feasible
        assert c == pytest.approx(closed, abs=1e-5)

    def test_needs_the_quadrature_pass(self):
        # the Lyapunov W and Q_tau carry no U(tau, 0) to test
        p = Propagator(scalar_system(a=1.0))
        for gram in (ctrl_gramian_lyapunov(p.sys), obs_gramian(p)):
            with pytest.raises(ValueError, match="U\\(tau, 0\\)"):
                null_controllability_test(gram)

    def test_controllable_implies_feasible(self, rng):
        sys = random_poly_system(rng, n=3, steps=80)
        rep = exact_controllability_test(Propagator(sys))
        if rep.controllable:
            assert rep.null_controllable

    def test_inclusion_constant_bounds_ratio(self, rng):
        sys = random_poly_system(rng, n=4, steps=80)
        p = Propagator(sys)
        gram = ctrl_gramian_quadrature(p)
        K = gram.U_tau_0
        feasible, c = null_controllability_test(gram)
        if not feasible:
            pytest.skip("random draw not null controllable")
        W = gram.W
        for _ in range(100):
            z = rng.normal(size=4)
            lhs = np.linalg.norm(K.T @ z)
            rhs = np.sqrt(max(z @ W @ z, 0.0))
            assert lhs <= (c + 1e-8) * rhs
