import numpy as np
import pytest

from ltvcontrol import (
    CoeffMatrixFn,
    ControlSignal,
    NumericalRangeError,
    Propagator,
    cocycle_defect,
    ctrl_gramian_lyapunov,
    sysmodel,
)
from ltvcontrol.propagate import STACK_ELEMENTS
from conftest import BATCH_SIZES, kind_system, make_system, random_poly_system, scalar_system
from oracles import expm_oracle, propagate_state_oracle, step_transitions_oracle


class TestTransition:
    def test_zero_generator_gives_identity(self):
        p = Propagator(make_system([[0.0]], [[1.0]], [[1.0]]))
        for i in (0, 50, 200):
            assert p.transition(0, i)[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_identity_without_computation(self, rng):
        p = Propagator(random_poly_system(rng, n=3, steps=20))
        assert np.array_equal(p.transition(7, 7), np.eye(3))

    def test_constant_scalar_decay(self):
        p = Propagator(scalar_system(a=1.0))
        assert p.transition(0, 200)[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-9)

    def test_ramp_scalar_closed_form(self):
        sys = make_system(CoeffMatrixFn.poly([[[0.0]], [[1.0]]]), [[1.0]], [[1.0]])
        p = Propagator(sys)
        # x' = -t x  =>  U(1, 0) = exp(-1/2)
        assert p.transition(0, 200)[0, 0] == pytest.approx(np.exp(-0.5), abs=1e-8)

    def test_backward_transition_rejected(self):
        p = Propagator(scalar_system())
        with pytest.raises(ValueError):
            p.transition(5, 2)


class TestBatchedStepBuild:
    @pytest.mark.parametrize("n, steps", BATCH_SIZES)
    @pytest.mark.parametrize("kind", ["constant", "poly", "samples"])
    @pytest.mark.parametrize("nonuniform", [False, True])
    @pytest.mark.parametrize("method", ["rk4", "midpoint"])
    @pytest.mark.parametrize("substeps", [1, 4])
    def test_matches_per_interval_oracle_bitwise(self, rng, n, steps, kind, nonuniform,
                                                 method, substeps):
        sys = kind_system(rng, n, kind, steps, nonuniform)
        p = Propagator(sys, method=method, substeps=substeps)
        expect = step_transitions_oracle(sys, method, substeps)
        assert len(p.step_transitions) == steps
        assert all(np.array_equal(p.step_transitions[i], expect[i]) for i in range(steps))

    def test_coefficients_sampled_per_chunk_not_per_stage(self, rng, monkeypatch):
        calls = []
        original = sysmodel.eval_coeff

        def counting(f, t):
            calls.append(np.size(t))
            return original(f, t)

        monkeypatch.setattr(sysmodel, "eval_coeff", counting)
        n, steps, substeps = 4, 2000, 4
        sys = kind_system(rng, n, "poly", steps)
        Propagator(sys, substeps=substeps)
        ctrl_gramian_lyapunov(sys, substeps=substeps)
        # per stack: one call per RK4 stage time of each substep in the step build,
        # one for A and one for B in the Lyapunov loop
        step_chunks = -(-steps // (STACK_ELEMENTS // n**2))
        lyap_chunks = -(-steps // (STACK_ELEMENTS // (3 * substeps * n**2)))
        assert len(calls) == 3 * substeps * step_chunks + 2 * lyap_chunks
        assert len(calls) < steps  # the per-stage loops made 12 calls per substep of each interval


class TestNumericalRange:
    def test_overflowing_step_matrix_is_refused(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalRangeError, match="step matrix"):
                Propagator(scalar_system(a=-1e300))

    def test_overflowing_transitions_are_refused(self):
        p = Propagator(make_system(np.diag([-900.0, 1.0]), [[1.0], [1.0]], [[1.0, 1.0]],
                                   steps=50))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalRangeError):
                p.transitions_to_end()
            with pytest.raises(NumericalRangeError):
                p.transitions_from_start()


class TestCocycle:
    def test_cocycle_on_random_polynomial_systems(self, rng):
        for _ in range(20):
            p = Propagator(random_poly_system(rng, steps=60))
            idx = range(0, 61, 12)
            defect = max(
                cocycle_defect(p, i, j, k)
                for i in idx for j in idx for k in idx if i <= j <= k
            )
            assert defect <= 1e-8


class TestAutonomousReduction:
    def test_constant_generator_matches_expm_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            A = rng.uniform(-0.5, 0.5, size=(n, n))
            p = Propagator(make_system(A, np.eye(n)[:, :1], np.eye(n)[:1, :]))
            expect = expm_oracle(-A)
            assert np.linalg.norm(p.transition(0, 200) - expect) <= 1e-9

    def test_rk4_order(self, rng):
        A = rng.uniform(-0.5, 0.5, size=(4, 4))
        sys = make_system(A, np.eye(4)[:, :1], np.eye(4)[:1, :], steps=20)
        expect = expm_oracle(-A)
        err = [np.linalg.norm(Propagator(sys, substeps=s).transition(0, 20) - expect)
               for s in (2, 4)]
        ratio = err[0] / err[1]
        assert 10 <= ratio <= 24  # ~16x for a 4th-order method


class TestPropagateState:
    def test_zero_everything(self):
        p = Propagator(scalar_system(a=0.0))
        u = ControlSignal.zero(p.grid, 1)
        assert p.propagate_state([0.0], u)[0] == 0.0

    def test_integrator_of_unit_input(self):
        p = Propagator(scalar_system(a=0.0))
        u = ControlSignal(p.grid, np.ones((201, 1)))
        assert p.propagate_state([0.0], u)[0] == pytest.approx(1.0, abs=1e-8)

    def test_homogeneous_decay(self):
        p = Propagator(scalar_system(a=1.0))
        assert p.propagate_state([1.0])[0] == pytest.approx(np.exp(-1), abs=1e-8)

    def test_grid_mismatch_rejected(self):
        p = Propagator(scalar_system(steps=100))
        other = scalar_system(steps=50)
        with pytest.raises(ValueError):
            p.propagate_state([0.0], ControlSignal.zero(other.grid, 1))

    @pytest.mark.parametrize("quadrature, nonuniform", [
        ("trapezoid", False), ("trapezoid", True), ("simpson", False)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_backward_product_oracle(self, rng, quadrature, nonuniform, dtype):
        for steps in (2, 3, 17, 60):
            nodes = None
            if nonuniform:
                nodes = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, steps))])
                nodes /= nodes[-1]
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 4))
            A = CoeffMatrixFn.poly(rng.uniform(-0.5, 0.5, size=(3, n, n)))
            B = CoeffMatrixFn.poly(rng.uniform(-1, 1, size=(2, n, m)))
            sys = make_system(A, B, np.eye(n)[:1], steps=steps, quadrature=quadrature,
                              nodes=nodes)
            p = Propagator(sys)
            values = rng.normal(size=(steps + 1, m))
            if dtype is complex:
                values = values + 1j * rng.normal(size=(steps + 1, m))
            u = ControlSignal(p.grid, values)
            x0 = rng.normal(size=n)
            assert np.array_equal(p.propagate_state(x0, u), propagate_state_oracle(p, x0, u))


class TestAdjointState:
    """z(t_i) = U(tau, t_i)* z_tau, the backward adjoint solution."""

    def test_final_condition(self, rng):
        p = Propagator(random_poly_system(rng, n=3, steps=40))
        z = rng.normal(size=3)
        assert np.allclose(p.transitions_to_end()[40].T @ z, z)

    def test_scalar_adjoint_equals_forward(self):
        p = Propagator(scalar_system(a=1.0))
        assert p.transitions_to_end()[0][0, 0] == pytest.approx(np.exp(-1), abs=1e-9)

    def test_duality_pairing(self, rng):
        p = Propagator(random_poly_system(rng, n=4, steps=50))
        for i in range(0, 51, 10):
            for _ in range(20):
                x = rng.normal(size=4)
                z = rng.normal(size=4)
                lhs = (p.transition(i, 50) @ x) @ z
                rhs = x @ (p.transitions_to_end()[i].T @ z)
                assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(z)
