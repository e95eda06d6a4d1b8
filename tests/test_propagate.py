import numpy as np
import pytest

from ltvcontrol import CoeffMatrixFn, ControlSignal, Propagator, cocycle_defect
from conftest import make_system, random_poly_system, scalar_system
from oracles import expm_oracle


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
        assert p.propagate_state([0.0], u, 200)[0] == 0.0

    def test_integrator_of_unit_input(self):
        p = Propagator(scalar_system(a=0.0))
        u = ControlSignal(p.grid, np.ones((201, 1)))
        assert p.propagate_state([0.0], u, 200)[0] == pytest.approx(1.0, abs=1e-8)

    def test_homogeneous_decay(self):
        p = Propagator(scalar_system(a=1.0))
        assert p.propagate_state([1.0], None, 200)[0] == pytest.approx(np.exp(-1), abs=1e-8)

    def test_grid_mismatch_rejected(self):
        p = Propagator(scalar_system(steps=100))
        other = scalar_system(steps=50)
        with pytest.raises(ValueError):
            p.propagate_state([0.0], ControlSignal.zero(other.grid, 1), 100)

    def test_intermediate_node(self):
        p = Propagator(scalar_system(a=0.0))
        u = ControlSignal(p.grid, np.ones((201, 1)))
        assert p.propagate_state([0.0], u, 100)[0] == pytest.approx(0.5, abs=1e-8)


class TestAdjointState:
    def test_final_condition(self, rng):
        p = Propagator(random_poly_system(rng, n=3, steps=40))
        z = rng.normal(size=3)
        assert np.allclose(p.adjoint_state(z, 40), z)

    def test_scalar_adjoint_equals_forward(self):
        p = Propagator(scalar_system(a=1.0))
        assert p.adjoint_state([1.0], 0)[0] == pytest.approx(np.exp(-1), abs=1e-9)

    def test_duality_pairing(self, rng):
        p = Propagator(random_poly_system(rng, n=4, steps=50))
        for i in range(0, 51, 10):
            for _ in range(20):
                x = rng.normal(size=4)
                z = rng.normal(size=4)
                lhs = (p.transition(i, 50) @ x) @ z
                rhs = x @ p.adjoint_state(z, i)
                assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(z)
