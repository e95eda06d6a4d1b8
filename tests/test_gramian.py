import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltvcontrol import (
    GramianResult,
    NumericalRangeError,
    Propagator,
    ctrl_gramian_cross,
    ctrl_gramian_lyapunov,
    ctrl_gramian_quadrature,
    exact_controllability_test,
    obs_gramian,
)
from conftest import (BATCH_SIZES, kind_system, make_system, random_poly_system, scalar_system,
                      stiffened)
from ltvcontrol.gramian import COERCIVITY_TOL
from ltvcontrol.propagate import rk4_substeps
from oracles import lyapunov_oracle


def scalar_gramian_closed_form(a, tau=1.0):
    if a == 0.0:
        return tau
    return (1 - np.exp(-2 * a * tau)) / (2 * a)


class TestQuadratureGramian:
    def test_zero_input_matrix(self):
        p = Propagator(make_system([[1.0]], [[0.0]], [[1.0]]))
        assert ctrl_gramian_quadrature(p).W[0, 0] == 0.0

    def test_integrator(self):
        p = Propagator(scalar_system(a=0.0, quadrature="simpson"))
        assert ctrl_gramian_quadrature(p).W[0, 0] == pytest.approx(1.0, abs=1e-8)

    def test_scalar_decay_closed_form(self):
        p = Propagator(scalar_system(a=1.0, quadrature="simpson"))
        assert ctrl_gramian_quadrature(p).W[0, 0] == pytest.approx(
            scalar_gramian_closed_form(1.0), abs=1e-7)

    def test_symmetric_psd(self, rng):
        for _ in range(5):
            g = ctrl_gramian_quadrature(Propagator(random_poly_system(rng, steps=50)))
            assert np.allclose(g.W, g.W.T)
            assert g.eigenvalues[0] >= -1e-10 * max(g.lambda_max, 1e-30)


class TestLyapunovGramian:
    def test_zero_forcing(self):
        g = ctrl_gramian_lyapunov(make_system([[1.0]], [[0.0]], [[1.0]]))
        assert g.W[0, 0] == 0.0

    def test_linear_growth(self):
        g = ctrl_gramian_lyapunov(scalar_system(a=0.0))
        assert g.W[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_scalar_decay_closed_form(self):
        g = ctrl_gramian_lyapunov(scalar_system(a=1.0))
        assert g.W[0, 0] == pytest.approx(scalar_gramian_closed_form(1.0), abs=1e-8)

    @pytest.mark.parametrize("n, steps", BATCH_SIZES)
    @pytest.mark.parametrize("kind", ["constant", "poly", "samples"])
    @pytest.mark.parametrize("nonuniform", [False, True])
    @pytest.mark.parametrize("need, substeps", [(None, 4), (6.5, 7)])
    def test_matches_per_stage_oracle_bitwise(self, rng, n, steps, kind, nonuniform,
                                              need, substeps):
        sys = kind_system(rng, n, kind, steps, nonuniform)
        if need is not None:
            sys = stiffened(sys, need)
        assert rk4_substeps(sys) == substeps
        W = ctrl_gramian_lyapunov(sys).W
        assert np.array_equal(W, lyapunov_oracle(sys, substeps))

    def test_overflow_is_refused(self):
        sys = make_system(np.diag([-900.0, 1.0]), [[1.0], [1.0]], [[1.0, 1.0]], steps=50)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalRangeError, match="Gramian"):
                ctrl_gramian_lyapunov(sys)

    def test_method_agreement(self, rng):
        for _ in range(20):
            sys = random_poly_system(rng, steps=100, quadrature="simpson")
            quad, lyap, _ = ctrl_gramian_cross(Propagator(sys))
            scale = 1 + np.linalg.norm(quad.W)
            assert np.linalg.norm(quad.W - lyap.W) <= 1e-6 * scale

    @pytest.mark.parametrize("need, substeps", [(None, 4), (6.5, 7)])
    def test_cross_runs_lyapunov_at_propagator_substeps(self, rng, need, substeps):
        sys = random_poly_system(rng, steps=40)
        if need is not None:
            sys = stiffened(sys, need)
        p = Propagator(sys)
        assert p.substeps == substeps
        quad, lyap, residual = ctrl_gramian_cross(p)
        expect = lyapunov_oracle(sys, substeps)
        assert np.array_equal(lyap.W, expect)
        assert residual == np.linalg.norm(quad.W - expect)


class TestObservabilityGramian:
    def test_zero_output_matrix(self):
        p = Propagator(make_system([[1.0]], [[1.0]], [[0.0]]))
        assert obs_gramian(p).W[0, 0] == 0.0

    def test_integrator(self):
        p = Propagator(scalar_system(a=0.0, quadrature="simpson"))
        g = obs_gramian(p)
        assert g.W[0, 0] == pytest.approx(1.0, abs=1e-8)
        assert np.sqrt(g.lambda_min) == pytest.approx(1.0, abs=1e-8)

    def test_scalar_decay(self):
        p = Propagator(scalar_system(a=1.0, quadrature="simpson"))
        g = obs_gramian(p)
        assert g.W[0, 0] == pytest.approx(scalar_gramian_closed_form(1.0), abs=1e-7)
        assert np.sqrt(g.lambda_min) == pytest.approx(0.657519854, abs=1e-6)


class TestCoercivity:
    def test_identity(self):
        g = _fake_gramian(np.eye(2))
        assert g.coercive
        assert g.lambda_min == 1.0

    def test_rank_deficient(self):
        g = _fake_gramian(np.diag([1.0, 0.0]))
        assert not g.coercive
        assert g.lambda_min == 0.0

    def test_scalar_value(self):
        g = _fake_gramian(np.array([[0.432332]]))
        assert g.coercive
        assert g.lambda_min == pytest.approx(0.432332)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(n=st.integers(min_value=3, max_value=6),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           rel=st.floats(min_value=-1e-6, max_value=1e-6))
    def test_verdict_and_numerical_range_read_one_spectrum(self, n, seed, rel):
        # W = Q diag(lam) Q^T with lambda_min within 1e-6 relative of COERCIVITY_TOL *
        # lambda_max (the W of A = 0, B = Q diag(sqrt(lam)), tau = 1): the verdict, the
        # range and the reported lambda_min fall on one side of the threshold together
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        lam = np.sort(rng.uniform(0.5, 2.0, size=n))
        lam[0] = COERCIVITY_TOL * lam[-1] * (1.0 + rel)
        p = Propagator(make_system(np.zeros((n, n)), Q * np.sqrt(lam), np.eye(n)[:1],
                                   steps=10))
        g = ctrl_gramian_quadrature(p)
        kept, V = g.numerical_range
        assert g.coercive == (kept.size == n)
        assert g.coercive == (g.lambda_min > COERCIVITY_TOL * g.lambda_max > 0.0)
        assert np.array_equal(kept, g.eigenvalues[n - kept.size:])
        assert np.array_equal(V, g.eigenvectors[:, n - kept.size:])
        report = exact_controllability_test(p)
        assert report.controllable == g.coercive
        assert report.null_controllable or not report.controllable


class TestGramianProperties:
    def test_operator_identity(self, rng):
        # <W z, z> equals the quadrature of ||B(s)* U(tau,s)* z||^2
        sys = random_poly_system(rng, n=4, steps=60)
        p = Propagator(sys)
        W = ctrl_gramian_quadrature(p).W
        w = p.grid.weights()
        nodes = p.grid.nodes
        for _ in range(100):
            z = rng.normal(size=4)
            quad = sum(
                w[i] * np.linalg.norm(sys.B(nodes[i]).T @ (U.T @ z)) ** 2
                for i, U in p.transitions_to_end()
            )
            assert abs(z @ W @ z - quad) <= 1e-8 * (z @ z)

    def test_minimum_eigenvalue_monotone_in_horizon(self, rng):
        for _ in range(3):
            n = 3
            A = rng.uniform(-0.5, 0.5, size=(n, n))
            B = rng.uniform(-1, 1, size=(n, n))
            lam = []
            for tau in (0.5, 1.0, 2.0):
                sys = make_system(A, B, np.eye(n)[:1], tau=tau, steps=100)
                lam.append(ctrl_gramian_quadrature(Propagator(sys)).lambda_min)
            assert lam[0] <= lam[1] + 1e-12 and lam[1] <= lam[2] + 1e-12

    def test_non_coercive_gramian_has_vanishing_direction(self, rng):
        # uncontrollable constant system: B confined to a subspace
        A = np.zeros((3, 3))
        B = np.array([[1.0], [0.0], [0.0]])
        g = ctrl_gramian_quadrature(Propagator(make_system(A, B, np.eye(3)[:1], steps=100)))
        assert not g.coercive
        z = g.eigenvectors[:, 0]
        assert z @ g.W @ z <= 1e-8


def _fake_gramian(W):
    lam, V = np.linalg.eigh(W)
    return GramianResult(W=W, eigenvalues=lam, eigenvectors=V)
