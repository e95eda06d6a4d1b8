import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltvcontrol import (
    CoeffMatrixFn,
    HautusGrid,
    NumericalRangeError,
    Propagator,
    averaging_identity_residual,
    default_hautus_grid,
    find_witness_time,
    frozen_observability_constant,
    frozen_vs_ltv_report,
    hautus_sweep,
    nonautonomous_hautus_margin,
    observability_constant,
    russell_weiss_margin,
    russell_weiss_min_margin,
)
from ltvcontrol.duality import admissibility_constant
from conftest import make_system, scalar_system


def random_dissipative_system(rng, n=3, steps=100, quadrature="trapezoid"):
    """Exactly observable system whose A(t) stays symmetric PSD on [0, tau]."""
    R0 = rng.normal(size=(n, n)) * 0.4
    R1 = rng.normal(size=(n, n)) * 0.3
    A = CoeffMatrixFn.poly(np.stack([R0.T @ R0, R1.T @ R1]))
    C = rng.uniform(-1, 1, size=(n, n)) + 0.5 * np.eye(n)
    B = np.eye(n)[:, :1]
    return make_system(A, B, C, steps=steps, quadrature=quadrature)


class TestRussellWeiss:
    def test_zero_vector(self):
        assert russell_weiss_margin([[-1.0]], [[1.0]], -1.0, [0.0], 1.0) == 0.0

    def test_scalar_observable_pair(self):
        assert russell_weiss_margin([[-1.0]], [[1.0]], -1.0, [1.0], 1.0) == pytest.approx(0.0)

    def test_scalar_unobservable_pair(self):
        assert russell_weiss_margin([[-1.0]], [[0.0]], -1.0, [1.0], 1.0) == pytest.approx(-1.0)

    def test_right_half_plane_rejected(self):
        with pytest.raises(ValueError):
            russell_weiss_margin([[-1.0]], [[1.0]], 1.0, [1.0], 1.0)
        with pytest.raises(ValueError):
            russell_weiss_min_margin([[-1.0]], [[1.0]], 0.0, 1.0)

    def test_min_margin_scalar(self):
        margin, x = russell_weiss_min_margin([[-1.0]], [[1.0]], -1.0, 1.0)
        assert margin == pytest.approx(0.0, abs=1e-14)
        assert abs(x[0]) == pytest.approx(1.0)

    def test_min_margin_unobservable_direction(self):
        G = -np.eye(2)
        C = np.array([[1.0, 0.0]])
        margin, x = russell_weiss_min_margin(G, C, -1.0, 1.0)
        assert margin == pytest.approx(-1.0, abs=1e-14)
        assert abs(x[1]) == pytest.approx(1.0, abs=1e-12)

    def test_psd_baseline_with_zero_constant(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            G = rng.normal(size=(n, n))
            C = rng.normal(size=(2, n))
            s = complex(-rng.uniform(0.1, 10), rng.uniform(-5, 5))
            margin, _ = russell_weiss_min_margin(G, C, s, 0.0)
            assert margin >= -1e-12

    def test_margin_quadratic_scaling(self, rng):
        G = rng.normal(size=(3, 3))
        C = rng.normal(size=(1, 3))
        x = rng.normal(size=3)
        base = russell_weiss_margin(G, C, -2.0 + 1j, x, 0.7)
        for alpha in (-3.0, 0.5, 2.0):
            scaled = russell_weiss_margin(G, C, -2.0 + 1j, alpha * x, 0.7)
            assert scaled == pytest.approx(alpha**2 * base, rel=1e-10, abs=1e-12)


class TestNonautonomousMargin:
    def test_zero_vector(self):
        sys = scalar_system(a=0.0)
        assert nonautonomous_hautus_margin(sys, 2.0, [0.0], 1.0, 1.0) == 0.0

    def test_scalar_worked_value(self):
        sys = scalar_system(a=0.0, quadrature="simpson")
        margin = nonautonomous_hautus_margin(sys, 2.0, [1.0], 1.0, 1.0)
        expect = 0.5 + (1 - np.exp(-2)) - 1
        assert margin == pytest.approx(expect, abs=1e-6)

    def test_large_lambda_asymptote(self):
        sys = scalar_system(a=0.0, steps=4000, quadrature="simpson")
        margin = nonautonomous_hautus_margin(sys, 60.0, [1.0], 1.0, 1.0)
        # integral -> 1, boundary -> 0+, so margin -> M - delta = 0 from above
        assert 0 < margin < 0.1

    def test_left_half_plane_rejected(self):
        sys = scalar_system(a=0.0)
        with pytest.raises(ValueError):
            nonautonomous_hautus_margin(sys, -1.0, [1.0], 1.0, 1.0)

    def test_autonomous_collapse_of_integral(self, rng):
        # for constant A the integral term has the closed form
        # ||(lambda + A) x|| (1 - e^{-Re(lambda) tau}) / Re(lambda)
        from ltvcontrol.hautus import _hautus_integral
        A = rng.normal(size=(3, 3)) * 0.5
        sys = make_system(A, np.eye(3)[:, :1], np.eye(3), steps=1000,
                          quadrature="simpson")
        for lam in (0.5, 2.0, 2.0 + 1.0j, 10.0):
            lam = complex(lam)
            x = rng.normal(size=3)
            got = _hautus_integral(sys, lam, x[:, None])[0]
            expect = np.linalg.norm(lam * x + A @ x) * (1 - np.exp(-lam.real)) / lam.real
            assert got == pytest.approx(expect, abs=1e-8)


class TestHautusSweep:
    def test_scalar_integrator_certificate(self):
        sys = scalar_system(a=0.0, quadrature="simpson")
        grid = default_hautus_grid(1, seed=3, n_vectors=50)
        report = hautus_sweep(sys, grid)
        assert report.delta == pytest.approx(1.0, abs=1e-8)
        assert report.min_margin >= -1e-9

    def test_zero_output_is_informational(self):
        sys = make_system([[0.0]], [[1.0]], [[0.0]])
        report = hautus_sweep(sys, default_hautus_grid(1, seed=3, n_vectors=10))
        assert report.delta == 0.0
        assert report.min_margin >= 0.0

    def test_diagonal_autonomous(self):
        sys = make_system(np.diag([1.0, 2.0]), np.eye(2)[:, :1], np.eye(2),
                          quadrature="simpson")
        report = hautus_sweep(sys, default_hautus_grid(2, seed=5, n_vectors=50))
        assert report.min_margin >= -1e-9

    def test_necessary_condition_on_observable_family(self, rng):
        for _ in range(20):
            sys = random_dissipative_system(rng, n=3, steps=100)
            p = Propagator(sys)
            grid = default_hautus_grid(3, seed=11, n_vectors=20)
            report = hautus_sweep(sys, grid, propagator=p)
            assert report.delta > 0
            assert report.min_margin >= -1e-9

    def test_eigenvector_probes(self, rng):
        sys = random_dissipative_system(rng, n=3)
        p = Propagator(sys)
        delta = observability_constant(p)
        M = admissibility_constant(p)
        for t in np.linspace(0, 1, 5):
            _, vecs = np.linalg.eigh(sys.A(t))
            for k in range(3):
                x = vecs[:, k]
                for lam in (0.1, 1.0, 10.0, 1.0 + 1.0j):
                    margin = nonautonomous_hautus_margin(sys, lam, x, delta, M)
                    assert margin >= -1e-9

    def test_witness_is_minimum(self, rng):
        sys = random_dissipative_system(rng, n=2)
        grid = default_hautus_grid(2, seed=2, n_vectors=10)
        report = hautus_sweep(sys, grid)
        assert report.min_margin == report.margins.min()

    @pytest.mark.parametrize("quadrature", ["trapezoid", "simpson"])
    def test_sweep_matches_pointwise_margin(self, rng, quadrature):
        sys = random_dissipative_system(rng, n=3, steps=60, quadrature=quadrature)
        p = Propagator(sys)
        grid = default_hautus_grid(3, seed=4, n_vectors=8)
        report = hautus_sweep(sys, grid, propagator=p)
        for a, lam in enumerate(grid.lambdas):
            for ix, x in enumerate(grid.test_vectors):
                expect = nonautonomous_hautus_margin(sys, lam, x, report.delta,
                                                     report.admissibility_M)
                assert report.margins[a, ix] == pytest.approx(expect, rel=1e-12, abs=1e-12)


class TestFrozenConstants:
    def test_integrator_constant(self):
        sys = scalar_system(a=0.0, quadrature="simpson")
        for s0 in (0.0, 0.5, 1.0):
            assert frozen_observability_constant(sys, s0) == pytest.approx(1.0, abs=1e-8)

    def test_autonomous_independence_of_s0(self, rng):
        A = rng.normal(size=(3, 3)) * 0.5
        sys = make_system(A, np.eye(3)[:, :1], rng.normal(size=(2, 3)))
        values = [frozen_observability_constant(sys, s0) for s0 in (0.0, 0.5, 1.0)]
        assert max(values) - min(values) <= 1e-10

    def test_ramp_generator_endpoints(self):
        sys = make_system(CoeffMatrixFn.poly([[[0.0]], [[1.0]]]), [[1.0]], [[1.0]],
                          steps=200, quadrature="simpson")
        assert frozen_observability_constant(sys, 0.0) == pytest.approx(1.0, abs=1e-5)
        assert frozen_observability_constant(sys, 1.0) == pytest.approx(
            np.sqrt((1 - np.exp(-2)) / 2), abs=1e-5)

    def test_out_of_range_s0(self):
        with pytest.raises(ValueError):
            frozen_observability_constant(scalar_system(), 2.0)

    @pytest.mark.parametrize("nodes", [None, np.linspace(0.0, 1.0, 51) ** 2])
    def test_overflow_is_refused(self, nodes):
        sys = make_system(np.diag([-900.0, 1.0]), [[1.0], [1.0]], [[1.0, 1.0]], steps=50,
                          nodes=nodes)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalRangeError, match="frozen"):
                frozen_observability_constant(sys, 0.0)

    def test_autonomous_frozen_equals_ltv(self, rng):
        A = rng.normal(size=(2, 2)) * 0.5
        sys = make_system(A, np.eye(2)[:, :1], np.eye(2), quadrature="simpson")
        report = frozen_vs_ltv_report(sys, stride=50)
        assert report.inf_frozen == pytest.approx(report.delta_ltv, abs=1e-8)

    def test_ramp_reports_both_positive(self):
        sys = make_system(CoeffMatrixFn.poly([[[0.0]], [[1.0]]]), [[1.0]], [[1.0]],
                          steps=200, quadrature="simpson")
        report = frozen_vs_ltv_report(sys, stride=20)
        assert report.inf_frozen > 0
        assert report.delta_ltv > 0

    def test_zero_output_both_zero(self):
        sys = make_system([[1.0]], [[1.0]], [[0.0]])
        report = frozen_vs_ltv_report(sys, stride=50)
        assert report.inf_frozen == 0.0
        assert report.delta_ltv == 0.0


class TestWitnessTime:
    def test_constant_function(self):
        samples = [(s, 2.0) for s in np.linspace(0, 1, 11)]
        s_star = find_witness_time(samples, 0.0, 1.0, 1.0, 1.0)
        assert 0.0 <= s_star <= 1.0

    def test_ramp(self):
        samples = [(s, s) for s in np.linspace(0, 1, 101)]
        s_star = find_witness_time(samples, 0.0, 1.0, 0.5, 1.0)
        assert s_star == pytest.approx(1.0)

    def test_spike(self):
        s = np.linspace(0, 1, 201)
        values = np.exp(-((s - 0.3) ** 2) / 1e-3)
        mass = np.trapezoid(values, s)
        s_star = find_witness_time(list(zip(s, values)), 0.0, 1.0, mass * 0.9, 1.0)
        assert s_star == pytest.approx(0.3, abs=0.01)

    def test_insufficient_mass_rejected(self):
        samples = [(s, 0.1) for s in np.linspace(0, 1, 11)]
        with pytest.raises(ValueError):
            find_witness_time(samples, 0.0, 1.0, 1.0, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=3, max_size=40),
           st.floats(min_value=0.01, max_value=1.0))
    def test_argmax_clears_average_bound(self, values, frac):
        s = np.linspace(0.0, 1.0, len(values))
        mass = float(np.trapezoid(values, s))
        delta = frac * mass
        if mass <= 0:
            return
        s_star = find_witness_time(list(zip(s, values)), 0.0, 1.0, delta, 1.0)
        v_star = values[int(np.argmin(np.abs(s - s_star)))]
        assert v_star >= delta - 1e-9


class TestAveragingIdentity:
    def test_constant_function(self):
        assert averaging_identity_residual(np.ones(101), 1.0) <= 1e-14

    def test_linear_function(self):
        t = np.linspace(0, 1, 1001)
        assert averaging_identity_residual(t, 1.0) <= 1e-10

    def test_cosine(self):
        t = np.linspace(0, 1, 1001)
        assert averaging_identity_residual(np.cos(t), 1.0) <= 1e-5

    def test_random_smooth_polynomials(self, rng):
        for _ in range(20):
            for sigma in (0.5, 1.0, 2.0):
                coeffs = rng.uniform(-1, 1, size=6)
                t = np.linspace(0, sigma, 1001)
                f = sum(c * (t / sigma) ** k for k, c in enumerate(coeffs))
                assert averaging_identity_residual(f, sigma) <= 1e-5

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            averaging_identity_residual(np.ones(10), 0.0)


class TestHautusGridValidation:
    def test_rejects_wrong_half_plane(self):
        with pytest.raises(ValueError):
            HautusGrid(np.array([-1.0 + 0j]), np.array([[1.0]]))

    def test_rejects_non_unit_vectors(self):
        with pytest.raises(ValueError):
            HautusGrid(np.array([1.0 + 0j]), np.array([[2.0]]))
