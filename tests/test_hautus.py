import dataclasses
import tracemalloc

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
from conftest import kind_system, make_grid, make_system, scalar_system
from ltvcontrol.hautus import _hautus_integral
from ltvcontrol.propagate import STACK_ELEMENTS, batches
from oracles import (
    frozen_constant_oracle,
    frozen_constant_per_node_oracle,
    frozen_gramian_oracle,
    hautus_integral_oracle,
)


def random_dissipative_system(rng, n=3, steps=100, quadrature="trapezoid"):
    """Exactly observable system whose A(t) stays symmetric PSD on [0, tau]."""
    R0 = rng.normal(size=(n, n)) * 0.4
    R1 = rng.normal(size=(n, n)) * 0.3
    grid = make_grid(steps=steps, quadrature=quadrature)
    A = CoeffMatrixFn.poly(np.stack([R0.T @ R0, R1.T @ R1]), grid)
    C = rng.uniform(-1, 1, size=(n, n)) + 0.5 * np.eye(n)
    B = np.eye(n)[:, :1]
    return make_system(A, B, C, grid=grid)


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

    @pytest.mark.parametrize("c", [1e200, 2.0**-600])
    def test_margin_is_homogeneous_in_x_across_the_float_range(self, c):
        # ||x||^2 and ||(lambda + A) x||^2 leave the float range at these sizes;
        # the margin itself does not
        sys = make_system([[0.3, -0.1], [0.2, 0.4]], [[1.0], [0.0]], [[1.0, 0.0]], steps=20)
        for lam in (1.0, 2.0 + 10.0j):
            for x in ([1.0, 0.0], [0.6, -0.8], [3.0, 4.0]):
                base = nonautonomous_hautus_margin(sys, lam, x, 0.5, 1.0)
                scaled = nonautonomous_hautus_margin(sys, lam, c * np.array(x), 0.5, 1.0)
                assert scaled == pytest.approx(c * base, rel=1e-12)

    def test_left_half_plane_rejected(self):
        sys = scalar_system(a=0.0)
        with pytest.raises(ValueError):
            nonautonomous_hautus_margin(sys, -1.0, [1.0], 1.0, 1.0)

    def test_autonomous_collapse_of_integral(self, rng):
        # for constant A the integral term has the closed form
        # ||(lambda + A) x|| (1 - e^{-Re(lambda) tau}) / Re(lambda)
        A = rng.normal(size=(3, 3)) * 0.5
        sys = make_system(A, np.eye(3)[:, :1], np.eye(3), steps=1000,
                          quadrature="simpson")
        for lam in (0.5, 2.0, 2.0 + 1.0j, 10.0):
            lam = complex(lam)
            x = rng.normal(size=3)
            got = _hautus_integral(sys, lam, x[:, None])[0]
            expect = np.linalg.norm(lam * x + A @ x) * (1 - np.exp(-lam.real)) / lam.real
            assert got == pytest.approx(expect, abs=1e-8)


# frequency sets whose real parts all differ, all coincide, or mix both
DISTINCT_RE = np.array([0.3 + 1j, 1.1 - 2j, 2.5 + 0j, 7.0 + 10j])
COINCIDENT_RE = np.array([1.5 + 0j, 1.5 + 1j, 1.5 - 1j, 1.5 + 10j, 1.5 - 10j])
MIXED_RE = default_hautus_grid(1).lambdas


def random_columns(rng, n, cols, complex_x):
    X = rng.normal(size=(n, cols))
    return X + 1j * rng.normal(size=(n, cols)) if complex_x else X


class TestHautusIntegral:
    # (n, steps, columns): every case spans more than one chunk of nodes
    SIZES = [(1, 600, 64), (3, 700, 16), (20, 300, 8), (64, 100, 8)]

    @pytest.mark.parametrize("n, steps, cols", SIZES)
    @pytest.mark.parametrize("grid", ["trapezoid", "simpson", "nodes"])
    @pytest.mark.parametrize("kind", ["constant", "poly", "samples"])
    def test_matches_per_frequency_oracle(self, rng, n, steps, cols, grid, kind):
        sys = kind_system(rng, n, kind, steps, nonuniform=grid == "nodes",
                          quadrature="simpson" if grid == "simpson" else "trapezoid")
        assert len(batches(sys.grid.nodes.size, n * cols)) > 1
        for complex_x in (False, True):
            X = random_columns(rng, n, cols, complex_x)
            for lams in (DISTINCT_RE, COINCIDENT_RE, MIXED_RE):
                got = _hautus_integral(sys, lams, X)
                expect = hautus_integral_oracle(sys, lams, X)
                assert got.shape == expect.shape == (lams.size, cols)
                assert np.max(np.abs(got - expect) / np.abs(expect)) <= 1e-13

    def test_duplicate_frequencies_give_identical_rows(self, rng):
        sys = random_dissipative_system(rng, n=3, steps=60)
        grid = default_hautus_grid(3, seed=4, n_vectors=8, im_values=(0.0, 0.0, 1.0))
        report = hautus_sweep(Propagator(sys), grid)
        rows = report.margins.reshape(-1, 3, 8)
        assert np.array_equal(rows[:, 0], rows[:, 1])
        assert not np.array_equal(rows[:, 0], rows[:, 2])

    @pytest.mark.parametrize("complex_x", [False, True])
    def test_permuting_frequencies_permutes_rows(self, rng, complex_x):
        sys = kind_system(rng, 4, "poly", 80)
        X = random_columns(rng, 4, 6, complex_x)
        perm = rng.permutation(MIXED_RE.size)
        base = _hautus_integral(sys, MIXED_RE, X)
        assert np.array_equal(_hautus_integral(sys, MIXED_RE[perm], X), base[perm])

    def test_scalar_frequency_returns_one_row(self, rng):
        sys = kind_system(rng, 4, "poly", 80)
        X = random_columns(rng, 4, 6, True)
        rows = _hautus_integral(sys, MIXED_RE, X)
        for k, lam in enumerate(MIXED_RE):
            got = _hautus_integral(sys, lam, X)
            assert got.shape == (6,)
            assert np.array_equal(got, rows[k])

    def test_complex_eigenvector_is_finite_at_the_cancellation(self, rng):
        # (lambda + A) x = 0 for lambda = -mu, A x = mu x: the integral is 0 exactly,
        # and roundoff can leave the grouped sum of squares slightly below 0
        spirals = [10 * np.array([[-1.0, 2.0], [-2.0, -1.0]])]
        spirals += [10 * rng.normal(size=(3, 3)) for _ in range(30)]
        for A in spirals:
            n = A.shape[0]
            sys = make_system(A, np.eye(n)[:, :1], np.eye(n)[:1], steps=20)
            mus, vecs = np.linalg.eig(A)
            for mu, x in zip(mus, vecs.T):
                if mu.imag == 0 or mu.real >= 0:
                    continue
                got = _hautus_integral(sys, -mu, x[:, None])[0]
                bound = 1e-6 * (abs(mu) + np.linalg.norm(A, 2)) * np.linalg.norm(x)
                assert np.isfinite(got) and 0.0 <= got <= bound
                assert np.isfinite(nonautonomous_hautus_margin(sys, -mu, x, 1.0, 1.0))


class TestHautusSweep:
    def test_scalar_integrator_certificate(self):
        sys = scalar_system(a=0.0, quadrature="simpson")
        grid = default_hautus_grid(1, seed=3, n_vectors=50)
        report = hautus_sweep(Propagator(sys), grid)
        assert report.delta == pytest.approx(1.0, abs=1e-8)
        assert report.min_margin >= -1e-9

    def test_zero_output_is_informational(self):
        sys = make_system([[0.0]], [[1.0]], [[0.0]])
        report = hautus_sweep(Propagator(sys), default_hautus_grid(1, seed=3, n_vectors=10))
        assert report.delta == 0.0
        assert report.min_margin >= 0.0

    def test_diagonal_autonomous(self):
        sys = make_system(np.diag([1.0, 2.0]), np.eye(2)[:, :1], np.eye(2),
                          quadrature="simpson")
        report = hautus_sweep(Propagator(sys), default_hautus_grid(2, seed=5, n_vectors=50))
        assert report.min_margin >= -1e-9

    def test_necessary_condition_on_observable_family(self, rng):
        for _ in range(20):
            sys = random_dissipative_system(rng, n=3, steps=100)
            p = Propagator(sys)
            grid = default_hautus_grid(3, seed=11, n_vectors=20)
            report = hautus_sweep(p, grid)
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
        report = hautus_sweep(Propagator(sys), grid)
        assert report.min_margin == report.margins.min()

    @pytest.mark.parametrize("quadrature", ["trapezoid", "simpson"])
    def test_sweep_matches_pointwise_margin(self, rng, quadrature):
        sys = random_dissipative_system(rng, n=3, steps=60, quadrature=quadrature)
        p = Propagator(sys)
        grid = default_hautus_grid(3, seed=4, n_vectors=8)
        report = hautus_sweep(p, grid)
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
        values = frozen_observability_constant(sys, [0.0, 0.5, 1.0])
        assert max(values) - min(values) <= 1e-10

    def test_ramp_generator_endpoints(self):
        ramp = CoeffMatrixFn.poly([[[0.0]], [[1.0]]], make_grid(steps=200, quadrature="simpson"))
        sys = make_system(ramp, [[1.0]], [[1.0]], grid=ramp.grid)
        assert frozen_observability_constant(sys, 0.0) == pytest.approx(1.0, abs=1e-5)
        assert frozen_observability_constant(sys, 1.0) == pytest.approx(
            np.sqrt((1 - np.exp(-2)) / 2), abs=1e-5)

    def test_out_of_range_s0(self):
        with pytest.raises(ValueError):
            frozen_observability_constant(scalar_system(), 2.0)

    def test_grid_too_coarse_for_rk4_is_refused(self):
        # h * ||A|| = 100 needs more than MAX_SUBSTEPS: refused as the Propagator refuses it
        sys = make_system([[1000.0]], [[1.0]], [[1.0]], steps=10)
        for compute in (Propagator, lambda sys: frozen_observability_constant(sys, 0.5)):
            with pytest.raises(NumericalRangeError, match="RK4 substeps"):
                compute(sys)

    @pytest.mark.parametrize("nodes", [None, np.linspace(0.0, 1.0, 51) ** 2])
    def test_overflow_is_refused(self, nodes):
        sys = make_system(np.diag([-900.0, 1.0]), [[1.0], [1.0]], [[1.0, 1.0]], steps=50,
                          nodes=nodes)
        with pytest.raises(NumericalRangeError, match="frozen"):
            frozen_observability_constant(sys, 0.0)

    def test_autonomous_frozen_equals_ltv(self, rng):
        A = rng.normal(size=(2, 2)) * 0.5
        sys = make_system(A, np.eye(2)[:, :1], np.eye(2), quadrature="simpson")
        report = frozen_vs_ltv_report(Propagator(sys), stride=50)
        assert report.inf_frozen == pytest.approx(report.delta_ltv, abs=1e-8)

    def test_ramp_reports_both_positive(self):
        ramp = CoeffMatrixFn.poly([[[0.0]], [[1.0]]], make_grid(steps=200, quadrature="simpson"))
        sys = make_system(ramp, [[1.0]], [[1.0]], grid=ramp.grid)
        report = frozen_vs_ltv_report(Propagator(sys), stride=20)
        assert report.inf_frozen > 0
        assert report.delta_ltv > 0

    def test_zero_output_both_zero(self):
        sys = make_system([[1.0]], [[1.0]], [[0.0]])
        report = frozen_vs_ltv_report(Propagator(sys), stride=50)
        assert report.inf_frozen == 0.0
        assert report.delta_ltv == 0.0


def frozen_kind_system(rng, n, kind, steps, grid):
    """kind_system with C(t) of the same kind as A (p = 2) on a uniform trapezoid,
    uniform Simpson or non-uniform grid."""
    quadrature = "simpson" if grid == "simpson" else "trapezoid"
    sys = kind_system(rng, n, kind, steps, nonuniform=grid == "nonuniform",
                      quadrature=quadrature)
    if kind == "constant":
        C = CoeffMatrixFn.constant(rng.normal(size=(2, n)), sys.grid)
    elif kind == "poly":
        C = CoeffMatrixFn.poly(rng.normal(size=(2, 2, n)), sys.grid)
    else:
        C = CoeffMatrixFn("samples", rng.normal(size=(steps + 1, 2, n)), sys.grid)
    return dataclasses.replace(sys, C=C)


def assert_matches_per_node_expm(rng, sys):
    """frozen_observability_constant at nine times, nodes and off-node, within 1e-9
    relative (1e-12 absolute) of one scipy expm per node."""
    s0 = np.concatenate([[0.0, 1.0], sys.grid.nodes[[1, sys.grid.steps // 2]],
                         rng.uniform(0.0, 1.0, size=5)])
    expect = [frozen_constant_per_node_oracle(sys, s) for s in s0]
    assert frozen_observability_constant(sys, s0) == pytest.approx(expect, rel=1e-9, abs=1e-12)


class TestFrozenBatch:
    """All m(s0) come from one stacked pass per stack of s0, each bit-identical to its own
    call. Non-uniform grids sweep node by node, bit-identical to one loop per s0; uniform
    grids sum the powers of one step by segments, within roundoff of that loop."""

    @pytest.mark.parametrize("n, steps", [(1, 37), (3, 50), (20, 40), (64, 21)])
    @pytest.mark.parametrize("grid", ["trapezoid", "simpson", "nonuniform"])
    @pytest.mark.parametrize("kind", ["constant", "poly", "samples"])
    def test_matches_per_s0_oracle(self, rng, n, steps, grid, kind):
        sys = frozen_kind_system(rng, n, kind, steps, grid)
        # nine distinct times, nodes and off-node, repeated over several chunks of
        # batches(S, n * n) at n = 64 and over a partial last chunk at n = 20
        distinct = np.concatenate([[0.0, 1.0], sys.grid.nodes[[1, steps // 2]],
                                   rng.uniform(0.0, 1.0, size=5)])
        s0 = np.resize(distinct, 90)
        expect = np.resize([frozen_constant_oracle(sys, s) for s in distinct], 90)
        got = frozen_observability_constant(sys, s0)
        if grid == "nonuniform":
            assert np.array_equal(got, expect)
        else:
            # against the Gramian's scale: lambda_min itself can sit at the roundoff floor
            scale = np.resize([np.linalg.eigvalsh(frozen_gramian_oracle(sys, s))[-1]
                               for s in distinct], 90)
            assert np.all(np.abs(got**2 - expect**2) <= 1e-13 * scale)

    @pytest.mark.parametrize("n, steps", [(1, 37), (3, 50), (20, 40), (64, 21)])
    @pytest.mark.parametrize("kind", ["constant", "poly", "samples"])
    def test_nonuniform_gap_product_matches_per_node_expm(self, rng, n, steps, kind):
        # e^{-A0 t_i} as a product of per-gap RK4 steps against scipy's expm per node
        # (at most 6.4e-10 relative in these cases); at n = 20 and 64 (p = 2) both
        # give m = 0 exactly, hence the absolute floor
        assert_matches_per_node_expm(rng, frozen_kind_system(rng, n, kind, steps, "nonuniform"))

    @pytest.mark.parametrize("n, steps", [(1, 37), (3, 50), (20, 40), (64, 21)])
    @pytest.mark.parametrize("grid", ["trapezoid", "simpson"])
    @pytest.mark.parametrize("kind", ["constant", "poly", "samples"])
    def test_uniform_step_power_matches_per_node_expm(self, rng, n, steps, grid, kind):
        # e^{-A0 t_i} as the i-th power of one RK4 step: at most 1.1e-10 relative
        # to scipy's expm per node in these cases
        assert_matches_per_node_expm(rng, frozen_kind_system(rng, n, kind, steps, grid))

    def test_nonuniform_pass_memory_is_bounded(self, rng):
        # 81 values of s0 fill one (S, n, n) stack of about STACK_ELEMENTS floats; the
        # per-gap steps are built in batches of gaps, so the pass holds a few such
        # stacks (measured: 13) where one (gaps, S, n, n) stack would hold 200
        sys = kind_system(rng, 20, "poly", 200, nonuniform=True)
        tracemalloc.start()
        try:
            frozen_observability_constant(sys, np.linspace(0.0, 1.0, 81))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * STACK_ELEMENTS * 8

    def test_uniform_pass_memory_is_bounded(self, rng):
        # the verdict shape: 51 values of s0 at n = 20, N = 500. The segmented pass holds
        # L + segments = 45 matrices per s0, so it takes the s0 in stacks of 7
        # (measured peak 1.2 MB; the per-node sweep held 1.7 MB); holding them for all
        # 51 values at once would peak near 8.6 MB
        sys = frozen_kind_system(rng, 20, "poly", 500, "trapezoid")
        s0 = sys.grid.nodes[::10]
        tracemalloc.start()
        try:
            frozen_observability_constant(sys, s0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * STACK_ELEMENTS * 8

    @pytest.mark.parametrize("n, steps, kind", [(3, 40, "poly"), (20, 500, "constant")])
    def test_scalar_and_array_contract(self, rng, n, steps, kind):
        # at n = 20, N = 500 a uniform stack holds 7 values of s0, so the 16 values span
        # three chunks; C has full rank, so m > 0 and == is a real check
        sys = frozen_kind_system(rng, n, kind, steps, "trapezoid")
        sys = dataclasses.replace(sys, C=CoeffMatrixFn.poly(rng.normal(size=(2, n, n)), sys.grid))
        s0 = np.concatenate([[0.0, 0.3, 0.75, 1.0], rng.uniform(0.0, 1.0, size=12)])
        values = frozen_observability_constant(sys, s0)
        assert isinstance(values, np.ndarray) and values.shape == (16,)
        assert np.all(values > 0)
        for s, m in zip(s0, values):
            scalar = frozen_observability_constant(sys, s)
            assert type(scalar) is float
            assert scalar == m
        assert type(frozen_observability_constant(sys, 1)) is float

    @pytest.mark.parametrize("s0", [[0.0, 1.5], [-1e-3, 0.5], [0.5, np.nan]])
    def test_any_time_outside_horizon_raises(self, s0):
        with pytest.raises(ValueError, match="outside"):
            frozen_observability_constant(scalar_system(), s0)

    @pytest.mark.parametrize("stride", [0, -3])
    def test_bad_stride_raises(self, stride):
        with pytest.raises(ValueError, match="stride"):
            frozen_vs_ltv_report(Propagator(scalar_system(steps=20)), stride=stride)


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
        with pytest.raises(ValueError, match="at least two points"):
            find_witness_time([(0.5, 2.0)], 0.0, 1.0, 1.0, 1.0)

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
        with pytest.raises(ValueError, match="at least 3"):
            averaging_identity_residual(np.ones(2), 1.0)


class TestHautusGridValidation:
    def test_rejects_wrong_half_plane(self):
        with pytest.raises(ValueError):
            HautusGrid(np.array([-1.0 + 0j]), np.array([[1.0]]))

    def test_rejects_non_unit_vectors(self):
        with pytest.raises(ValueError):
            HautusGrid(np.array([1.0 + 0j]), np.array([[2.0]]))


class TestTestVectors:
    def test_vectors_follow_the_documented_stream(self):
        # n = 3 is odd, so the second vector starts with the sin normal of a pair
        vectors = default_hautus_grid(3, seed=1, n_vectors=2).test_vectors
        assert np.array_equal(vectors, [
            [-0.8834401631709827, -0.05227990572138873, -0.46561818000824473],
            [0.6785472393163735, -0.7345529767175043, -0.0023597482030560733],
        ])

    def test_seed_is_taken_mod_2_64(self):
        for seed in (-1, 2**70 + 3):
            assert np.array_equal(default_hautus_grid(3, seed=seed).test_vectors,
                                  default_hautus_grid(3, seed=seed % 2**64).test_vectors)

    def test_vanishing_draw_is_drawn_again(self, monkeypatch):
        normals = iter([0.0, 1e-13, 3.0, 4.0])
        monkeypatch.setattr("ltvcontrol.hautus._lcg_normals", lambda seed: normals)
        assert np.array_equal(default_hautus_grid(2, n_vectors=1).test_vectors, [[0.6, 0.8]])
