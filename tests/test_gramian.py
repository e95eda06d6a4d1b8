import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltvcontrol import (
    CoeffMatrixFn,
    GramianResult,
    LtvSystem,
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
from ltvcontrol import gramian, sysmodel
from ltvcontrol.gramian import COERCIVITY_TOL, SEGMENT_GROWTH, SEGMENTED_MAX_N, lyapunov_segments
from ltvcontrol.propagate import STACK_ELEMENTS, rk4_substeps
from oracles import lyapunov_oracle

# Frobenius distance of the Lyapunov W to the per-stage oracle, relative to the oracle's
# norm: the segmented sweep and the stage sums P + P* order the roundoff differently.
# Measured over test_matches_per_stage_oracle: at most 1.1e-15 where W stays below 1e10
# and 1.8e-13 below 1e100. Past that, on draws whose modes grow by e^340 or more, the
# combine of a segment's basis images spreads roundoff further: 1.0e-11 on the draw
# whose W reaches 7e148, and from 7e-14 to 1.2e-11 on it as the segment length runs
# over 1 .. 10 intervals, where the sweep with one segment (S = 1, no basis images) is
# 9.3e-14 from an RK4 in extended precision on the same stage times.
ORACLE_RTOL = 1e-12
GROWN_RTOL = 1e-10  # W beyond 1e100


def assert_close_to_oracle(W, expect):
    scale = np.max(np.abs(expect))  # the norms of W near 1e300 stay finite
    rtol = ORACLE_RTOL if scale < 1e100 else GROWN_RTOL
    assert np.linalg.norm((W - expect) / scale) <= rtol * np.linalg.norm(expect / scale)


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
    @pytest.mark.parametrize("need, substeps", [(None, 4), (6.5, 7), (39.5, 40)])
    def test_matches_per_stage_oracle(self, rng, n, steps, kind, nonuniform, need, substeps):
        sys = kind_system(rng, n, kind, steps, nonuniform)
        if need is not None:
            sys = stiffened(sys, need)
        assert rk4_substeps(sys) == substeps
        with np.errstate(over="ignore", invalid="ignore"):
            expect = lyapunov_oracle(sys, substeps)
            if not np.all(np.isfinite(expect)):  # a growing mode overflows both
                with pytest.raises(NumericalRangeError, match="Gramian"):
                    ctrl_gramian_lyapunov(sys)
                return
        assert_close_to_oracle(ctrl_gramian_lyapunov(sys).W, expect)

    @pytest.mark.parametrize("n, steps, need, segments, length", [
        (1, 37, None, 10, 4),   # n = 1: one basis member; 10 segments of 4 pad 3 intervals
        (2, 50, None, 13, 4),   # 13 segments of 4 pad 2
        (6, 200, None, 25, 8),  # the largest n that is segmented
        # sqrt(N K) > N: S capped at N, one interval each (K = 4, 4 and 9)
        (2, 2, None, 2, 1), (2, 3, None, 3, 1), (3, 7, 8.5, 7, 1),
        # K = 41: the span cap asks for more segments than one stack of 43 holds, so the
        # 60 segments are swept in two stacks
        (3, 238, 40.5, 60, 4)])
    def test_segments_match_per_stage_oracle(self, rng, n, steps, need, segments, length):
        sys = kind_system(rng, n, "poly", steps, nonuniform=True)
        if need is not None:
            sys = stiffened(sys, need)
        substeps = rk4_substeps(sys)
        assert lyapunov_segments(sys, substeps) == segments
        assert -(-steps // segments) == length
        assert_close_to_oracle(ctrl_gramian_lyapunov(sys).W, lyapunov_oracle(sys, substeps))

    def test_constant_B_is_sampled_once(self, rng, monkeypatch):
        # B B* of a constant B is formed once and broadcast; the same B as a degree-0
        # poly takes the per-time products, one sample of B per chunk of positions
        sys = kind_system(rng, 4, "poly", 2000)
        grid, B0 = sys.grid, sys.B.data[0]
        constant = LtvSystem(sys.A, CoeffMatrixFn.constant(B0, grid), sys.C)
        degree0 = LtvSystem(sys.A, CoeffMatrixFn.poly(B0[None], grid), sys.C)
        sampled = []
        original = sysmodel.eval_coeff
        monkeypatch.setattr(sysmodel, "eval_coeff",
                            lambda f, t: sampled.append(f) or original(f, t))
        W = ctrl_gramian_lyapunov(constant).W
        assert sum(f is constant.B for f in sampled) == 1
        assert np.array_equal(ctrl_gramian_lyapunov(degree0).W, W)
        assert sum(f is degree0.B for f in sampled) == 12  # lyap_chunks of the count test

    @pytest.mark.parametrize("n, segments", [(2, 25), (6, 25), (7, 1), (20, 1)])
    def test_swept_W_is_exactly_symmetric(self, rng, monkeypatch, n, segments):
        # every stage is P + P* + B B*, and a segmented W is rebuilt from its upper
        # triangle, so _finalize receives a W equal to its transpose
        swept = []
        finalize = gramian._finalize
        monkeypatch.setattr(gramian, "_finalize", lambda W: swept.append(W) or finalize(W))
        sys = kind_system(rng, n, "samples", 200)
        assert lyapunov_segments(sys, rk4_substeps(sys)) == segments
        ctrl_gramian_lyapunov(sys)
        assert np.array_equal(swept[0], swept[0].T)

    def test_growing_basis_image_with_zero_coefficient_stays_finite(self):
        # -A = diag(2e5, -1) with no input to x_1: W_11 = 0 exactly, while the image of
        # E_11 grows as e^(4e5 t) and would overflow within 0.002 of one long segment
        sys = make_system(np.diag([-2e5, 1.0]), [[0.0], [1.0]], [[1.0, 1.0]], steps=4000)
        assert rk4_substeps(sys) == 51
        assert lyapunov_segments(sys, 51) == 1334  # the span cap: 17 stacks of at most 79
        W = ctrl_gramian_lyapunov(sys).W
        assert W[0, 0] == W[0, 1] == W[1, 0] == 0.0
        assert W[1, 1] == pytest.approx(0.4323323583816923, rel=1e-12)  # the unsegmented sweep's W
        assert W[1, 1] == pytest.approx((1 - np.exp(-2.0)) / 2, rel=1e-9)

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
        assert_close_to_oracle(lyap.W, lyapunov_oracle(sys, substeps))
        assert residual == np.linalg.norm(quad.W - lyap.W)


class TestSegmentRule:
    """S ~ sqrt(N K), at most N, within STACK_ELEMENTS, spans within e^SEGMENT_GROWTH."""

    @pytest.mark.parametrize("n, steps, segments", [
        (1, 2000, 87), (2, 2000, 87), (4, 2000, 87), (5, 2000, 80), (6, 2000, 41),
        (2, 200, 25), (SEGMENTED_MAX_N + 1, 2000, 1), (64, 200, 1)])
    def test_count(self, rng, n, steps, segments):
        sys = kind_system(rng, n, "constant", steps)
        substeps = rk4_substeps(sys)
        assert substeps == 4
        S = lyapunov_segments(sys, substeps)
        assert S == segments
        if S > 1:  # sqrt(8000) = 89.4 asks for L = 23, so 87 segments
            assert S <= steps
            assert S * (1 + n * (n + 1) // 2) * n * n <= STACK_ELEMENTS
            assert S * (2 * substeps + 1) * n * n <= STACK_ELEMENTS

    def test_span_cap_shortens_segments(self):
        # ||A|| = 3.99e4 on h = 5e-4: K = 20, and sqrt(N K) = 200 segments of 10 would
        # each span a bound of e^399; segments of 8 intervals keep it to e^319
        sys = scalar_system(a=3.99e4, steps=2000)
        assert rk4_substeps(sys) == 20
        S = lyapunov_segments(sys, 20)
        assert S == 250
        assert 2 * 3.99e4 * np.max(np.diff(sys.grid.nodes)) * (2000 // S) <= SEGMENT_GROWTH
        W = ctrl_gramian_lyapunov(sys).W
        assert W[0, 0] == pytest.approx(scalar_gramian_closed_form(3.99e4), rel=1e-9)


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
                for stream_nodes, stack in p.transitions_to_end()
                for i, U in zip(range(61)[stream_nodes], stack, strict=True)
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
