import math
import types

import numpy as np
import pytest

from ltvcontrol import (
    CoeffMatrixFn,
    ControlSignal,
    NumericalRangeError,
    Propagator,
    cocycle_defect,
    ctrl_gramian_lyapunov,
    ctrl_gramian_quadrature,
    frozen_observability_constant,
    gramian,
    hautus,
    input_map_adjoint,
    obs_gramian,
    sysmodel,
)
from ltvcontrol.gramian import lyapunov_segments
from ltvcontrol.propagate import (STACK_ELEMENTS, STEP_RESOLUTION, rk4_steps, rk4_substeps,
                                  stage_times, substep_need)
from conftest import (BATCH_SIZES, kind_system, make_grid, make_system, random_poly_system,
                      scalar_system, segment_overflow_samples, stiffened)
from oracles import (adjoint_sweep_oracle, ctrl_gramian_oracle, expm_oracle, obs_gramian_oracle,
                     propagate_state_oracle, step_transitions_oracle, transitions_to_end_oracle)


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
        sys = make_system(CoeffMatrixFn.poly([[[0.0]], [[1.0]]], make_grid()), [[1.0]], [[1.0]])
        p = Propagator(sys)
        # x' = -t x  =>  U(1, 0) = exp(-1/2)
        assert p.transition(0, 200)[0, 0] == pytest.approx(np.exp(-0.5), abs=1e-8)

    def test_backward_transition_rejected(self):
        p = Propagator(scalar_system())
        with pytest.raises(ValueError):
            p.transition(5, 2)
        with pytest.raises(IndexError, match="out of range"):
            p.transition(0, p.steps + 1)


class TestBatchedStepBuild:
    @pytest.mark.parametrize("n, steps", BATCH_SIZES)
    @pytest.mark.parametrize("kind", ["constant", "poly", "samples"])
    @pytest.mark.parametrize("nonuniform", [False, True])
    # no stiffening takes the rule's K, 1 to 4 on these grids; the others reach one and
    # three substeps of h ||A||_inf <= 1/128, just past 4, well past it and the cap of 64
    @pytest.mark.parametrize("need, substeps", [
        (None, None), (0.5 / STEP_RESOLUTION, 1), (2.5 / STEP_RESOLUTION, 3), (4.5, 5), (8.5, 9),
        (63.5, 64)])
    def test_matches_per_interval_oracle_bitwise(self, rng, n, steps, kind, nonuniform,
                                                 need, substeps):
        sys = kind_system(rng, n, kind, steps, nonuniform)
        if need is not None:
            sys = stiffened(sys, need)
        p = Propagator(sys)
        assert p.substeps == (substeps or min(4, math.ceil(STEP_RESOLUTION * substep_need(sys))))
        expect = step_transitions_oracle(sys, p.substeps)
        assert len(p.step_transitions) == steps
        assert all(np.array_equal(p.step_transitions[i], expect[i]) for i in range(steps))

    def test_coefficients_sampled_per_chunk_not_per_stage(self, rng, monkeypatch):
        calls = []
        original = sysmodel.eval_coeff

        def counting(f, t):
            calls.append(np.size(t))
            return original(f, t)

        monkeypatch.setattr(sysmodel, "eval_coeff", counting)
        n, steps = 4, 2000
        sys = kind_system(rng, n, "poly", steps)
        step_substeps = Propagator(sys).substeps
        ctrl_gramian_lyapunov(sys)
        # per stack: one call per distinct RK4 stage time (2K+1 per interval) in the
        # step build, at the Propagator's K, one for A and one for B in the Lyapunov
        # sweep, at rk4_substeps(sys), whose stacks hold chunks of its L positions in
        # every one of its S segments
        step_chunks = -(-steps // (STACK_ELEMENTS // n**2))
        substeps = rk4_substeps(sys)
        segments = lyapunov_segments(sys, substeps)
        positions = -(-steps // segments)
        lyap_chunks = -(-positions // (STACK_ELEMENTS // ((2 * substeps + 1) * segments * n**2)))
        assert (step_substeps, segments, positions, lyap_chunks) == (1, 87, 23, 12)
        assert len(calls) == (2 * step_substeps + 1) * step_chunks + 2 * lyap_chunks
        assert len(calls) < steps  # the per-stage loops made 12 calls per substep of each interval


class TestNumericalRange:
    def test_overflowing_transitions_are_refused(self):
        p = Propagator(make_system(np.diag([-900.0, 1.0]), [[1.0], [1.0]], [[1.0, 1.0]],
                                   steps=50))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalRangeError):
                list(p.transitions_to_end())
            with pytest.raises(NumericalRangeError):
                list(p.transitions_from_start())

    def test_growth_inside_a_segment_is_carried(self):
        # U(0.45, 0.4) ~ e^1000 spans segments whose products stay within e^SEGMENT_GROWTH:
        # every U(tau, t_i) is at most about 1 and is streamed, U(t_i, 0) past 0.45 is not
        grid = make_grid(steps=400)
        A = CoeffMatrixFn("samples", segment_overflow_samples(), grid)
        p = Propagator(make_system(A, [[1.0], [1.0]], [[1.0, 1.0]], grid=grid))
        assert p.segments() == (58, 7)
        u = ControlSignal(p.grid, np.ones((401, 1)))
        z = np.array([1.0, 1.0])
        expect = transitions_to_end_oracle(p)
        for nodes, stack in p.transitions_to_end():
            for i, U in zip(range(401)[nodes], stack, strict=True):
                assert np.linalg.norm(U - expect[i]) <= 1e-12 * np.linalg.norm(expect[i])
        signal = adjoint_sweep_oracle(p, z)
        assert np.linalg.norm(input_map_adjoint(p, z).values - signal) \
            <= 1e-12 * np.linalg.norm(signal)
        assert np.all(np.isfinite(p.propagate_state([1.0, 1.0], u)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalRangeError):
                list(p.transitions_from_start())


class TestStepPolicy:
    """The Propagator's K = max(1, min(K0, ceil(128 need))) RK4 substeps, with
    need = h_max * ||A||_inf and K0 = rk4_substeps = max(4, ceil(need)), at most 64."""

    # linspace gaps exceed tau/N by ulps: 700 on 50 steps needs 14.000000000000012, so 15
    @pytest.mark.parametrize("a, steps, substeps", [
        (1.0, 200, 1), (-799.0, 200, 4), (801.0, 200, 5), (690.0, 50, 14), (700.0, 50, 15),
        (6399.0, 100, 64)])
    def test_substeps_from_the_bound(self, a, steps, substeps):
        assert Propagator(scalar_system(a=a, steps=steps)).substeps == substeps

    def test_largest_gap_sets_the_count(self):
        nodes = np.array([0.0, 0.1, 0.5, 1.0])
        A = CoeffMatrixFn.poly([[[0.0]], [[20.0]]], make_grid(nodes=nodes))
        sys = make_system(A, [[1.0]], [[1.0]], grid=A.grid)
        assert Propagator(sys).substeps == 10  # 0.5 * (0 + 20 * tau)

    def test_symmetric_psd_steps_are_contractions(self, rng):
        # every substep has h*lambda <= 1, where RK4 maps [-1, 0] into [0, 1]; a fixed
        # 4 substeps would give |R(-5)| = 13.7 at lambda = 1000 on 50 steps
        counts = set()
        for _ in range(30):
            n = int(rng.integers(1, 4))
            Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            A = (Q * rng.uniform(0.0, 1000.0, size=n)) @ Q.T
            A = (A + A.T) / 2
            p = Propagator(make_system(A, np.ones((n, 1)), np.ones((1, n)),
                                       steps=int(rng.integers(20, 60))))
            counts.add(p.substeps)
            assert np.linalg.norm(p.step_transitions, ord=2, axis=(1, 2)).max() <= 1 + 1e-12
        assert min(counts) == 4 and max(counts) > 4

    def test_too_coarse_a_grid_is_refused(self):
        with pytest.raises(NumericalRangeError,
                           match="more than 64 RK4 substeps.*157 uniform steps would pass"):
            Propagator(scalar_system(a=1e4, steps=100))
        assert Propagator(scalar_system(a=1e4, steps=157)).substeps == 64
        # a = -1e300 would overflow the step matrices; the cap refuses it before
        # the step build, and no grid of at most 100000 steps passes
        with np.errstate(all="raise"):  # nothing is integrated, so nothing warns
            with pytest.raises(NumericalRangeError, match="no grid of at most 100000 steps"):
                Propagator(scalar_system(a=-1e300))
        with pytest.raises(NumericalRangeError, match="more than 64 RK4 substeps"):
            ctrl_gramian_lyapunov(scalar_system(a=1e4, steps=100))

    def test_zero_padded_poly_on_a_long_horizon(self):
        # tau^8 overflows, but zero coefficients bound nothing: A = 0, K = 1
        A = CoeffMatrixFn.poly([[[0.0]]] * 9, make_grid(tau=1e40, steps=10))
        p = Propagator(make_system(A, [[1.0]], [[1.0]], grid=A.grid))
        assert p.substeps == 1
        assert np.array_equal(p.step_transitions, np.ones((10, 1, 1)))

    def test_non_finite_bound_is_refused(self):
        # tau^8 overflows the polynomial bound; the refusal names no step count
        A = CoeffMatrixFn.poly([[[0.0]]] * 8 + [[[1.0]]], make_grid(tau=1e40, steps=10))
        sys = make_system(A, [[1.0]], [[1.0]], grid=A.grid)
        with pytest.raises(NumericalRangeError, match="no grid of at most 100000 steps"):
            Propagator(sys)

    @staticmethod
    def one_gap_system(need):
        # gaps of exactly 1 on nodes 0, 1, 2: h_max ||A||_inf = |a| = need, and 128 need is exact
        sys = make_system([[-need]], [[1.0]], [[1.0]], nodes=[0.0, 1.0, 2.0])
        assert substep_need(sys) == need
        return sys

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("ulps", [-3, -1, 0, 1, 3])
    def test_substeps_at_a_multiple_of_the_resolution(self, k, ulps):
        need = k / STEP_RESOLUTION
        for _ in range(abs(ulps)):
            need = math.nextafter(need, math.copysign(math.inf, ulps))
        sys = self.one_gap_system(need)
        # k substeps of h ||A||_inf <= 1/128 up to need = k/128, one more just past it
        # (4 past 3/128, where K0 takes over)
        assert Propagator(sys).substeps == (k if ulps <= 0 else k + 1)
        assert rk4_substeps(sys) == 4

    # past need = 3/128 the Propagator takes K0 = rk4_substeps: its floor of 4, its
    # ceil(need) and its cap of 64
    @pytest.mark.parametrize("need, substeps", [
        (math.nextafter(3 / STEP_RESOLUTION, 1.0), 4), (0.5, 4), (1.0, 4), (4.0, 4),
        (math.nextafter(4.0, 5.0), 5), (63.5, 64), (64.0, 64)])
    def test_past_three_resolutions_the_rule_is_rk4_substeps(self, need, substeps):
        sys = self.one_gap_system(need)
        assert Propagator(sys).substeps == rk4_substeps(sys) == substeps

    def test_past_the_cap_both_refuse(self):
        sys = self.one_gap_system(math.nextafter(64.0, 65.0))
        with pytest.raises(NumericalRangeError, match="more than 64 RK4 substeps"):
            rk4_substeps(sys)
        with pytest.raises(NumericalRangeError, match="more than 64 RK4 substeps"):
            Propagator(sys)

    @pytest.mark.parametrize("nonuniform", [False, True])
    def test_lyapunov_sweep_and_frozen_pass_take_rk4_substeps(self, rng, monkeypatch,
                                                              nonuniform):
        # the step build takes one substep here; the Lyapunov sweep (stage_times) and the
        # frozen pass (rk4_steps) keep K0 = 4
        sys = stiffened(kind_system(rng, 3, "samples", 60, nonuniform), 0.5 / STEP_RESOLUTION)
        assert Propagator(sys).substeps == 1
        seen = []
        monkeypatch.setattr(gramian, "stage_times",
                            lambda nodes, K: seen.append(("lyapunov", K)) or stage_times(nodes, K))
        monkeypatch.setattr(hautus, "rk4_steps",
                            lambda a, h, K: seen.append(("frozen", K)) or rk4_steps(a, h, K))
        ctrl_gramian_lyapunov(sys)
        frozen_observability_constant(sys, np.array([0.0, 0.5]))
        assert {name for name, _ in seen} == {"lyapunov", "frozen"}
        assert {K for _, K in seen} == {4}


class TestStepAccuracy:
    """At need <= 1/128 the Propagator takes one substep. For a constant A its local error
    is need^5/120 (e^z - R(z) = z^5/120 + ...), so W and Q, quadratic in U, are within
    twice the sum of N of them of the W and Q of 32 substeps; a smooth A as well."""

    @pytest.mark.parametrize("kind", ["constant", "poly", "samples"])
    @pytest.mark.parametrize("nonuniform", [False, True])
    @pytest.mark.parametrize("steps", [50, 200])
    def test_one_substep_against_thirty_two(self, rng, kind, nonuniform, steps):
        need = 0.99 / STEP_RESOLUTION
        sys = stiffened(kind_system(rng, 3, kind, steps, nonuniform), need)
        p = Propagator(sys)
        assert p.substeps == 1
        fine = types.SimpleNamespace(sys=sys, grid=sys.grid, steps=steps,
                                     step_transitions=step_transitions_oracle(sys, 32))
        # N need^5/120 is 1.2e-11 at N = 50 and 4.6e-11 at N = 200; the error measured up
        # to 1.12 times it (n = 1, 40 seeds), within twice it. Samples jump by up to
        # 2 ||A|| from node to node, so RK4's error terms in A' are as large as those in A:
        # up to 3e-9 measured at one substep (1e-11 at four)
        rtol = 1e-8 if kind == "samples" else steps * need**5 / 60
        for got, expect in ((ctrl_gramian_quadrature(p).W, ctrl_gramian_oracle(fine)),
                            (obs_gramian(p).W, obs_gramian_oracle(fine))):
            assert np.linalg.norm(got - expect) <= rtol * np.linalg.norm(expect)


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
        expect = expm_oracle(-A)
        err = []
        for steps in (10, 20):
            p = Propagator(make_system(A, np.eye(4)[:, :1], np.eye(4)[:1, :], steps=steps))
            assert p.substeps == 4
            err.append(np.linalg.norm(p.transition(0, steps) - expect))
        ratio = err[0] / err[1]
        assert 10 <= ratio <= 24  # ~16x for a 4th-order method


class TestPropagateState:
    def test_zero_everything(self):
        p = Propagator(scalar_system(a=0.0))
        u = ControlSignal(p.grid, np.zeros((201, 1)))
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
            p.propagate_state([0.0], ControlSignal(other.grid, np.zeros((51, 1))))
        with pytest.raises(ValueError, match="control dimension 2 != m = 1"):
            p.propagate_state([0.0], ControlSignal(p.sys.grid, np.zeros((101, 2))))

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
            grid = make_grid(steps=steps, quadrature=quadrature, nodes=nodes)
            A = CoeffMatrixFn.poly(rng.uniform(-0.5, 0.5, size=(3, n, n)), grid)
            B = CoeffMatrixFn.poly(rng.uniform(-1, 1, size=(2, n, m)), grid)
            sys = make_system(A, B, np.eye(n)[:1], grid=grid)
            p = Propagator(sys)
            values = rng.normal(size=(steps + 1, m))
            if dtype is complex:
                values = values + 1j * rng.normal(size=(steps + 1, m))
            u = ControlSignal(p.grid, values)
            x0 = rng.normal(size=n)
            # the sweep runs forward and the oracle backward: equal up to summation order
            expect = propagate_state_oracle(p, x0, u)
            assert np.linalg.norm(p.propagate_state(x0, u) - expect) \
                <= 1e-12 * np.linalg.norm(expect)


class TestAdjointState:
    """z(t_i) = U(tau, t_i)* z_tau, the backward adjoint solution."""

    def test_final_condition(self, rng):
        p = Propagator(random_poly_system(rng, n=3, steps=40))
        z = rng.normal(size=3)
        nodes, U = next(p.transitions_to_end())
        assert range(41)[nodes] == range(40, 41)
        assert np.allclose(U[0].T @ z, z)

    def test_scalar_adjoint_equals_forward(self):
        p = Propagator(scalar_system(a=1.0))
        *_, (nodes, U) = p.transitions_to_end()
        assert range(201)[nodes][0] == 0
        assert U[0, 0, 0] == pytest.approx(np.exp(-1), abs=1e-9)

    def test_duality_pairing(self, rng):
        p = Propagator(random_poly_system(rng, n=4, steps=50))
        for nodes, stack in p.transitions_to_end():
            for i, U in zip(range(51)[nodes], stack, strict=True):
                if i % 10:
                    continue
                for _ in range(20):
                    x = rng.normal(size=4)
                    z = rng.normal(size=4)
                    lhs = (p.transition(i, 50) @ x) @ z
                    rhs = x @ (U.T @ z)
                    assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(z)
