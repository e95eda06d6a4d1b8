"""Streamed transitions and vector sweeps against stored-list oracles, and the
memory of one pass.

The Propagator holds only its step matrices. W_tau, Q_tau, x(tau) and
Psi_tau* z are single passes over them; the oracles store every U(tau, t_i)
or U(t_i, 0) and sum in node order.
"""

import tracemalloc

import numpy as np
import pytest

from ltvcontrol import (
    CoeffMatrixFn,
    ControlSignal,
    Propagator,
    admissibility_constant,
    ctrl_gramian_quadrature,
    exact_controllability_test,
    input_map_adjoint,
    null_controllability_test,
    obs_gramian,
)
from conftest import BATCH_SIZES, kind_system, make_grid, make_system
from oracles import (
    adjoint_sweep_oracle,
    admissibility_recursion_oracle,
    ctrl_gramian_oracle,
    ctrl_gramian_stream_oracle,
    input_map_adjoint_oracle,
    obs_gramian_oracle,
    propagate_state_oracle,
    state_sweep_oracle,
    transitions_from_start_oracle,
    transitions_to_end_oracle,
)

SIZES = [(n, steps) for n in (1, 3, 20, 64) for steps in (2, 3, 17, 200)]
GRIDS = [("trapezoid", False), ("trapezoid", True), ("simpson", False)]


def _propagator(rng, n, steps, quadrature, nonuniform):
    nodes = None
    if nonuniform:
        nodes = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, steps))])
        nodes /= nodes[-1]
    s = 1 / np.sqrt(n)
    grid = make_grid(steps=steps, quadrature=quadrature, nodes=nodes)
    A = CoeffMatrixFn.poly(rng.normal(scale=s, size=(3, n, n)), grid)
    B = CoeffMatrixFn.poly(rng.normal(scale=s, size=(2, n, 2)), grid)
    C = CoeffMatrixFn.poly(rng.normal(scale=s, size=(2, 2, n)), grid)
    return Propagator(make_system(A, B, C, grid=grid))


def _close(actual, expect, tol=1e-12):
    return np.linalg.norm(actual - expect) <= tol * np.linalg.norm(expect)


@pytest.mark.parametrize("n, steps", SIZES)
@pytest.mark.parametrize("quadrature, nonuniform", GRIDS)
class TestAgainstListOracles:
    def test_streams_and_gramians(self, rng, n, steps, quadrature, nonuniform):
        p = _propagator(rng, n, steps, quadrature, nonuniform)
        to_end = transitions_to_end_oracle(p)
        streamed = list(p.transitions_to_end())
        assert [i for i, _ in streamed] == list(range(steps, -1, -1))
        assert all(np.array_equal(U, to_end[i]) for i, U in streamed)
        from_start = transitions_from_start_oracle(p)
        streamed = list(p.transitions_from_start())
        assert len(streamed) == steps + 1
        assert all(np.array_equal(U, V) for U, V in zip(streamed, from_start))

        assert np.array_equal(obs_gramian(p).W, obs_gramian_oracle(p))
        # W is summed from tau back to 0, the oracle from 0 up to tau
        gram = ctrl_gramian_quadrature(p)
        expect = ctrl_gramian_oracle(p)
        assert _close(gram.W, expect)
        lam = np.linalg.eigvalsh(expect)
        assert np.max(np.abs(gram.eigenvalues - lam)) <= 1e-12 * lam[-1]

    def test_w_pass_hands_over_u_tau_0(self, rng, n, steps, quadrature, nonuniform):
        p = _propagator(rng, n, steps, quadrature, nonuniform)
        gram = ctrl_gramian_quadrature(p)
        *_, (_, last) = p.transitions_to_end()
        assert np.array_equal(gram.U_tau_0, last)
        K = p.transition(0, steps)
        assert _close(gram.U_tau_0, K)
        feasible, c = null_controllability_test(gram)
        report = exact_controllability_test(p)
        assert report.null_controllable == feasible
        # n = 20 and 64 with m = 2 are infeasible: c = +inf from both
        assert report.null_inclusion_c == c or abs(report.null_inclusion_c - c) <= 1e-12 * c

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_state_and_adjoint_sweeps(self, rng, n, steps, quadrature, nonuniform, dtype):
        p = _propagator(rng, n, steps, quadrature, nonuniform)
        values = rng.normal(size=(steps + 1, 2))
        z = rng.normal(size=n)
        if dtype is complex:
            values = values + 1j * rng.normal(size=values.shape)
            z = z + 1j * rng.normal(size=n)
        u = ControlSignal(p.grid, values)
        x0 = rng.normal(size=n)
        assert _close(p.propagate_state(x0, u), propagate_state_oracle(p, x0, u))
        assert _close(p.propagate_state(x0), transitions_to_end_oracle(p)[0] @ x0)
        assert _close(input_map_adjoint(p, z).values, input_map_adjoint_oracle(p, z))


@pytest.mark.parametrize("n, steps", BATCH_SIZES)
@pytest.mark.parametrize("kind", ["constant", "poly", "samples"])
@pytest.mark.parametrize("quadrature, nonuniform", GRIDS)
def test_sweeps_match_per_node_loops_bitwise(rng, n, steps, kind, quadrature, nonuniform):
    p = Propagator(kind_system(rng, n, kind, steps, nonuniform, quadrature))
    assert np.array_equal(ctrl_gramian_quadrature(p).W, ctrl_gramian_stream_oracle(p))
    assert admissibility_constant(p) == admissibility_recursion_oracle(p)
    x0, z = rng.normal(size=n), rng.normal(size=n) + 1j * rng.normal(size=n)
    values = rng.normal(size=(steps + 1, 2))
    for v in (values, values + 1j * values[::-1]):
        u = ControlSignal(p.grid, v)
        assert np.array_equal(p.propagate_state(x0, u), state_sweep_oracle(p, x0, u))
    for w in (z.real, z):
        assert np.array_equal(input_map_adjoint(p, w).values, adjoint_sweep_oracle(p, w))


@pytest.mark.parametrize("consumer", [
    ctrl_gramian_quadrature,
    obs_gramian,
    lambda p: input_map_adjoint(p, np.ones(p.sys.n)),
    lambda p: p.propagate_state(np.ones(p.sys.n),
                                ControlSignal(p.grid, np.ones((p.steps + 1, p.sys.m)))),
], ids=["ctrl_gramian_quadrature", "obs_gramian", "input_map_adjoint", "propagate_state"])
def test_one_pass_holds_no_n_by_n_product_per_node(rng, consumer):
    p = Propagator(kind_system(rng, 20, "poly", 2000))
    tracemalloc.start()
    try:
        consumer(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < p.step_transitions.nbytes / 4
