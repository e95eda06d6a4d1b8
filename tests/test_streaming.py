"""Streamed transitions and vector sweeps against stored-list oracles, the segment
layout they run on, and the memory of one pass.

The Propagator holds only its step matrices. W_tau, Q_tau, x(tau) and
Psi_tau* z are single passes over them, segment by segment (Propagator.segments);
the oracles store every U(tau, t_i) or U(t_i, 0) and sum in node order.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from ltvcontrol.propagate import (SEGMENTED_MAX_DIM, SEGMENTED_MIN_STEPS, STACK_ELEMENTS,
                                  segment_plan)
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
# the segmented passes sum in another order than the node-by-node oracles
RTOL = 1e-13


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


def _per_node(stream, steps):
    """{i: U(i)} from a stream of (node slice, stack) pairs, asserting that it yields
    every node 0..steps exactly once."""
    pairs = [(i, U) for nodes, stack in stream
             for i, U in zip(range(steps + 1)[nodes], stack, strict=True)]
    assert sorted(i for i, _ in pairs) == list(range(steps + 1))
    return dict(pairs)


@pytest.mark.parametrize("n, steps", SIZES)
@pytest.mark.parametrize("quadrature, nonuniform", GRIDS)
class TestAgainstListOracles:
    def test_streams_and_gramians(self, rng, n, steps, quadrature, nonuniform):
        p = _propagator(rng, n, steps, quadrature, nonuniform)
        for stream, oracle in ((p.transitions_to_end(), transitions_to_end_oracle(p)),
                               (p.transitions_from_start(), transitions_from_start_oracle(p))):
            streamed = _per_node(stream, steps)
            assert all(_close(U, oracle[i], RTOL) for i, U in streamed.items())

        assert _close(obs_gramian(p).W, obs_gramian_oracle(p), RTOL)
        # W is summed from tau back to 0, the oracle from 0 up to tau
        gram = ctrl_gramian_quadrature(p)
        expect = ctrl_gramian_oracle(p)
        assert _close(gram.W, expect)
        lam = np.linalg.eigvalsh(expect)
        assert np.max(np.abs(gram.eigenvalues - lam)) <= 1e-12 * lam[-1]

    def test_w_pass_hands_over_u_tau_0(self, rng, n, steps, quadrature, nonuniform):
        p = _propagator(rng, n, steps, quadrature, nonuniform)
        gram = ctrl_gramian_quadrature(p)
        *_, (nodes, last) = p.transitions_to_end()
        assert nodes.start == 0
        assert np.array_equal(gram.U_tau_0, last[0])
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
def test_sweeps_match_per_node_loops(rng, n, steps, kind, quadrature, nonuniform):
    p = Propagator(kind_system(rng, n, kind, steps, nonuniform, quadrature))
    assert _close(ctrl_gramian_quadrature(p).W, ctrl_gramian_stream_oracle(p), RTOL)
    assert admissibility_constant(p) == admissibility_recursion_oracle(p)
    x0, z = rng.normal(size=n), rng.normal(size=n) + 1j * rng.normal(size=n)
    values = rng.normal(size=(steps + 1, 2))
    for v in (values, values + 1j * values[::-1]):
        u = ControlSignal(p.grid, v)
        assert _close(p.propagate_state(x0, u), state_sweep_oracle(p, x0, u), RTOL)
    for w in (z.real, z):
        assert _close(input_map_adjoint(p, w).values, adjoint_sweep_oracle(p, w), RTOL)


@pytest.mark.parametrize("n, steps, layout", [
    (3, SEGMENTED_MIN_STEPS - 1, (1, SEGMENTED_MIN_STEPS - 1)),
    (3, 40, (6, 7)),  # round(sqrt(40)) = 6 segments of 7, the last of 5
    (3, 144, (12, 12)),
    (3, 145, (12, 13)),  # the last segment holds 2 intervals
    (3, 2000, (45, 45)),
    (SEGMENTED_MAX_DIM, 2000, (32, 63)),  # at most STACK_ELEMENTS // n^2 segments
    (SEGMENTED_MAX_DIM + 1, 2000, (1, 2000)),
])
def test_segment_rule(rng, n, steps, layout):
    p = _propagator(rng, n, steps, "trapezoid", False)
    S, L = p.segments()
    assert (S, L) == layout
    assert (S - 1) * L < steps <= S * L and S * n * n <= STACK_ELEMENTS


@settings(max_examples=500, deadline=None, derandomize=True)
@given(count=st.integers(1, 10**5), per_position=st.integers(1, 64),
       cap=st.none() | st.integers(1, 10**5), longest=st.none() | st.integers(1, 10**5))
def test_segment_plan_covers_the_count_within_its_limits(count, per_position, cap, longest):
    # every segmented sweep is cut by this one rule: S segments of L cover the count with
    # a short last segment, L never exceeds longest, and S stays within cap unless the
    # longest segments need more of them
    S, L = segment_plan(count, per_position, cap, longest)
    assert (S - 1) * L < count <= S * L
    assert longest is None or L <= longest
    if cap is not None and -(-count // (longest or count)) <= cap:
        assert S <= cap
    root = math.isqrt(count - 1) + 1  # ceil(sqrt(count)): the frozen sum's own rule
    assert segment_plan(count) == (-(-count // root), root)


# N = 1 is not a grid (TimeGrid needs 3 nodes); 143, 144 and 145 are S L - 1, S L and
# S L + 1 for S = L = 12; n = SEGMENTED_MAX_DIM + 1 is past the cut to S = 1
@pytest.mark.parametrize("steps", [2, 3, 37, 143, 144, 145, 2000])
@pytest.mark.parametrize("n", [3, SEGMENTED_MAX_DIM, SEGMENTED_MAX_DIM + 1])
@pytest.mark.parametrize("quadrature, nonuniform", GRIDS)
def test_segment_layout_matches_list_oracles(rng, n, steps, quadrature, nonuniform):
    p = _propagator(rng, n, steps, quadrature, nonuniform)
    for stream, oracle in ((p.transitions_to_end(), transitions_to_end_oracle(p)),
                           (p.transitions_from_start(), transitions_from_start_oracle(p))):
        streamed = _per_node(stream, steps)
        assert all(_close(U, oracle[i], RTOL) for i, U in streamed.items())
    assert _close(ctrl_gramian_quadrature(p).W, ctrl_gramian_oracle(p), RTOL)
    assert _close(obs_gramian(p).W, obs_gramian_oracle(p), RTOL)
    values, x0, z = rng.normal(size=(steps + 1, 2)), rng.normal(size=n), rng.normal(size=n)
    for imag in (0.0, 1.0):
        u = ControlSignal(p.grid, values + 1j * imag * values[::-1])
        assert _close(p.propagate_state(x0, u), propagate_state_oracle(p, x0, u), RTOL)
        w = z + 1j * imag * z[::-1]
        assert _close(input_map_adjoint(p, w).values, input_map_adjoint_oracle(p, w), RTOL)


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
