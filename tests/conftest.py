import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ltvcontrol import CoeffMatrixFn, LtvSystem, TimeGrid


def make_grid(tau=1.0, steps=200, quadrature="trapezoid", nodes=None):
    return TimeGrid(nodes, quadrature) if nodes is not None else TimeGrid.uniform(
        tau, steps, quadrature)


def make_system(A, B, C, tau=1.0, steps=200, quadrature="trapezoid", nodes=None, grid=None):
    """Build an LtvSystem from constant matrices or CoeffMatrixFn instances on grid
    (by default make_grid(tau, steps, quadrature, nodes)); an instance must be on it."""
    grid = grid if grid is not None else make_grid(tau, steps, quadrature, nodes)

    def coerce(M):
        if isinstance(M, CoeffMatrixFn):
            return M
        return CoeffMatrixFn.constant(np.atleast_2d(np.asarray(M, dtype=float)), grid)

    sys = LtvSystem(coerce(A), coerce(B), coerce(C))
    assert sys.grid.quadrature == grid.quadrature and np.array_equal(sys.grid.nodes, grid.nodes)
    return sys


def scalar_system(a=1.0, b=1.0, c=1.0, tau=1.0, steps=200, quadrature="trapezoid"):
    return make_system([[a]], [[b]], [[c]], tau=tau, steps=steps, quadrature=quadrature)


def random_poly_system(rng, n=None, degree=None, m=None, p=None, steps=200,
                       quadrature="trapezoid", scale=0.5):
    """Random polynomial-coefficient system with modest norms (n <= 6, degree <= 3)."""
    n = n if n is not None else int(rng.integers(1, 7))
    m = m if m is not None else int(rng.integers(1, n + 1))
    p = p if p is not None else int(rng.integers(1, n + 1))
    degree = degree if degree is not None else int(rng.integers(0, 4))
    grid = make_grid(steps=steps, quadrature=quadrature)
    A = CoeffMatrixFn.poly(rng.uniform(-scale, scale, size=(degree + 1, n, n)), grid)
    B = CoeffMatrixFn.constant(rng.uniform(-1, 1, size=(n, m)), grid)
    C = CoeffMatrixFn.constant(rng.uniform(-1, 1, size=(p, n)), grid)
    return LtvSystem(A, B, C)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# (n, steps) for the batched-integration oracle tests: a partial last chunk of
# 2**15 // n**2 intervals runs at n = 20 and n = 64
BATCH_SIZES = [(1, 37), (3, 50), (20, 170), (64, 21)]


def kind_system(rng, n, kind, steps, nonuniform=False, quadrature="trapezoid", m=2):
    """Random system with m inputs whose A and B are both of one coefficient kind
    (constant, poly of degree 2, or samples on the grid), on uniform or
    random non-uniform nodes over [0, 1]."""
    grid = TimeGrid.uniform(1.0, steps, quadrature)
    if nonuniform:
        gaps = rng.uniform(0.5, 1.5, size=steps)
        nodes = np.concatenate([[0.0], np.cumsum(gaps) / gaps.sum()])
        nodes[-1] = 1.0
        grid = TimeGrid(nodes, quadrature)
    s = 1 / np.sqrt(n)

    def coeff(rows, cols):
        if kind == "constant":
            return CoeffMatrixFn.constant(rng.normal(scale=s, size=(rows, cols)), grid)
        if kind == "poly":
            return CoeffMatrixFn.poly(rng.normal(scale=s, size=(3, rows, cols)), grid)
        return CoeffMatrixFn("samples", rng.normal(scale=s, size=(steps + 1, rows, cols)), grid)

    return LtvSystem(coeff(n, n), coeff(n, m), CoeffMatrixFn.constant(np.eye(n)[:1], grid))


def stiffened(sys, need):
    """sys with A scaled so that the largest grid gap times A's inf-norm bound is
    need: the Propagator then takes max(4, ceil(need)) substeps per interval."""
    A = sys.A
    scale = need / (np.max(np.diff(sys.grid.nodes)) * A.inf_norm_bound())
    return dataclasses.replace(sys, A=CoeffMatrixFn(A.kind, A.data * scale, A.grid))


def segment_overflow_samples(steps=400):
    """Samples of A = diag(a, 1) on a uniform grid on [0, 1]: a = -2e4 on the nodes in
    [0.4, 0.45], +2e4 on those in (0.45, 0.5125], 0 elsewhere. On 400 steps U(0.45, 0.4)
    ~ e^1000 overflows, while every U(tau, t_i) is at most about 1: the growth is undone by
    the decay after it. The growth rule cuts segments of 7 intervals, each product finite."""
    t = np.linspace(0.0, 1.0, steps + 1)
    a = np.where((t >= 0.4) & (t <= 0.45), -2e4, 0.0)
    a[(t > 0.45 + 1e-12) & (t <= 0.5125 + 1e-12)] = 2e4
    data = np.zeros((steps + 1, 2, 2))
    data[:, 0, 0] = a
    data[:, 1, 1] = 1.0
    return data
