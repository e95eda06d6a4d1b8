import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ltvcontrol import CoeffMatrixFn, LtvSystem, TimeGrid


def make_system(A, B, C, tau=1.0, steps=200, quadrature="trapezoid", nodes=None):
    """Build an LtvSystem from constant matrices or CoeffMatrixFn instances."""
    grid = TimeGrid(nodes, quadrature) if nodes is not None else TimeGrid.uniform(
        tau, steps, quadrature)

    def coerce(M):
        if isinstance(M, CoeffMatrixFn):
            return M
        return CoeffMatrixFn.constant(np.atleast_2d(np.asarray(M, dtype=float)))

    A, B, C = coerce(A), coerce(B), coerce(C)
    return LtvSystem(n=A.rows, m=B.cols, p=C.rows, A=A, B=B, C=C, grid=grid)


def scalar_system(a=1.0, b=1.0, c=1.0, tau=1.0, steps=200, quadrature="trapezoid"):
    return make_system([[a]], [[b]], [[c]], tau=tau, steps=steps, quadrature=quadrature)


def random_poly_system(rng, n=None, degree=None, m=None, p=None, steps=200,
                       quadrature="trapezoid", scale=0.5):
    """Random polynomial-coefficient system with modest norms (n <= 6, degree <= 3)."""
    n = n if n is not None else int(rng.integers(1, 7))
    m = m if m is not None else int(rng.integers(1, n + 1))
    p = p if p is not None else int(rng.integers(1, n + 1))
    degree = degree if degree is not None else int(rng.integers(0, 4))
    A = CoeffMatrixFn.poly(rng.uniform(-scale, scale, size=(degree + 1, n, n)))
    B = CoeffMatrixFn.constant(rng.uniform(-1, 1, size=(n, m)))
    C = CoeffMatrixFn.constant(rng.uniform(-1, 1, size=(p, n)))
    return make_system(A, B, C, steps=steps, quadrature=quadrature)


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
            return CoeffMatrixFn.constant(rng.normal(scale=s, size=(rows, cols)))
        if kind == "poly":
            return CoeffMatrixFn.poly(rng.normal(scale=s, size=(3, rows, cols)))
        return CoeffMatrixFn.samples(rng.normal(scale=s, size=(steps + 1, rows, cols)), grid)

    return LtvSystem(n=n, m=m, p=1, A=coeff(n, n), B=coeff(n, m),
                     C=CoeffMatrixFn.constant(np.eye(n)[:1]), grid=grid)


def stiffened(sys, need):
    """sys with A scaled so that the largest grid gap times A's inf-norm bound is
    need: the Propagator then takes max(4, ceil(need)) substeps per interval."""
    A = sys.A
    scale = need / (np.max(np.diff(sys.grid.nodes)) * A.inf_norm_bound())
    return dataclasses.replace(sys, A=CoeffMatrixFn(A.kind, A.data * scale, A.grid, A.tau))
