"""Data model for linear time-varying systems x'(t) + A(t) x(t) = B(t) u(t), y = C(t) x.

Holds time grids on [0, tau], matrix-valued coefficient functions (constant,
polynomial in t, or piecewise-linear samples), sampled control/output signals
with quadrature-defined L2 norms, and the JSON spec-file ingestion that is the
single entry point for the whole toolkit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from sys import float_info

import numpy as np

MAX_STATE_DIM = 64
MAX_POLY_DEGREE = 8
MAX_STEPS = 100_000

QUADRATURE_RULES = ("trapezoid", "simpson")
SPEC_FIELDS = ("n", "m", "p", "tau", "steps", "A", "B", "C", "nodes", "quadrature")
COEFF_FIELDS = ("kind", "data")


class SpecFormatError(ValueError):
    """A system spec document failed validation; carries the offending field path."""

    def __init__(self, field_path: str, message: str):
        self.field_path = field_path
        super().__init__(f"{field_path}: {message}")


def _as_float_array(data, field_path: str) -> np.ndarray:
    # rank and finiteness are the constructors' rules (TimeGrid, CoeffMatrixFn)
    try:
        return np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpecFormatError(field_path, f"not a numeric array: {exc}") from None


@dataclass(frozen=True)
class TimeGrid:
    """Ordered sample times t_0 = 0 < t_1 < ... < t_N = tau with a quadrature rule."""

    nodes: np.ndarray
    quadrature: str = "trapezoid"

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ValueError(f"grid needs a 1-d array of at least 3 nodes, got shape {nodes.shape}")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("grid nodes must be finite")
        if nodes[0] != 0.0:
            raise ValueError("grid must start at t = 0")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("grid nodes must be strictly increasing")
        if self.quadrature not in QUADRATURE_RULES:
            raise ValueError(f"unknown quadrature rule {self.quadrature!r}")
        if self.quadrature == "simpson" and not self.is_uniform():
            raise ValueError("Simpson quadrature requires a uniform grid")

    @classmethod
    def uniform(cls, tau: float, steps: int, quadrature: str = "trapezoid") -> "TimeGrid":
        if tau <= 0:
            raise ValueError("horizon tau must be positive")
        return cls(np.linspace(0.0, float(tau), steps + 1), quadrature)

    @property
    def tau(self) -> float:
        return float(self.nodes[-1])

    @property
    def steps(self) -> int:
        return self.nodes.size - 1

    def is_uniform(self) -> bool:
        """Equal gaps up to 1e-12 of the horizon (roundoff of np.linspace grids)."""
        d = np.diff(self.nodes)
        return bool(np.all(np.abs(d - d[0]) <= 1e-12 * self.tau))

    def weights(self) -> np.ndarray:
        """Quadrature weights over all nodes for integrals on [0, tau]."""
        nodes = self.nodes
        if self.quadrature == "trapezoid":
            d = np.diff(nodes)
            w = np.zeros(nodes.size)
            w[:-1] += d / 2
            w[1:] += d / 2
            return w
        # composite Simpson; an odd trailing interval gets one trapezoid panel
        N = self.steps
        even = N - N % 2
        h = nodes[1] - nodes[0]
        w = np.zeros(N + 1)
        w[0 : even + 1 : 2] += 2 * h / 3
        w[1 : even : 2] += 4 * h / 3
        w[0] -= h / 3
        w[even] -= h / 3
        if even != N:
            h = nodes[N] - nodes[N - 1]
            w[N - 1] += h / 2
            w[N] += h / 2
        return w


@dataclass(frozen=True)
class CoeffMatrixFn:
    """Matrix-valued coefficient function on the horizon [0, tau] of its grid.

    ``kind`` is one of ``constant`` (data is rows x cols), ``poly`` (data is
    (d+1) x rows x cols, coefficient of t^j at index j, d <= 8) or ``samples``
    (data is (N+1) x rows x cols, one matrix per grid node, linearly interpolated).
    """

    kind: str
    data: np.ndarray
    grid: TimeGrid

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        if self.kind == "constant":
            if data.ndim != 2:
                raise ValueError("constant coefficient needs a 2-d matrix")
        elif self.kind == "poly":
            if data.ndim != 3:
                raise ValueError("polynomial coefficient needs a 3-d coefficient stack")
            if data.shape[0] - 1 > MAX_POLY_DEGREE:
                raise ValueError(f"polynomial degree capped at {MAX_POLY_DEGREE}")
        elif self.kind == "samples":
            if data.ndim != 3 or data.shape[0] != self.grid.steps + 1:
                raise ValueError("sampled coefficient needs one matrix per grid node")
        else:
            raise ValueError(f"unknown coefficient kind {self.kind!r}")
        if not np.all(np.isfinite(data)):
            raise ValueError("coefficient entries must be finite")

    @classmethod
    def constant(cls, matrix, grid: TimeGrid) -> "CoeffMatrixFn":
        return cls("constant", np.atleast_2d(np.asarray(matrix, dtype=float)), grid)

    @classmethod
    def poly(cls, coeffs, grid: TimeGrid) -> "CoeffMatrixFn":
        return cls("poly", np.asarray(coeffs, dtype=float), grid)

    @property
    def rows(self) -> int:
        return self.data.shape[-2]

    @property
    def cols(self) -> int:
        return self.data.shape[-1]

    def __call__(self, t) -> np.ndarray:
        return eval_coeff(self, t)

    def __neg__(self) -> "CoeffMatrixFn":
        """-f from negated data: exact, so its values equal -f(t) (up to a zero's sign)."""
        return CoeffMatrixFn(self.kind, -self.data, self.grid)

    def inf_norm_bound(self) -> float:
        """Upper bound of the max-row-sum norm ||f(t)||_inf over t in [0, tau], read
        from data alone: linear interpolation cannot exceed its nodes, and a
        polynomial's entries are bounded by sum_j |A_j| tau^j, summed by Horner so
        that zero coefficients add nothing. Infinite when that sum overflows."""
        entries = np.abs(self.data)
        with np.errstate(over="ignore"):
            if self.kind == "poly":
                tau = self.grid.tau
                acc = entries[-1]
                for coeff in entries[-2::-1]:
                    acc = acc * tau + coeff
                entries = acc
            return float(entries.sum(axis=-1).max())


def eval_coeff(f: CoeffMatrixFn, t) -> np.ndarray:
    """Evaluate a coefficient function at a time t in [0, tau].

    For a 1-d array of K times the result is a (K, rows, cols) stack whose
    k-th matrix is bit-identical to the value at t[k] alone; a constant
    coefficient gives a read-only broadcast view of its data.
    """
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError("times must be a scalar or a 1-d array")
    ts = times.reshape(-1)
    tau = f.grid.tau
    outside = ~((ts >= -1e-12) & (ts <= tau * (1 + 1e-12) + 1e-12))
    if np.any(outside):
        raise ValueError(f"time {float(ts[outside][0])} outside [0, {tau}]")
    shape = (ts.size,) + f.data.shape[-2:]
    if f.kind == "constant":
        out = np.broadcast_to(f.data, shape)
    elif f.kind == "poly":
        # Horner in t with matrix coefficients, in place on the stack data[-1] t
        tk = ts[:, None, None]
        out = f.data[-1] * tk if len(f.data) > 1 else np.full(shape, f.data[0])
        for j in range(len(f.data) - 2, -1, -1):
            out += f.data[j]
            if j:
                out *= tk
    else:
        nodes = f.grid.nodes
        j = np.clip(np.searchsorted(nodes, ts, side="right"), 1, nodes.size - 1)
        t0, t1 = nodes[j - 1], nodes[j]
        theta = ((ts - t0) / (t1 - t0))[:, None, None]
        out = (1 - theta) * f.data[j - 1] + theta * f.data[j]
    return out if times.ndim else out[0]


@dataclass(frozen=True)
class LtvSystem:
    """Finite-dimensional triple (A(t), B(t), C(t)) on the time grid of A, over [0, tau];
    B and C must be on the same grid."""

    A: CoeffMatrixFn
    B: CoeffMatrixFn
    C: CoeffMatrixFn

    n = property(lambda self: self.A.rows)
    m = property(lambda self: self.B.cols)
    p = property(lambda self: self.C.rows)
    grid = property(lambda self: self.A.grid)
    tau = property(lambda self: self.grid.tau)

    def __post_init__(self):
        if min(self.n, self.m, self.p) < 1:
            raise ValueError("dimensions n, m, p must be >= 1")
        if self.n > MAX_STATE_DIM:
            raise ValueError(f"state dimension capped at {MAX_STATE_DIM}")
        for name, fn, shape in (
            ("A", self.A, (self.n, self.n)),
            ("B", self.B, (self.n, self.m)),
            ("C", self.C, (self.p, self.n)),
        ):
            if (fn.rows, fn.cols) != shape:
                raise ValueError(f"{name} has shape {(fn.rows, fn.cols)}, expected {shape}")
            # TimeGrid's dataclass == would compare node arrays elementwise
            if (fn.grid.quadrature != self.grid.quadrature
                    or not np.array_equal(fn.grid.nodes, self.grid.nodes)):
                raise ValueError(f"{name} is on another grid than A's")


@dataclass(frozen=True)
class ControlSignal:
    """Vector signal sampled on a grid; one value per node."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim == 1:
            values = values[:, None]
        values = np.array(values)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if values.shape[0] != self.grid.steps + 1:
            raise ValueError(
                f"signal has {values.shape[0]} samples, grid has {self.grid.steps + 1} nodes"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("signal entries must be finite")

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def l2_norm(signal: ControlSignal) -> float:
    """L2(0, tau) norm of the signal, by the grid's quadrature rule."""
    w = signal.grid.weights()
    sq = np.sum(np.abs(signal.values) ** 2, axis=1)
    return float(np.sqrt(max(w @ sq, 0.0)))


def l2_inner(u: ControlSignal, v: ControlSignal) -> complex:
    """L2 pairing <u, v> = integral of <u(t), v(t)> by grid quadrature."""
    if u.grid.nodes.shape != v.grid.nodes.shape or not np.array_equal(u.grid.nodes, v.grid.nodes):
        raise ValueError("signals live on different grids")
    w = u.grid.weights()
    vals = np.sum(np.conj(v.values) * u.values, axis=1)
    out = complex(w @ vals)
    return out.real if out.imag == 0 else out


# --- JSON spec files -------------------------------------------------------

def _parse_coeff(obj, name: str, rows: int, cols: int, grid: TimeGrid) -> CoeffMatrixFn:
    if not isinstance(obj, dict):
        raise SpecFormatError(name, "coefficient must be an object with 'kind' and 'data'")
    _refuse_unknown(obj, COEFF_FIELDS, f"{name}.")
    if "data" not in obj:
        raise SpecFormatError(f"{name}.data", "missing")
    # converted outside the try: a SpecFormatError is a ValueError and names .data
    data = _as_float_array(obj["data"], f"{name}.data")
    try:
        fn = CoeffMatrixFn(obj.get("kind"), data, grid)
    except ValueError as exc:
        raise SpecFormatError(name, str(exc)) from None
    if (fn.rows, fn.cols) != (rows, cols):
        raise SpecFormatError(name, f"expected a {rows}x{cols} matrix shape, got {data.shape[-2:]}")
    return fn


def _refuse_unknown(obj: dict, fields: tuple[str, ...], prefix: str = "") -> None:
    for key in obj:
        if key not in fields:
            raise SpecFormatError(f"{prefix}{key}", "unknown field")


def _is_number(value, types) -> bool:
    # JSON true/false load as bool, a subclass of int; they are not numbers here
    return isinstance(value, types) and not isinstance(value, bool)


def parse_system(spec_text: str) -> LtvSystem:
    """Parse and validate a JSON system spec document.

    Expected fields: n, m, p, tau, steps, A, B, C, with each coefficient an
    object {"kind": "constant"|"poly"|"samples", "data": nested row-major
    arrays}. Optional: "nodes" (explicit non-uniform grid) and "quadrature".
    Any other field is refused.
    """
    try:
        doc = json.loads(spec_text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError("$", f"malformed JSON: {exc}") from None
    except RecursionError:
        raise SpecFormatError("$", "malformed JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise SpecFormatError("$", "top level must be an object")
    _refuse_unknown(doc, SPEC_FIELDS)

    dims = {}
    for key in ("n", "m", "p"):
        value = doc.get(key)
        if not _is_number(value, int) or value < 1:
            raise SpecFormatError(key, "must be a positive integer")
        dims[key] = value
    if dims["n"] > MAX_STATE_DIM:
        raise SpecFormatError("n", f"state dimension capped at {MAX_STATE_DIM}")

    tau = doc.get("tau")
    if not _is_number(tau, (int, float)) or not 0 < tau <= float_info.max:
        raise SpecFormatError("tau", "horizon must be a finite positive number")
    steps = doc.get("steps")
    if not _is_number(steps, int) or steps < 2:
        raise SpecFormatError("steps", "must be an integer >= 2")
    if steps > MAX_STEPS:
        raise SpecFormatError("steps", f"capped at {MAX_STEPS}")

    rule = doc.get("quadrature", "trapezoid")
    if rule not in QUADRATURE_RULES:
        raise SpecFormatError("quadrature", f"expected one of {QUADRATURE_RULES}, got {rule!r}")

    nodes = None
    if "nodes" in doc:
        nodes = _as_float_array(doc["nodes"], "nodes")
        if nodes.size != steps + 1:
            raise SpecFormatError("nodes", f"expected {steps + 1} nodes for steps={steps}")
    try:
        grid = (TimeGrid(nodes, rule) if nodes is not None
                else TimeGrid.uniform(float(tau), steps, rule))
    except ValueError as exc:
        raise SpecFormatError("tau" if nodes is None else "nodes", str(exc)) from None
    if abs(grid.tau - tau) > 1e-12 * max(1.0, tau):
        raise SpecFormatError("nodes", f"last node {grid.tau} does not match tau={tau}")

    n, m, p = dims["n"], dims["m"], dims["p"]
    coeffs = {}
    for name, rows, cols in (("A", n, n), ("B", n, m), ("C", p, n)):
        if name not in doc:
            raise SpecFormatError(name, "missing")
        coeffs[name] = _parse_coeff(doc[name], name, rows, cols, grid)

    return LtvSystem(coeffs["A"], coeffs["B"], coeffs["C"])
