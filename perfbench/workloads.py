"""Benchmark workloads: seeded system specs and the ltvctl command mix run on each.

Sizes, coefficient kinds and command mixes are fixed per workload; the seed
only chooses values, so timings from different seeds are comparable. Spec i
of a workload depends on (seed, workload, i) alone. Specs cycle through a
fixed list of shape classes; one pass over the classes is a round.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Sizes:
    verdict_n: tuple[int, ...] = (6, 20)
    verdict_steps: int = 500
    steer_n: tuple[int, ...] = (2, 4)
    steer_steps: int = 2000
    wide_nmp: tuple[int, int, int] = (64, 32, 8)
    wide_steps: int = 200


FULL = Sizes()
# toy sizes keep every shape class and command but run in well under a second
TOY = Sizes(verdict_n=(3, 4), verdict_steps=40, steer_n=(2, 4), steer_steps=60,
            wide_nmp=(8, 4, 2), wide_steps=30)


@dataclass(frozen=True)
class Call:
    """One ltvctl invocation on a spec: subcommand plus its extra flags."""

    command: str
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class Spec:
    index: int
    shape: str            # shape-class label; medians are taken per class
    doc: dict
    calls: tuple[Call, ...]
    constant_coeffs: bool  # A and B constant: the Kalman rank oracle applies


def _normal(rng, *shape, scale=1.0):
    return rng.normal(scale=scale, size=shape)


def _poly(rng, degree, rows, cols, scale):
    # coefficient of t^j shrinks with j so U(t, s) stays moderate on [0, 1]
    return np.stack([_normal(rng, rows, cols, scale=scale / 2**j) for j in range(degree + 1)])


def _coeff(kind, data):
    return {"kind": kind, "data": np.asarray(data).tolist()}


def _vector_flag(name, x):
    # "--flag=value" form: a value starting with "-" would otherwise parse as a flag
    return f"--{name}=" + ",".join(repr(float(v)) for v in x)


def _rng(seed, workload, index):
    return np.random.default_rng([seed, zlib.crc32(workload.encode()), index])


def _verdict(rng, index, sizes):
    n = sizes.verdict_n[index % len(sizes.verdict_n)]
    m = p = max(2, n // 2)
    s = 1 / np.sqrt(n)
    doc = {
        "n": n, "m": m, "p": p, "tau": 1.0, "steps": sizes.verdict_steps,
        "quadrature": "trapezoid",
        "A": _coeff("poly", _poly(rng, 2, n, n, s)),
        "B": _coeff("constant", _normal(rng, n, m)),
        "C": _coeff("poly", _poly(rng, 1, p, n, 1.0)),
    }
    calls = (Call("analyze"), Call("hautus"), Call("frozen-compare", ("--stride", "10")))
    return Spec(index, f"n{n}", doc, calls, False)


_STEER_KINDS = ("constant", "poly", "samples")


def _steer(rng, index, sizes):
    n = sizes.steer_n[index % len(sizes.steer_n)]
    kind = _STEER_KINDS[index % 3]
    nonuniform = index % 6 >= 3
    m, p, N = n // 2, 1, sizes.steer_steps
    s = 1 / np.sqrt(n)
    if nonuniform:
        gaps = rng.uniform(0.5, 1.5, size=N)
        nodes = np.concatenate([[0.0], np.cumsum(gaps) / gaps.sum()])
        nodes[-1] = 1.0
    else:
        nodes = np.linspace(0.0, 1.0, N + 1)
    if kind == "constant":
        A = _normal(rng, n, n, scale=s)
    elif kind == "poly":
        A = _poly(rng, 2, n, n, s)
    else:
        A0, A1 = _normal(rng, n, n, scale=s), _normal(rng, n, n, scale=s)
        wiggle = np.sin(2 * np.pi * nodes)[:, None, None]
        A = A0 + wiggle * A1 + _normal(rng, N + 1, n, n, scale=0.05 * s)
    doc = {
        "n": n, "m": m, "p": p, "tau": 1.0, "steps": N, "quadrature": "trapezoid",
        "A": _coeff(kind, A),
        "B": _coeff("constant", _normal(rng, n, m)),
        "C": _coeff("constant", _normal(rng, p, n)),
    }
    if nonuniform:
        doc["nodes"] = nodes.tolist()
    x0, target = _normal(rng, n), _normal(rng, n)
    calls = (Call("gramian"),
             Call("synthesize", (_vector_flag("x0", x0), _vector_flag("target", target))))
    shape = f"n{n}-{kind}-{'nodes' if nonuniform else 'uniform'}"
    return Spec(index, shape, doc, calls, kind == "constant")


def _wide(rng, index, sizes):
    n, m, p = sizes.wide_nmp
    doc = {
        "n": n, "m": m, "p": p, "tau": 1.0, "steps": sizes.wide_steps,
        "quadrature": "simpson",
        "A": _coeff("poly", _poly(rng, 2, n, n, 1 / np.sqrt(n))),
        "B": _coeff("constant", _normal(rng, n, m)),
        "C": _coeff("constant", _normal(rng, p, n)),
    }
    x0, target = _normal(rng, n), _normal(rng, n)
    calls = (Call("analyze"), Call("gramian"),
             Call("synthesize", (_vector_flag("x0", x0), _vector_flag("target", target))))
    return Spec(index, f"n{n}", doc, calls, False)


@dataclass(frozen=True)
class Workload:
    name: str
    round_size: int       # specs per round: one of each shape class
    trace_rounds: int     # fixed work of a traced run, so call counts repeat exactly

    def spec(self, seed: int, index: int, sizes: Sizes = FULL) -> Spec:
        return _MAKERS[self.name](_rng(seed, self.name, index), index, sizes)


_MAKERS = {"verdict": _verdict, "steer": _steer, "wide": _wide}

# why each workload exists: README.md here and BENCHMARK.json
WORKLOADS = {w.name: w for w in (Workload("verdict", 2, 1), Workload("steer", 6, 1),
                                 Workload("wide", 1, 4))}


def write_spec(spec: Spec, path) -> None:
    path.write_text(json.dumps(spec.doc))
