"""End-to-end acceptance suite.

Each test covers one headline guarantee at its contract tolerance and prints
a single PASS/FAIL line so the run doubles as a human-readable scorecard.
"""

import json

import numpy as np
import pytest

from ltvcontrol import (
    ControlSignal,
    Propagator,
    cocycle_defect,
    ctrl_gramian_cross,
    ctrl_gramian_quadrature,
    default_hautus_grid,
    frozen_observability_constant,
    frozen_vs_ltv_report,
    hautus_sweep,
    input_map_adjoint,
    key_identity_residual,
    l2_inner,
    l2_norm,
    min_norm_control,
    null_control,
    null_controllability_test,
    russell_weiss_min_margin,
    averaging_identity_residual,
)
from ltvcontrol.cli import main as cli_main
from ltvcontrol.hautus import _hautus_integral
from ltvcontrol.synth import NotNullControllableError
from conftest import make_grid, make_system, random_poly_system, scalar_system
from oracles import expm_oracle, kalman_rank
from test_duality import random_constant_system
from test_hautus import random_dissipative_system


def _verdict(name, ok):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.fixture(scope="module")
def twenty_systems():
    rng = np.random.default_rng(11)
    systems = []
    for trial in range(20):
        if trial % 2 == 0:
            n = int(rng.integers(2, 7))
            A = rng.uniform(-0.5, 0.5, size=(n, n))
            sys_ = make_system(A, rng.uniform(-1, 1, size=(n, n)), np.eye(n)[:1],
                               steps=200, quadrature="simpson")
            systems.append((sys_, A))
        else:
            systems.append((random_poly_system(rng, quadrature="simpson"), None))
    return systems


def test_criterion_1_cocycle_and_autonomous_reduction(twenty_systems):
    worst_defect = 0.0
    worst_expm = 0.0
    for sys_, A_const in twenty_systems:
        p = Propagator(sys_)
        N = p.steps
        idx = range(0, N + 1, N // 4)
        worst_defect = max(worst_defect, max(
            cocycle_defect(p, i, j, k)
            for i in idx for j in idx for k in idx if i <= j <= k))
        if A_const is not None:
            err = np.linalg.norm(p.transition(0, N) - expm_oracle(-A_const))
            worst_expm = max(worst_expm, err)
    _verdict("1 cocycle<=1e-8, expm oracle<=1e-9",
             worst_defect <= 1e-8 and worst_expm <= 1e-9)


def test_criterion_2_gramian_cross_method(twenty_systems):
    worst_rel = 0.0
    for sys_, _ in twenty_systems:
        quad, lyap, _ = ctrl_gramian_cross(Propagator(sys_))
        rel = np.linalg.norm(quad.W - lyap.W) / max(np.linalg.norm(quad.W), 1e-300)
        worst_rel = max(worst_rel, rel)
    worst_scalar = 0.0
    for a in (0.5, 1.0, 2.0):
        W = ctrl_gramian_quadrature(Propagator(scalar_system(a=a, quadrature="simpson")))
        closed = (1 - np.exp(-2 * a)) / (2 * a)
        worst_scalar = max(worst_scalar, abs(W.W[0, 0] - closed))
    _verdict("2 gramian cross<=1e-6 rel, scalar closed forms<=1e-7",
             worst_rel <= 1e-6 and worst_scalar <= 1e-7)


def test_criterion_3_duality_verdicts_and_identities():
    rng = np.random.default_rng(23)
    agree = 0
    worst_key = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 6))
        sys_ = random_constant_system(rng, n, deficient=trial % 2 == 0)
        sys_ = make_system(sys_.A.data, sys_.B.data, sys_.C.data, steps=40)
        p = Propagator(sys_)
        coercive = ctrl_gramian_quadrature(p).lambda_min > 1e-10
        oracle = kalman_rank(sys_.A(0.0), sys_.B(0.0)) == n
        agree += coercive == oracle
        for _ in range(100):
            u = ControlSignal(p.grid, rng.normal(size=(41, sys_.m)))
            z = rng.normal(size=n)
            scale = max(l2_norm(u) * np.linalg.norm(z), 1e-300)
            worst_key = max(worst_key, key_identity_residual(p, u, z) / scale)
    _verdict("3 duality verdicts 100/100, identity residuals<=1e-8",
             agree == 100 and worst_key <= 1e-8)


def test_criterion_4_minimum_norm_control():
    rng = np.random.default_rng(31)
    ok = True
    for _ in range(5):
        sys_ = random_poly_system(rng, n=3, m=3, steps=80)
        p = Propagator(sys_)
        res = min_norm_control(p, rng.normal(size=3), rng.normal(size=3))
        ok &= res.target_residual <= 1e-6
        ok &= abs(res.cost - res.gramian_cost) <= 1e-6 * (1 + abs(res.gramian_cost))
        W = ctrl_gramian_quadrature(p).W
        u_sq = l2_norm(res.control) ** 2
        for _ in range(20):
            w_sig = ControlSignal(p.grid, rng.normal(size=(81, 3)))
            eta = np.linalg.solve(W, p.propagate_state(np.zeros(3), w_sig))
            v = ControlSignal(p.grid, w_sig.values - input_map_adjoint(p, eta).values)
            ok &= l2_norm(ControlSignal(p.grid, res.control.values + v.values)) ** 2 \
                >= u_sq - 1e-8
            ok &= abs(l2_inner(v, res.control)) <= 1e-8
    cost = min_norm_control(Propagator(scalar_system(a=1.0, quadrature="simpson")),
                            [0.0], [1.0]).cost
    ok &= abs(cost - 2.313035) <= 1e-5
    _verdict("4 min-norm steering/cost/kernel optimality, scalar cost 2.313035", ok)


def test_criterion_5_null_controllability():
    rng = np.random.default_rng(41)
    ok = True
    for _ in range(5):
        n = 3
        A = rng.uniform(-0.5, 0.5, size=(n, n)) + np.eye(n)  # stable generator
        sys_ = make_system(A, rng.uniform(-1, 1, size=(n, n)), np.eye(n)[:1], steps=100)
        p = Propagator(sys_)
        x0 = rng.normal(size=n)
        res = null_control(p, x0)
        final = p.propagate_state(x0, res.control)
        ok &= np.linalg.norm(final) <= 1e-6 * np.linalg.norm(x0)
    dead = Propagator(make_system([[1.0]], [[0.0]], [[1.0]]))
    try:
        null_control(dead, [1.0])
        ok = False
    except NotNullControllableError:
        pass
    p = Propagator(random_poly_system(rng, n=4, m=4, steps=80))
    gram = ctrl_gramian_quadrature(p)
    K = gram.U_tau_0
    feasible, c = null_controllability_test(gram)
    ok &= feasible
    for _ in range(100):
        z = rng.normal(size=4)
        ok &= np.linalg.norm(K.T @ z) <= (c + 1e-8) * l2_norm(input_map_adjoint(p, z))
    gram = ctrl_gramian_quadrature(Propagator(scalar_system(a=1.0, quadrature="simpson")))
    _, c_scalar = null_controllability_test(gram)
    closed = np.exp(-1) / np.sqrt((1 - np.exp(-2)) / 2)
    ok &= abs(c_scalar - closed) <= 1e-5
    _verdict("5 null controllability: steering, rejection, inclusion constant", ok)


def test_criterion_6_nonautonomous_hautus_necessity():
    rng = np.random.default_rng(53)
    worst = np.inf
    for _ in range(20):
        sys_ = random_dissipative_system(rng, n=3, steps=60)
        grid = default_hautus_grid(3, seed=17, n_vectors=50)
        report = hautus_sweep(Propagator(sys_), grid)
        worst = min(worst, report.min_margin)
    from ltvcontrol import nonautonomous_hautus_margin
    margin = nonautonomous_hautus_margin(scalar_system(a=0.0, quadrature="simpson"),
                                         2.0, [1.0], 1.0, 1.0)
    _verdict("6 hautus sweep min margin>=-1e-9, scalar worked value 0.364665",
             worst >= -1e-9 and abs(margin - 0.364665) <= 1e-6)


def test_criterion_7_russell_weiss_collapse():
    rng = np.random.default_rng(61)
    ok = True
    A = rng.normal(size=(3, 3)) * 0.5
    sys_ = make_system(A, np.eye(3)[:, :1], np.eye(3), steps=1000, quadrature="simpson")
    for lam in (0.5, 2.0 + 1.0j, 10.0):
        lam = complex(lam)
        x = rng.normal(size=3)
        got = _hautus_integral(sys_, lam, x[:, None])[0]
        closed = np.linalg.norm(lam * x + A @ x) * (1 - np.exp(-lam.real)) / lam.real
        ok &= abs(got - closed) <= 1e-8
    s_grid = np.linspace(-10.0, -0.1, 40)
    for G, C in (
        (-np.eye(2), np.eye(2)),
        (np.array([[-1.0, 0.5], [0.0, -2.0]]), np.array([[1.0, 1.0]])),
        (np.array([[-0.3]]), np.array([[2.0]])),
    ):
        def min_over_grid(m):
            return min(russell_weiss_min_margin(G, C, s, m)[0] for s in s_grid)
        lo, hi = 0.0, 10.0
        while hi - lo > 1e-4:
            mid = (lo + hi) / 2
            if min_over_grid(mid) >= 0:
                lo = mid
            else:
                hi = mid
        ok &= lo > 0
        ok &= min_over_grid(lo) >= -1e-9
        ok &= min_over_grid(hi + 1e-3) < 0
    margin, _ = russell_weiss_min_margin(-np.eye(2), np.array([[1.0, 0.0]]), -1.0, 1.0)
    ok &= margin < 0
    _verdict("7 russell-weiss collapse and bisected constants", ok)


def test_criterion_8_averaging_identity():
    rng = np.random.default_rng(71)
    t = np.linspace(0.0, 1.0, 1001)
    ok = averaging_identity_residual(t, 1.0) <= 1e-10
    for _ in range(20):
        sigma = float(rng.uniform(0.5, 2.0))
        coeffs = rng.uniform(-1, 1, size=6)
        s = np.linspace(0.0, sigma, 1001)
        f = sum(c * (s / sigma) ** k for k, c in enumerate(coeffs))
        ok &= averaging_identity_residual(f, sigma) <= 1e-5
    _verdict("8 averaging identity residuals", ok)


def test_criterion_9_frozen_vs_ltv():
    rng = np.random.default_rng(83)
    ok = True
    for _ in range(3):
        A = rng.normal(size=(2, 2)) * 0.5
        sys_ = make_system(A, np.eye(2)[:, :1], np.eye(2), quadrature="simpson")
        report = frozen_vs_ltv_report(Propagator(sys_), stride=50)
        ok &= abs(report.inf_frozen - report.delta_ltv) <= 1e-8
    from ltvcontrol import CoeffMatrixFn
    A = CoeffMatrixFn.poly([[[0.0]], [[1.0]]], make_grid(steps=200, quadrature="simpson"))
    ramp = make_system(A, [[1.0]], [[1.0]], grid=A.grid)
    m0 = frozen_observability_constant(ramp, 0.0)
    m1 = frozen_observability_constant(ramp, 1.0)
    report = frozen_vs_ltv_report(Propagator(ramp), stride=20)
    ok &= abs(m0 - 1.0) <= 1e-5
    ok &= abs(m1 - 0.657519) <= 1e-5
    ok &= report.delta_ltv > 0
    _verdict("9 frozen-vs-ltv constants", ok)


def test_criterion_10_cli_determinism(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "n": 2, "m": 1, "p": 1, "tau": 1.0, "steps": 100,
        "A": {"kind": "poly",
              "data": [[[0.3, -0.1], [0.2, 0.4]], [[0.0, 0.1], [-0.1, 0.0]]]},
        "B": {"kind": "constant", "data": [[1.0], [0.5]]},
        "C": {"kind": "constant", "data": [[1.0, 0.0]]},
    }))
    blobs = []
    for name in ("first", "second"):
        out = tmp_path / name
        for argv in (
            ["analyze", str(spec), "-o", str(out / "a"), "--seed", "5"],
            ["gramian", str(spec), "-o", str(out / "g"), "--seed", "5"],
            ["synthesize", str(spec), "-o", str(out / "s"), "--seed", "5",
             "--x0", "0,0", "--target", "1,-1"],
            ["hautus", str(spec), "-o", str(out / "h"), "--seed", "5",
             "--vectors", "10", "--re-points", "3"],
        ):
            assert cli_main(argv) in (0, 3)
        blobs.append(sorted(
            (f.relative_to(out).as_posix(), f.read_bytes())
            for f in out.rglob("*") if f.is_file()))
    _verdict("10 cli determinism byte-identical", blobs[0] == blobs[1])
