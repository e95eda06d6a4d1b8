import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ltvcontrol import (
    CoeffMatrixFn,
    ControlSignal,
    LtvSystem,
    SpecFormatError,
    TimeGrid,
    eval_coeff,
    l2_inner,
    l2_norm,
    parse_system,
)
from ltvcontrol.sysmodel import MAX_POLY_DEGREE, MAX_STEPS
from oracles import eval_coeff_oracle, poly_eval_naive

MINIMAL_SPEC = json.dumps({
    "n": 1, "m": 1, "p": 1, "tau": 1.0, "steps": 100,
    "A": {"kind": "constant", "data": [[0.0]]},
    "B": {"kind": "constant", "data": [[1.0]]},
    "C": {"kind": "constant", "data": [[1.0]]},
})

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=20,
)
COEFFS = st.fixed_dictionaries({
    "kind": st.sampled_from(["constant", "poly", "samples"]) | JSON_VALUES,
    "data": JSON_VALUES,
})
# the minimal spec with up to four of its fields replaced by arbitrary values
SPEC_DOCS = st.dictionaries(
    st.sampled_from(["n", "m", "p", "tau", "steps", "quadrature", "nodes", "A", "B", "C"]),
    JSON_VALUES | COEFFS, max_size=4,
).map(lambda fields: {**json.loads(MINIMAL_SPEC), **fields})

NAN, INF = float("nan"), float("inf")
# (field, value) replaced in a 3-step minimal spec, the field path the refusal must name
# (or start with), and a part of its message; rank, finiteness, kind, degree and sample
# count are refused by the constructors, shape, node count, last node, the state
# dimension cap and a missing data field by the parser
REFUSALS = [
    ("A", {"kind": "linear", "data": [[0.0]]}, "A", "unknown coefficient kind 'linear'"),
    ("A", {"data": [[0.0]]}, "A", "unknown coefficient kind None"),
    ("A", {"kind": "constant", "data": [[[0.0]]]}, "A", "2-d matrix"),
    ("A", {"kind": "poly", "data": [[0.0]]}, "A", "3-d coefficient stack"),
    ("A", {"kind": "samples", "data": [[0.0]]}, "A", "one matrix per grid node"),
    ("B", {"kind": "constant", "data": [[NAN]]}, "B", "must be finite"),
    ("B", {"kind": "poly", "data": [[[0.0]], [[INF]]]}, "B", "must be finite"),
    ("B", {"kind": "samples", "data": [[[0.0]]] * 3 + [[[-INF]]]}, "B", "must be finite"),
    ("C", {"kind": "constant", "data": [[0.0], [0.0, 1.0]]}, "C.data", "not a numeric array"),
    ("C", {"kind": "constant", "data": [["one"]]}, "C.data", "not a numeric array"),
    ("C", {"kind": "constant", "data": [[1.0, 0.0]]}, "C", "1x1 matrix shape"),
    ("A", {"kind": "poly", "data": [[[0.0]]] * 10}, "A", "degree capped at 8"),
    ("A", {"kind": "samples", "data": [[[0.0]]] * 3}, "A", "one matrix per grid node"),
    ("nodes", [[0.0, 0.1], [0.5, 1.0]], "nodes", "1-d array"),
    ("nodes", [0.0, NAN, 0.5, 1.0], "nodes", "must be finite"),
    ("nodes", [0.0, 0.1, 0.5, INF], "nodes", "must be finite"),
    ("nodes", 1.0, "nodes", "expected 4 nodes"),
    ("nodes", [0.0, 0.1, 0.5, 0.9], "nodes", "does not match tau"),
    ("n", 65, "n", "capped at 64"),
    ("A", {"kind": "constant"}, "A.data", "missing"),
    ("A", 3, "A", "coefficient must be an object"),
]

GRID = TimeGrid.uniform(1.0, 10)
LONG = TimeGrid.uniform(1e300, 10)


class TestTimeGrid:
    def test_uniform(self):
        g = TimeGrid.uniform(2.0, 10)
        assert g.tau == 2.0
        assert g.steps == 10
        assert g.nodes[0] == 0.0

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            TimeGrid.uniform(-1.0, 10)
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 1.0]))  # N >= 2
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.1, 0.5, 1.0]))  # must start at 0
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 0.5, 0.4, 1.0]))  # not increasing
        with pytest.raises(ValueError, match="unknown quadrature rule 'gauss'"):
            TimeGrid(np.array([0.0, 0.5, 1.0]), "gauss")

    def test_trapezoid_weights_sum_to_tau(self):
        g = TimeGrid.uniform(3.0, 7)
        assert np.isclose(g.weights().sum(), 3.0)

    def test_simpson_weights_integrate_cubics_exactly(self):
        g = TimeGrid.uniform(1.0, 10, "simpson")
        t = g.nodes
        assert abs(g.weights() @ t**3 - 0.25) < 1e-14

    def test_simpson_rejects_nonuniform(self):
        with pytest.raises(ValueError, match="uniform"):
            TimeGrid(np.array([0.0, 0.3, 1.0]), "simpson")

    @pytest.mark.parametrize("tau", [1.0, 3.7, 1e-3, 123.456])
    @pytest.mark.parametrize("steps", [10_000, MAX_STEPS])
    def test_fine_linspace_grids_are_uniform(self, tau, steps):
        assert TimeGrid.uniform(tau, steps).is_uniform()

    def test_simpson_spec_with_many_steps_parses(self):
        doc = json.loads(MINIMAL_SPEC)
        doc.update(steps=20_000, quadrature="simpson")
        assert parse_system(json.dumps(doc)).grid.quadrature == "simpson"


class TestCoeffMatrixFn:
    def test_constant(self):
        f = CoeffMatrixFn.constant([[2.0, 0.0], [0.0, 3.0]], GRID)
        for t in (0.0, 0.37, 1.0):
            assert np.array_equal(f(t), [[2.0, 0.0], [0.0, 3.0]])

    def test_poly_identity_ramp(self):
        f = CoeffMatrixFn.poly([np.zeros((2, 2)), np.eye(2)], GRID)
        assert np.allclose(f(0.25), 0.25 * np.eye(2))

    def test_piecewise_linear_interp(self):
        grid = TimeGrid(np.array([0.0, 0.5, 1.0]))
        f = CoeffMatrixFn("samples", [[[0.0]], [[1.0]], [[2.0]]], grid)
        assert f(0.5)[0, 0] == pytest.approx(1.0)
        assert f(0.25)[0, 0] == pytest.approx(0.5)
        assert f(1.0)[0, 0] == pytest.approx(2.0)

    def test_out_of_domain(self):
        f = CoeffMatrixFn.constant([[1.0]], GRID)
        with pytest.raises(ValueError):
            eval_coeff(f, 1.5)
        with pytest.raises(ValueError):
            eval_coeff(f, -0.1)

    @pytest.mark.parametrize("kind", ["constant", "poly", "samples"])
    def test_array_times_match_scalar_oracle_bitwise(self, rng, kind):
        grid = TimeGrid(np.concatenate([[0.0], np.sort(rng.uniform(0, 2.0, 9)), [2.0]]))
        data = {"constant": rng.normal(size=(3, 2)),
                "poly": rng.normal(size=(4, 3, 2)),
                "samples": rng.normal(size=(grid.steps + 1, 3, 2))}[kind]
        f = CoeffMatrixFn(kind, data, grid)
        between = (grid.nodes[1:] + grid.nodes[:-1]) / 2
        times = np.concatenate([grid.nodes, between, rng.uniform(0, 2.0, 7),
                                [grid.tau * (1 + 1e-12)]])
        stack = eval_coeff(f, times)
        assert stack.shape == (times.size, 3, 2)
        expect = np.array([eval_coeff_oracle(f, t) for t in times])
        assert np.array_equal(stack, expect)
        assert all(np.array_equal(eval_coeff(f, t), e) for t, e in zip(times, expect))

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["constant", "poly", "samples"]),
           seed=st.integers(0, 2**32 - 1))
    def test_negated_data_gives_negated_values(self, kind, seed):
        # -f runs Horner and interpolation on -data: -f(t) bit for bit (up to a zero's
        # sign), with exact-zero entries and polynomial degrees 0 .. MAX_POLY_DEGREE
        rng = np.random.default_rng(seed)
        grid = TimeGrid(np.concatenate([[0.0], np.sort(rng.uniform(0, 2.0, 9)), [2.0]]))
        lead = {"constant": (), "poly": (int(rng.integers(1, MAX_POLY_DEGREE + 2)),),
                "samples": (grid.steps + 1,)}[kind]
        data = rng.normal(size=lead + (3, 2)) * (rng.random(lead + (3, 2)) < 0.6)
        f = CoeffMatrixFn(kind, data, grid)
        times = np.concatenate([grid.nodes[[0, -1]], rng.uniform(0, grid.tau, 12)])
        assert np.array_equal(eval_coeff(-f, times), -eval_coeff(f, times))
        assert np.array_equal(eval_coeff(-f, times[5]), -eval_coeff(f, times[5]))

    def test_array_times_out_of_domain(self):
        f = CoeffMatrixFn.constant([[1.0]], GRID)
        with pytest.raises(ValueError, match="outside"):
            eval_coeff(f, np.array([0.0, 0.5, 1.5]))
        with pytest.raises(ValueError):
            eval_coeff(f, np.zeros((2, 2)))

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            CoeffMatrixFn.poly(np.zeros((10, 1, 1)), GRID)

    def test_samples_need_a_grid(self):
        with pytest.raises(TypeError, match="grid"):
            CoeffMatrixFn("samples", np.zeros((3, 1, 1)))

    def test_inf_norm_bound_values(self):
        assert CoeffMatrixFn.constant([[1.0, -2.0], [0.5, 0.0]], GRID).inf_norm_bound() == 3.0
        grid = TimeGrid(np.array([0.0, 0.5, 2.0]))
        samples = CoeffMatrixFn("samples", [[[1.0, 0.0]], [[-4.0, 1.0]], [[2.0, 2.0]]], grid)
        assert samples.inf_norm_bound() == 5.0
        # A(t) = A_0 + A_1 t - A_2 t^2 on [0, 2]: row sums of |A_0| + 2 |A_1| + 4 |A_2|
        poly = CoeffMatrixFn.poly([[[1.0, 0.0]], [[0.0, -1.0]], [[-1.0, 0.0]]], grid)
        assert poly.inf_norm_bound() == 7.0
        # zero coefficients add nothing however large tau^j: no 0 * inf
        with np.errstate(all="raise"):
            assert CoeffMatrixFn.poly([[[0.0]]] * 9, LONG).inf_norm_bound() == 0.0
            padded = CoeffMatrixFn.poly([[[2.0, -1.0]]] + [[[0.0, 0.0]]] * 8, LONG)
            assert padded.inf_norm_bound() == 3.0

    def test_inf_norm_bound_overflow_is_infinite(self):
        with np.errstate(all="raise"):  # the bound warns about nothing
            bound = CoeffMatrixFn.poly([[[0.0]]] * 8 + [[[1.0]]], LONG).inf_norm_bound()
        assert bound == np.inf

    @pytest.mark.parametrize("kind", ["constant", "poly", "samples"])
    def test_inf_norm_bound_bounds_every_time(self, rng, kind, monkeypatch):
        grid = TimeGrid(np.concatenate([[0.0], np.sort(rng.uniform(0, 3.0, 9)), [3.0]]))
        data = {"constant": rng.normal(size=(3, 3)),
                "poly": rng.normal(size=(4, 3, 3)),
                "samples": rng.normal(size=(grid.steps + 1, 3, 3))}[kind]
        f = CoeffMatrixFn(kind, data, grid)
        times = np.concatenate([np.linspace(0.0, 3.0, 1001), grid.nodes])
        norms = np.abs(f(times)).sum(axis=2).max(axis=1)
        monkeypatch.setattr("ltvcontrol.sysmodel.eval_coeff", None)  # read from data only
        bound = f.inf_norm_bound()
        assert np.all(norms <= bound)
        if kind != "poly":  # attained at a node
            assert norms.max() == bound

    def test_horner_matches_naive_oracle(self, rng):
        for _ in range(20):
            d = int(rng.integers(0, 9))
            coeffs = rng.uniform(-1, 1, size=(d + 1, 3, 3))
            f = CoeffMatrixFn.poly(coeffs, GRID)
            for t in rng.uniform(0, 1, size=5):
                expect = poly_eval_naive(coeffs, t)
                scale = max(np.abs(expect).max(), 1e-30)
                assert np.abs(f(t) - expect).max() <= 1e-13 * scale


class TestLtvSystem:
    ONE = CoeffMatrixFn.constant([[1.0]], GRID)

    @pytest.mark.parametrize("shapes, message", [
        (((0, 0), (0, 1), (1, 0)), "n, m, p must be >= 1"),
        (((1, 1), (1, 1), (0, 1)), "n, m, p must be >= 1"),
        (((65, 65), (65, 1), (1, 65)), "capped at 64"),
        (((1, 1), (2, 1), (1, 1)), r"B has shape \(2, 1\), expected \(1, 1\)"),
    ])
    def test_constructor_refusals(self, shapes, message):
        with pytest.raises(ValueError, match=message):
            LtvSystem(*(CoeffMatrixFn.constant(np.ones(shape), GRID) for shape in shapes))

    def test_fields_and_derived_values(self):
        assert [f.name for f in dataclasses.fields(LtvSystem)] == ["A", "B", "C"]
        assert [f.name for f in dataclasses.fields(CoeffMatrixFn)] == ["kind", "data", "grid"]
        A = CoeffMatrixFn.poly(np.ones((2, 3, 3)), GRID)
        B = CoeffMatrixFn.constant(np.ones((3, 2)), GRID)
        C = CoeffMatrixFn("samples", np.ones((11, 1, 3)), TimeGrid.uniform(1.0, 10))
        sys = LtvSystem(A, B, C)
        assert sys.A is A and sys.B is B and sys.C is C  # the caller's objects, not copies
        assert (sys.n, sys.m, sys.p) == (A.rows, B.cols, C.rows) == (3, 2, 1)
        assert sys.grid is A.grid and sys.tau == 1.0

    @pytest.mark.parametrize("name", ["B", "C"])
    @pytest.mark.parametrize("grid", [
        TimeGrid.uniform(1.0, 20),
        TimeGrid.uniform(1.0, 10, "simpson"),          # the same nodes, another rule
    ])
    def test_coefficient_on_another_grid_is_refused(self, name, grid):
        coeffs = {"A": self.ONE, "B": self.ONE, "C": self.ONE,
                  name: CoeffMatrixFn.constant([[1.0]], grid)}
        with pytest.raises(ValueError, match=f"^{name} is on another grid than A's$"):
            LtvSystem(**coeffs)

    @pytest.mark.parametrize("nodes", [
        np.linspace(0.0, 0.5, 11),                       # would extrapolate past 0.5
        np.linspace(0.0, 1.0, 21),
        np.concatenate([[0.0], np.linspace(0.05, 1.0, 10)]),
    ])
    def test_samples_on_another_grid_are_refused(self, nodes):
        # samples 0 except 1 at the last node of [0, 0.5]: on [0, 1] the interpolant
        # would reach B(1) = 11 while inf_norm_bound() reads 1 from the data
        data = np.zeros((nodes.size, 1, 1))
        data[-1] = 1.0
        B = CoeffMatrixFn("samples", data, TimeGrid(nodes))
        with pytest.raises(ValueError, match="another grid"):
            LtvSystem(self.ONE, B, self.ONE)

    def test_samples_on_equal_nodes_are_accepted(self):
        A = CoeffMatrixFn("samples", np.ones((11, 1, 1)), TimeGrid.uniform(1.0, 10))
        sys = LtvSystem(A, self.ONE, self.ONE)
        assert sys.tau == 1.0 and sys.A(1.0)[0, 0] == 1.0


class TestSignals:
    def test_zero_signal_norm(self):
        g = TimeGrid.uniform(1.0, 100)
        assert l2_norm(ControlSignal(g, np.zeros((101, 2)))) == 0.0

    def test_constant_signal_norm(self):
        g = TimeGrid.uniform(1.0, 100)
        s = ControlSignal(g, np.ones((101, 1)))
        assert l2_norm(s) == pytest.approx(1.0, abs=1e-12)

    def test_ramp_signal_norm(self):
        g = TimeGrid.uniform(1.0, 1000)
        s = ControlSignal(g, g.nodes)
        assert l2_norm(s) == pytest.approx(np.sqrt(1 / 3), abs=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(alpha=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_absolute_homogeneity(self, alpha, seed):
        g = TimeGrid.uniform(1.0, 20)
        values = np.random.default_rng(seed).normal(size=(21, 2))
        base = l2_norm(ControlSignal(g, values))
        scaled = l2_norm(ControlSignal(g, alpha * values))
        assert scaled == pytest.approx(abs(alpha) * base, rel=1e-12, abs=1e-12)

    def test_rejects_wrong_length(self):
        g = TimeGrid.uniform(1.0, 10)
        with pytest.raises(ValueError):
            ControlSignal(g, np.zeros((5, 1)))
        with pytest.raises(ValueError, match="must be finite"):
            ControlSignal(g, np.full((11, 1), np.nan))

    def test_inner_product_rejects_another_grid(self):
        u = ControlSignal(TimeGrid.uniform(1.0, 10), np.ones((11, 1)))
        v = ControlSignal(TimeGrid.uniform(2.0, 10), np.ones((11, 1)))
        with pytest.raises(ValueError, match="different grids"):
            l2_inner(u, v)


class TestParseSystem:
    def test_minimal_spec(self):
        sys = parse_system(MINIMAL_SPEC)
        assert (sys.n, sys.m, sys.p) == (1, 1, 1)
        assert sys.tau == 1.0

    def test_poly_coefficient(self):
        doc = json.loads(MINIMAL_SPEC)
        doc["A"] = {"kind": "poly", "data": [[[0.0]], [[1.0]]]}
        sys = parse_system(json.dumps(doc))
        assert sys.A(0.5)[0, 0] == pytest.approx(0.5)

    def test_dimension_mismatch_names_field(self):
        doc = json.loads(MINIMAL_SPEC)
        doc["n"] = 3
        doc["A"] = {"kind": "constant", "data": [[0.0, 0, 0], [0, 0, 0], [0, 0, 0]]}
        doc["C"] = {"kind": "constant", "data": [[1.0, 0, 0]]}
        doc["B"] = {"kind": "constant", "data": [[1.0], [0.0]]}  # 2x1, needs 3x1
        with pytest.raises(SpecFormatError) as exc:
            parse_system(json.dumps(doc))
        assert exc.value.field_path.startswith("B")

    def test_bad_horizon(self):
        doc = json.loads(MINIMAL_SPEC)
        doc["tau"] = -1.0
        with pytest.raises(SpecFormatError) as exc:
            parse_system(json.dumps(doc))
        assert exc.value.field_path == "tau"

    @pytest.mark.parametrize("field", ["n", "m", "p", "steps", "tau"])
    def test_boolean_number_rejected(self, field):
        # JSON true would otherwise pass as the integer 1
        doc = json.loads(MINIMAL_SPEC)
        doc[field] = True
        with pytest.raises(SpecFormatError) as exc:
            parse_system(json.dumps(doc))
        assert exc.value.field_path == field

    def test_non_finite_entries(self):
        bad = MINIMAL_SPEC.replace('[[0.0]]', '[[NaN]]')
        with pytest.raises(SpecFormatError):
            parse_system(bad)

    def test_malformed_document(self):
        with pytest.raises(SpecFormatError):
            parse_system("{not json")

    def test_steps_capped_before_allocation(self):
        doc = json.loads(MINIMAL_SPEC)
        doc["steps"] = 10**13
        with pytest.raises(SpecFormatError) as exc:
            parse_system(json.dumps(doc))
        assert exc.value.field_path == "steps"
        doc["steps"] = MAX_STEPS
        assert parse_system(json.dumps(doc)).grid.steps == MAX_STEPS

    def test_deep_nesting(self):
        with pytest.raises(SpecFormatError) as exc:
            parse_system("[" * 100000 + "]" * 100000)
        assert exc.value.field_path == "$"

    def test_simpson_on_nonuniform_nodes(self):
        doc = json.loads(MINIMAL_SPEC)
        doc["steps"] = 3
        doc["nodes"] = [0.0, 0.1, 0.5, 1.0]
        doc["quadrature"] = "simpson"
        with pytest.raises(SpecFormatError) as exc:
            parse_system(json.dumps(doc))
        assert exc.value.field_path == "nodes"

    def test_unknown_top_level_field(self):
        # a misspelt "quadrature" must not fall back to the trapezoid rule
        doc = json.loads(MINIMAL_SPEC)
        doc["quadrture"] = "simpson"
        with pytest.raises(SpecFormatError) as exc:
            parse_system(json.dumps(doc))
        assert exc.value.field_path == "quadrture"

    def test_unknown_coefficient_field(self):
        doc = json.loads(MINIMAL_SPEC)
        doc["A"]["extra"] = 1
        with pytest.raises(SpecFormatError) as exc:
            parse_system(json.dumps(doc))
        assert exc.value.field_path == "A.extra"

    @pytest.mark.parametrize("name", ["A", "B", "C"])
    def test_missing_coefficient(self, name):
        doc = json.loads(MINIMAL_SPEC)
        del doc[name]
        with pytest.raises(SpecFormatError, match="missing") as exc:
            parse_system(json.dumps(doc))
        assert exc.value.field_path == name

    @pytest.mark.parametrize("field, value, path, message", REFUSALS)
    def test_refusal_names_coefficient_or_nodes(self, field, value, path, message):
        doc = {**json.loads(MINIMAL_SPEC), "steps": 3, field: value}
        with pytest.raises(SpecFormatError, match=message) as exc:
            parse_system(json.dumps(doc))
        assert exc.value.field_path == path

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(max_size=40) | JSON_VALUES.map(json.dumps) | SPEC_DOCS.map(json.dumps))
    @example(text=MINIMAL_SPEC.replace('"tau": 1.0', '"tau": 1' + "0" * 400))
    @example(text=MINIMAL_SPEC.replace('"tau": 1.0', '"tau": 5e-324'))
    @example(text=MINIMAL_SPEC.replace("[[0.0]]", "[[1" + "0" * 400 + "]]"))
    def test_any_text_parses_or_raises_spec_error(self, text):
        try:
            sys = parse_system(text)
        except SpecFormatError:
            return
        assert isinstance(sys, LtvSystem)

    def test_nonuniform_nodes(self):
        doc = json.loads(MINIMAL_SPEC)
        doc["steps"] = 3
        doc["nodes"] = [0.0, 0.1, 0.5, 1.0]
        sys = parse_system(json.dumps(doc))
        assert not sys.grid.is_uniform()

    def test_roundtrip_bit_identical(self, rng):
        from conftest import random_poly_system
        sys = random_poly_system(rng, steps=50)
        doc = {"n": sys.n, "m": sys.m, "p": sys.p, "tau": sys.tau, "steps": sys.grid.steps}
        for name in ("A", "B", "C"):
            fn = getattr(sys, name)
            doc[name] = {"kind": fn.kind, "data": fn.data.tolist()}
        clone = parse_system(json.dumps(doc))
        for t in sys.grid.nodes:
            assert np.array_equal(sys.A(t), clone.A(t))
            assert np.array_equal(sys.B(t), clone.B(t))
            assert np.array_equal(sys.C(t), clone.C(t))
