import functools
import importlib.util
import inspect
import itertools
import json
import math
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import comparison_holds, evaluate
from conify import oracle
from conify.conic import ConicError, emit
from conify.dsl import parse, print_expr
from conify.oracle import (
    Axis,
    GridResult,
    Infeasible,
    OracleError,
    SearchBox,
    find_elimination,
    grid_minimize,
    grid_minimize_conic,
    sample_feasible,
)
from conify.problem import (
    Call,
    Const,
    Constraint,
    DomainError,
    Param,
    ParamDecl,
    Problem,
    Var,
    _names,
    _veval,
    check_feasible,
)
from conify.reduce import forward_map, reduce_problem

CORPUS = pathlib.Path(__file__).resolve().parents[1] / "corpus"
# scripts/equivalence.py, for its EDGE_CASES: problems at the lattice scans' edges
_spec = importlib.util.spec_from_file_location("equivalence", CORPUS.parent / "scripts" / "equivalence.py")
EQUIVALENCE = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(EQUIVALENCE)
UNIT = {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0}


def mini(constraints, vars="x", objective="x"):
    return parse(
        f"minimization\n!vars {vars}\n!objective {objective}\n!constraints\n{constraints}"
    )


def traced_peak(run) -> int:
    """The most bytes tracemalloc sees held at once while run() runs, above
    what was held before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def forbid_path_search(monkeypatch) -> None:
    """Make np.einsum_path raise, under its public name and under the name
    np.einsum calls it by, a global of the module that defines np.einsum."""

    def no_search(*args, **kwargs):
        raise AssertionError("np.einsum_path called")

    monkeypatch.setattr(np, "einsum_path", no_search)
    monkeypatch.setitem(inspect.unwrap(np.einsum).__globals__, "einsum_path", no_search)


def points(cols):
    """sample_feasible's columns zipped into one dict per point."""
    return [dict(zip(cols, row)) for row in zip(*(c.tolist() for c in cols.values()))]


def _grid_sequential(p, params, box, tol=1e-6, eliminate=None) -> GridResult:
    """Reference for grid_minimize: plain loops and scalar evaluation."""
    elim = None
    if eliminate is not None:
        elim = find_elimination(p, params, None if eliminate == "auto" else eliminate)
    axes = [ax for ax in box.axes if elim is None or ax.name != elim.var]
    names = [ax.name for ax in axes]
    best = None
    feasible = 0
    for combo in itertools.product(*[ax.values().tolist() for ax in axes]):
        point = dict(zip(names, combo))
        if elim is not None:
            acc, coeff = elim.rhs, 0.0
            for j, name in enumerate(p.variables):
                if name == elim.var:
                    coeff = elim.row[j]
                elif elim.row[j] != 0.0:
                    acc -= elim.row[j] * point[name]
            v = float(acc / coeff)
            ax = box.axis(elim.var)
            if not (ax.lo <= v <= ax.hi) or not math.isfinite(v):
                continue
            point[elim.var] = v
        full = {**params, **point}
        held = True
        for i, c in enumerate(p.constraints):
            if elim is not None and i == elim.constraint:
                continue
            try:
                lv = evaluate(c.lhs, full)
                rv = evaluate(c.rhs, full)
            except DomainError:
                held = False
                break
            if not comparison_holds(c.op, lv, rv, tol):
                held = False
                break
        if not held:
            continue
        try:
            val = evaluate(p.objective, full)
        except DomainError:
            continue
        if math.isnan(val):
            continue
        feasible += 1
        if best is None or val < best[0]:
            best = (val, {v: point[v] for v in p.variables})
    if best is None:
        raise Infeasible("no feasible lattice point")
    return GridResult(best[1], best[0], feasible)


class TestAxesAndBoxes:
    def test_lattice_hits_round_values_exactly(self):
        v = Axis("x", 0.0, 2.0, 201).values()
        assert len(v) == 201
        assert v[0] == 0.0 and v[-1] == 2.0
        assert v[100] == 1.0
        assert v[14] == 0.14

    def test_axis_needs_at_least_two_points(self):
        with pytest.raises(Exception):
            Axis("x", 0.0, 1.0, 1)

    def test_axis_nodes_must_be_finite(self):
        # 2 * 1e308 overflows in the node formula, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite"):
                Axis("x", 0.0, 1e308, 3)
            with pytest.raises(ValueError, match="not finite"):
                Axis("x", 0.0, math.inf, 2)
            assert Axis("x", -1e308, 1e308, 2).values().tolist() == [-1e308, 1e308]

    def test_uniform_box(self):
        box = SearchBox.uniform(("x", "y"), -1.0, 1.0, 5)
        assert box.names == ("x", "y")
        assert math.prod(ax.points for ax in box.axes) == 25
        assert box.axis("y").points == 5

    def test_with_axis_and_without(self):
        box = SearchBox.uniform(("x", "y"), -1.0, 1.0, 5)
        narrowed = box.with_axis("y", 0.0, 1.0, 3)
        assert narrowed.axis("y").lo == 0.0
        assert narrowed.axis("x") == box.axis("x")
        assert narrowed.names == ("x", "y")
        assert box.with_axis("z", 0.0, 1.0, 3).names == ("x", "y", "z")

    def test_refined_keeps_old_lattice_points(self):
        old = set(map(float, Axis("x", 0.0, 1.0, 5).values()))
        new = set(map(float, Axis("x", 0.0, 1.0, 9).values()))
        assert old <= new


class TestGridMinimize:
    def test_exact_bound_is_found(self):
        r = grid_minimize(
            mini("1 <= x"), {}, SearchBox.uniform(("x",), 0.0, 2.0, 201), tol=1e-9
        )
        assert r.value == 1.0
        assert r.point == {"x": 1.0}
        assert r.feasible_count == 101

    def test_tie_breaks_to_first_lattice_point(self):
        p = mini("0 <= x, 0 <= y", vars="x y", objective="0 * x")
        r = grid_minimize(p, {}, SearchBox.uniform(("x", "y"), 0.0, 1.0, 3))
        assert r.point == {"x": 0.0, "y": 0.0}

    def test_feasible_count_excludes_domain_errors(self):
        r = grid_minimize(
            mini("0 <= sqrt(x - 1)", objective="x"),
            {},
            SearchBox.uniform(("x",), 0.0, 2.0, 5),
            tol=0.0,
        )
        assert r.feasible_count == 3  # x in {1.0, 1.5, 2.0}
        assert r.value == 1.0

    def test_infeasible_grid_raises(self):
        with pytest.raises(Infeasible):
            grid_minimize(mini("1 <= x"), {}, SearchBox.uniform(("x",), 0.0, 0.5, 11))

    def test_domain_error_everywhere_is_infeasible(self):
        p = mini("1 <= sqrt(x)", objective="x")
        with pytest.raises(Infeasible):
            grid_minimize(p, {}, SearchBox.uniform(("x",), -2.0, -1.0, 11))

    def test_missing_axis_rejected(self):
        p = mini("0 <= x + y", vars="x y")
        with pytest.raises(OracleError, match="y"):
            grid_minimize(p, {}, SearchBox.uniform(("x",), 0.0, 1.0, 3))

    def test_unbound_parameter_rejected(self):
        p = parse(CORPUS.joinpath("chain1.opt").read_text())
        with pytest.raises(Exception, match="no value bound for 'a'"):
            grid_minimize(p, {}, SearchBox.uniform(("x", "y"), 0.0, 1.0, 3))

    def test_axes_of_undeclared_names_are_not_scanned(self):
        p = mini("1 <= x")
        wide = SearchBox.uniform(("x", "z"), 0.0, 2.0, 5)
        r = grid_minimize(p, {}, wide)
        assert r == grid_minimize(p, {}, SearchBox.uniform(("x",), 0.0, 2.0, 5))
        assert r.feasible_count == grid_minimize_conic(emit(p, {}), wide).feasible_count == 3

    def test_refinement_never_worsens_the_minimum(self):
        p = parse(CORPUS.joinpath("exp_budget.opt").read_text())
        coarse = grid_minimize(p, {}, SearchBox.uniform(("x",), 0.0, 3.0, 11))
        fine = grid_minimize(p, {}, SearchBox.uniform(("x",), 0.0, 3.0, 21))
        assert fine.value <= coarse.value


class TestSequentialTwin:
    CASES = [
        ("exp_budget.opt", {}, ("x",), (0.0, 3.0), None),
        ("log_floor.opt", {}, ("x",), (-1.0, 5.0), None),
        ("socp_ball.opt", {}, ("x", "y"), (-3.0, 3.0), None),
        ("chain1.opt", UNIT, ("x", "y"), (-1.0, 4.0), "y"),
    ]

    @pytest.mark.parametrize("name,params,names,rng,eliminate", CASES)
    def test_agrees_with_vectorized(self, name, params, names, rng, eliminate):
        p = parse(CORPUS.joinpath(name).read_text())
        box = SearchBox.uniform(names, rng[0], rng[1], 13)
        fast = grid_minimize(p, params, box, eliminate=eliminate)
        slow = _grid_sequential(p, params, box, eliminate=eliminate)
        assert fast.value == slow.value
        assert fast.point == slow.point
        assert fast.feasible_count == slow.feasible_count

    @pytest.mark.parametrize("method", ["vectorized", "sequential"])
    @pytest.mark.parametrize("name,params,names,rng,eliminate", CASES)
    def test_point_values_are_python_floats(self, name, params, names, rng, eliminate, method):
        p = parse(CORPUS.joinpath(name).read_text())
        box = SearchBox.uniform(names, rng[0], rng[1], 13)
        scan = grid_minimize if method == "vectorized" else _grid_sequential
        point = scan(p, params, box, eliminate=eliminate).point
        assert set(point) == set(p.variables)
        assert all(type(v) is float for v in point.values())

    def test_pow_overflow_agrees(self):
        # (5e199)^3 overflows to inf and (-1e200)^3 to -inf on both paths
        p = mini("x ^ 3 <= 1")
        box = SearchBox.uniform(("x",), -1e200, 1e200, 5)
        fast = grid_minimize(p, {}, box)
        slow = _grid_sequential(p, {}, box)
        assert fast == slow
        assert fast.point == {"x": -1e200} and fast.feasible_count == 3


def chain1_small_box():
    # all five chain1 variables around the unit-parameter optimum; y is
    # eliminated, so its axis only bounds the solved value
    return (
        SearchBox.uniform(("x",), 1.0, 1.8, 9)
        .with_axis("y", -4.0, 2.0, 2)
        .with_axis("t1", 0.6, 1.0, 9)
        .with_axis("t2", 1.0, 1.4, 9)
        .with_axis("t3", 0.6, 1.0, 9)
    )


class TestMultiAxisScan:
    """Four scanned axes, each read by a different set of constraints."""

    def test_constraints_read_different_axes(self, chain1_trace):
        reads = set()
        for c in chain1_trace.final.constraints:
            reads.add(frozenset(_names(c.lhs, c.rhs)[0]))
        assert len(reads) == len(chain1_trace.final.constraints)
        assert set().union(*reads) == {"x", "y", "t1", "t2", "t3"}
        assert all(len(r) <= 2 for r in reads)

    def test_sequential_twin_agrees(self, chain1_trace):
        p, box = chain1_trace.final, chain1_small_box()
        fast = grid_minimize(p, UNIT, box, eliminate="y")
        slow = _grid_sequential(p, UNIT, box, eliminate="y")
        assert fast.point == slow.point
        assert fast.value == slow.value
        assert fast.feasible_count == slow.feasible_count > 0

    def test_conic_scan_agrees_with_tree_scan(self, chain1_trace):
        box = chain1_small_box()
        tree = grid_minimize(chain1_trace.final, UNIT, box, eliminate="y")
        cone = grid_minimize_conic(emit(chain1_trace.final, UNIT), box, eliminate="y")
        assert cone == tree


class TestChunking:
    """Chunk size changes memory, never the answer or its tie-break."""

    TIE = mini("0.5 <= x + z, 0 <= y", vars="x y z", objective="y")
    TIE_BOX = SearchBox.uniform(("x", "y", "z"), -1.0, 1.0, 5)

    def scans(self, chain1_trace):
        tie_cone = emit(self.TIE, {})
        final, box = chain1_trace.final, chain1_small_box()
        cone = emit(final, UNIT)
        return [
            lambda: grid_minimize(self.TIE, {}, self.TIE_BOX),
            lambda: grid_minimize_conic(tie_cone, self.TIE_BOX),
            lambda: grid_minimize(final, UNIT, box, eliminate="y"),
            lambda: grid_minimize_conic(cone, box, eliminate="y"),
        ]

    def test_tie_spans_chunks(self):
        # y = 0 is optimal for every feasible (x, z); the first in C order wins
        r = grid_minimize(self.TIE, {}, self.TIE_BOX)
        assert r.point == {"x": -0.5, "y": 0.0, "z": 1.0}
        assert r.feasible_count == 3 * 10

    # 1 and 7 split the last axis; 50 and 100 are below one leading-axis row
    # of the chain1 box (729 points) and split its third and second axes
    @pytest.mark.parametrize("chunk", [1, 7, 50, 100])
    def test_same_result_for_any_chunk_size(self, chain1_trace, monkeypatch, chunk):
        scans = self.scans(chain1_trace)
        expected = [scan() for scan in scans]
        monkeypatch.setattr(oracle, "CHUNK", chunk)
        assert [scan() for scan in scans] == expected

    def test_lattice_that_fits_is_one_block_by_one_fits_call(self):
        asked = []

        def fits(block):
            asked.append(block)
            return True

        assert list(oracle._chunks((3, 4, 5), fits)) == [((slice(None),) * 3, (3, 4, 5))]
        assert asked == [(3, 4, 5)]

    def test_chunks_stay_bounded_when_one_row_is_too_big(self):
        shape = (3, 2_000_000)
        blocks = list(oracle._chunks(shape, lambda block: math.prod(block) <= oracle.CHUNK))
        for index, block in blocks:
            assert block == tuple(len(range(*sl.indices(n))) for sl, n in zip(index, shape))
        sizes = [math.prod(block) for _, block in blocks]
        assert max(sizes) <= oracle.CHUNK
        assert sum(sizes) == np.prod(shape)


class TestElimination:
    def test_largest_coefficient_wins(self):
        p = mini("2 * x + 3 * y = 6", vars="x y")
        e = find_elimination(p, {})
        assert e.var == "y" and e.rhs == 6.0
        assert np.array_equal(e.row, [2.0, 3.0])

    def test_later_declaration_breaks_ties(self):
        p = mini("x + y = 1", vars="x y")
        assert find_elimination(p, {}).var == "y"

    def test_forced_variable(self):
        p = mini("2 * x + 3 * y = 6", vars="x y")
        assert find_elimination(p, {}, var="x").var == "x"

    def test_no_affine_equality_gives_none(self):
        assert find_elimination(mini("0 <= x"), {}) is None

    def test_solve_recovers_the_bound_variable(self):
        p = mini("2 * x + 3 * y = 6", vars="x y")
        e = find_elimination(p, {})
        assert _veval(e.formula, {"x": 0.0}) == pytest.approx(2.0)
        assert _veval(e.formula, {"x": 3.0}) == pytest.approx(0.0)

    def test_eliminated_equality_holds_on_grid(self, chain1):
        # the eliminated variable keeps its axis: the bounds still filter it
        box = SearchBox.uniform(("x", "y"), -4.0, 4.0, 41)
        r = grid_minimize(chain1, UNIT, box, eliminate="y")
        assert r.point["x"] + r.point["y"] == pytest.approx(1.0, abs=1e-12)

    def test_eliminated_variable_respects_its_bounds(self):
        # maximizing x under x + y = 1 stops where y = 1 - x leaves its box
        p = mini("x + y = 1, 0 <= x", vars="x y", objective="0 - x")
        box = SearchBox.uniform(("x",), 0.0, 4.0, 41).with_axis("y", 0.9, 2.0, 41)
        r = grid_minimize(p, {}, box, eliminate="y")
        assert r.point == {"x": 0.1, "y": 0.9}

    def test_unknown_variable_rejected(self):
        p = parse(CORPUS.joinpath("lp_box.opt").read_text())
        box = SearchBox.uniform(("x", "y"), -2.0, 2.0, 5)
        with pytest.raises(OracleError, match="no variable z to eliminate"):
            grid_minimize(p, {}, box, eliminate="z")
        with pytest.raises(OracleError, match="no variable z to eliminate"):
            grid_minimize_conic(emit(p, {}), box, eliminate="z")

    def test_variable_without_equality_rejected(self):
        # Both scans, by name or "auto", refuse with one message.
        p = mini("0 <= x + y", vars="x y")
        box = SearchBox.uniform(("x", "y"), 0.0, 1.0, 3)
        for eliminate in ("y", "auto"):
            with pytest.raises(OracleError, match="^no affine equality available to eliminate$"):
                grid_minimize(p, {}, box, eliminate=eliminate)
            with pytest.raises(OracleError, match="^no affine equality available to eliminate$"):
                grid_minimize_conic(emit(p, {}), box, eliminate=eliminate)


class TestOneEliminationRule:
    """Both lattice scans choose the solved equality by one rule, and the
    sampler draws the declared variables whatever the box's axis order."""

    TWO = "x + y = 1, z - x = 0, 0 <= x, x <= 1"

    def test_conic_scan_solves_a_later_row(self):
        p = mini(self.TWO, vars="x y z", objective="y + 2 * z")
        box = SearchBox.uniform(("x", "y", "z"), -2.0, 2.0, 41)
        tree = grid_minimize(p, {}, box, eliminate="z")
        cone = grid_minimize_conic(emit(p, {}), box, eliminate="z")
        assert cone == tree
        assert tree.point == {"x": 0.0, "y": 1.0, "z": 0.0} and tree.feasible_count == 11

    @pytest.mark.parametrize(
        "text,vars,boxes",
        [("1 <= x", "x", [("z", "x"), ("x",)]), ("x + y <= 1, 0 <= x", "x y", [("y", "x"), ("x", "y")])],
    )
    def test_sampler_ignores_box_axis_order_and_extra_axes(self, text, vars, boxes):
        p = mini(text, vars=vars)
        first, second = (SearchBox.uniform(names, -1.0, 3.0, 2) for names in boxes)
        for seed in range(4):
            a, b = sample_feasible(p, {}, first, 20, seed=seed), sample_feasible(p, {}, second, 20, seed=seed)
            assert list(a) == list(b) == list(p.variables)
            assert all(np.array_equal(a[v], b[v]) for v in a)


class TestGoldenChainOptimum:
    BOX = SearchBox.uniform(("x",), 0.0, 4.0, 401).with_axis("y", -4.0, 2.0, 401)

    def test_unit_parameters(self, chain1):
        r = grid_minimize(chain1, UNIT, self.BOX, eliminate="y")
        assert r.point["x"] == 1.28
        assert r.point["y"] == pytest.approx(-0.28, abs=1e-12)
        assert r.value == pytest.approx(1.28, abs=1e-12)

    def test_scaled_parameters(self, chain1):
        params = {"a": 2.0, "b": 1.0, "c": 1.0, "d": 3.0}
        r = grid_minimize(chain1, params, self.BOX, eliminate="y")
        assert r.point["x"] == pytest.approx(1.41)
        assert r.value == pytest.approx(1.41)


class TestGoldenScanCounts:
    """Criterion 4's 401 x 51^3 scans: tree and cone scans agree exactly."""

    BOX = SearchBox.uniform(("x",), 0.0, 4.0, 401).with_axis("y", -4.0, 2.0, 401)
    GOLDEN = {
        (1.0, 1.0, 1.0, 1.0): (1.28, -0.28, 4298607),
        (2.0, 1.0, 1.0, 3.0): (1.41, 0.18000000000000016, 3580301),
        (1.0, 2.0, 1.0, 1.0): (0.86, 0.07, 4892835),
    }

    @classmethod
    def reduced_box(cls, chain1_trace, abcd):
        """BOX with 51-point t axes of width 0.5 around the golden point
        mapped forward: 401 x 51^3 points once y is eliminated."""
        gx, gy, _ = cls.GOLDEN[abcd]
        center = forward_map(chain1_trace, {"x": gx, "y": gy, **dict(zip("abcd", abcd))})
        box = cls.BOX
        for t in ("t1", "t2", "t3"):
            box = box.with_axis(t, center[t] - 0.25, center[t] + 0.25, 51)
        return box

    @classmethod
    def scans(cls, chain1, chain1_trace, abcd):
        """Criterion 4's scans at abcd: the original problem over BOX, the
        reduced one as cone data and as expression trees over reduced_box."""
        params, box = dict(zip("abcd", abcd)), cls.reduced_box(chain1_trace, abcd)
        cp = emit(chain1_trace.final, params)
        return [
            lambda: grid_minimize(chain1, params, cls.BOX, eliminate="y"),
            lambda: grid_minimize_conic(cp, box, eliminate="y"),
            lambda: grid_minimize(chain1_trace.final, params, box, eliminate="y"),
        ]

    @pytest.mark.parametrize("abcd", list(GOLDEN))
    def test_feasible_counts(self, chain1_trace, abcd):
        params, box = dict(zip("abcd", abcd)), self.reduced_box(chain1_trace, abcd)
        cone = grid_minimize_conic(emit(chain1_trace.final, params), box, eliminate="y")
        tree = grid_minimize(chain1_trace.final, params, box, eliminate="y")
        assert cone == tree
        assert cone.feasible_count == self.GOLDEN[abcd][2]


class TestPerCellObjective:
    """The scan judges the objective once per cell of the axes it reads.
    Each case agrees with the pointwise twin at any chunk size, and so does
    the conic scan where emit accepts the problem."""

    CASES = {
        # abs(z) ties at z = -0.5 and z = 0.5; the first tying point in C
        # order, (x, z) = (-0.5, 0.5), lies in the later z cell
        "trailing-axis-tie": (
            mini("0.25 <= abs(z), 0 <= x + z", vars="x z", objective="abs(z)"),
            SearchBox.uniform(("x", "z"), -1.0, 1.0, 5),
            False,
        ),
        "middle-axis": (
            mini("1 <= x + y + z, y <= x, 0 <= z", vars="x y z", objective="2 * y"),
            SearchBox((Axis("x", -1.0, 1.0, 5), Axis("y", -1.0, 1.0, 7), Axis("z", 0.0, 1.0, 6))),
            True,
        ),
        # log leaves its domain at x <= 0, where every constraint holds
        "nan-at-feasible-points": (
            mini("0 <= z + 1", vars="x y z", objective="log(x) + z"),
            SearchBox.uniform(("x", "y", "z"), -1.0, 2.0, 7),
            False,
        ),
        "constant": (
            mini("1 <= x + y", vars="x y", objective="2"),
            SearchBox.uniform(("x", "y"), 0.0, 1.0, 5),
            False,
        ),
        "conic-c-zero": (
            mini("1 <= x + y", vars="x y", objective="0 * x"),
            SearchBox.uniform(("x", "y"), 0.0, 1.0, 5),
            True,
        ),
        # 0 * x is -0.0 at x < 0 and 0.0 from x = 0 on.  0 * z takes -0.0 in
        # the first z cells, but the first feasible point, (x, z) = (-1, 1),
        # reads 0.0
        "minus-zero-first": (mini("x <= 1", objective="0 * x"), SearchBox.uniform(("x",), -1.0, 1.0, 5), True),
        "plus-zero-first": (
            mini("0 <= x + z", vars="x z", objective="0 * z"),
            SearchBox.uniform(("x", "z"), -1.0, 1.0, 5),
            True,
        ),
        # (-1e200)^3 and (-5e199)^3 overflow to -inf at every y
        "pow-overflow": (
            mini("0 <= y", vars="x y", objective="x ^ 3"),
            SearchBox.uniform(("x", "y"), -1e200, 1e200, 5),
            False,
        ),
        # ... and here to +inf at every point, which is still a minimum
        "pow-overflow-everywhere": (
            mini("0 <= y", vars="x y", objective="x ^ 3"),
            SearchBox.uniform(("x", "y"), 1e200, 2e200, 3),
            False,
        ),
        # a 0-d False mask: no point is feasible
        "constant-false": (mini("1 <= 0", vars="x y z"), SearchBox.uniform(("x", "y", "z"), -1.0, 1.0, 5), True),
        # no mask reads y, and the objective reads only z
        "objective-on-unread-axis": (
            mini("x <= 1", vars="x y z", objective="z"),
            SearchBox.uniform(("x", "y", "z"), -1.0, 1.0, 5),
            True,
        ),
        # one mask reads every axis; 0 * x is -0.0 at the first feasible point
        "constraint-on-every-axis": (
            mini("x + y + z <= 0", vars="x y z", objective="0 * x"),
            SearchBox.uniform(("x", "y", "z"), -1.0, 1.0, 5),
            True,
        ),
        # the best cell, x = -1, holds no feasible point in its first seven
        # y rows; at CHUNK 50 the first of its two counting blocks holds none
        "hit-before-feasible": (
            mini("0.5 <= y", vars="x y z"),
            SearchBox.uniform(("x", "y", "z"), -1.0, 1.0, 10),
            True,
        ),
    }

    @pytest.mark.parametrize("chunk", [1, 7, 50, None])
    @pytest.mark.parametrize("case", list(CASES))
    def test_agrees_with_pointwise_twin(self, monkeypatch, case, chunk):
        def outcome(scan, *args):
            try:
                return scan(*args)
            except Infeasible:
                return Infeasible

        p, box, conic = self.CASES[case]
        if chunk is not None:
            monkeypatch.setattr(oracle, "CHUNK", chunk)
        slow = outcome(_grid_sequential, p, {}, box)
        fast = outcome(grid_minimize, p, {}, box)
        assert fast == slow
        if slow is not Infeasible:
            assert math.copysign(1.0, fast.value) == math.copysign(1.0, slow.value)
        if conic:
            assert outcome(grid_minimize_conic, emit(p, {}), box) == slow

    def test_cases_reach_their_edges(self):
        def solve(case):
            p, box, _ = self.CASES[case]
            return grid_minimize(p, {}, box)

        assert solve("trailing-axis-tie").point == {"x": -0.5, "z": 0.5}
        assert solve("nan-at-feasible-points").feasible_count == 4 * 7 * 7
        assert math.copysign(1.0, solve("minus-zero-first").value) == -1.0
        assert math.copysign(1.0, solve("plus-zero-first").value) == 1.0
        assert solve("pow-overflow").value == -math.inf
        assert solve("pow-overflow").point == {"x": -1e200, "y": 0.0}
        assert solve("pow-overflow-everywhere") == GridResult({"x": 1e200, "y": 1e200}, math.inf, 9)
        with pytest.raises(Infeasible):
            solve("constant-false")
        assert solve("objective-on-unread-axis") == GridResult({"x": -1.0, "y": -1.0, "z": -1.0}, -1.0, 125)
        assert solve("constraint-on-every-axis").feasible_count == 72
        assert math.copysign(1.0, solve("constraint-on-every-axis").value) == -1.0
        assert solve("hit-before-feasible").point == {"x": -1.0, "y": 5 / 9, "z": -1.0}


class TestCellCounts:
    """_cell_counts agrees with count_nonzero of the masks' broadcast AND,
    reduced per cell."""

    @staticmethod
    def reference(masks, block, cell):
        full = np.ones(block, dtype=bool)
        for m in masks:
            full = full & m
        summed = tuple(d for d in range(len(block)) if cell[d] == 1)
        return np.count_nonzero(full, axis=summed, keepdims=True)

    def check(self, masks, block, cell):
        got = np.broadcast_to(oracle._cell_counts(masks, block, cell), cell)
        assert np.array_equal(got, self.reference(masks, block, cell))

    @staticmethod
    def mask(rng, block, reads):
        """A random mask over the axes in reads, 0-d when it reads none."""
        if not reads:
            return np.bool_(rng.random() < 0.8)
        shape = tuple(n if d in reads else 1 for d, n in enumerate(block))
        return rng.random(shape) < rng.uniform(0.2, 0.9)

    @classmethod
    def random_structures(cls):
        """400 seeded (masks, block, cell) triples."""
        rng = np.random.default_rng(20)
        for _ in range(400):
            n = int(rng.integers(1, 5))
            block = tuple(int(k) for k in rng.integers(1, 6, size=n))
            masks = [
                cls.mask(rng, block, {d for d in range(n) if rng.random() < 0.4})
                for _ in range(rng.integers(0, 5))
            ]
            if rng.random() < 0.3:
                masks.append(cls.mask(rng, block, set(range(n))))
            cell = tuple(k if rng.random() < 0.3 else 1 for k in block)
            yield masks, block, cell

    def test_random_structures(self):
        for masks, block, cell in self.random_structures():
            self.check(masks, block, cell)

    # One structure per charge class of _plan, with the step that shows it:
    # (block, the axes each mask reads, cell, first step's subscripts, matmul)
    CHARGE_CLASSES = [
        # a plain product runs as matmul on views: the right factor
        # transposed, its summed axis last
        ((2, 6, 7, 8), [{1, 3}, {2, 3}], (1, 6, 7, 1), "bd,cd->bc", True),
        # neither transposed, once the factor that keeps a is put first
        ((6, 7, 2, 8), [{1, 3}, {0, 1}], (6, 1, 1, 8), "ab,bd->ad", True),
        # the left factor transposed, its summed axis first.  The right one
        # keeps the later output axis, so both are never transposed at once
        ((6, 7, 8), [{0, 1}, {0, 2}], (1, 7, 8), "ab,ac->bc", True),
        # a batched product is a loop over operands that broadcast
        ((2, 2, 2, 2, 3), [{0, 1, 2, 3}, {1, 3, 4}], (2, 2, 2, 1, 3), "abcd,bde->abce", False),
        # and so is a product whose matrix form would fuse a and c
        ((5, 7, 5, 5), [{0, 1, 2}, {1, 3}], (5, 1, 5, 5), "abc,bd->acd", False),
        # a loop over operands that read the same axes needs no buffers
        ((9, 2, 10), [{0, 2}, {0, 2}], (9, 1, 1), "ac,ac->a", False),
        # a loop over operands that broadcast fills np.getbufsize() buffers
        ((9, 9, 10), [{2}, {0, 1}, set(), {2}], (9, 9, 10), "c,ab,,c,->abc", False),
    ]

    def test_plan_peak_bounds_every_array_built(self):
        # tracemalloc sees every array _cell_counts builds, np.einsum's
        # copies, intermediates and buffers included.  Each structure grows
        # 7-fold along every axis longer than one point, so that its arrays
        # outweigh the interpreter's own objects (parsed subscripts, lists,
        # array headers): a few KiB that do not grow with the block, allowed
        # for on top of _plan's peak.
        def longer(shape):
            return tuple(7 * k if k > 1 else 1 for k in shape)

        def grown(mask):
            for d, k in enumerate(np.shape(mask)):
                if k > 1:
                    mask = np.repeat(mask, 7, axis=d)
            return mask

        rng = np.random.default_rng(4)
        classes = []
        for block, reads, cell, subscripts, matmul in self.CHARGE_CLASSES:
            masks = [self.mask(rng, block, r) for r in reads]
            step = oracle._plan(tuple(np.shape(m) for m in masks), block, cell).steps[0]
            assert step[1:3] == (subscripts, matmul)
            self.check(masks, block, cell)
            classes.append((masks, block, cell))
        large = 0
        for masks, block, cell in [*self.random_structures(), *classes]:
            masks, block, cell = [grown(m) for m in masks], longer(block), longer(cell)
            planned = oracle._plan(tuple(np.shape(m) for m in masks), block, cell).peak
            oracle._cell_counts(masks, block, cell)  # fills numpy's caches
            assert traced_peak(lambda: oracle._cell_counts(masks, block, cell)) <= planned + 8192
            large += planned > 8 * 8192
        assert large >= 60

    BLOCK = (3, 1, 4, 5)

    @pytest.mark.parametrize(
        "reads",
        [
            [],  # no mask at all
            [set()],  # a 0-d mask
            [{0, 2}, {2}],  # no mask reads axis 3
            [{0, 1, 2, 3}],  # one mask reads every axis
            [{0, 1, 2, 3}, {3}, set()],
            [{0, 2}, {2, 3}, {3, 0}],  # a cycle through three axes
        ],
    )
    @pytest.mark.parametrize("cell", [(1, 1, 1, 1), (3, 1, 1, 1), (1, 1, 4, 5), (3, 1, 4, 5)])
    def test_structures(self, reads, cell):
        rng = np.random.default_rng(len(reads))
        self.check([self.mask(rng, self.BLOCK, r) for r in reads], self.BLOCK, cell)

    def test_smallest_bucket_goes_first(self):
        # axis 0 meets every other axis in a mask and the cells read axis 3:
        # summing axis 0 out first would build a block-sized product, summing
        # axes 1 and 2 out first never does
        block = (7, 51, 51, 51)
        rng = np.random.default_rng(3)
        masks = [self.mask(rng, block, {0, d}) for d in (1, 2, 3)]
        cell = (1, 1, 1, 51)
        assert traced_peak(lambda: oracle._cell_counts(masks, block, cell)) < math.prod(block) / 20
        self.check(masks, block, cell)

    def test_three_factor_bucket_is_one_loop(self, monkeypatch):
        # ab,bc,b->ac holds the matrix product ab,bc->ac, but a bucket of
        # three factors is one np.einsum loop, planned with no path search
        forbid_path_search(monkeypatch)
        block, cell = (5, 6, 7), (5, 1, 7)
        rng = np.random.default_rng(5)
        masks = [self.mask(rng, block, r) for r in ({0, 1}, {1, 2}, {1})]
        plan = oracle._plan.__wrapped__(tuple(np.shape(m) for m in masks), block, cell)
        assert plan.steps == (((0, 1, 2), "ab,bc,b->ac", False, cell), ((0, 1), ",ac->ac", False, cell))
        self.check(masks, block, cell)

    def test_plain_products_in_int64_counts(self, monkeypatch):
        # _count_type forced to int64, as past 2**53 points: matmul then
        # multiplies integer counts, exactly and within _plan's peak
        monkeypatch.setattr(oracle, "_count_type", lambda block: np.dtype(np.int64))
        oracle._plan.cache_clear()
        try:
            rng = np.random.default_rng(6)
            for block, reads, cell, subscripts, _ in [c for c in self.CHARGE_CLASSES if c[-1]]:
                block, cell = tuple(7 * k if k > 1 else 1 for k in block), tuple(7 * k if k > 1 else 1 for k in cell)
                masks = [self.mask(rng, block, r) for r in reads]
                plan = oracle._plan(tuple(np.shape(m) for m in masks), block, cell)
                assert plan.steps[0][1:3] == (subscripts, True)
                assert oracle._cell_counts(masks, block, cell).dtype == np.int64
                self.check(masks, block, cell)
                assert traced_peak(lambda: oracle._cell_counts(masks, block, cell)) <= plan.peak + 8192
        finally:
            oracle._plan.cache_clear()

    def test_scans_never_search_an_einsum_path(self, monkeypatch, chain1, chain1_trace):
        # a step is matmul or one np.einsum loop, and neither plans a path;
        # criterion 4's scans and the random structures run both kinds
        kinds, plan = set(), oracle._plan

        def recorded(*args):
            got = plan(*args)
            kinds.update(matmul for _, _, matmul, _ in got.steps)
            return got

        forbid_path_search(monkeypatch)
        monkeypatch.setattr(oracle, "_plan", recorded)
        for abcd in TestGoldenScanCounts.GOLDEN:
            for scan in TestGoldenScanCounts.scans(chain1, chain1_trace, abcd):
                scan()
        assert kinds == {True, False}
        for masks, block, cell in self.random_structures():
            self.check(masks, block, cell)

    @pytest.mark.parametrize("value", [True, False])
    def test_zero_d_masks_multiply_through(self, value):
        masks = [np.bool_(value), np.ones((3, 1, 1, 5), dtype=bool)]
        got = np.broadcast_to(oracle._cell_counts(masks, self.BLOCK, (3, 1, 1, 1)), (3, 1, 1, 1))
        assert got.tolist() == [[[[20 * value]]]] * 3


class TestFirstAt:
    """_first_at finds the argmax of the masks' broadcast AND with obj ==
    low, and the objective there, sign of zero included."""

    # few values, so cells tie; both zeros; nan, which no low equals
    VALUES = np.array([-1.0, -0.0, 0.0, 1.0, math.nan])

    def test_random_structures(self, monkeypatch):
        # cells as _scan_grid builds them; _first_at counts only the axes
        # past the leading ones the objective reads
        rng = np.random.default_rng(21)
        seen, calls, count = set(), [], oracle._cell_counts

        def counted(*args):
            calls.append(None)
            return count(*args)

        monkeypatch.setattr(oracle, "_cell_counts", counted)
        for masks, block, _ in TestCellCounts.random_structures():
            obj = rng.choice(self.VALUES, size=tuple(k if rng.random() < 0.5 else 1 for k in block))
            meet = np.broadcast_to(functools.reduce(np.logical_and, masks, np.True_), block)
            full = np.broadcast_to(obj, block)
            feasible = meet & ~np.isnan(full)
            if not feasible.any():
                continue
            low = np.min(full[feasible])
            first = int(np.argmax(meet & (full == low)))
            cells = np.broadcast_to(count([*masks, ~np.isnan(obj)], block, obj.shape), obj.shape)
            calls.clear()
            index, value = oracle._first_at(masks, obj, low, block, cells)
            assert (index, value) == (first, full.flat[first])
            lead = oracle._leading(obj.shape, block)
            assert len(calls) == len(block) - lead
            assert math.copysign(1.0, value) == math.copysign(1.0, full.flat[first])
            at_low = feasible & (full == low)
            ties = at_low.any(axis=tuple(d for d, k in enumerate(obj.shape) if k == 1), keepdims=True)
            cell = tuple(i if k > 1 else 0 for i, k in zip(np.unravel_index(first, block), obj.shape))
            zeros = np.signbit(full[at_low]) if low == 0 else np.array([True])
            seen.update(
                edge
                for edge, hit in [
                    ("0-d mask", any(np.ndim(m) == 0 for m in masks)),
                    ("objective reads no axis", obj.size == 1 < math.prod(block)),
                    ("nan", np.isnan(obj).any()),
                    ("both zeros", zeros.any() and not zeros.all()),
                    ("tie across cells", np.count_nonzero(ties) > 1),
                    ("first tie in a later cell", np.ravel_multi_index(cell, obj.shape) != np.argmax(ties)),
                    ("objective reads a leading run of axes", obj.shape[0] > 1 and lead < len(block)),
                    ("objective reads every axis, no count", obj.size > 1 and lead == len(block)),
                    ("objective reads a later axis, not axis 0", obj.shape[0] == 1 < block[0] and obj.size > 1),
                ]
                if hit
            )
        assert len(seen) == 9


class TestScanMemory:
    """The masks never meet over a block: a criterion-4 scan's traced peak
    stays below half a byte per CHUNK point, and in blocks of more than
    CHUNK points every count keeps to the one budget of CHUNK // 2 bytes
    its block was planned for."""

    @pytest.mark.parametrize("abcd", list(TestGoldenScanCounts.GOLDEN))
    def test_peak_below_half_a_byte_per_chunk_point(self, chain1, chain1_trace, abcd):
        for scan in TestGoldenScanCounts.scans(chain1, chain1_trace, abcd):
            assert traced_peak(scan) < 0.5 * oracle.CHUNK

    def test_planned_peaks_keep_to_the_budget(self, monkeypatch, chain1, chain1_trace):
        # _plan's peak for every _cell_counts call in a block of more than
        # CHUNK points, the block's own count and each of _first_at's
        # per-axis counts alike, with the CHUNK it ran at and whether
        # _first_at made it
        searching, planned = [], []
        count, first_at, chunk = oracle._cell_counts, oracle._first_at, oracle.CHUNK

        def counted(masks, block, cell):
            if math.prod(searching[-1] if searching else block) > oracle.CHUNK:
                peak = oracle._plan(tuple(np.shape(m) for m in masks), block, cell).peak
                planned.append((oracle.CHUNK, bool(searching), peak))
            return count(masks, block, cell)

        def searched(masks, obj, low, block, cells):
            searching.append(block)
            try:
                return first_at(masks, obj, low, block, cells)
            finally:
                searching.pop()

        monkeypatch.setattr(oracle, "_cell_counts", counted)
        monkeypatch.setattr(oracle, "_first_at", searched)
        for abcd in TestGoldenScanCounts.GOLDEN:
            for scan in TestGoldenScanCounts.scans(chain1, chain1_trace, abcd):
                scan()
        # At 8 bytes a count, the least count of a block, a 0-d one, takes
        # 48 bytes with its copy, scale and buffers: more than CHUNK 50's
        # budget of 25, so small lattices are scanned at CHUNK 128
        monkeypatch.setattr(oracle, "CHUNK", 128)
        cases = [
            (mini(constraints, vars=names, objective=objective), SearchBox.uniform(names.split(), lo, hi, points))
            for _, names, constraints, objective, (lo, hi), points, _ in EQUIVALENCE.EDGE_CASES
        ]
        # here the search along x, not the block's own count, limits blocks
        # to one x-row of 144 points; the count alone would allow two
        xyz = (Axis("x", -1.0, 1.0, 10), Axis("y", -1.0, 1.0, 12), Axis("z", -1.0, 1.0, 12))
        cases.append((mini("x <= 0", vars="x y z", objective="0"), SearchBox(xyz)))
        for p, box in cases:
            for scan in (lambda: grid_minimize(p, {}, box), lambda: grid_minimize_conic(emit(p, {}), box)):
                try:
                    scan()
                except (Infeasible, ConicError):
                    pass
        assert {(at, search) for at, search, _ in planned} == {(chunk, False), (chunk, True), (128, False), (128, True)}
        assert all(peak <= at // 2 for at, _, peak in planned)


def evaluations(monkeypatch, scan, seen=None) -> int:
    """How many times scan() calls the mask_and_obj it hands _scan_grid, its
    last argument.  seen, if given, is called with _scan_grid's arguments
    and with each evaluation's env and result."""
    calls = []
    inner = oracle._scan_grid

    def counting(*args):
        *rest, mask_and_obj = args

        def counted(env):
            calls.append(None)
            got = mask_and_obj(env)
            if seen is not None:
                seen(args, env, got)
            return got

        return inner(*rest, counted)

    with monkeypatch.context() as m:
        m.setattr(oracle, "_scan_grid", counting)
        scan()
    return len(calls)


class TestCountingBlocks:
    """A lattice of more than CHUNK points is counted in blocks sized by the
    arrays their counts build: the block's own and _first_at's per axis."""

    def test_criterion_4_scan_evaluates_once(self, monkeypatch, chain1_trace):
        # the whole 401 x 51^3 lattice is one block
        box = TestGoldenScanCounts.reduced_box(chain1_trace, (1.0, 1.0, 1.0, 1.0))
        final, cp = chain1_trace.final, emit(chain1_trace.final, UNIT)
        assert evaluations(monkeypatch, lambda: grid_minimize(final, UNIT, box, eliminate="y")) == 1
        assert evaluations(monkeypatch, lambda: grid_minimize_conic(cp, box, eliminate="y")) == 1

    @pytest.mark.parametrize("abcd", list(TestGoldenScanCounts.GOLDEN))
    def test_criterion_4_scans_count_once_per_axis_left(self, monkeypatch, chain1, chain1_trace, abcd):
        # the block's own count, then _first_at's along every axis but the
        # leading one the objective reads: none on the original scan's one
        # x axis, one per t axis on the cone and tree scans
        calls, count = [], oracle._cell_counts

        def counted(*args):
            calls.append(None)
            return count(*args)

        monkeypatch.setattr(oracle, "_cell_counts", counted)
        per_scan = []
        for scan in TestGoldenScanCounts.scans(chain1, chain1_trace, abcd):
            calls.clear()
            scan()
            per_scan.append(len(calls))
        assert per_scan == [1, 4, 4]

    def test_criterion_4_block_keeps_to_its_plan(self, monkeypatch, chain1_trace):
        # the block's own count, on the masks the tree scan builds: planned
        # within CHUNK // 2 bytes, and traced within that plan
        box = TestGoldenScanCounts.reduced_box(chain1_trace, (1.0, 1.0, 1.0, 1.0))
        counts, count = [], oracle._cell_counts

        def recorded(masks, block, cell):
            counts.append((masks, block, cell))
            return count(masks, block, cell)

        monkeypatch.setattr(oracle, "_cell_counts", recorded)
        grid_minimize(chain1_trace.final, UNIT, box, eliminate="y")
        masks, block, cell = counts[0]
        assert block == (401, 51, 51, 51)
        planned = oracle._plan(tuple(np.shape(m) for m in masks), block, cell).peak
        assert planned <= oracle.CHUNK // 2
        assert traced_peak(lambda: count(masks, block, cell)) <= planned + 8192

    def test_small_lattice_is_one_block(self, monkeypatch, chain1):
        box = TestGoldenScanCounts.BOX
        assert evaluations(monkeypatch, lambda: grid_minimize(chain1, UNIT, box, eliminate="y")) == 1

    def test_hit_before_feasible_scans_fifty_point_blocks(self, monkeypatch):
        # 20 blocks of 5 y-rows by 10 z-nodes (50 points):
        # the y mask's 8-byte count copy alone outgrows CHUNK // 2 = 25
        # bytes, so no block of more than CHUNK points fits.  The first
        # block, x = -1 and y up to -1/9, counts no feasible point; the
        # second one's search fixes x = -1, then y = 5/9, then z = -1
        p, box, _ = TestPerCellObjective.CASES["hit-before-feasible"]
        monkeypatch.setattr(oracle, "CHUNK", 50)
        assert evaluations(monkeypatch, lambda: grid_minimize(p, {}, box)) == 20
        assert grid_minimize(p, {}, box).point == {"x": -1.0, "y": 5 / 9, "z": -1.0}

    def test_counts_past_int32_are_exact(self):
        # 50**6 points, one mask per axis and an objective that reads none:
        # the one cell counts more than 2**31 feasible points.  The first
        # feasible point lies among the first four nodes of each axis.
        p = mini(
            "x1 <= 44, x2 <= 44, 2 <= x3, x4 <= 44, x5 <= 47, 1 <= x6",
            vars="x1 x2 x3 x4 x5 x6",
            objective="0",
        )
        box = SearchBox.uniform(p.variables, 0.0, 49.0, 50)
        slow = _grid_sequential(p, {}, SearchBox.uniform(p.variables, 0.0, 3.0, 4))
        for fast in (grid_minimize(p, {}, box), grid_minimize_conic(emit(p, {}), box)):
            assert fast.feasible_count == 45 * 45 * 48 * 45 * 48 * 49 > 2**31
            assert (fast.point, fast.value) == (slow.point, slow.value)

    def test_counts_past_2_53_are_exact(self, monkeypatch):
        # 50**10 points, one mask per axis and an objective that reads none:
        # the whole lattice is one block, counted in int64, and its one cell
        # counts 45**10 > 2**53 feasible points.  Each axis's first feasible
        # node is 0 for x <= 44 and 5 for 5 <= x.
        names = [f"x{i}" for i in range(10)]
        p = mini(", ".join(f"{v} <= 44" if i % 2 else f"5 <= {v}" for i, v in enumerate(names)), " ".join(names), "0")
        box = SearchBox.uniform(names, 0.0, 49.0, 50)
        first = {v: 0.0 if i % 2 else 5.0 for i, v in enumerate(names)}
        for scan in (lambda: grid_minimize(p, {}, box), lambda: grid_minimize_conic(emit(p, {}), box)):
            assert evaluations(monkeypatch, scan) == 1
            fast = scan()
            assert fast.feasible_count == 45**10 > 2**53
            assert (fast.point, fast.value) == (first, 0.0)

    def test_lattice_past_int64_raises_before_evaluating(self, monkeypatch):
        # 2001**6 points: more than the int64 counts and flat indices hold
        p = mini("x >= 0", vars="x a b c d e")
        box = SearchBox.uniform(p.variables, -5.0, 5.0, 2001)
        message = f"^the lattice has {2001**6} points; a scan counts at most 2\\*\\*63 - 1$"
        for scan in (lambda: grid_minimize(p, {}, box), lambda: grid_minimize_conic(emit(p, {}), box)):
            assert evaluations(monkeypatch, lambda: pytest.raises(OracleError, scan).match(message)) == 0


class TestReadSets:
    """The read sets the scans state, closed through the solved formula,
    are the axes each mask and the objective come out shaped over."""

    @staticmethod
    def check(args, env, got):
        full, variables, elim, _, reads, _ = args
        axes = [full.axis(v) for v in oracle._free(variables, elim)]
        block = tuple(np.size(env[ax.name]) for ax in axes)
        masks, obj = got
        flags = oracle._read_axes(reads, axes, elim)
        assert len(flags) == len(masks) + 1
        for a, read in zip([*masks, obj], flags):
            # a 0-d mask or objective reads no axis
            assert (np.shape(a) or (1,) * len(block)) == tuple(k if r else 1 for k, r in zip(block, read))

    def scans(self, p, params, box):
        for eliminate in (None, "auto"):
            yield lambda: grid_minimize(p, params, box, eliminate=eliminate)
            yield lambda: grid_minimize_conic(emit(p, params), box, eliminate=eliminate)

    def test_corpus(self, monkeypatch, manifest):
        checked = []
        for name, meta in manifest.items():
            p = parse(CORPUS.joinpath(name).read_text())
            params = {d.name: 1.0 for d in p.params}
            forms = [p] + ([reduce_problem(p).final] if meta["canonizable"] else [])
            for q in forms:
                bounds = meta.get("boxes") or {}
                box = SearchBox(tuple(Axis(v, *bounds.get(v, (-5.0, 5.0)), 5) for v in q.variables))
                for scan in self.scans(q, params, box):
                    try:
                        checked.append(evaluations(monkeypatch, scan, self.check))
                    except (OracleError, ConicError):
                        pass
        assert sum(checked) > 40

    @pytest.mark.parametrize("case", list(TestPerCellObjective.CASES))
    def test_per_cell_cases_in_small_blocks(self, monkeypatch, case):
        p, box, _ = TestPerCellObjective.CASES[case]
        monkeypatch.setattr(oracle, "CHUNK", 50)
        for scan in self.scans(p, {}, box):
            try:
                evaluations(monkeypatch, scan, self.check)
            except (OracleError, ConicError):
                pass


class TestConicGrid:
    def test_matches_original_problem_on_lp(self):
        p = parse(CORPUS.joinpath("lp_box.opt").read_text())
        cp = emit(p, {})
        box = SearchBox.uniform(("x", "y"), -2.0, 2.0, 41)
        direct = grid_minimize(p, {}, box, eliminate="y")
        conic = grid_minimize_conic(cp, box, eliminate="y")
        assert conic.value == direct.value
        assert conic.point == direct.point

    def test_matches_on_cone_blocks(self):
        p = parse(CORPUS.joinpath("socp_ball.opt").read_text())
        tr = reduce_problem(p)
        cp = emit(tr.final, {})
        box = (
            SearchBox.uniform(("x", "y"), -3.0, 3.0, 31)
            .with_axis("t1", 0.0, 5.0, 31)
            .with_axis("t2", 0.0, 5.0, 31)
        )
        conic = grid_minimize_conic(cp, box)
        direct = grid_minimize(p, {}, SearchBox.uniform(("x", "y"), -3.0, 3.0, 31))
        assert conic.value == direct.value

    def test_missing_axis_rejected(self):
        p = parse(CORPUS.joinpath("lp_box.opt").read_text())
        cp = emit(p, {})
        with pytest.raises(OracleError):
            grid_minimize_conic(cp, SearchBox.uniform(("x",), -2.0, 2.0, 5))

    # Each of scripts/equivalence.py's CONIC_CASES, rows emit never writes,
    # at each of its eliminate settings: (point, value, feasible count) or
    # the error, as grid_minimize_conic gave them before it scanned its rows
    # as expressions
    PINNED = {
        ("all-zero row before the solvable one", None): ({"x": 1.0, "y": 0.0}, 1.0, 3),
        ("all-zero row before the solvable one", "auto"): ({"x": 1.0, "y": 0.0}, 1.0, 3),
        ("all-zero row before the solvable one", "y"): ({"x": 1.0, "y": 0.0}, 1.0, 3),
        ("-0.0 coefficients", None): ({"x": 0.0, "y": 0.5}, 0.5, 3),
        ("-0.0 coefficients", "auto"): ({"x": 0.0, "y": 0.5}, 0.5, 3),
        ("-0.0 coefficients", "x"): (OracleError, "no affine equality available to eliminate"),
        ("-0.0 coefficients", "y"): ({"x": 0.0, "y": 0.5}, 0.5, 3),
        ("all-zero c", None): ({"x": 0.5, "y": 0.5}, 0.0, 4),
        ("all-zero c", "auto"): (OracleError, "no affine equality available to eliminate"),
        ("cone rows that read no variable", None): ({"x": -1.0, "y": -0.5, "z": -1.0}, -1.5, 20),
        ("cone rows that read no variable", "auto"): ({"x": -1.0, "y": -0.5, "z": -1.0}, -1.5, 20),
        ("a cone row false everywhere", None): (Infeasible, "no feasible lattice point"),
        ("a variable only a later row holds", None): ({"x": 0.0, "y": 1.0, "z": -0.5}, 0.5, 5),
        ("a variable only a later row holds", "auto"): ({"x": 0.0, "y": 1.0, "z": -0.5}, 0.5, 5),
        ("a variable only a later row holds", "z"): ({"x": 0.0, "y": 1.0, "z": -0.5}, 0.5, 5),
    }

    def test_pins_every_case(self):
        cases = {(case[0], eliminate) for case in EQUIVALENCE.CONIC_CASES for eliminate in case[-1]}
        assert cases == set(self.PINNED)

    @pytest.mark.parametrize("label,eliminate", list(PINNED))
    def test_rows_emit_never_writes(self, label, eliminate):
        names, c, equalities, cones, (lo, hi), n, _ = next(k[1:] for k in EQUIVALENCE.CONIC_CASES if k[0] == label)
        cp = EQUIVALENCE.conic_problem(names, c, equalities, cones)
        box = SearchBox.uniform(cp.variables, lo, hi, n)
        want = self.PINNED[label, eliminate]
        if isinstance(want[0], type):
            with pytest.raises(want[0], match=f"^{want[1]}$"):
                grid_minimize_conic(cp, box, eliminate=eliminate)
            return
        got = grid_minimize_conic(cp, box, eliminate=eliminate)
        assert (got.point, got.value, got.feasible_count) == want
        assert math.copysign(1.0, got.value) == math.copysign(1.0, want[1])


class TestSampleFeasible:
    def test_returns_requested_count_of_feasible_points(self, chain1):
        pts = points(sample_feasible(chain1, UNIT, (-5.0, 5.0), 50))
        assert len(pts) == 50
        for pt in pts:
            assert set(pt) == {"x", "y"}
            assert pt["x"] + pt["y"] == pytest.approx(1.0, abs=1e-9)
            assert check_feasible(chain1, {**pt, **UNIT}, tol=1e-9).feasible

    def test_deterministic_for_a_seed(self, chain1):
        a = points(sample_feasible(chain1, UNIT, (-5.0, 5.0), 10, seed=4))
        b = points(sample_feasible(chain1, UNIT, (-5.0, 5.0), 10, seed=4))
        c = points(sample_feasible(chain1, UNIT, (-5.0, 5.0), 10, seed=5))
        assert a == b
        assert a != c

    def test_strict_inequalities_hold_strictly(self):
        p = parse(CORPUS.joinpath("log_floor.opt").read_text())
        assert (sample_feasible(p, {}, (0.0, 10.0), 30)["x"] > 0.0).all()

    def test_second_equality_rejected_at_zero_tolerance(self):
        p = mini("x = 1, y = 2", vars="x y")
        with pytest.raises(OracleError, match="beyond the first affine one cannot be sampled exactly; reformulate$"):
            sample_feasible(p, {}, (-5.0, 5.0), 5)

    def test_hopeless_region_raises_infeasible(self):
        p = mini("x <= -10")
        with pytest.raises(Infeasible):
            sample_feasible(p, {}, (0.0, 5.0), 5)

    @pytest.mark.parametrize("n", [0, -1])
    def test_sample_count_below_one_raises_before_any_draw(self, monkeypatch, n):
        def no_draws(*args, **kwargs):
            raise AssertionError("a batch was drawn")

        monkeypatch.setattr(oracle, "_draws", no_draws)
        with pytest.raises(OracleError, match=f"n={n}"):
            sample_feasible(mini("0 <= x"), {}, (0.0, 5.0), n)

    @pytest.mark.parametrize("case", ["chain1-final", "pinned", "socp_ball"])
    def test_points_match_pointwise_construction(self, case, chain1_trace):
        if case == "chain1-final":
            p, params = chain1_trace.final, UNIT
        elif case == "pinned":
            # x = 0.5 solves to a scalar, not an array.
            p, params = mini("x = 0.5, y <= x", vars="x y"), {}
        else:
            p, params = parse(CORPUS.joinpath("socp_ball.opt").read_text()), {}
        for seed, n in [(0, 1), (1, 37), (2, 300), (3, 1000)]:
            cols = sample_feasible(p, params, (-5.0, 5.0), n, seed=seed)
            assert list(cols) == list(p.variables)
            assert all(c.dtype == np.float64 and c.shape == (n,) for c in cols.values())
            assert points(cols) == _sample_pointwise(p, params, (-5.0, 5.0), n, seed=seed)


def _splitmix64(seed, i):
    """Draw i of SplitMix64 seeded with seed, written with Python ints mod
    2**64: the published mix of state + (i+1) * gamma, kept to its top 53
    bits and scaled into [0, 1)."""
    m = 1 << 64
    z = (seed + (i + 1) * 0x9E3779B97F4A7C15) % m
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % m
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % m
    return ((z ^ (z >> 31)) >> 11) * 2.0**-53


class TestDraws:
    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, -1, 2**64 + 5])
    def test_matches_scalar_splitmix64(self, seed):
        got = oracle._draws(seed, 0, 50)
        assert got.dtype == np.float64 and got.shape == (50,)
        assert got.tolist() == [_splitmix64(seed, i) for i in range(50)]
        assert oracle._draws(seed, 10**6, 5).tolist() == [_splitmix64(seed, 10**6 + i) for i in range(5)]

    def test_published_first_output(self):
        # SplitMix64 seeded with 0 first returns 0xE220A8397B1DCDAF.
        assert oracle._draws(0, 0, 1)[0] == (0xE220A8397B1DCDAF >> 11) * 2.0**-53

    @pytest.mark.parametrize("a, b", [(0, 7), (1, 1), (256, 1000), (4097, 0)])
    def test_a_stretch_continues_the_stream(self, a, b):
        whole = oracle._draws(3, 0, a + b)
        assert whole.tolist() == np.concatenate([oracle._draws(3, 0, a), oracle._draws(3, a, b)]).tolist()

    def test_uniform_by_chi_squared(self):
        u = oracle._draws(0, 0, 100_000)
        assert ((0.0 <= u) & (u < 1.0)).all()
        counts = np.bincount((u * 64).astype(int), minlength=64)
        chi2 = float(((counts - 100_000 / 64) ** 2).sum() / (100_000 / 64))
        # 63 degrees of freedom: P(chi2 > 103.44) = 0.001 for a uniform stream.
        assert chi2 < 103.44

    def test_seeds_0_and_1_share_no_draw(self):
        assert np.intersect1d(oracle._draws(0, 0, 100_000), oracle._draws(1, 0, 100_000)).size == 0


# --- the tightened sampling box -------------------------------------------------


def _plain_rejection(p, params, box, cols):
    """The sampler's acceptance test on candidates from the untightened box:
    (env, mask) with every variable's column broadcast to the candidates."""
    elim = find_elimination(p, params)
    size = len(next(iter(cols.values())))
    env = dict(cols)
    mask = np.ones(size, dtype=bool)
    with np.errstate(all="ignore"):
        if elim is not None:
            # the solved-equality formula, written out again
            acc, coeff = elim.rhs, 0.0
            for j, name in enumerate(p.variables):
                if name == elim.var:
                    coeff = elim.row[j]
                elif elim.row[j] != 0.0:
                    acc = acc - elim.row[j] * env[name]
            v = np.broadcast_to(acc / coeff, (size,))
            env[elim.var] = v
            mask &= (v >= box[0]) & (v <= box[1]) & np.isfinite(v)
        env.update(params)
        for i, c in enumerate(p.constraints):
            if elim is None or i != elim.constraint:
                lv, rv = oracle._veval(c.lhs, env), oracle._veval(c.rhs, env)
                mask &= oracle._mask_ok(c.op, lv, rv, 0.0)
    return env, mask


def _sample_pointwise(p, params, box, n, seed=0):
    """sample_feasible's draws with each accepted point built on its own,
    as the reference for its column-wise construction."""
    elim = find_elimination(p, params)
    full = SearchBox.uniform(p.variables, box[0], box[1], 2)
    bounds = oracle._tighten(p, params, full, elim)
    free = [v for v in p.variables if elim is None or v != elim.var]
    batch = max(256, min(8192, 8 * n))
    out, start = [], 0
    while len(out) < n:
        # one call per batch: row k of the (axes, batch) draws is free axis k's
        u = oracle._draws(seed, start, len(free) * batch).reshape(len(free), batch)
        start += len(free) * batch
        draws = {v: bounds[v][0] + (bounds[v][1] - bounds[v][0]) * u[k] for k, v in enumerate(free)}
        env, mask = _plain_rejection(p, params, box, draws)
        for k in np.flatnonzero(mask)[: n - len(out)]:
            out.append({v: float(env[v][k]) for v in p.variables})
    return out


def _candidates(p, params, box, n, res, seed=0):
    """n uniform draws plus a res-point-per-axis lattice (which hits the box
    faces and round values exactly) over the free axes."""
    elim = find_elimination(p, params)
    free = [v for v in p.variables if elim is None or v != elim.var]
    rng = np.random.default_rng(seed)
    grid = np.meshgrid(*[np.linspace(box[0], box[1], res)] * len(free), indexing="ij")
    return {
        v: np.concatenate([rng.uniform(box[0], box[1], n), g.ravel()])
        for v, g in zip(free, grid)
    }


def _assert_inside(p, params, box, cols):
    """Every candidate plain rejection accepts lies in the tightened box;
    returns how many were accepted."""
    full = SearchBox.uniform(p.variables, box[0], box[1], 2)
    env, mask = _plain_rejection(p, params, box, cols)
    try:
        bounds = oracle._tighten(p, params, full, find_elimination(p, params))
    except Infeasible:
        assert not mask.any()
        return 0
    for v in p.variables:
        lo, hi = bounds[v]
        assert box[0] <= lo <= hi <= box[1]
        inside = (env[v] >= lo) & (env[v] <= hi)
        assert inside[mask].all(), (v, (lo, hi), env[v][mask & ~inside][:5])
    return int(mask.sum())


def _corpus_cases():
    manifest = json.loads(CORPUS.joinpath("manifest.json").read_text())
    for name in sorted(manifest):
        if manifest[name]["canonizable"]:
            for which in ("original", "final"):
                yield pytest.param(name, manifest[name].get("params", {}), which, id=f"{name}-{which}")


_small_leaves = st.one_of(
    st.sampled_from([Var("x"), Var("y"), Param("a")]),
    st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.0, 3.0]).map(Const),
)


def _small_compound(children):
    unary = st.sampled_from(["neg", "exp", "log", "sqrt", "abs"]).flatmap(
        lambda op: children.map(lambda e: Call(op, (e,)))
    )
    binary = st.sampled_from(["add", "sub", "mul", "div"]).flatmap(
        lambda op: st.tuples(children, children).map(lambda ab: Call(op, ab))
    )
    power = st.tuples(children, st.integers(min_value=1, max_value=4)).map(
        lambda ek: Call("pow", (ek[0], Const(float(ek[1]))))
    )
    return st.one_of(unary, binary, power)


_small_constraints = st.tuples(
    st.recursive(_small_leaves, _small_compound, max_leaves=5),
    st.sampled_from(["<=", "<", "=", ">=", ">"]),
    st.recursive(_small_leaves, _small_compound, max_leaves=5),
).map(lambda t: Constraint(*t))


class TestTightenedBox:
    @pytest.mark.parametrize("box", [(-2.0, 1.5), (0.5, 3.0), (-3.0, -0.25), (0.0, 0.0)])
    @pytest.mark.parametrize(
        "text", ["-x", "exp(x)", "log(x)", "sqrt(x)", "abs(x)", "x ^ 2", "x ^ 3",
                 "x + y", "x - y", "x * y", "x / y", "x / 2", "y / (x - 1)"],
    )
    def test_forward_hull_encloses_every_atom(self, text, box):
        p = mini(f"{text} <= 0", vars="x y")
        e = p.constraints[0].lhs
        rng = np.random.default_rng(0)
        ends = np.array([box[0], box[1], 0.0, 1.0])
        env = {v: np.concatenate([rng.uniform(*box, 5000), ends[(ends >= box[0]) & (ends <= box[1])]])
               for v in ("x", "y")}
        env["y"] = env["y"][::-1].copy()
        with np.errstate(all="ignore"):
            vals = np.broadcast_to(oracle._veval(e, env), env["x"].shape)
        try:
            with np.errstate(all="ignore"):
                lo, hi, _ = oracle._hull(e, {"x": box, "y": box}, {})
        except oracle._Empty:
            assert np.isnan(vals).all()
            return
        vals = vals[~np.isnan(vals)]
        assert ((vals >= lo) & (vals <= hi)).all(), (lo, hi, vals.min(), vals.max())

    @pytest.mark.parametrize("name,params,which", _corpus_cases())
    def test_corpus_accepted_points_lie_inside(self, name, params, which):
        p = parse(CORPUS.joinpath(name).read_text())
        if which == "final":
            p = reduce_problem(p).final
        free = len(p.variables) - (find_elimination(p, params) is not None)
        cols = _candidates(p, params, (-5.0, 5.0), 200_000, {1: 2001, 2: 201, 3: 41}.get(free, 17))
        assert _assert_inside(p, params, (-5.0, 5.0), cols) > 0

    @pytest.mark.parametrize("name,params,which", _corpus_cases())
    def test_sweep_keeps_what_the_sampler_accepts(self, name, params, which):
        # The sampler's own acceptance, _feasible at tol 0, on uniform draws
        # from the caller's box: every accepted point lies in _tighten's
        # box.  And the forward pass the sweep narrows by holds there:
        # _hull of each constraint side, and of the solved formula,
        # encloses _veval at uniform points of the tightened box.
        p = parse(CORPUS.joinpath(name).read_text())
        if which == "final":
            p = reduce_problem(p).final
        full = SearchBox.uniform(p.variables, -5.0, 5.0, 2)
        elim = find_elimination(p, params)
        rng = np.random.default_rng(sum(map(ord, name + which)))
        env = {v: rng.uniform(-5.0, 5.0, 200_000) for v in oracle._free(p.variables, elim)}
        with np.errstate(all="ignore"):
            oracle._complete(env, elim, params)
            accepted = functools.reduce(np.logical_and, oracle._feasible(p, elim, env, full, 0.0), np.True_)
        box = oracle._tighten(p, params, full, elim)
        assert np.count_nonzero(accepted) > 0
        for v in p.variables:
            lo, hi = box[v]
            assert -5.0 <= lo <= hi <= 5.0
            at = np.broadcast_to(env[v], accepted.shape)[accepted]
            assert ((at >= lo) & (at <= hi)).all(), (v, (lo, hi))
        inside = {v: rng.uniform(lo, hi, 4000) for v, (lo, hi) in box.items()}
        sides = [side for c in p.constraints for side in (c.lhs, c.rhs)]
        for side in sides + ([] if elim is None else [elim.formula]):
            with np.errstate(all="ignore"):
                values = np.broadcast_to(oracle._veval(side, {**inside, **params}), (4000,))
                lo, hi, _ = oracle._hull(side, box, params)
            values = values[~np.isnan(values)]
            assert ((values >= lo) & (values <= hi)).all(), (print_expr(side), (lo, hi))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        cs=st.lists(_small_constraints, min_size=1, max_size=3),
        a=st.sampled_from([-1.5, 0.0, 2.0]),
        box=st.sampled_from([(-3.0, 3.0), (0.0, 2.0), (-1.0, 0.5)]),
    )
    def test_small_problems_accepted_points_lie_inside(self, cs, a, box):
        p = Problem(("x", "y"), (ParamDecl("a"),), Var("x"), tuple(cs))
        try:
            elim = find_elimination(p, {"a": a})
        except OracleError:
            # An equality like x = log(a) at a < 0 can never hold: the
            # sampler refuses it with the same error, never a DomainError.
            with pytest.raises(OracleError, match="outside its domain"):
                sample_feasible(p, {"a": a}, box, 5)
            return
        if any(c.op == "=" and (elim is None or i != elim.constraint) for i, c in enumerate(cs)):
            with pytest.raises(OracleError, match="cannot be sampled exactly"):
                sample_feasible(p, {"a": a}, box, 5)
            return
        cols = _candidates(p, {"a": a}, box, 4000, 61, seed=len(cs))
        _assert_inside(p, {"a": a}, box, cols)

    def test_distribution_unchanged(self):
        # t1 may exceed sqrt(x): the region x < 1 holds 1/24 of the area.
        p = mini("1 <= t1, 0 <= x, t1 <= x + 1", vars="x t1")
        x = sample_feasible(p, {}, (0.0, 5.0), 20_000)["x"]
        share = np.count_nonzero(x < 1.0) / len(x)
        sigma = (1 / 24 * 23 / 24 / len(x)) ** 0.5
        assert abs(share - 1 / 24) <= 4 * sigma

    def test_empty_box_raises_before_any_draw(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("a batch was drawn")

        monkeypatch.setattr(oracle, "_draws", no_draws)
        p = mini("x <= -10")
        with pytest.raises(Infeasible, match=r"constraint 0 \(x <= -10\).*x"):
            sample_feasible(p, {}, (0.0, 5.0), 5)

    def test_deterministic_for_a_seed_on_a_tightened_box(self, chain1_trace):
        p = chain1_trace.final
        a = points(sample_feasible(p, UNIT, (-5.0, 5.0), 20, seed=9))
        assert a == points(sample_feasible(p, UNIT, (-5.0, 5.0), 20, seed=9))
        assert a != points(sample_feasible(p, UNIT, (-5.0, 5.0), 20, seed=10))
        for pt in a:
            assert check_feasible(p, {**pt, **UNIT}, tol=1e-9).feasible

    def test_lattice_scans_ignore_the_tightening(self, monkeypatch, chain1_trace):
        monkeypatch.setattr(oracle, "_tighten", None)
        box = chain1_small_box()
        tree = grid_minimize(chain1_trace.final, UNIT, box, eliminate="y")
        assert grid_minimize_conic(emit(chain1_trace.final, UNIT), box, eliminate="y") == tree
