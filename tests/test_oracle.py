import json
import pathlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conify import oracle
from conify.conic import emit
from conify.dsl import parse
from conify.oracle import (
    Axis,
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
    check_feasible,
)
from conify.reduce import forward_map, reduce_problem

CORPUS = pathlib.Path(__file__).resolve().parents[1] / "corpus"
UNIT = {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0}


def mini(constraints, vars="x", objective="x"):
    return parse(
        f"minimization\n!vars {vars}\n!objective {objective}\n!constraints\n{constraints}"
    )


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

    def test_uniform_box(self):
        box = SearchBox.uniform(("x", "y"), -1.0, 1.0, 5)
        assert box.names == ("x", "y")
        assert box.total_points() == 25
        assert box.axis("y").points == 5

    def test_with_axis_and_without(self):
        box = SearchBox.uniform(("x", "y"), -1.0, 1.0, 5)
        narrowed = box.with_axis("y", 0.0, 1.0, 3)
        assert narrowed.axis("y").lo == 0.0
        assert narrowed.total_points() == 15
        assert narrowed.without("y").names == ("x",)

    def test_refined_keeps_old_lattice_points(self):
        box = SearchBox.uniform(("x",), 0.0, 1.0, 5)
        fine = box.refined()
        assert fine.axis("x").points == 9
        old = set(map(float, box.axis("x").values()))
        new = set(map(float, fine.axis("x").values()))
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

    def test_refinement_never_worsens_the_minimum(self):
        p = parse(CORPUS.joinpath("exp_budget.opt").read_text())
        box = SearchBox.uniform(("x",), 0.0, 3.0, 11)
        coarse = grid_minimize(p, {}, box)
        fine = grid_minimize(p, {}, box.refined())
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
        slow = grid_minimize(p, params, box, eliminate=eliminate, method="sequential")
        assert fast.value == slow.value
        assert fast.point == slow.point
        assert fast.feasible_count == slow.feasible_count

    @pytest.mark.parametrize("method", ["vectorized", "sequential"])
    @pytest.mark.parametrize("name,params,names,rng,eliminate", CASES)
    def test_point_values_are_python_floats(self, name, params, names, rng, eliminate, method):
        p = parse(CORPUS.joinpath(name).read_text())
        box = SearchBox.uniform(names, rng[0], rng[1], 13)
        point = grid_minimize(p, params, box, eliminate=eliminate, method=method).point
        assert set(point) == set(p.variables)
        assert all(type(v) is float for v in point.values())

    def test_pow_overflow_agrees(self):
        # (5e199)^3 overflows to inf and (-1e200)^3 to -inf on both paths
        p = mini("x ^ 3 <= 1")
        box = SearchBox.uniform(("x",), -1e200, 1e200, 5)
        fast = grid_minimize(p, {}, box)
        slow = grid_minimize(p, {}, box, method="sequential")
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
            vs = set()
            _names(c.lhs, vs, set())
            _names(c.rhs, vs, set())
            reads.add(frozenset(vs))
        assert len(reads) == len(chain1_trace.final.constraints)
        assert set().union(*reads) == {"x", "y", "t1", "t2", "t3"}
        assert all(len(r) <= 2 for r in reads)

    def test_sequential_twin_agrees(self, chain1_trace):
        p, box = chain1_trace.final, chain1_small_box()
        fast = grid_minimize(p, UNIT, box, eliminate="y")
        slow = grid_minimize(p, UNIT, box, eliminate="y", method="sequential")
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

    def test_chunks_stay_bounded_when_one_row_is_too_big(self):
        shape = (3, 2_000_000)
        sizes = [
            np.prod([len(range(*sl.indices(n))) for sl, n in zip(index, shape)])
            for index in oracle._chunks(shape)
        ]
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
        assert e.solve({"x": 0.0}, p.variables) == pytest.approx(2.0)
        assert e.solve({"x": 3.0}, p.variables) == pytest.approx(0.0)

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

    def test_variable_without_equality_rejected(self):
        p = mini("0 <= x + y", vars="x y")
        with pytest.raises(OracleError):
            grid_minimize(
                p, {}, SearchBox.uniform(("x", "y"), 0.0, 1.0, 3), eliminate="y"
            )


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

    @pytest.mark.parametrize("abcd", list(GOLDEN))
    def test_feasible_counts(self, chain1_trace, abcd):
        gx, gy, gcount = self.GOLDEN[abcd]
        params = dict(zip("abcd", abcd))
        center = forward_map(chain1_trace, {"x": gx, "y": gy, **params})
        box = self.BOX
        for t in ("t1", "t2", "t3"):
            box = box.with_axis(t, center[t] - 0.25, center[t] + 0.25, 51)
        cone = grid_minimize_conic(emit(chain1_trace.final, params), box, eliminate="y")
        tree = grid_minimize(chain1_trace.final, params, box, eliminate="y")
        assert cone == tree
        assert cone.feasible_count == gcount


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


class TestSampleFeasible:
    def test_returns_requested_count_of_feasible_points(self, chain1):
        pts = sample_feasible(chain1, UNIT, (-5.0, 5.0), 50)
        assert len(pts) == 50
        for pt in pts:
            assert set(pt) == {"x", "y"}
            assert pt["x"] + pt["y"] == pytest.approx(1.0, abs=1e-9)
            assert check_feasible(chain1, {**pt, **UNIT}, tol=1e-9).feasible

    def test_deterministic_for_a_seed(self, chain1):
        a = sample_feasible(chain1, UNIT, (-5.0, 5.0), 10, seed=4)
        b = sample_feasible(chain1, UNIT, (-5.0, 5.0), 10, seed=4)
        c = sample_feasible(chain1, UNIT, (-5.0, 5.0), 10, seed=5)
        assert a == b
        assert a != c

    def test_strict_inequalities_hold_strictly(self):
        p = parse(CORPUS.joinpath("log_floor.opt").read_text())
        for pt in sample_feasible(p, {}, (0.0, 10.0), 30):
            assert pt["x"] > 0.0

    def test_second_equality_rejected_at_zero_tolerance(self):
        p = mini("x = 1, y = 2", vars="x y")
        with pytest.raises(OracleError, match="equalit"):
            sample_feasible(p, {}, (-5.0, 5.0), 5)

    def test_hopeless_region_raises_infeasible(self):
        p = mini("x <= -10")
        with pytest.raises(Infeasible):
            sample_feasible(p, {}, (0.0, 5.0), 5, max_batches=3)


# --- the tightened sampling box -------------------------------------------------


def _plain_rejection(p, params, box, cols, tol=0.0):
    """The sampler's acceptance test on candidates from the untightened box:
    (env, mask) with every variable's column broadcast to the candidates."""
    elim = find_elimination(p, params)
    size = len(next(iter(cols.values())))
    env = dict(cols)
    mask = np.ones(size, dtype=bool)
    with np.errstate(all="ignore"):
        if elim is not None:
            v = np.broadcast_to(elim.solve(env, p.variables), (size,))
            env[elim.var] = v
            mask &= (v >= box[0]) & (v <= box[1]) & np.isfinite(v)
        env.update(params)
        for i, c in enumerate(p.constraints):
            if elim is None or i != elim.constraint:
                lv, rv = oracle._veval(c.lhs, env), oracle._veval(c.rhs, env)
                mask &= oracle._mask_ok(c.op, lv, rv, tol)
    return env, mask


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


def _assert_inside(p, params, box, cols, tol=0.0):
    """Every candidate plain rejection accepts lies in the tightened box;
    returns how many were accepted."""
    full = SearchBox.uniform(p.variables, box[0], box[1], 2)
    env, mask = _plain_rejection(p, params, box, cols, tol)
    try:
        bounds = oracle._tighten(p, params, full, tol, find_elimination(p, params))
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

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        cs=st.lists(_small_constraints, min_size=1, max_size=3),
        a=st.sampled_from([-1.5, 0.0, 2.0]),
        box=st.sampled_from([(-3.0, 3.0), (0.0, 2.0), (-1.0, 0.5)]),
        tol=st.sampled_from([0.0, 1e-3, 0.25]),
    )
    def test_small_problems_accepted_points_lie_inside(self, cs, a, box, tol):
        p = Problem(("x", "y"), (ParamDecl("a"),), Var("x"), tuple(cs))
        try:
            find_elimination(p, {"a": a})
        except DomainError:
            assume(False)  # an equality like x = log(a) at a < 0
        cols = _candidates(p, {"a": a}, box, 4000, 61, seed=len(cs))
        _assert_inside(p, {"a": a}, box, cols, tol)

    def test_distribution_unchanged(self):
        # t1 may exceed sqrt(x): the region x < 1 holds 1/24 of the area.
        p = mini("1 <= t1, 0 <= x, t1 <= x + 1", vars="x t1")
        pts = sample_feasible(p, {}, (0.0, 5.0), 20_000)
        share = sum(pt["x"] < 1.0 for pt in pts) / len(pts)
        sigma = (1 / 24 * 23 / 24 / len(pts)) ** 0.5
        assert abs(share - 1 / 24) <= 4 * sigma

    def test_empty_box_raises_before_any_draw(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("a batch was drawn")

        monkeypatch.setattr(oracle.np.random, "default_rng", no_draws)
        p = mini("x <= -10")
        with pytest.raises(Infeasible, match=r"constraint 0 \(x <= -10\).*x"):
            sample_feasible(p, {}, (0.0, 5.0), 5)

    def test_deterministic_for_a_seed_on_a_tightened_box(self, chain1_trace):
        p = chain1_trace.final
        a = sample_feasible(p, UNIT, (-5.0, 5.0), 20, seed=9)
        assert a == sample_feasible(p, UNIT, (-5.0, 5.0), 20, seed=9)
        assert a != sample_feasible(p, UNIT, (-5.0, 5.0), 20, seed=10)
        for pt in a:
            assert check_feasible(p, {**pt, **UNIT}, tol=1e-9).feasible

    def test_lattice_scans_ignore_the_tightening(self, monkeypatch, chain1_trace):
        monkeypatch.setattr(oracle, "_tighten", None)
        box = chain1_small_box()
        tree = grid_minimize(chain1_trace.final, UNIT, box, eliminate="y")
        assert grid_minimize_conic(emit(chain1_trace.final, UNIT), box, eliminate="y") == tree
