import json
import math
import pathlib
import sys

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from _reference import check_feasible, evaluate
from conify import reduce
from conify.dcp import OccPath, Polarity
from conify.dsl import parse, parse_expr_in, print_constraint, print_expr, print_problem
from conify.oracle import OracleError, sample_feasible
from conify.problem import Call, Const, Constraint, DomainError, Problem, Var
from conify.reduce import (
    AffineTarget,
    MissingDomainFact,
    NoGraphImpl,
    NotConeRepresentable,
    NotProvablyRedundant,
    PolarityMismatch,
    PolarityUnknown,
    ReduceError,
    ReductionTrace,
    TraceCheckReport,
    TraceFormatError,
    TraceStep,
    apply_step,
    backmap,
    eliminate_redundant,
    forward_map,
    read_trace,
    reduce_problem,
    verify_trace_sampled,
    write_trace,
)

CORPUS = pathlib.Path(__file__).resolve().parents[1] / "corpus"


def mini(constraints, vars="x y", params=None, objective="x"):
    header = f"!params {params}\n" if params else ""
    return parse(
        f"minimization\n{header}!vars {vars}\n!objective {objective}\n"
        f"!constraints\n{constraints}"
    )


def points(cols):
    """sample_feasible's columns zipped into one dict per point."""
    return [dict(zip(cols, row)) for row in zip(*(c.tolist() for c in cols.values()))]


def cons(p):
    return [print_constraint(c) for c in p.constraints]


class TestLinearize:
    def test_antimono_introduces_upper_bound(self, chain1):
        q, step = apply_step(chain1, "linearize", OccPath.parse("c0/lhs"))
        assert step.schema == "linearize_antimono"
        assert step.fresh == "t1" and print_expr(step.forward_def) == "exp(y)"
        assert q.variables == ("x", "y", "t1")
        assert cons(q)[0] == "t1 <= log(a * sqrt(x) + b)"
        assert cons(q)[-1] == "exp(y) <= t1"
        assert q.objective == chain1.objective

    def test_mono_introduces_lower_bound(self):
        p = mini("1 <= sqrt(x), 0 <= x", vars="x")
        q, step = apply_step(p, "linearize", OccPath.parse("c0/rhs"))
        assert step.schema == "linearize_mono"
        assert cons(q) == ["1 <= t1", "0 <= x", "t1 <= sqrt(x)"]

    def test_replaces_every_same_polarity_occurrence(self):
        p = mini("exp(y) <= x, exp(y) <= 2 * x")
        q, step = apply_step(p, "linearize", OccPath.parse("c0/lhs"))
        assert [str(t) for t in step.targets] == ["c0/lhs", "c1/lhs"]
        assert cons(q) == ["t1 <= x", "t1 <= 2 * x", "exp(y) <= t1"]

    def test_fresh_names_skip_declared_ones(self):
        p = mini("exp(y) <= t1", vars="t1 x y")
        _, step = apply_step(p, "linearize", OccPath.parse("c0/lhs"))
        assert step.fresh == "t2"

    def test_affine_target_rejected(self, chain1):
        with pytest.raises(AffineTarget, match="already affine"):
            apply_step(chain1, "linearize", OccPath.parse("c1/lhs"))

    def test_equality_side_rejected(self):
        p = mini("x = exp(y)")
        with pytest.raises(PolarityUnknown, match="both"):
            apply_step(p, "linearize", OccPath.parse("c0/rhs"))

    def test_unknown_polarity_rejected(self):
        p = mini("abs(exp(x) - 3) <= 9", vars="x")
        with pytest.raises(PolarityUnknown, match="unknown"):
            apply_step(p, "linearize", OccPath.parse("c0/lhs/0/0"))

    def test_specific_schema_name_must_match(self, chain1):
        _, step = apply_step(chain1, "linearize_antimono", OccPath.parse("c0/lhs"))
        assert step.schema == "linearize_antimono"
        with pytest.raises(ReduceError, match="linearize_antimono, not linearize_mono"):
            apply_step(chain1, "linearize_mono", OccPath.parse("c0/lhs"))
        with pytest.raises(ReduceError, match="graph_expand_concave, not graph_expand_convex"):
            apply_step(chain1, "graph_expand_convex", OccPath.parse("c0/rhs/0/0/1"))

    def test_unknown_schema_name(self, chain1):
        with pytest.raises(ReduceError, match="unknown schema"):
            apply_step(chain1, "bogus", OccPath.parse("c0/lhs"))


class TestGraphExpand:
    def test_concave_atom_gets_described(self):
        p = mini("1 <= sqrt(x), 0 <= x", vars="x")
        q, step = apply_step(p, "graph_expand", OccPath.parse("c0/rhs"))
        assert step.schema == "graph_expand_concave"
        assert cons(q) == ["1 <= t1", "0 <= x", "t1 ^ 2 <= x"]
        assert print_expr(step.forward_def) == "sqrt(x)"

    def test_replaces_all_identical_occurrences(self):
        p = mini("1 <= sqrt(x), 2 <= sqrt(x) + x, 0 <= x", vars="x")
        q, step = apply_step(p, "graph_expand", OccPath.parse("c0/rhs"))
        assert [str(t) for t in step.targets] == ["c0/rhs", "c1/rhs/0"]
        assert cons(q) == ["1 <= t1", "2 <= t1 + x", "0 <= x", "t1 ^ 2 <= x"]

    def test_log_needs_strict_positivity_fact(self):
        p = parse(CORPUS.joinpath("log_nofact.opt").read_text())
        with pytest.raises(MissingDomainFact, match="needs 0 < x"):
            apply_step(p, "graph_expand", OccPath.parse("c0/rhs"))

    def test_log_with_fact_expands_to_exp_bound(self):
        p = parse(CORPUS.joinpath("log_floor.opt").read_text())
        q, _ = apply_step(p, "graph_expand", OccPath.parse("c0/rhs"))
        assert cons(q) == ["1 <= t1", "0 < x", "exp(t1) <= x"]

    def test_no_impl_for_exp(self, chain1):
        with pytest.raises(NoGraphImpl, match="exp"):
            apply_step(chain1, "graph_expand", OccPath.parse("c0/lhs"))

    def test_occurrences_of_the_other_polarity_kept(self):
        # Rewriting sqrt(x) <= 2 as well would leave t1 <= 2, t1 ^ 2 <= x,
        # which admits x = 100.
        p = mini("1 <= sqrt(x), sqrt(x) <= 2, 0 <= x", vars="x")
        q, step = apply_step(p, "graph_expand", OccPath.parse("c0/rhs"))
        assert [str(t) for t in step.targets] == ["c0/rhs"]
        assert cons(q) == ["1 <= t1", "sqrt(x) <= 2", "0 <= x", "t1 ^ 2 <= x"]
        report = verify_trace_sampled(ReductionTrace(p, (step,), q), {}, box=(0.0, 5.0))
        assert report.ok, report.failures

    def test_wrong_polarity_rejected(self):
        p = mini("sqrt(x) <= 1, 0 <= x", vars="x")
        with pytest.raises(PolarityMismatch, match="monotone polarity, got antimonotone"):
            apply_step(p, "graph_expand", OccPath.parse("c0/lhs"))


class TestOnePass:
    def test_replaced_paths_in_constraint_order(self, chain1):
        # x is monotone in c0, c2 and c3, and inside an equality side in c1.
        t = Var("t")
        cs, paths = reduce._replace(chain1, Var("x"), Polarity.MONOTONE, t)
        assert [str(o) for o in paths] == ["c0/rhs/0/0/1/0", "c2/rhs", "c3/rhs/0/1/0"]
        assert [print_constraint(c) for c in cs] == [
            "exp(y) <= log(a * sqrt(t) + b)",
            "a * x + b * y = d",
            "0 <= t",
            "0 < a * sqrt(t) + b",
        ]
        cs, paths = reduce._replace(chain1, Var("x"), Polarity.UNKNOWN, t)
        assert [str(o) for o in paths] == ["c1/lhs/0/1"]
        assert print_constraint(cs[1]) == "a * t + b * y = d"
        assert reduce._replace(chain1, Var("x"), Polarity.ANTIMONOTONE, t)[1] == ()

    def test_lhs_before_rhs(self):
        p = mini("x <= 2 * x, 0 <= x")
        _, paths = reduce._replace(p, Var("x"), Polarity.ANTIMONOTONE, Var("t"))
        assert [str(o) for o in paths] == ["c0/lhs"]
        _, paths = reduce._replace(p, Var("x"), Polarity.MONOTONE, Var("t"))
        assert [str(o) for o in paths] == ["c0/rhs/1", "c1/rhs"]

    def test_each_step_builds_one_problem(self, chain1, chain1_trace, monkeypatch):
        built = []
        init = Problem.__post_init__
        monkeypatch.setattr(Problem, "__post_init__", lambda self: (built.append(self), init(self)))
        before = chain1_trace.intermediates()
        # linearize, then graph_expand at one and at two occurrences
        for p, s in zip(before, chain1_trace.steps[:3]):
            built.clear()
            q, _ = apply_step(p, s.schema, s.targets[0])
            assert built == [q], s.schema


class TestEliminateRedundant:
    def test_square_bound_implies_nonnegativity(self):
        p = mini("t ^ 2 <= x, 0 <= x, x <= 5", vars="x t")
        q, step = eliminate_redundant(p, (1,))
        assert cons(q) == ["t ^ 2 <= x", "x <= 5"]
        assert step.removed == (1,)

    def test_exp_bound_implies_positivity(self):
        p = mini("exp(t) <= x, 0 < x", vars="x t")
        q, _ = eliminate_redundant(p, (1,))
        assert cons(q) == ["exp(t) <= x"]

    def test_transitive_bound_dropped(self):
        p = mini("x <= y, y <= 2, x <= 2")
        q, _ = eliminate_redundant(p, (2,))
        assert cons(q) == ["x <= y", "y <= 2"]

    def test_several_drops_at_once(self):
        p = mini("t ^ 2 <= x, exp(s) <= y, 0 <= x, 0 < y", vars="x y t s")
        q, step = eliminate_redundant(p, (2, 3))
        assert cons(q) == ["t ^ 2 <= x", "exp(s) <= y"]
        assert step.removed == (2, 3)

    def test_unprovable_drop_rejected(self):
        p = mini("t ^ 2 <= x, x <= 5", vars="x t")
        with pytest.raises(NotProvablyRedundant, match="not implied"):
            eliminate_redundant(p, (1,))

    def test_out_of_range_index(self):
        p = mini("0 <= x", vars="x")
        with pytest.raises(NotProvablyRedundant, match="out of range"):
            eliminate_redundant(p, (9,))

    def test_via_apply_step(self):
        p = mini("t ^ 2 <= x, 0 <= x", vars="x t")
        q, step = apply_step(p, "eliminate_redundant", None, removed=(1,))
        assert step.schema == "eliminate_redundant"
        assert cons(q) == ["t ^ 2 <= x"]


CHAIN_FINAL = """\
minimization
  !params a: nonneg, b, c, d
  !vars x y t1 t2 t3
  !objective c * x
  !constraints
    t1 <= t3,
    a * x + b * y = d,
    exp(y) <= t1,
    t2 ^ 2 <= x,
    exp(t3) <= a * t2 + b
"""


def _sweep_problems(names):
    """Problems over names whose constraints take the shapes _implied reads:
    0 <= v or 0 < v, u^2 <= v, exp(u) <= v and a <= b, each written either
    way round."""
    var = st.sampled_from(names).map(Var)
    shape = st.one_of(
        st.tuples(st.just(Const(0.0)), st.sampled_from(("<=", "<")), var),
        st.tuples(var.map(lambda u: Call("pow", (u, Const(2.0)))), st.just("<="), var),
        st.tuples(var.map(lambda u: Call("exp", (u,))), st.just("<="), var),
        st.tuples(var, st.just("<="), var),
    )
    flipped = {"<=": ">=", "<": ">"}

    def build(drawn):
        cs = [Constraint(hi, flipped[op], lo) if flip else Constraint(lo, op, hi) for (lo, op, hi), flip in drawn]
        return Problem(names, (), Var(names[0]), tuple(cs))

    return st.lists(st.tuples(shape, st.booleans()), min_size=1, max_size=9).map(build)


def _sweep_to_fixpoint(p):
    """The sweep as passes repeated until one drops nothing, then the
    put-back of every drop the remainder does not imply."""
    removed, changed = set(), True
    while changed:
        changed = False
        for i, c in enumerate(p.constraints):
            rest = [d for j, d in enumerate(p.constraints) if j != i and j not in removed]
            if i not in removed and reduce._implied(c, rest) is not None:
                removed.add(i)
                changed = True
    rest = [d for j, d in enumerate(p.constraints) if j not in removed]
    return tuple(i for i in sorted(removed) if reduce._implied(p.constraints[i], rest) is not None)


class TestDriver:
    def test_chain_schedule(self, chain1_trace):
        got = [(s.schema, s.fresh) for s in chain1_trace.steps]
        assert got == [
            ("linearize_antimono", "t1"),
            ("graph_expand_concave", "t2"),
            ("graph_expand_concave", "t3"),
            ("eliminate_redundant", None),
        ]
        assert [str(t) for t in chain1_trace.steps[1].targets] == [
            "c0/rhs/0/0/1",
            "c3/rhs/0/1",
        ]
        assert chain1_trace.steps[3].removed == (2, 3)

    def test_chain_final_problem(self, chain1_trace):
        assert print_problem(chain1_trace.final) == CHAIN_FINAL

    def test_intermediates_replay_whole_history(self, chain1, chain1_trace):
        mids = chain1_trace.intermediates()
        assert len(mids) == len(chain1_trace.steps) + 1
        assert mids[0] == chain1 and mids[-1] == chain1_trace.final

    def test_already_conic_problem_is_a_fixpoint(self):
        p = parse(CORPUS.joinpath("lp_box.opt").read_text())
        tr = reduce_problem(p)
        assert tr.steps == () and tr.final == p

    def test_step_counts_match_manifest(self, manifest, corpus_problems):
        for name, meta in manifest.items():
            if not meta.get("canonizable"):
                continue
            tr = reduce_problem(corpus_problems[name])
            assert len(tr.steps) == meta["steps"], name

    def test_head_position_without_impl_fails(self):
        p = mini("abs(x) <= 1", vars="x")
        with pytest.raises(NotConeRepresentable, match="abs"):
            reduce_problem(p)

    def test_nonconformant_input_rejected_up_front(self):
        p = parse(CORPUS.joinpath("mirrored.opt").read_text())
        with pytest.raises(NotConeRepresentable, match="not DCP-conformant"):
            reduce_problem(p)

    def test_nonaffine_objective_rejected(self):
        p = parse(CORPUS.joinpath("concave_obj.opt").read_text())
        with pytest.raises(NotConeRepresentable, match="objective must be affine"):
            reduce_problem(p)

    def test_sweep_keeps_a_drop_another_drop_needs(self):
        # x <= z justifies dropping x <= y until x <= u, u <= z drop it too.
        p = mini("x <= y, z <= y, x <= z, x <= u, u <= z", vars="x y z u")
        tr = reduce_problem(p)
        assert [(s.schema, s.removed) for s in tr.steps] == [("eliminate_redundant", (2,))]
        assert cons(tr.final) == ["x <= y", "z <= y", "x <= u", "u <= z"]
        report = verify_trace_sampled(tr, {})
        assert report.ok and report.backward_checked == report.forward_checked == 200

    @seed(2018)
    @settings(max_examples=500, deadline=None)
    @given(p=st.integers(3, 4).flatmap(lambda n: _sweep_problems(("x", "y", "z", "u")[:n])))
    def test_sweep_matches_the_fixpoint_loop(self, p):
        assert reduce._sweep_redundant(p) == _sweep_to_fixpoint(p)

    def test_max_steps_guard(self, chain1, monkeypatch):
        monkeypatch.setattr(reduce, "MAX_STEPS", 1)
        with pytest.raises(NotConeRepresentable, match="no fixpoint after 1 "):
            reduce_problem(chain1)


# The one message of a step line that differs from the line its replay
# prints; fill in the step number and the ends of both lines.
REPRINT = r"step line 'STEP {0} .*{1}': replay prints 'STEP {0} .*{2}'$"


class TestTraceFiles:
    def test_round_trip(self, chain1, chain1_trace):
        text = write_trace(chain1_trace)
        again = read_trace(text, chain1)
        assert again.steps == chain1_trace.steps
        assert again.final == chain1_trace.final

    def test_file_layout(self, chain1_trace):
        lines = write_trace(chain1_trace).splitlines()
        assert lines[0] == "TRACE 1" and lines[-1] == "END"
        assert lines[1] == "STEP 1 linearize_antimono AT c0/lhs FRESH t1 DEF exp(y) ADD exp(y) <= t1"
        assert lines[4] == "STEP 4 eliminate_redundant REMOVE 2 3"

    def test_tampered_fresh_name_detected(self, chain1, chain1_trace):
        text = write_trace(chain1_trace).replace("FRESH t1", "FRESH t9")
        with pytest.raises(TraceFormatError):
            read_trace(text, chain1)

    def test_tampered_definition_detected(self, chain1, chain1_trace):
        text = write_trace(chain1_trace).replace("DEF exp(y)", "DEF exp(x)")
        with pytest.raises(TraceFormatError):
            read_trace(text, chain1)

    def test_truncated_file_detected(self, chain1, chain1_trace):
        text = write_trace(chain1_trace).replace("\nEND", "")
        with pytest.raises(TraceFormatError):
            read_trace(text, chain1)

    def test_header_error_cites_the_file_line(self, chain1):
        with pytest.raises(TraceFormatError, match=r"^line 2: expected 'TRACE 1' header$"):
            read_trace("# c\nTRACE 2\nEND\n", chain1)

    def test_footer_error_cites_the_file_line(self, chain1, chain1_trace):
        lines = write_trace(chain1_trace).splitlines()
        text = "\n".join(["# comment", lines[0], "", *lines[1:3], "  # note", *lines[3:-1], "ENDX"])
        assert text.splitlines()[8] == "ENDX"
        with pytest.raises(TraceFormatError, match=r"^line 9: expected 'END' footer$"):
            read_trace(text, chain1)

    def test_malformed_step_line_rejected(self, chain1):
        with pytest.raises(TraceFormatError):
            read_trace("TRACE 1\nWALTZ 1\nEND", chain1)

    @pytest.mark.parametrize(
        "old,new,match",
        [
            ("DEF exp(y)", "DEF exp((y)", r"'STEP 1 .*DEF exp\(\(y\) .*': replay prints 'STEP 1 .*DEF exp\(y\) .*'$"),
            ("AT c0/lhs", "AT c0/zz", r"'STEP 1 .*AT c0/zz .*': bad occurrence path 'c0/zz'"),
            ("AT c0/lhs", "AT c0/lhs/5", r"'STEP 1 .*': path c0/lhs/5 leaves the expression"),
            ("AT c0/lhs", "AT c9/lhs", r"'STEP 1 .*AT c9/lhs .*': "),
            ("AT c0/lhs", "AT c-1/lhs", r"'STEP 1 .*AT c-1/lhs .*': bad occurrence path 'c-1/lhs'"),
        ],
    )
    def test_unparsable_step_fields_name_the_line(self, chain1, chain1_trace, old, new, match):
        text = write_trace(chain1_trace)
        assert old in text
        with pytest.raises(TraceFormatError, match=match):
            read_trace(text.replace(old, new, 1), chain1)

    def test_unknown_schema_in_replay_rejected(self, chain1):
        with pytest.raises(ReduceError, match="unknown schema"):
            read_trace("TRACE 1\nSTEP 1 dance AT c0/lhs\nEND", chain1)

    @pytest.mark.parametrize(
        "old,new,match",
        [
            ("ADD exp(y) <= t1", "ADD exp(y) <= t1 + 100", REPRINT.format(1, r"ADD exp\(y\) <= t1 \+ 100", r"ADD exp\(y\) <= t1")),
            (" ADD t2 ^ 2 <= x", "", REPRINT.format(2, r"DEF sqrt\(x\)", r"ADD t2 \^ 2 <= x")),
            ("AT c0/rhs/0/0/1,c3/rhs/0/1", "AT c0/rhs/0/0/1,c3/rhs/0/1,c9/zz", r"bad occurrence path 'c9/zz'"),
            ("AT c0/rhs/0/0/1,c3/rhs/0/1", "AT c0/rhs/0/0/1,c3/rhs/0/1,c1/lhs",
             REPRINT.format(2, r"c3/rhs/0/1,c1/lhs FRESH .*", r"AT c0/rhs/0/0/1,c3/rhs/0/1 FRESH .*")),
            ("AT c0/rhs/0/0/1,c3/rhs/0/1", "AT c0/rhs/0/0/1",
             REPRINT.format(2, r"AT c0/rhs/0/0/1 FRESH .*", r"AT c0/rhs/0/0/1,c3/rhs/0/1 FRESH .*")),
            ("REMOVE 2 3", "AT c0/lhs REMOVE 2 3", REPRINT.format(4, r"AT c0/lhs REMOVE 2 3", r"eliminate_redundant REMOVE 2 3")),
            ("STEP 2 ", "STEP 7 ", r"'STEP 7 .*': replay prints 'STEP 2 .*'$"),
            ("STEP 1 linearize_antimono", "STEP 1 linearize", r"'STEP 1 linearize AT .*': replay prints 'STEP 1 linearize_antimono AT .*'$"),
            ("STEP 2 graph_expand_concave", "STEP 2 graph_expand_convex",
             r"'STEP 2 graph_expand_convex .*': the step at c0/rhs/0/0/1 is graph_expand_concave, not graph_expand_convex$"),
            ("ADD exp(y) <= t1\n", "ADD exp(y) <= t1 REMOVE 0\n", REPRINT.format(1, r"ADD exp\(y\) <= t1 REMOVE 0", r"ADD exp\(y\) <= t1")),
            (" FRESH t1 DEF exp(y)", "", r"'STEP 1 linearize_antimono AT c0/lhs ADD .*': replay prints 'STEP 1 .* FRESH t1 DEF exp\(y\) ADD .*'$"),
            ("DEF exp(y)", "DEF (exp(y))", REPRINT.format(1, r"DEF \(exp\(y\)\) ADD .*", r"DEF exp\(y\) ADD .*")),
        ],
        ids=["changed-add", "dropped-add", "bad-extra-target", "extra-target", "dropped-target", "target-on-removal",
             "step-number", "family-name", "full-schema-name", "remove-on-rewrite", "dropped-fresh-def", "noncanonical-def"],
    )
    def test_every_claim_is_checked_against_replay(self, chain1, chain1_trace, old, new, match):
        text = write_trace(chain1_trace)
        assert old in text
        with pytest.raises(TraceFormatError, match=match):
            read_trace(text.replace(old, new, 1), chain1)

    def test_whitespace_runs_are_ignored(self, chain1, chain1_trace):
        text = write_trace(chain1_trace).replace("STEP 1 ", "  STEP  1\t").replace(" FRESH t2", "   FRESH  t2 ")
        assert read_trace(text, chain1).steps == chain1_trace.steps

    def test_write_trace_replays_nothing(self, chain1_trace, monkeypatch):
        def no_replay(*args, **kwargs):
            raise AssertionError("a step was replayed")

        monkeypatch.setattr(reduce, "apply_step", no_replay)
        monkeypatch.setattr(ReductionTrace, "intermediates", no_replay)
        text = write_trace(chain1_trace)
        assert text.count("ADD ") == 3


class TestSolutionMaps:
    PARAMS = {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0}

    def test_forward_map_computes_defined_values(self, chain1_trace):
        pt = {"x": 1.28, "y": -0.28, **self.PARAMS}
        fwd = forward_map(chain1_trace, pt)
        assert fwd["t1"] == pytest.approx(math.exp(-0.28))
        assert fwd["t2"] == pytest.approx(math.sqrt(1.28))
        assert fwd["t3"] == pytest.approx(math.log(math.sqrt(1.28) + 1.0))
        assert {type(fwd[t]) for t in ("t1", "t2", "t3")} == {float}

    def test_backmap_keeps_only_original_variables(self, chain1_trace):
        pt = {"x": 1.28, "y": -0.28, **self.PARAMS}
        fwd = forward_map(chain1_trace, pt)
        assert backmap(chain1_trace, fwd) == {"x": 1.28, "y": -0.28}

    def test_backmap_requires_all_originals(self, chain1_trace):
        with pytest.raises(Exception, match="y"):
            backmap(chain1_trace, {"x": 1.0})


class TestVerifyTraceSampled:
    PARAMS = {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0}

    def test_draws_through_sample_feasible(self, monkeypatch, chain1_trace):
        # A tracer sees sampling by swapping this module attribute.
        expected = verify_trace_sampled(chain1_trace, self.PARAMS)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return sample_feasible(*args, **kwargs)

        monkeypatch.setattr(reduce, "sample_feasible", counting)
        assert verify_trace_sampled(chain1_trace, self.PARAMS) == expected
        assert calls == [chain1_trace.final, chain1_trace.original]
        assert expected.ok and expected.backward_checked == expected.forward_checked == 200

    def test_sound_trace_passes(self, chain1_trace):
        report = verify_trace_sampled(chain1_trace, self.PARAMS, n=50)
        assert report.ok
        assert report.backward_checked == 50
        assert report.forward_checked == 50
        assert not report.failures

    @pytest.mark.parametrize("n", [0, -1])
    def test_sample_count_below_one_raises(self, chain1_trace, n):
        with pytest.raises(OracleError, match=f"n={n}"):
            verify_trace_sampled(chain1_trace, self.PARAMS, n=n)

    def test_deterministic_under_seed(self, chain1_trace):
        a = verify_trace_sampled(chain1_trace, self.PARAMS, n=20, seed=3)
        b = verify_trace_sampled(chain1_trace, self.PARAMS, n=20, seed=3)
        assert (a.backward_checked, a.forward_checked, a.failures) == (
            b.backward_checked,
            b.forward_checked,
            b.failures,
        )

    def test_unsound_final_problem_caught(self):
        # Hand-built trace whose alleged expansion lets t1 exceed sqrt(x).
        orig = mini("1 <= sqrt(x), 0 <= x", vars="x")
        bad_final = mini("1 <= t1, 0 <= x, t1 <= x + 1", vars="x t1")
        step = TraceStep(
            schema="graph_expand_concave",
            targets=(OccPath.parse("c0/rhs"),),
            fresh="t1",
            forward_def=Call("sqrt", (Var("x"),)),
            added=(bad_final.constraints[2],),
        )
        trace = ReductionTrace(orig, (step,), bad_final)
        # The bad region holds 1/24 of the final problem's feasible area, so
        # 400 samples all miss it with probability (23/24)^400, about 4e-8.
        report = verify_trace_sampled(trace, {}, box=(0.0, 5.0), n=400)
        assert not report.ok
        assert any("backward" in f or "constraint" in f for f in report.failures)


# --- the array check against a pointwise reference ---------------------------


def _value(e, point):
    try:
        return evaluate(e, point)
    except DomainError:
        return math.nan


def _verify_pointwise(trace, params, box=(-5.0, 5.0), n=200, seed=0, tol=1e-7):
    """Reference for verify_trace_sampled: the same samples, checked one point
    at a time with the scalar evaluator.  A definition that leaves its
    domain gives nan, and a nan objective difference counts as changed, as
    the array path has it."""
    report = TraceCheckReport()
    for pt in points(sample_feasible(trace.final, params, box, n, seed=seed)):
        back = backmap(trace, pt)
        full = {**params, **back}
        verdict = check_feasible(trace.original, full, tol)
        if not verdict.feasible:
            report.failures.append(f"backmapped point infeasible at constraint {verdict.index}: {back}")
            continue
        if not abs(_value(trace.original.objective, full) - _value(trace.final.objective, {**params, **pt})) <= tol:
            report.failures.append(f"objective changed under backmap at {back}")
        report.backward_checked += 1
    for pt in points(sample_feasible(trace.original, params, box, n, seed=seed + 1)):
        fwd = {**params, **pt}
        for s in trace.steps:
            if s.fresh is not None:
                fwd[s.fresh] = _value(s.forward_def, fwd)
        verdict = check_feasible(trace.final, fwd, tol)
        if not verdict.feasible:
            report.failures.append(f"forward-mapped point infeasible at constraint {verdict.index}")
            continue
        report.forward_checked += 1
    return report


def _sqrt_trace(final, forward_def):
    """One alleged graph expansion of sqrt(x) in 1 <= sqrt(x), 0 <= x."""
    orig = mini("1 <= sqrt(x), 0 <= x", vars="x")
    step = TraceStep(
        schema="graph_expand_concave",
        targets=(OccPath.parse("c0/rhs"),),
        fresh="t1",
        forward_def=parse_expr_in(forward_def, orig),
        added=(final.constraints[2],),
    )
    return ReductionTrace(orig, (step,), final)


def _canonizable():
    manifest = json.loads(CORPUS.joinpath("manifest.json").read_text())
    return [(name, m.get("params", {})) for name, m in sorted(manifest.items()) if m["canonizable"]]


class TestArrayVerification:
    @pytest.mark.parametrize("name,params", _canonizable())
    def test_corpus_reports_match_pointwise(self, name, params):
        trace = reduce_problem(parse(CORPUS.joinpath(name).read_text()))
        for seed in range(10):
            report = verify_trace_sampled(trace, params, seed=seed)
            assert report == _verify_pointwise(trace, params, seed=seed)
            assert report.ok and report.backward_checked == report.forward_checked == 200

    def test_unsound_final_report_matches_pointwise(self):
        # t1 may exceed sqrt(x) by up to x + 1 - sqrt(x).
        trace = _sqrt_trace(mini("1 <= t1, 0 <= x, t1 <= x + 1", vars="x t1"), "sqrt(x)")
        report = verify_trace_sampled(trace, {}, box=(0.0, 5.0), n=400)
        assert report == _verify_pointwise(trace, {}, box=(0.0, 5.0), n=400)
        assert report.failures[0].startswith("backmapped point infeasible at constraint 0: {'x': ")

    def test_failing_forward_map_matches_pointwise(self):
        # sqrt(x - 2) + 1 is undefined below x = 2 and exceeds sqrt(x) past
        # x = 2.25, so forward checks fail at constraint 0 and constraint 2.
        trace = _sqrt_trace(mini("1 <= t1, 0 <= x, t1 <= sqrt(x)", vars="x t1"), "sqrt(x - 2) + 1")
        report = verify_trace_sampled(trace, {}, box=(0.0, 5.0), n=300, seed=2)
        assert report == _verify_pointwise(trace, {}, box=(0.0, 5.0), n=300, seed=2)
        assert report.backward_checked == 300
        assert 0 < report.forward_checked < 300
        assert {f"forward-mapped point infeasible at constraint {i}" for i in (0, 2)} == set(report.failures)

    def test_nan_objective_difference_is_reported(self):
        # exp(1000 x) overflows past x = 0.7098, and 0 * inf is nan.
        orig = mini("0 <= x, x <= 2", vars="x")
        final = mini("0 <= x, x <= 2", vars="x", objective="x + 0 * exp(1000 * x)")
        trace = ReductionTrace(orig, (), final)
        report = verify_trace_sampled(trace, {}, box=(0.0, 5.0), n=200)
        pts = points(sample_feasible(final, {}, (0.0, 5.0), 200))
        overflow = [pt for pt in pts if pt["x"] * 1000 > math.log(sys.float_info.max)]
        assert 0 < len(overflow) < 200
        assert report.failures == [f"objective changed under backmap at {pt}" for pt in overflow]
        assert report.backward_checked == report.forward_checked == 200
        assert report == _verify_pointwise(trace, {}, box=(0.0, 5.0), n=200)
