import math
import pathlib

import pytest

from conify.dcp import OccPath
from conify.dsl import parse, print_constraint, print_expr, print_problem
from conify.problem import Call, Const, Var
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

    def test_fresh_index_override(self):
        p = mini("exp(y) <= x")
        _, step = apply_step(p, "linearize", OccPath.parse("c0/lhs"), fresh_index=7)
        assert step.fresh == "t7"

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

    def test_max_steps_guard(self, chain1):
        with pytest.raises(NotConeRepresentable, match="no fixpoint after 1"):
            reduce_problem(chain1, max_steps=1)


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

    def test_malformed_step_line_rejected(self, chain1):
        with pytest.raises(TraceFormatError):
            read_trace("TRACE 1\nWALTZ 1\nEND", chain1)

    @pytest.mark.parametrize(
        "old,new,match",
        [
            ("DEF exp(y)", "DEF exp((y)", r"'STEP 1 .*DEF exp\(\(y\).*': 1:\d+: expected '\)'"),
            ("AT c0/lhs", "AT c0/zz", r"'STEP 1 .*AT c0/zz .*': bad occurrence path 'c0/zz'"),
            ("AT c0/lhs", "AT c0/lhs/5", r"'STEP 1 .*': path c0/lhs/5 leaves the expression"),
            ("AT c0/lhs", "AT c9/lhs", r"'STEP 1 .*AT c9/lhs .*': "),
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


class TestSolutionMaps:
    PARAMS = {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0}

    def test_forward_map_computes_defined_values(self, chain1_trace):
        pt = {"x": 1.28, "y": -0.28, **self.PARAMS}
        fwd = forward_map(chain1_trace, pt)
        assert fwd["t1"] == pytest.approx(math.exp(-0.28))
        assert fwd["t2"] == pytest.approx(math.sqrt(1.28))
        assert fwd["t3"] == pytest.approx(math.log(math.sqrt(1.28) + 1.0))

    def test_backmap_keeps_only_original_variables(self, chain1_trace):
        pt = {"x": 1.28, "y": -0.28, **self.PARAMS}
        fwd = forward_map(chain1_trace, pt)
        assert backmap(chain1_trace, fwd) == {"x": 1.28, "y": -0.28}

    def test_backmap_requires_all_originals(self, chain1_trace):
        with pytest.raises(Exception, match="y"):
            backmap(chain1_trace, {"x": 1.0})


class TestVerifyTraceSampled:
    PARAMS = {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0}

    def test_sound_trace_passes(self, chain1_trace):
        report = verify_trace_sampled(chain1_trace, self.PARAMS, n=50)
        assert report.ok
        assert report.backward_checked == 50
        assert report.forward_checked == 50
        assert not report.failures

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
            added=(2,),
        )
        trace = ReductionTrace(orig, (step,), bad_final)
        # The bad region holds 1/24 of the final problem's feasible area, so
        # 400 samples all miss it with probability (23/24)^400, about 4e-8.
        report = verify_trace_sampled(trace, {}, box=(0.0, 5.0), n=400)
        assert not report.ok
        assert any("backward" in f or "constraint" in f for f in report.failures)
