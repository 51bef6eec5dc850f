import json
import math
import pathlib
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _reference import evaluate
from conify.atoms import Curvature, Sign, flip_curvature, flip_sign
from conify.conic import ConicError, _linear, _NotAffine
from conify.dcp import (
    OccPath,
    Polarity,
    _analyze,
    curvature_of,
    dcp_check,
    is_affine,
    param_sign_context,
    path_root,
    polarity_of,
    resolve,
    sign_of,
)
from conify.dsl import parse, parse_expr_in, print_expr
from conify.problem import ATOM_ARITY, Call, Const, DomainError, Param, ParamDecl, Problem, Var

CORPUS = pathlib.Path(__file__).resolve().parents[1] / "corpus"

SCOPE = Problem(
    ("x", "y"),
    (ParamDecl("a", "nonneg"), ParamDecl("b", "none")),
    Var("x"),
    (),
)
SIGNS = {"a": Sign.NONNEG, "b": Sign.UNKNOWN}


def curv(text):
    return curvature_of(parse_expr_in(text, SCOPE), SIGNS)


def sgn(text):
    return sign_of(parse_expr_in(text, SCOPE), SIGNS)


def prob(constraint, objective="x"):
    return parse(
        "minimization\n!params a: nonneg, b\n!vars x y\n"
        f"!objective {objective}\n!constraints\n{constraint}"
    )


# Each row is hand-checked against the usual convex-analysis facts; the
# analyzer is allowed to be conservative (unknown) but never wrong.
CURVATURE_TABLE = [
    ("1.5", "constant", "pos"),
    ("a", "constant", "nonneg"),
    ("b", "constant", "unknown"),
    ("x", "affine", "unknown"),
    ("2 * x + 1", "affine", "unknown"),
    ("x + y", "affine", "unknown"),
    ("a * x", "affine", "unknown"),
    ("b * x", "affine", "unknown"),
    ("exp(x)", "convex", "pos"),
    ("sqrt(x)", "concave", "nonneg"),
    ("log(x)", "concave", "unknown"),
    ("abs(x)", "convex", "nonneg"),
    ("x ^ 2", "convex", "nonneg"),
    ("x ^ 3", "unknown", "unknown"),
    ("(x + 1) ^ 2", "convex", "nonneg"),
    ("exp(x) ^ 3", "convex", "pos"),
    ("sqrt(x) ^ 2", "unknown", "nonneg"),
    ("0 - exp(x)", "concave", "neg"),
    ("0 - log(x)", "convex", "unknown"),
    ("-1 * exp(x)", "concave", "neg"),
    ("exp(exp(x))", "convex", "pos"),
    ("log(log(x))", "concave", "unknown"),
    ("log(exp(x))", "unknown", "unknown"),
    ("exp(log(x))", "unknown", "pos"),
    ("sqrt(log(x))", "concave", "nonneg"),
    ("exp(sqrt(x))", "unknown", "pos"),
    ("abs(exp(x))", "convex", "pos"),
    ("abs(log(x))", "unknown", "nonneg"),
    ("a * exp(x)", "convex", "nonneg"),
    ("b * exp(x)", "unknown", "unknown"),
    ("exp(x) / 2", "convex", "pos"),
    ("exp(x) / (0 - 2)", "concave", "neg"),
    ("exp(x) / a", "convex", "nonneg"),
    ("0 * exp(x)", "convex", "zero"),
    ("log(x) * 0", "concave", "zero"),
    ("0 * x", "constant", "zero"),
    ("x / 0", "unknown", "zero"),
    ("exp(x) / 0", "unknown", "zero"),
    ("x * y", "unknown", "unknown"),
    ("x / y", "unknown", "unknown"),
    ("exp(x) + sqrt(y)", "unknown", "pos"),
    ("exp(x) - sqrt(y)", "convex", "unknown"),
    ("sqrt(x) - exp(y)", "concave", "unknown"),
]


class TestCurvatureAndSign:
    @pytest.mark.parametrize("text,curvature,sign", CURVATURE_TABLE)
    def test_table(self, text, curvature, sign):
        assert curv(text) is Curvature(curvature)
        assert sgn(text) is Sign(sign)

    def test_lattice_predicates(self):
        assert Curvature.CONSTANT.is_affine()
        assert Curvature.AFFINE.is_convex() and Curvature.AFFINE.is_concave()
        assert Curvature.CONVEX.is_convex() and not Curvature.CONVEX.is_concave()
        assert not Curvature.UNKNOWN.is_convex()
        assert not Curvature.UNKNOWN.is_concave()

    def test_unsigned_param_context_defaults_to_unknown(self):
        e = parse_expr_in("a * exp(x)", SCOPE)
        assert curvature_of(e, {}) is Curvature.UNKNOWN

    def test_param_sign_context_reads_declarations(self):
        p = parse(CORPUS.joinpath("chain1.opt").read_text())
        ctx = param_sign_context(p)
        assert ctx["a"] is Sign.NONNEG
        assert ctx["b"] is Sign.UNKNOWN

    def test_declared_signs_never_make_or_break_affine(self):
        # 50 000 seeded expressions over every atom, built level by level:
        # each takes one argument from the level before and any others from
        # all earlier levels, so depth is at most 4.  One id-keyed cache per
        # sign context lets each new node reuse its arguments' labels.
        rng = random.Random(20261018)
        contexts = ({}, {"a": Sign.POS, "b": Sign.NONPOS}, {"a": Sign.NEG, "b": Sign.NONNEG})
        caches = [{} for _ in contexts]
        levels = [[Var("x"), Var("y"), Param("a"), Param("b"), Const(0.0), Const(2.0), Const(-1.5)]]
        pool, atoms, affine = list(levels[0]), sorted(ATOM_ARITY), 0
        for count in (2_000, 8_000, 15_000, 25_000):
            level = []
            for _ in range(count):
                atom = rng.choice(atoms)
                if atom == "pow":
                    args = [rng.choice(levels[-1]), Const(float(rng.randint(1, 4)))]
                else:
                    args = [rng.choice(levels[-1])] + [rng.choice(pool) for _ in range(ATOM_ARITY[atom] - 1)]
                    rng.shuffle(args)
                e = Call(atom, tuple(args))
                labels = {_analyze(e, signs, cache)[0].is_affine() for signs, cache in zip(contexts, caches)}
                assert len(labels) == 1, print_expr(e)
                affine += labels.pop()
                level.append(e)
            levels.append(level)
            pool += level
        assert 1_000 < affine < 49_000
        assert all(is_affine(e) == curvature_of(e, contexts[1]).is_affine() for e in levels[2])

    def test_flip_helpers_are_involutions(self):
        for c in Curvature:
            assert flip_curvature(flip_curvature(c)) is c
        for s in Sign:
            assert flip_sign(flip_sign(s)) is s
        assert flip_curvature(Curvature.CONVEX) is Curvature.CONCAVE
        assert flip_sign(Sign.POS) is Sign.NEG


POLARITY_TABLE = [
    ("exp(y) <= log(x)", "c0/lhs", Polarity.ANTIMONOTONE),
    ("exp(y) <= log(x)", "c0/rhs", Polarity.MONOTONE),
    ("1 >= x", "c0/lhs", Polarity.MONOTONE),
    ("1 >= x", "c0/rhs", Polarity.ANTIMONOTONE),
    ("0 < x", "c0/rhs", Polarity.MONOTONE),
    ("x = y", "c0/lhs", Polarity.BOTH),
    ("x = y", "c0/rhs", Polarity.BOTH),
    ("x + 1 = y", "c0/lhs/0", Polarity.UNKNOWN),
    # sub's second slot is nonincreasing, so polarity flips there
    ("0 <= 0 - exp(x)", "c0/rhs", Polarity.MONOTONE),
    ("0 <= 0 - exp(x)", "c0/rhs/1", Polarity.ANTIMONOTONE),
    ("0 - exp(x) >= 1", "c0/lhs/1", Polarity.ANTIMONOTONE),
    ("exp(exp(x)) <= 1", "c0/lhs/0/0", Polarity.ANTIMONOTONE),
    # abs is monotone only once its argument has a sign
    ("abs(b * x) <= 1", "c0/lhs/0", Polarity.UNKNOWN),
    ("abs(exp(x)) <= 1", "c0/lhs/0", Polarity.ANTIMONOTONE),
    ("0 <= 1 / exp(x)", "c0/rhs/1", Polarity.UNKNOWN),
]


class TestPolarity:
    @pytest.mark.parametrize("constraint,path,expected", POLARITY_TABLE)
    def test_table(self, constraint, path, expected):
        p = prob(constraint)
        assert polarity_of(p, OccPath.parse(path)) is expected

    def test_objective_position_is_unknown(self):
        p = prob("0 <= x", objective="exp(x)")
        assert polarity_of(p, OccPath.parse("obj")) is Polarity.UNKNOWN
        assert polarity_of(p, OccPath.parse("obj/0")) is Polarity.UNKNOWN


class TestOccPath:
    @pytest.mark.parametrize("text", ["obj", "c0/lhs", "c3/rhs/0/1/0", "obj/2/0"])
    def test_parse_str_round_trip(self, text):
        assert str(OccPath.parse(text)) == text

    @pytest.mark.parametrize(
        "bad", ["", "lhs/0", "c1", "c1/mid/0", "cx/lhs", "c0/lhs/a", "c-1/rhs", "c3/rhs/0/-1", "obj/-1", "c+1/lhs"]
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            OccPath.parse(bad)

    def test_resolve_and_root(self, chain1):
        path = OccPath.parse("c0/rhs/0/0/1")
        assert print_expr(resolve(chain1, path)) == "sqrt(x)"
        assert print_expr(path_root(chain1, path)) == "log(a * sqrt(x) + b)"
        with pytest.raises(ValueError):
            resolve(chain1, OccPath.parse("c0/lhs/0/0/0"))


class TestDcpCheck:
    def test_chain_is_conformant(self, chain1):
        v = dcp_check(chain1)
        assert v.conformant
        assert not v.failures()

    def test_every_side_gets_a_diagnosis(self, chain1):
        v = dcp_check(chain1)
        tagged = {(d.constraint, d.side) for d in v.diagnoses}
        assert (None, "objective") in tagged
        for i in range(len(chain1.constraints)):
            assert (i, "lhs") in tagged and (i, "rhs") in tagged

    def test_concave_objective_rejected(self):
        v = dcp_check(prob("0 <= x", objective="sqrt(x)"))
        assert not v.conformant
        (d,) = v.failures()
        assert d.constraint is None and d.side == "objective"
        assert d.required == "convex" and d.inferred is Curvature.CONCAVE
        assert str(d.failing_path) == "obj"

    def test_mirrored_inequality_fails_both_sides(self):
        p = parse(CORPUS.joinpath("mirrored.opt").read_text())
        v = dcp_check(p)
        got = {(d.side, print_expr(resolve(p, d.failing_path))) for d in v.failures()}
        assert got == {("lhs", "log(x)"), ("rhs", "exp(y)")}

    def test_nonaffine_equality_side_names_culprit(self):
        p = parse(CORPUS.joinpath("nonaffine_eq.opt").read_text())
        (d,) = dcp_check(p).failures()
        assert d.constraint == 1 and d.required == "affine"
        assert print_expr(resolve(p, d.failing_path)) == "exp(y)"

    def test_corpus_matches_manifest(self, manifest, corpus_problems):
        for name, meta in manifest.items():
            v = dcp_check(corpus_problems[name])
            assert v.conformant == meta["conformant"], name
            if not meta["conformant"]:
                first = min(d.constraint for d in v.failures())
                assert first == meta["failing_index"], name


# Random expression trees for numeric soundness checks.  Leaves stay in
# ranges where log/sqrt/div have a decent chance of being defined.

_leaves = st.one_of(
    st.just(Var("x")),
    st.just(Var("y")),
    st.just(Param("a")),
    st.just(Param("b")),
    st.floats(min_value=0.25, max_value=3.0).map(lambda v: Const(round(v, 3))),
)


def _compound(children):
    unary = st.sampled_from(["neg", "exp", "sqrt", "log", "abs"]).flatmap(
        lambda op: children.map(lambda e: Call(op, (e,)))
    )
    binary = st.sampled_from(["add", "sub", "mul", "div"]).flatmap(
        lambda op: st.tuples(children, children).map(lambda ab: Call(op, ab))
    )
    power = st.tuples(children, st.integers(min_value=1, max_value=3)).map(
        lambda ek: Call("pow", (ek[0], Const(float(ek[1]))))
    )
    return st.one_of(unary, binary, power)


expr_trees = st.recursive(_leaves, _compound, max_leaves=8)

_points = st.fixed_dictionaries(
    {
        "x": st.floats(min_value=-3, max_value=3),
        "y": st.floats(min_value=-3, max_value=3),
        "a": st.floats(min_value=0, max_value=3),
        "b": st.floats(min_value=-3, max_value=3),
    }
)


def _value(e, env):
    try:
        v = evaluate(e, env)
    except (DomainError, OverflowError, ZeroDivisionError):
        assume(False)
    assume(math.isfinite(v) and abs(v) < 1e8)
    return v


class TestLinearAgreesWithDcp:
    @settings(max_examples=400, deadline=None)
    @given(e=st.recursive(st.one_of(_leaves, st.just(Const(0.0))), _compound, max_leaves=8))
    def test_not_affine_exactly_where_dcp_says(self, e):
        # conic._linear raises _NotAffine exactly where is_affine fails, with
        # params bound to nonzero values.  A 0 leaf makes subterms such as
        # 0 * x * y constant.  Where a constant cannot be valued (sqrt of a
        # negative, a zero divisor) _linear raises ConicError instead, as
        # soon as its walk reaches it, so such an expression has no verdict.
        with np.errstate(all="ignore"):
            try:
                _linear(e, {"x": 0, "y": 1}, {"a": 1.5, "b": -0.5})
            except _NotAffine:
                affine = False
            except ConicError:
                affine = None
            else:
                affine = True
        assume(affine is not None)
        assert affine == is_affine(e)


class TestNumericSoundness:
    @settings(max_examples=300, deadline=None)
    @given(e=expr_trees, u=_points, v=_points)
    def test_midpoint_rule_matches_label(self, e, u, v):
        label = curvature_of(e, SIGNS)
        assume(label is not Curvature.UNKNOWN)
        assume(u["a"] == v["a"] and u["b"] == v["b"])
        mid = {k: (u[k] + v[k]) / 2 for k in u}
        fu, fv, fm = _value(e, u), _value(e, v), _value(e, mid)
        chord = (fu + fv) / 2
        tol = 1e-8 * (1 + abs(fu) + abs(fv))
        if label.is_convex():
            assert fm <= chord + tol
        if label.is_concave():
            assert fm >= chord - tol

    @settings(max_examples=300, deadline=None)
    @given(e=expr_trees, u=_points)
    def test_sign_label_matches_value(self, e, u):
        label = sign_of(e, SIGNS)
        assume(label is not Sign.UNKNOWN)
        fu = _value(e, u)
        if label in (Sign.NONNEG, Sign.POS):
            assert fu >= -1e-12
        if label in (Sign.NEG,):
            assert fu <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(e=expr_trees)
    def test_negation_flips_labels(self, e):
        n = Call("neg", (e,))
        assert curvature_of(n, SIGNS) is flip_curvature(curvature_of(e, SIGNS))
        assert sign_of(n, SIGNS) is flip_sign(sign_of(e, SIGNS))
