import math

import pytest

from conify.atoms import (
    ATOMS,
    Curvature,
    GraphImplementation,
    Monotonicity,
    Sign,
    atom_lookup,
    check_is_greatest,
    flip_curvature,
    flip_sign,
    graph_impl,
    sign_of_value,
)
from conify.problem import ATOM_ARITY, Call, Const, Constraint, Var, evaluate


class TestRegistry:
    def test_every_atom_is_described(self):
        assert set(ATOMS) == set(ATOM_ARITY)

    def test_lookup_unknown(self):
        with pytest.raises(KeyError):
            atom_lookup("sin")

    @pytest.mark.parametrize(
        "name,curv",
        [
            ("add", Curvature.AFFINE),
            ("sub", Curvature.AFFINE),
            ("neg", Curvature.AFFINE),
            ("exp", Curvature.CONVEX),
            ("abs", Curvature.CONVEX),
            ("pow", Curvature.CONVEX),
            ("log", Curvature.CONCAVE),
            ("sqrt", Curvature.CONCAVE),
            ("mul", Curvature.UNKNOWN),
            ("div", Curvature.UNKNOWN),
        ],
    )
    def test_atom_curvature_labels(self, name, curv):
        assert ATOMS[name].curvature == curv


class TestSignAlgebra:
    def test_sign_of_value(self):
        assert sign_of_value(2.0) == Sign.POS
        assert sign_of_value(-0.5) == Sign.NEG
        assert sign_of_value(0.0) == Sign.ZERO

    def test_flip_involutions(self):
        for s in Sign:
            assert flip_sign(flip_sign(s)) == s
        for c in Curvature:
            assert flip_curvature(flip_curvature(c)) == c

    def test_exp_sign_is_positive(self):
        assert ATOMS["exp"].sign((Sign.UNKNOWN,)) == Sign.POS

    def test_sqrt_sign_is_nonneg(self):
        assert ATOMS["sqrt"].sign((Sign.UNKNOWN,)) == Sign.NONNEG


class TestMonotonicity:
    def test_exp_nondecreasing(self):
        assert ATOMS["exp"].monotonicity((Sign.UNKNOWN,)) == (Monotonicity.NONDECREASING,)

    def test_abs_depends_on_sign(self):
        assert ATOMS["abs"].monotonicity((Sign.NONNEG,)) == (Monotonicity.NONDECREASING,)
        assert ATOMS["abs"].monotonicity((Sign.NONPOS,)) == (Monotonicity.NONINCREASING,)
        assert ATOMS["abs"].monotonicity((Sign.UNKNOWN,)) == (Monotonicity.NONE,)

    def test_neg_nonincreasing(self):
        assert ATOMS["neg"].monotonicity((Sign.UNKNOWN,)) == (Monotonicity.NONINCREASING,)


class TestGraphImplementations:
    def test_registry_entries(self):
        assert graph_impl("sqrt") is not None
        assert graph_impl("log") is not None
        assert graph_impl("exp") is None
        assert graph_impl("add") is None

    def test_sqrt_description_shape(self):
        gi = graph_impl("sqrt")
        t, x = Var("t"), Var("x")
        c = gi.build_constraint(t, (x,))
        assert c == Constraint(Call("pow", (t, c.lhs.args[1])), "<=", x)
        assert c.lhs.args[1].value == 2.0
        assert gi.required_fact == "nonneg"
        assert gi.direction == "greatest"

    def test_log_description_shape(self):
        gi = graph_impl("log")
        t, x = Var("t"), Var("x")
        c = gi.build_constraint(t, (x,))
        assert c == Constraint(Call("exp", (t,)), "<=", x)
        assert gi.required_fact == "pos"

    def test_described_values(self):
        assert graph_impl("sqrt").value((4.0,)) == 2.0
        assert graph_impl("log").value((math.e,)) == pytest.approx(1.0)


class TestIsGreatest:
    def test_sqrt_at_a_point(self):
        r = check_is_greatest(graph_impl("sqrt"), (4.0,))
        assert r.ok and r.value == 2.0

    def test_log_at_a_point(self):
        r = check_is_greatest(graph_impl("log"), (5.0,))
        assert r.ok and r.value == math.log(5.0)

    def test_trivial_implementations(self):
        # t <= f(x), the description behind plain linearization
        for atom, arg in [("exp", 1.5), ("sqrt", 2.0), ("abs", -3.0)]:
            trivial = GraphImplementation(
                atom,
                "greatest",
                lambda t, args, atom=atom: Constraint(t, "<=", Call(atom, args)),
                lambda a, atom=atom: evaluate(Call(atom, (Const(a[0]),)), {}),
            )
            r = check_is_greatest(trivial, (arg,))
            assert r.ok, (atom, r.detail)

    def test_sqrt_written_with_geq(self):
        # x >= t^2 is the same description as t^2 <= x
        flipped = GraphImplementation(
            "sqrt",
            "greatest",
            lambda t, args: Constraint(args[0], ">=", Call("pow", (t, Const(2.0)))),
            lambda a: math.sqrt(a[0]),
            required_fact="nonneg",
        )
        r = check_is_greatest(flipped, (4.0,))
        assert r.ok and r.value == 2.0 and r.counterexample is None, r

    def test_wrong_description_is_caught(self):
        # t <= x describes the greatest solution x, not sqrt(x): the sweep
        # must find points above sqrt(x) that still satisfy the constraint.
        bogus = GraphImplementation(
            "sqrt",
            "greatest",
            lambda t, args: Constraint(t, "<=", args[0]),
            lambda a: math.sqrt(a[0]),
            required_fact="nonneg",
        )
        r = check_is_greatest(bogus, (4.0,))
        assert not r.ok
        assert r.counterexample is not None and r.counterexample > 2.0

    def test_point_failing_own_constraint_is_caught(self):
        bogus = GraphImplementation(
            "sqrt",
            "greatest",
            lambda t, args: Constraint(Call("pow", (t, Const(2.0))), "<=", args[0]),
            lambda a: math.sqrt(a[0]) + 0.5,
            required_fact="nonneg",
        )
        r = check_is_greatest(bogus, (4.0,))
        assert not r.ok and "own constraint" in r.detail
