import math

import numpy as np
import pytest

from conify.problem import (
    Assignment,
    Call,
    Const,
    Constraint,
    DomainError,
    Param,
    ParamDecl,
    Problem,
    UnboundName,
    Var,
    _vcheck_feasible,
    check_feasible,
    comparison_holds,
    evaluate,
    objective_value,
)

X = Var("x")
Y = Var("y")


def c(v: float) -> Const:
    return Const(float(v))


def call(atom, *args):
    return Call(atom, tuple(args))


class TestExprConstruction:
    def test_arity_enforced(self):
        with pytest.raises(ValueError):
            Call("add", (X,))
        with pytest.raises(ValueError):
            Call("exp", (X, Y))

    def test_unknown_atom(self):
        with pytest.raises(ValueError):
            Call("sin", (X,))

    def test_pow_exponent_must_be_integer_literal(self):
        call("pow", X, c(2))
        with pytest.raises(ValueError):
            call("pow", X, c(0.5))
        with pytest.raises(ValueError):
            call("pow", X, c(0))
        with pytest.raises(ValueError):
            call("pow", X, Y)

    def test_trees_hashable_and_comparable(self):
        e1 = call("add", X, c(1))
        e2 = call("add", X, c(1))
        assert e1 == e2 and hash(e1) == hash(e2)
        assert e1 != call("add", X, c(2))


class TestProblemConstruction:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Problem(("x", "x"), (), X, ())
        with pytest.raises(ValueError):
            Problem(("x",), (ParamDecl("x", "none"),), X, ())

    def test_undeclared_reference_rejected(self):
        with pytest.raises(ValueError):
            Problem(("x",), (), Y, ())
        with pytest.raises(ValueError):
            Problem(("x",), (), X, (Constraint(Param("a"), "<=", X),))

    def test_param_decl_lookup(self):
        p = Problem(("x",), (ParamDecl("a", "nonneg"),), X, ())
        decls = {d.name: d for d in p.params}
        assert decls["a"].sign == "nonneg"
        assert "b" not in decls


class TestEvaluate:
    def test_arithmetic(self):
        e = call("add", call("mul", c(2), X), call("neg", Y))
        assert evaluate(e, {"x": 3.0, "y": 1.0}) == 5.0

    def test_pow_is_repeated_multiplication(self):
        assert evaluate(call("pow", X, c(3)), {"x": -2.0}) == -8.0

    def test_unbound_name(self):
        with pytest.raises(UnboundName):
            evaluate(X, {})

    @pytest.mark.parametrize(
        "atom,value",
        [("log", 0.0), ("log", -1.0), ("sqrt", -0.5)],
    )
    def test_domain_errors(self, atom, value):
        with pytest.raises(DomainError):
            evaluate(call(atom, X), {"x": value})

    def test_division_by_zero_is_domain_error(self):
        with pytest.raises(DomainError):
            evaluate(call("div", c(1), X), {"x": 0.0})

    def test_exp_overflow_is_infinite(self):
        assert evaluate(call("exp", X), {"x": 1e4}) == math.inf

    def test_pow_overflow_is_signed_infinity(self):
        assert evaluate(call("pow", X, c(3)), {"x": 1e200}) == math.inf
        assert evaluate(call("pow", X, c(3)), {"x": -1e200}) == -math.inf
        assert evaluate(call("pow", X, c(2)), {"x": -1e200}) == math.inf

    def test_atoms_match_math(self):
        pt: Assignment = {"x": 2.25}
        assert evaluate(call("sqrt", X), pt) == math.sqrt(2.25)
        assert evaluate(call("log", X), pt) == math.log(2.25)
        assert evaluate(call("abs", call("neg", X)), pt) == 2.25


class TestComparisons:
    def test_nonstrict_gets_tolerance(self):
        assert comparison_holds("<=", 1.0 + 1e-9, 1.0, 1e-8)
        assert not comparison_holds("<=", 1.0 + 1e-7, 1.0, 1e-8)
        assert comparison_holds(">=", 1.0, 1.0 + 1e-9, 1e-8)

    def test_strict_gets_none(self):
        assert not comparison_holds("<", 1.0, 1.0, 1e-3)
        assert comparison_holds("<", 1.0, 1.0 + 1e-12, 0.0)

    def test_equality_is_symmetric_band(self):
        assert comparison_holds("=", 1.0, 1.0 + 5e-8, 1e-7)
        assert not comparison_holds("=", 1.0, 1.0 + 2e-7, 1e-7)


class TestCheckFeasible:
    def setup_method(self):
        self.p = Problem(
            ("x",),
            (),
            X,
            (
                Constraint(c(0), "<=", X),
                Constraint(call("log", X), "<=", c(1)),
            ),
        )

    def test_feasible(self):
        assert check_feasible(self.p, {"x": 1.0}).feasible

    def test_first_violation_reported(self):
        v = check_feasible(self.p, {"x": -1.0})
        assert not v.feasible and v.index == 0

    def test_pow_overflow_is_a_violation_not_a_crash(self):
        p = Problem(("x",), (), X, (Constraint(call("pow", X, c(3)), "<=", c(1)),))
        assert not check_feasible(p, {"x": 1e200}).feasible
        assert check_feasible(p, {"x": -1e200}).feasible

    def test_domain_error_reported_with_index(self):
        p = Problem(("x",), (), X, (Constraint(call("log", X), "<=", c(1)),))
        v = check_feasible(p, {"x": 0.0})
        assert not v.feasible and v.index == 0 and isinstance(v.error, DomainError)

    def test_vector_twin_gives_the_same_first_failure(self):
        # pow overflows at the ends of the grid and the later constraints
        # leave their domains: nan must fail exactly where DomainError does.
        p = Problem(("x", "y"), (ParamDecl("a"),), X, (
            Constraint(call("pow", X, c(3)), "<", c(1e10)),
            Constraint(call("sqrt", call("sub", X, Param("a"))), "<=", Y),
            Constraint(call("div", c(1), Y), ">", c(-4)),
            Constraint(call("log", call("mul", X, Y)), "=", c(0)),
        ))
        values = [-1e300, -2.0, -0.5, -0.25, 0.0, 0.5, 1.0, 2.0, 1e300]
        xs, ys = zip(*[(x, y) for x in values for y in values])
        env = {"x": np.array(xs), "y": np.array(ys), "a": -0.5}
        want = []
        for x, y in zip(xs, ys):
            v = check_feasible(p, {"x": x, "y": y, "a": -0.5}, tol=0.5)
            want.append(-1 if v.feasible else v.index)
        assert _vcheck_feasible(p, env, tol=0.5).tolist() == want
        assert set(want) == {-1, 0, 1, 2, 3}


class TestDerivedProblems:
    def test_objective_value(self):
        p = Problem(("x",), (), call("mul", c(3), X), ())
        assert objective_value(p, {"x": 2.0}) == 6.0


class TestErrors:
    def test_every_error_family_shares_one_root(self):
        import conify
        from conify.conic import ConicError, ConicFormatError
        from conify.reduce import TraceFormatError

        families = (conify.DslError, ConicError, ConicFormatError, conify.OracleError,
                    conify.Infeasible, conify.ReduceError, TraceFormatError, DomainError, UnboundName)
        for err in families:
            assert issubclass(err, conify.ConifyError), err
