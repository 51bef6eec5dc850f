import math
import warnings

import numpy as np
import pytest

import _reference
from conify.problem import (
    Assignment,
    Call,
    Const,
    Constraint,
    DomainError,
    Feasibility,
    Param,
    ParamDecl,
    Problem,
    UnboundName,
    Var,
    _mask_ok,
    _vcheck_feasible,
    check_feasible,
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
        with pytest.raises(DomainError) as info:
            evaluate(call(atom, X), {"x": value})
        assert (info.value.atom, info.value.value, type(info.value.value)) == (atom, value, float)

    def test_division_by_zero_is_domain_error(self):
        for value in (0.0, -0.0):
            with pytest.raises(DomainError) as info:
                evaluate(call("div", c(1), X), {"x": value})
            # the divisor is reported as 0.0 whatever its sign, as by the reference
            assert (info.value.atom, repr(info.value.value)) == ("div", "0.0")

    def test_nested_domain_error_names_the_inner_atom(self):
        # 0 * nan is nan: the atom that left its domain is log, not mul
        with pytest.raises(DomainError) as info:
            evaluate(call("mul", c(0), call("log", X)), {"x": 0.0})
        assert (info.value.atom, info.value.value) == ("log", 0.0)

    @pytest.mark.parametrize(
        "e,want",
        [(call("add", call("log", X), Var("z")), DomainError),
         (call("add", Var("z"), call("log", X)), UnboundName),
         (call("add", call("sub", X, X), Var("z")), UnboundName)],
    )
    def test_first_error_in_evaluation_order(self, e, want):
        with pytest.raises(want):
            evaluate(e, {"x": 0.0})

    def test_nan_without_domain_fault_is_a_value(self):
        assert math.isnan(evaluate(call("sub", X, X), {"x": math.inf}))

    def test_values_are_python_floats(self):
        pt = {"x": 2, "y": 1.5}
        for e in [X, c(1), call("exp", X), call("pow", Y, c(3)), call("abs", Y), call("add", X, Y)]:
            assert type(evaluate(e, pt)) is float, e

    def test_exp_overflow_is_infinite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert evaluate(call("exp", X), {"x": 1e4}) == math.inf

    def test_pow_overflow_is_signed_infinity(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
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
        assert _mask_ok("<=", 1.0 + 1e-9, 1.0, 1e-8)
        assert not _mask_ok("<=", 1.0 + 1e-7, 1.0, 1e-8)
        assert _mask_ok(">=", 1.0, 1.0 + 1e-9, 1e-8)

    def test_strict_gets_none(self):
        assert not _mask_ok("<", 1.0, 1.0, 1e-3)
        assert _mask_ok("<", 1.0, 1.0 + 1e-12, 0.0)

    def test_equality_is_symmetric_band(self):
        assert _mask_ok("=", 1.0, 1.0 + 5e-8, 1e-7)
        assert not _mask_ok("=", 1.0, 1.0 + 2e-7, 1e-7)

    @pytest.mark.parametrize("op", ["<=", "<", "=", ">=", ">"])
    def test_nan_never_holds(self, op):
        assert not _mask_ok(op, math.nan, 1.0, 1.0)
        assert not _mask_ok(op, 1.0, math.nan, 1.0)


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

    def test_nan_without_domain_fault_fails_with_no_error(self):
        p = Problem(("x",), (), X, (Constraint(c(0), "<=", X), Constraint(call("sub", X, X), "<=", c(1))))
        assert check_feasible(p, {"x": math.inf}) == Feasibility(False, index=1)

    @pytest.mark.parametrize("x,want", [(1.0, 1), (-1.0, 0)])
    def test_unbound_name_reported_at_its_constraint(self, x, want):
        # z is declared but not bound: its constraint fails in order, so an
        # earlier violation is reported first
        p = Problem(("x", "z"), (), X, (Constraint(c(0), "<=", X), Constraint(Var("z"), "<=", c(1))))
        v = check_feasible(p, {"x": x})
        assert (v.feasible, v.index, repr(v.error)) == (False, want, repr(_reference.check_feasible(p, {"x": x}).error))
        assert isinstance(v.error, UnboundName) == (want == 1)

    def test_one_point_is_judged_as_among_many(self):
        # math.exp(x) exceeds np.exp(x) by one ulp, 7.6e-6, more than tol:
        # a point must get the verdict the vector check gives it
        x = 24.705265676961314
        p = Problem(("x", "y"), (), X, (Constraint(call("exp", X), "<=", Y),))
        pt = {"x": x, "y": float(np.exp(x))}
        assert check_feasible(p, pt).feasible == (_vcheck_feasible(p, pt) == -1)
        assert check_feasible(p, pt).feasible

    def test_vector_twin_gives_the_same_first_failure(self):
        # pow overflows at the ends of the grid and the later constraints
        # leave their domains: nan must fail exactly where the reference
        # raises DomainError, and name the same atom and argument.
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
            pt = {"x": x, "y": y, "a": -0.5}
            ref, got = _reference.check_feasible(p, pt, tol=0.5), check_feasible(p, pt, tol=0.5)
            assert (got.feasible, got.index, repr(got.error)) == (ref.feasible, ref.index, repr(ref.error)), pt
            want.append(-1 if ref.feasible else ref.index)
        assert _vcheck_feasible(p, env, tol=0.5).tolist() == want
        assert set(want) == {-1, 0, 1, 2, 3}


class TestDerivedProblems:
    def test_objective_value(self):
        p = Problem(("x",), (), call("mul", c(3), X), ())
        assert objective_value(p, {"x": 2.0}) == 6.0
        assert type(objective_value(p, {"x": 2.0})) is float


class TestErrors:
    def test_every_error_family_shares_one_root(self):
        import conify
        from conify.conic import ConicError, ConicFormatError
        from conify.reduce import TraceFormatError

        families = (conify.DslError, ConicError, ConicFormatError, conify.OracleError,
                    conify.Infeasible, conify.ReduceError, TraceFormatError, DomainError, UnboundName)
        for err in families:
            assert issubclass(err, conify.ConifyError), err
