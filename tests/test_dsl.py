import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conify.dsl import (
    DslError,
    parse,
    parse_constraint_in,
    parse_expr_in,
    print_constraint,
    print_expr,
    print_problem,
)
from conify.problem import Call, Const, Constraint, Param, ParamDecl, Problem, Var

CORPUS = pathlib.Path(__file__).resolve().parents[1] / "corpus"

SCOPE = Problem(
    ("x", "y"),
    (ParamDecl("a", "nonneg"), ParamDecl("b", "none")),
    Var("x"),
    (),
)


class TestParsing:
    def test_minimal_problem(self):
        p = parse("minimization !vars x !objective x")
        assert p.variables == ("x",) and p.constraints == ()

    def test_full_problem_sections(self):
        p = parse(
            """
            # leading comment
            minimization
              !params a: nonneg, b
              !vars x y
              !objective a * x + b
              !constraints
                x <= y,   # trailing comment
                exp(x) <= 10
            """
        )
        assert p.variables == ("x", "y")
        assert p.params == (ParamDecl("a", "nonneg"), ParamDecl("b", "none"))
        assert len(p.constraints) == 2
        assert p.constraints[1].lhs == Call("exp", (Var("x"),))

    def test_precedence_and_associativity(self):
        e = parse_expr_in("1 - 2 - 3 * x ^ 2", SCOPE)
        want = Call(
            "sub",
            (
                Call("sub", (Const(1.0), Const(2.0))),
                Call("mul", (Const(3.0), Call("pow", (Var("x"), Const(2.0))))),
            ),
        )
        assert e == want

    def test_unary_minus_folds_into_literals(self):
        assert parse_expr_in("-2.5", SCOPE) == Const(-2.5)
        assert parse_expr_in("-x", SCOPE) == Call("neg", (Var("x"),))

    def test_scientific_notation(self):
        assert parse_expr_in("1e-3", SCOPE) == Const(1e-3)
        assert parse_expr_in("2.5E+2", SCOPE) == Const(250.0)

    def test_comparators(self):
        for op in ("<=", "<", "=", ">=", ">"):
            c = parse_constraint_in(f"x {op} y", SCOPE)
            assert c.op == op

    def test_atom_calls_only_for_known_atoms(self):
        with pytest.raises(DslError, match="unknown"):
            parse_expr_in("sin(x)", SCOPE)

    def test_unknown_identifier(self):
        with pytest.raises(DslError, match="unknown identifier"):
            parse_expr_in("z + 1", SCOPE)

    def test_pow_requires_integer_literal(self):
        with pytest.raises(DslError):
            parse_expr_in("x ^ y", SCOPE)
        with pytest.raises(DslError):
            parse_expr_in("x ^ 0.5", SCOPE)
        with pytest.raises(DslError):
            parse_expr_in("x ^ 0", SCOPE)

    def test_error_carries_line_and_column(self):
        try:
            parse("minimization\n  !vars x\n  !objective x + )\n")
        except DslError as e:
            assert e.issues[0].line == 3
            assert e.issues[0].col > 1
        else:
            pytest.fail("expected a parse error")

    @pytest.mark.parametrize(
        "text,where",
        [
            ("minimization\n\t!vars x\n\t\t!objective x + )", "3:18"),  # a tab is one column
            ("minimization\r\n!vars x\r\n!objective x +\r\n", "4:1"),  # and so is \r
            ("minimization !vars x !objective x !constraints", "1:47"),  # end of input
            ("minimization\n!vars x\n# a comment, x <= )\n!objective x <= 1", "4:14"),
        ],
        ids=["tab", "cr", "eof", "comment"],
    )
    def test_line_and_column_count_characters(self, text, where):
        with pytest.raises(DslError, match=rf"^{where}: "):
            parse(text)

    def test_unexpected_character_reported_before_parse_errors(self):
        with pytest.raises(DslError, match=r"^3:3: unexpected character '@'$"):
            parse("minimization !vars x x\n!objective )\n  @")

    @pytest.mark.parametrize(
        "text,where,literal",
        [
            ("1e400", "1:1", "1e400"),
            ("x - -1e400", "1:6", "1e400"),
            ("x * 1.8e308", "1:5", "1.8e308"),
            ("x ^ " + "9" * 400, "1:5", "9" * 400),
        ],
        ids=["number", "negated", "past-max", "exponent"],
    )
    def test_literal_past_float_range_rejected(self, text, where, literal):
        with pytest.raises(DslError, match=rf"^{where}: number '{literal}' is past the float range$"):
            parse_expr_in(text, SCOPE)

    def test_largest_and_smallest_literals_read(self):
        assert parse_expr_in("1.7976931348623157e308", SCOPE) == Const(1.7976931348623157e308)
        assert parse_expr_in("-1e-400", SCOPE) == Const(-0.0)

    def test_duplicate_declarations_rejected(self):
        with pytest.raises(DslError, match="declared more than once"):
            parse("minimization !vars x x !objective x")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(DslError):
            parse("minimization !vars x !objective x stray")


class TestPrinting:
    def test_constraint_golden_shapes(self):
        c = parse_constraint_in("t2 ^ 2 <= x", Problem(("t2", "x"), (), Var("x"), ()))
        assert print_constraint(c) == "t2 ^ 2 <= x"
        c = parse_constraint_in("exp(y) <= log(a * sqrt(x) + b)", SCOPE)
        assert print_constraint(c) == "exp(y) <= log(a * sqrt(x) + b)"

    def test_integer_valued_constants_print_bare(self):
        assert print_expr(Const(2.0)) == "2"
        assert print_expr(Const(2.5)) == "2.5"

    def test_minimal_parentheses(self):
        assert print_expr(parse_expr_in("(x + y) * 2", SCOPE)) == "(x + y) * 2"
        assert print_expr(parse_expr_in("x + y * 2", SCOPE)) == "x + y * 2"
        assert print_expr(parse_expr_in("x - (y - 1)", SCOPE)) == "x - (y - 1)"
        assert print_expr(parse_expr_in("-(x * y)", SCOPE)) == "-(x * y)"
        assert print_expr(parse_expr_in("(x + 1) ^ 2", SCOPE)) == "(x + 1) ^ 2"

    def test_problem_layout(self):
        text = print_problem(SCOPE)
        assert text.splitlines()[0] == "minimization"
        assert "  !params a: nonneg, b" in text
        assert text.endswith("\n")


def _expr_nodes():
    leaves = st.one_of(
        st.sampled_from([Var("x"), Var("y"), Param("a"), Param("b")]),
        st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
        ).map(lambda v: Const(float(v))),
    )

    def compound(children):
        binary = st.tuples(
            st.sampled_from(["add", "sub", "mul", "div"]), children, children
        ).map(lambda t: Call(t[0], (t[1], t[2])))
        unary_fn = st.tuples(
            st.sampled_from(["exp", "log", "sqrt", "abs"]), children
        ).map(lambda t: Call(t[0], (t[1],)))
        # The surface syntax folds a minus sign on a literal into the literal,
        # so neg never wraps a bare constant.
        negate = children.filter(lambda e: not isinstance(e, Const)).map(
            lambda e: Call("neg", (e,))
        )
        power = st.tuples(children, st.integers(1, 5)).map(
            lambda t: Call("pow", (t[0], Const(float(t[1]))))
        )
        return st.one_of(binary, unary_fn, negate, power)

    return st.recursive(leaves, compound, max_leaves=25)


class TestRoundTrips:
    @given(_expr_nodes())
    @settings(max_examples=300)
    def test_print_parse_expression_identity(self, e):
        assert parse_expr_in(print_expr(e), SCOPE) == e

    @given(_expr_nodes(), _expr_nodes(), st.sampled_from(["<=", "<", "=", ">=", ">"]))
    @settings(max_examples=100)
    def test_print_parse_constraint_identity(self, lhs, rhs, op):
        c = Constraint(lhs, op, rhs)
        assert parse_constraint_in(print_constraint(c), SCOPE) == c

    @pytest.mark.parametrize("k", [1e16, 2.0**60], ids=["1e16", "2**60"])
    def test_large_exponent_round_trip(self, k):
        p = parse(f"minimization\n!vars x\n!objective x\n!constraints\nx ^ {int(k)} <= 1\n")
        assert print_constraint(p.constraints[0]) == f"x ^ {int(k)} <= 1"
        assert parse(print_problem(p)) == p

    @pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.opt")))
    def test_corpus_problem_round_trip(self, name):
        p = parse((CORPUS / name).read_text())
        assert parse(print_problem(p)) == p
