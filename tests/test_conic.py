import math
import pathlib
import warnings

import numpy as np
import pytest

from _cones import make_weak_duality_pair, sample_cone_point, sample_dual_point
from conify.conic import (
    ConeBlock,
    ConicError,
    ConicFormatError,
    ConicProblem,
    DualCertificate,
    SolutionFile,
    StrictComparatorRemains,
    UnboundParameter,
    UnrecognizedShape,
    _const_value,
    check_dual_bound,
    check_primal,
    cone_member,
    constraint_shape,
    dual_cone_member,
    emit,
    read_conic,
    read_solution,
    write_conic,
    write_solution,
)
from conify.dsl import parse
from conify.problem import Call, Const
from conify.reduce import canonize, reduce_problem

CORPUS = pathlib.Path(__file__).resolve().parents[1] / "corpus"
UNIT = {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0}


def mini(constraints, vars="x y", objective="x"):
    return parse(
        f"minimization\n!vars {vars}\n!objective {objective}\n!constraints\n{constraints}"
    )


class TestConstraintShape:
    @pytest.mark.parametrize(
        "text,shape",
        [
            ("x + y = 1", "eq"),
            ("x <= 1", "orthant"),
            ("1 >= x", "orthant"),
            ("x <= y", "orthant"),
            ("t ^ 2 <= x", "soc"),
            ("exp(t) <= x + 1", "exp"),
            ("0 < x", None),
            ("x < 1", None),
            ("sqrt(x) <= 1", None),
            ("exp(t) <= exp(x)", None),
            ("t ^ 3 <= x", None),
        ],
    )
    def test_table(self, text, shape):
        p = mini(text, vars="x y t")
        assert constraint_shape(p.constraints[0]) == shape

    def test_soc_needs_affine_base(self):
        p = mini("sqrt(x) ^ 2 <= y", vars="x y")
        assert constraint_shape(p.constraints[0]) is None


class TestEmit:
    def test_single_upper_bound(self):
        cp = emit(mini("x <= 1", vars="x"), {})
        assert cp.variables == ("x",)
        assert cp.A.shape == (0, 1) and cp.b.shape == (0,)
        assert np.array_equal(cp.G, [[-1.0]])
        assert np.array_equal(cp.h, [-1.0])
        assert [(b.kind, b.dim) for b in cp.blocks] == [("ORTHANT", 1)]

    def test_equality_row(self):
        cp = emit(mini("x + y = 1", objective="x + y"), {})
        assert np.array_equal(cp.A, [[1.0, 1.0]])
        assert np.array_equal(cp.b, [1.0])
        assert cp.blocks == ()

    def test_soc_rows(self):
        cp = emit(mini("t ^ 2 <= x", vars="x t"), {})
        assert np.array_equal(cp.G, [[0.5, 0.0], [0.5, 0.0], [0.0, 1.0]])
        assert np.array_equal(cp.h, [-0.5, 0.5, 0.0])
        assert [(b.kind, b.dim) for b in cp.blocks] == [("SOC", 3)]

    def test_exp_rows_have_constant_middle(self):
        cp = emit(mini("exp(t) <= x", vars="x t"), {})
        assert np.array_equal(cp.G, [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(cp.h, [0.0, -1.0, 0.0])
        assert [(b.kind, b.dim) for b in cp.blocks] == [("EXP", 3)]

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_parameter_rejected(self, chain1, chain1_trace, value):
        # named before any arithmetic, so numpy warns of nothing
        bound = {**UNIT, "a": value}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: emit(chain1_trace.final, bound), lambda: canonize(chain1, bound)):
                with pytest.raises(ConicError, match=rf"^parameter a is {value}, expected a finite number$"):
                    call()

    def test_chain_final_emission(self, chain1_trace):
        cp = emit(chain1_trace.final, UNIT)
        assert cp.variables == ("x", "y", "t1", "t2", "t3")
        assert np.array_equal(cp.c, [1.0, 0.0, 0.0, 0.0, 0.0])
        assert np.array_equal(cp.A, [[1.0, 1.0, 0.0, 0.0, 0.0]])
        assert np.array_equal(cp.b, [1.0])
        assert [(b.kind, b.dim) for b in cp.blocks] == [
            ("ORTHANT", 1),
            ("EXP", 3),
            ("SOC", 3),
            ("EXP", 3),
        ]

    def test_figure_order_blocks(self):
        p5 = parse(CORPUS.joinpath("chain5.opt").read_text())
        cp = emit(p5, UNIT)
        assert [(b.kind, b.dim) for b in cp.blocks] == [
            ("EXP", 3),
            ("SOC", 3),
            ("EXP", 3),
            ("ORTHANT", 1),
        ]
        assert cp.A.shape == (1, 5)

    def test_parameter_values_enter_rows(self):
        p5 = parse(CORPUS.joinpath("chain5.opt").read_text())
        cp = emit(p5, {"a": 2.0, "b": 0.5, "c": 3.0, "d": 4.0})
        i = cp.variables.index("t2")
        assert cp.G[0, i] == 2.0 and cp.h[0] == -0.5
        assert cp.b[0] == 4.0

    def test_strict_comparator_rejected(self):
        with pytest.raises(StrictComparatorRemains):
            emit(mini("0 < x", vars="x"), {})

    def test_unrecognized_shape_rejected(self):
        with pytest.raises(UnrecognizedShape):
            emit(mini("sqrt(x) <= 1", vars="x"), {})

    def test_unbound_parameter_named(self, chain1_trace):
        with pytest.raises(UnboundParameter, match="unbound parameter d"):
            emit(chain1_trace.final, {"a": 1.0, "b": 1.0, "c": 1.0})

    def test_undefined_constant_named(self):
        with pytest.raises(ConicError) as info:
            _const_value(Call("sqrt", (Call("sub", (Const(0.0), Const(2.0))),)), {})
        assert str(info.value) == "constant sqrt(0 - 2) is undefined: sqrt applied outside its domain (argument -2.0)"

    def test_objective_offset_rejected(self):
        with pytest.raises(Exception, match="constant"):
            emit(mini("0 <= x", vars="x", objective="x + 1"), {})

    def test_nonaffine_objective_rejected(self):
        with pytest.raises(Exception):
            emit(mini("0 <= x", vars="x", objective="exp(x)"), {})

    @pytest.mark.parametrize(
        "constraints,objective,what",
        [
            ("1e300 * (1e300 * x) <= 1", "x", "constraint 0"),
            ("0 <= x, 1e300 * (1e300 * x) = y", "x", "constraint 1"),
            ("0 <= x, 1e308 * x - -1e308 * x <= y", "x", "constraint 1"),
            ("1e300 * (1e300 * x) - 1e300 * (1e300 * x) <= y", "x", "constraint 0"),
            ("x <= 1e300 * 1e300", "x", "constraint 0"),
            ("exp(x) <= 1e308 * 10 * y", "x", "constraint 0"),
            ("0 <= x", "1e308 * x * 10", "objective"),
        ],
        ids=["orthant", "equality", "difference", "nan", "constant", "exp-cone", "objective"],
    )
    def test_overflow_names_its_row_without_a_warning(self, constraints, objective, what):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConicError, match=rf"^{what} has a coefficient or constant that is not finite$"):
                emit(mini(constraints, objective=objective), {})

    def test_largest_finite_coefficients_emit(self):
        cp = emit(mini("1e300 * (1e8 * x) <= 1e308 * y", objective="1e308 * x"), {})
        assert cp.c.tolist() == [1e308, 0.0] and cp.G.tolist() == [[-1e308, 1e308]]


class TestConeMembership:
    @pytest.mark.parametrize(
        "kind,v,inside",
        [
            ("ORTHANT", [0.0, 1.0], True),
            ("ORTHANT", [-1e-8], True),
            ("ORTHANT", [-1e-5], False),
            ("SOC", [5.0, 3.0, 4.0], True),
            ("SOC", [5.0, 3.0, 4.1], False),
            ("SOC", [-1.0, 0.0, 0.0], False),
            ("EXP", [1.0, 1.0, 0.0], True),
            ("EXP", [math.e, 1.0, 1.0], True),
            ("EXP", [math.e - 1e-3, 1.0, 1.0], False),
            ("EXP", [1.0, 0.0, -1.0], True),
            ("EXP", [1.0, 0.0, 1.0], False),
            ("EXP", [-1e-5, 0.0, -1.0], False),
            ("EXP", [1.0, -0.5, 0.0], False),
        ],
    )
    def test_membership_table(self, kind, v, inside):
        assert cone_member(kind, np.asarray(v, dtype=float)) is inside

    def test_overflow_in_exp_ratio_means_outside(self):
        assert not cone_member("EXP", np.array([1.0, 1e-300, 1.0]))

    def test_tolerance_widens_the_cone(self):
        v = np.array([-0.5, 1.0])
        assert not cone_member("ORTHANT", v)
        assert cone_member("ORTHANT", v, tol=0.6)

    def test_unknown_kind_named(self):
        with pytest.raises(ValueError, match="unknown cone kind 'PSD'"):
            cone_member("PSD", [1.0])

    @pytest.mark.parametrize("kind,dim", [("ORTHANT", 4), ("SOC", 3)])
    def test_self_dual_cones(self, kind, dim):
        rng = np.random.default_rng(7)
        for _ in range(200):
            v = rng.normal(size=dim)
            assert cone_member(kind, v) == dual_cone_member(kind, v)


class TestExpDualCone:
    @pytest.mark.parametrize(
        "v,inside",
        [
            ([1.0, 0.0, -1.0], True),
            ([1.0, -1.0, -1.0], True),
            ([0.0, 0.0, 0.0], True),
            ([1.0, 1.0, 0.0], True),
            ([1.0, 0.0, 1.0], False),
            ([-1.0, 1.0, -1.0], False),
            ([1.0, -2.0, -1.0], False),
            ([0.0, 1.0, -1.0], False),
        ],
    )
    def test_characterization_table(self, v, inside):
        assert dual_cone_member("EXP", np.asarray(v, dtype=float)) is inside

    def test_accepted_duals_have_nonneg_inner_products(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            z = sample_dual_point(rng, "EXP", 3)
            assert dual_cone_member("EXP", z)
            for _ in range(200):
                v = sample_cone_point(rng, "EXP", 3)
                assert float(v @ z) >= -1e-9

    def test_rejected_duals_have_a_violating_primal(self):
        rng = np.random.default_rng(13)
        rejected = 0
        while rejected < 40:
            z = rng.normal(size=3) * 2
            if dual_cone_member("EXP", z):
                continue
            rejected += 1
            worst = min(
                float(sample_cone_point(rng, "EXP", 3) @ z) for _ in range(4000)
            )
            assert worst < -1e-7


class TestPrimalDualChecks:
    def simple_lp(self):
        # minimize x subject to x >= 0
        return emit(mini("0 <= x", vars="x"), {})

    def test_primal_report_on_chain(self, chain1_trace):
        cp = emit(chain1_trace.final, UNIT)
        x = {"x": 1.28, "y": -0.28}
        x["t1"] = math.exp(x["y"])
        x["t2"] = math.sqrt(x["x"])
        x["t3"] = math.log(x["t2"] + 1.0)
        vec = np.array([x[v] for v in cp.variables])
        report = check_primal(cp, vec, tol=1e-9)
        assert report.feasible
        assert report.objective == pytest.approx(1.28)

    def test_primal_equality_violation_reported(self):
        cp = emit(mini("x + y = 1", objective="x + y"), {})
        report = check_primal(cp, np.array([1.0, 1.0]))
        assert not report.feasible
        assert any("equality row 0" in f for f in report.failures)

    def test_primal_cone_violation_reported(self):
        cp = self.simple_lp()
        report = check_primal(cp, np.array([-1.0]))
        assert not report.feasible
        assert any("cone block 0" in f for f in report.failures)

    def test_nan_primal_rejected(self):
        cp = emit(mini("x + y = 1"), {})
        report = check_primal(cp, [math.nan, 0.5])
        assert not report.feasible
        assert report.failures == ("equality row 0 residual nan",)

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinite_primal_rejected(self, value):
        # inf's slack lies in the orthant, so only the coordinate check fails it
        report = check_primal(emit(mini("0 <= x", vars="x"), {}), [value])
        assert not report.feasible
        assert report.failures[-1] == f"coordinate 0 is {value!r}"
        report = check_primal(emit(mini("x + y = 1"), {}), [0.5, value])
        assert report.failures == (f"equality row 0 residual {value:.3e}", f"coordinate 1 is {value!r}")

    def test_nan_primal_rejected_without_rows(self):
        empty = np.zeros((0, 1))
        cp = ConicProblem(("x",), np.ones(1), empty, np.zeros(0), empty, np.zeros(0), ())
        report = check_primal(cp, [math.nan])
        assert report.failures == ("coordinate 0 is nan",)

    def test_nan_dual_rejected(self):
        cp = emit(mini("x + y = 1"), {})
        report = check_dual_bound(cp, DualCertificate(y=np.array([math.nan]), z=np.zeros(0)))
        assert not report.accepted and report.bound is None
        assert report.failures == ("stationarity residual nan",)

    def test_dual_certificate_for_simple_lp(self):
        cp = self.simple_lp()
        report = check_dual_bound(cp, DualCertificate(y=np.zeros(0), z=np.array([1.0])))
        assert report.accepted
        assert report.bound == pytest.approx(0.0)

    def test_broken_stationarity_rejected(self):
        cp = self.simple_lp()
        report = check_dual_bound(cp, DualCertificate(y=np.zeros(0), z=np.array([2.0])))
        assert not report.accepted
        assert any("stationarity" in f for f in report.failures)

    def test_dual_outside_cone_rejected(self):
        # maximize -x: c = [-1], needs z = -1 which is not in the orthant dual
        cp = self.simple_lp()
        cp2 = ConicProblem(cp.variables, -cp.c, cp.A, cp.b, cp.G, cp.h, cp.blocks)
        report = check_dual_bound(cp2, DualCertificate(y=np.zeros(0), z=np.array([-1.0])))
        assert not report.accepted
        assert any("dual cone block 0" in f for f in report.failures)

    def test_wrong_length_certificates_rejected(self):
        cp = self.simple_lp()
        report = check_dual_bound(cp, DualCertificate(y=np.zeros(2), z=np.array([1.0])))
        assert not report.accepted

    def test_weak_duality_on_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            cp, x0, cert = make_weak_duality_pair(rng)
            primal = check_primal(cp, x0, tol=1e-9)
            assert primal.feasible
            dual = check_dual_bound(cp, cert, tol=1e-6)
            assert dual.accepted, dual.failures
            assert dual.bound <= primal.objective + 1e-6


class TestConicFiles:
    def test_round_trip(self, chain1_trace):
        cp = emit(chain1_trace.final, UNIT)
        again = read_conic(write_conic(cp))
        assert again == cp

    def test_header_layout(self, chain1_trace):
        cp = emit(chain1_trace.final, UNIT)
        lines = write_conic(cp).splitlines()
        assert lines[0] == "CONICFORM 1"
        assert lines[1] == "VARS 5"
        assert lines[2] == "x y t1 t2 t3"
        assert lines[-1] == "END"

    def test_random_instances_round_trip(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            cp, _, _ = make_weak_duality_pair(rng)
            assert read_conic(write_conic(cp)) == cp

    def test_truncated_file_rejected(self, chain1_trace):
        cp = emit(chain1_trace.final, UNIT)
        text = "\n".join(write_conic(cp).splitlines()[:6]) + "\n"
        with pytest.raises(ConicFormatError, match="end of file"):
            read_conic(text)

    def test_malformed_row_error_carries_line_number(self, chain1_trace):
        cp = emit(chain1_trace.final, UNIT)
        lines = write_conic(cp).splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("EQ")) + 1
        lines[idx] = "1.0 2.0"
        with pytest.raises(ConicFormatError, match=rf"line {idx + 1}"):
            read_conic("\n".join(lines) + "\n")

    def test_bad_magic_rejected(self):
        with pytest.raises(ConicFormatError):
            read_conic("NOTCONIC 1\nEND\n")

    def test_bad_cone_kind_rejected(self, chain1_trace):
        cp = emit(chain1_trace.final, UNIT)
        text = write_conic(cp).replace("CONE SOC 3", "CONE BOX 3")
        with pytest.raises(ConicFormatError):
            read_conic(text)

    @pytest.mark.parametrize(
        "cone,message",
        [("CONE ORTHANT 0", "cone blocks need dimension >= 1"), ("CONE SOC -2", "unreadable cone dimension")],
        ids=["CONE ORTHANT 0", "CONE SOC -2"],
    )
    def test_non_positive_cone_dimension_rejected(self, cone, message):
        text = f"CONICFORM 1\nVARS 1\nx\nOBJ 1\nEQ 0\n{cone}\nEND\n"
        with pytest.raises(ConicFormatError, match=rf"^line 6: {message}$"):
            read_conic(text)

    @pytest.mark.parametrize(
        "cone", ["CONE ORTHANT +1", "CONE ORTHANT \u0661", "CONE ORTHANT 1 junk", "CONE SOC"],
        ids=["plus-sign", "arabic-indic-digit", "trailing-word", "missing"],
    )
    def test_cone_dimension_is_one_word_of_ascii_digits(self, cone):
        text = f"CONICFORM 1\nVARS 1\nx\nOBJ 1\nEQ 0\n{cone}\n1 0\nEND\n"
        with pytest.raises(ConicFormatError, match=r"^line 6: unreadable cone dimension$"):
            read_conic(text)

    @pytest.mark.parametrize(
        "tail,message",
        [
            ("OBJX 1\nEQ 0\nEND\n", "line 4: expected 'OBJ'"),
            ("OBJ 1\nEQ 0\nEND\n\n# note\nEND\n", "line 9: content after END"),
        ],
        ids=["longer-keyword", "after-end"],
    )
    def test_conic_keywords_are_exact(self, tail, message):
        with pytest.raises(ConicFormatError, match=rf"^{message}$"):
            read_conic(f"CONICFORM 1\nVARS 1\nx\n{tail}")

    @pytest.mark.parametrize(
        "word",
        ["\u0661", "1_000", "Infinity", "+inf", "INF", "NaN", "-nan", "0x1", "1e", ".", "+", "1.5.2", "e5", "1e+", "\uff11"],
        ids=["arabic-indic-digit", "underscore", "Infinity", "plus-inf", "upper-inf", "mixed-nan",
             "minus-nan", "hex", "bare-exponent", "dot", "sign", "two-dots", "exponent-only", "no-mantissa", "fullwidth-digit"],
    )
    def test_conic_number_is_one_ascii_decimal(self, word):
        cases = [f"OBJ {word} 1\nEQ 0\n", f"OBJ 1 0\nEQ 1\n1 {word} 1\n", f"OBJ 1 0\nEQ 0\nCONE ORTHANT 1\n1 0 {word}\n"]
        for rows, line in zip(cases, (4, 6, 7)):
            with pytest.raises(ConicFormatError, match=rf"^line {line}: unreadable number$"):
                read_conic(f"CONICFORM 1\nVARS 2\nx y\n{rows}END\n")

    @pytest.mark.parametrize(
        "words,values",
        [
            ("1 -2", [1.0, -2.0]),
            ("+1.5 -.25", [1.5, -0.25]),
            ("7. 1e3", [7.0, 1000.0]),
            ("-0.0 2.5E-07", [-0.0, 2.5e-07]),
            ("1e+300 -1E-300", [1e300, -1e-300]),
        ],
    )
    def test_conic_reads_every_decimal_form(self, words, values):
        cp = read_conic(f"CONICFORM 1\nVARS 2\nx y\nOBJ {words}\nEQ 0\nEND\n")
        assert cp.c.tolist() == values
        assert [math.copysign(1.0, v) for v in cp.c] == [math.copysign(1.0, v) for v in values]

    def test_repeated_variable_names_rejected(self):
        text = "CONICFORM 1\nVARS 2\nx x\nOBJ 1 0\nEQ 0\nEND\n"
        with pytest.raises(ConicFormatError, match=r"^line 3: variable names must be distinct$"):
            read_conic(text)

    @pytest.mark.parametrize(
        "rows,line",
        [
            ("OBJ nan 1.0\nEQ 0\n", 4),
            ("OBJ 1 0\nEQ 1\n1 inf 1\n", 6),
            ("OBJ 1 0\nEQ 1\n1 1 nan\n", 6),
            ("OBJ 1 0\nEQ 0\nCONE ORTHANT 2\n1 0 0\n0 1 -inf\n", 8),
        ],
        ids=["obj", "eq-coefficient", "eq-constant", "cone-constant"],
    )
    def test_non_finite_problem_data_names_its_line(self, rows, line):
        with pytest.raises(ConicFormatError, match=rf"^line {line}: non-finite number$"):
            read_conic(f"CONICFORM 1\nVARS 2\nx y\n{rows}END\n")

    @pytest.mark.parametrize(
        "header,line,what",
        [
            ("VARS -1\nx y", 2, "variable"),
            ("VARS\nx y", 2, "variable"),
            ("VARS 2 2\nx y", 2, "variable"),
            ("VARS 2.0\nx y", 2, "variable"),
            ("EQ -1", 5, "equality"),
            ("EQ +0", 5, "equality"),
            ("EQ", 5, "equality"),
            ("EQ 0 1", 5, "equality"),
        ],
    )
    def test_count_must_be_an_integer_at_least_zero(self, header, line, what):
        text = "CONICFORM 1\nVARS 2\nx y\nOBJ 1 0\nEQ 0\nEND\n"
        text = text.replace("VARS 2\nx y" if header.startswith("VARS") else "EQ 0", header)
        with pytest.raises(ConicFormatError, match=rf"^line {line}: unreadable {what} count$"):
            read_conic(text)

    @pytest.mark.parametrize("header,line,key", [("VARS2\nx y", 2, "VARS"), ("EQUALITIES 0", 5, "EQ")])
    def test_count_header_needs_its_key(self, header, line, key):
        text = "CONICFORM 1\nVARS 2\nx y\nOBJ 1 0\nEQ 0\nEND\n"
        text = text.replace("VARS 2\nx y" if key == "VARS" else "EQ 0", header)
        with pytest.raises(ConicFormatError, match=rf"^line {line}: expected '{key} <count>'$"):
            read_conic(text)

    def test_solution_may_hold_non_finite_numbers(self):
        # a nan or infinite solution reads, and then fails its check
        sol = read_solution("SOLUTION 1\nPRIMAL nan inf\nDUAL_EQ -inf\nEND\n")
        assert np.isnan(sol.primal[0]) and sol.primal[1] == math.inf and sol.dual_eq[0] == -math.inf

    def test_solution_round_trip_with_dual(self):
        sol = SolutionFile(
            primal=np.array([1.0, 2.5]),
            dual_eq=np.array([0.5]),
            dual_cone=np.array([1.0, 0.0, -1.0]),
        )
        assert read_solution(write_solution(sol)) == sol

    def test_solution_round_trip_primal_only(self):
        sol = SolutionFile(primal=np.array([0.25]), dual_eq=None, dual_cone=None)
        again = read_solution(write_solution(sol))
        assert again == sol and again.dual_eq is None

    @pytest.mark.parametrize("key", ["DUAL_EQ", "DUAL_CONE"])
    def test_solution_section_given_twice_names_its_line(self, key):
        with pytest.raises(ConicFormatError, match=rf"^line 4: second {key}$"):
            read_solution(f"SOLUTION 1\nPRIMAL 1 2\n{key} 1\n{key} 5 6\nEND\n")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("SOLUTION 1\nPRIMALS 1\nEND\n", "line 2: expected 'PRIMAL'"),
            ("SOLUTION 1\nPRIMAL 1\nDUAL_EQX 1\nEND\n", "line 3: expected DUAL_EQ, DUAL_CONE or END"),
            ("SOLUTION 1\nPRIMAL 1\nEND\nPRIMAL 2\n", "line 4: content after END"),
            ("SOLUTION 1\nPRIMAL 1\nEND\n# note\n\nEND\n", "line 6: content after END"),
        ],
        ids=["longer-primal", "longer-dual", "primal-after-end", "end-after-end"],
    )
    def test_solution_keywords_are_exact(self, text, message):
        with pytest.raises(ConicFormatError, match=rf"^{message}$"):
            read_solution(text)

    def test_solution_garbage_rejected(self):
        with pytest.raises(ConicFormatError):
            read_solution("SOLUTION 2\nEND\n")

    @pytest.mark.parametrize(
        "text,line",
        [
            ("SOLUTION 1\nPRIMAL 1.0 abc\nEND\n", 2),
            ("SOLUTION 1\nPRIMAL 1.0\nDUAL_EQ x\nEND\n", 3),
            ("SOLUTION 1\nPRIMAL 1.0\nDUAL_CONE 1 2 -\nEND\n", 3),
            *[
                (text.format(word), line)
                for word in ["\u0663", "1_000", "Infinity", "+inf", "INF", "NaN", "-nan", "0x1", "1e", "."]
                for text, line in [
                    ("SOLUTION 1\nPRIMAL 1 {}\nEND\n", 2),
                    ("SOLUTION 1\nPRIMAL 1\nDUAL_EQ {}\nEND\n", 3),
                    ("SOLUTION 1\nPRIMAL 1\nDUAL_CONE 0 {}\nEND\n", 3),
                ]
            ],
        ],
    )
    def test_solution_unreadable_number_names_its_line(self, text, line):
        with pytest.raises(ConicFormatError, match=rf"^line {line}: unreadable number$"):
            read_solution(text)

    def test_solution_reads_inf_and_nan(self):
        sol = read_solution("SOLUTION 1\nPRIMAL inf -inf nan -.5\nDUAL_EQ 1e3\nEND\n")
        assert sol.primal[:2].tolist() == [math.inf, -math.inf] and math.isnan(sol.primal[2])
        assert sol.primal[3] == -0.5 and sol.dual_eq.tolist() == [1000.0]
