"""Scalar reference semantics the tests compare the library against.

The library evaluates expressions with one numpy evaluator, problem._veval,
at one point as over many.  These are written independently with the math
module and plain Python floats, so they can disagree with it in the last
bit of exp, log and powers, but never about which atom leaves its domain.
"""

import math

from conify.problem import (
    Assignment,
    Call,
    Const,
    DomainError,
    Expr,
    Feasibility,
    Param,
    Problem,
    UnboundName,
    Var,
)


def evaluate(e: Expr, point: Assignment) -> float:
    """Evaluate an expression at a point covering its variables and parameters."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, (Var, Param)):
        try:
            return point[e.name]
        except KeyError:
            raise UnboundName(e.name) from None
    assert isinstance(e, Call)
    a = [evaluate(x, point) for x in e.args]
    op = e.atom
    if op == "add":
        return a[0] + a[1]
    if op == "sub":
        return a[0] - a[1]
    if op == "mul":
        return a[0] * a[1]
    if op == "div":
        if a[1] == 0.0:
            raise DomainError("div", 0.0)
        return a[0] / a[1]
    if op == "neg":
        return -a[0]
    if op == "pow":
        k = int(a[1])
        try:
            return a[0] ** k
        except OverflowError:
            return math.copysign(math.inf, a[0]) if k % 2 else math.inf
    if op == "exp":
        try:
            return math.exp(a[0])
        except OverflowError:
            return math.inf
    if op == "log":
        if a[0] <= 0.0:
            raise DomainError("log", a[0])
        return math.log(a[0])
    if op == "sqrt":
        if a[0] < 0.0:
            raise DomainError("sqrt", a[0])
        return math.sqrt(a[0])
    if op == "abs":
        return abs(a[0])
    raise AssertionError(op)


def comparison_holds(op: str, lv: float, rv: float, tol: float) -> bool:
    """Comparator semantics: non-strict comparators get tol slack, strict none."""
    if op == "<=":
        return lv <= rv + tol
    if op == "<":
        return lv < rv
    if op == "=":
        return abs(lv - rv) <= tol
    if op == ">=":
        return lv + tol >= rv
    if op == ">":
        return lv > rv
    raise AssertionError(op)


def check_feasible(p: Problem, point: Assignment, tol: float = 1e-7) -> Feasibility:
    """Check every constraint at a point; report the first violation or eval error."""
    for i, c in enumerate(p.constraints):
        try:
            lv = evaluate(c.lhs, point)
            rv = evaluate(c.rhs, point)
        except (DomainError, UnboundName) as err:
            return Feasibility(False, index=i, error=err)
        if not comparison_holds(c.op, lv, rv, tol):
            return Feasibility(False, index=i)
    return Feasibility(True)
