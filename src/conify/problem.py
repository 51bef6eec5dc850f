"""Core problem model: expression trees, constraints, and point-wise semantics.

A problem is a minimization over declared scalar variables, with named
parameters that stay symbolic until a numeric context binds them.  Evaluation
is real-valued; leaving an atom's domain raises DomainError rather than
producing extended reals.  The vector twins (_veval, _mask_ok,
_vcheck_feasible) evaluate many points at once over numpy arrays and mark such
points nan instead; a nan never satisfies a comparison.
"""

import math
from dataclasses import dataclass, field

import numpy as np


class ConifyError(Exception):
    """Base class for every error this package raises on purpose."""


class DomainError(ConifyError):
    def __init__(self, atom: str, value: float):
        self.atom = atom
        self.value = value
        super().__init__(f"{atom} applied outside its domain (argument {value!r})")


class UnboundName(ConifyError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"no value bound for {name!r}")


# Arity of every atom the model admits.  "pow" takes the base plus a literal
# integer exponent >= 1 stored as a Const node.
ATOM_ARITY = {
    "add": 2,
    "sub": 2,
    "mul": 2,
    "div": 2,
    "neg": 1,
    "pow": 2,
    "exp": 1,
    "log": 1,
    "sqrt": 1,
    "abs": 1,
}

COMPARATORS = ("<=", "<", "=", ">=", ">")


@dataclass(frozen=True)
class Expr:
    """Base node.  Subclasses are immutable and compare structurally."""


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Param(Expr):
    name: str


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Call(Expr):
    atom: str
    args: tuple[Expr, ...]

    def __post_init__(self):
        if self.atom not in ATOM_ARITY:
            raise ValueError(f"unknown atom {self.atom!r}")
        if len(self.args) != ATOM_ARITY[self.atom]:
            raise ValueError(
                f"{self.atom} expects {ATOM_ARITY[self.atom]} argument(s), got {len(self.args)}"
            )
        if self.atom == "pow":
            k = self.args[1]
            if not isinstance(k, Const) or k.value != int(k.value) or k.value < 1:
                raise ValueError("pow exponent must be an integer literal >= 1")


@dataclass(frozen=True)
class Constraint:
    lhs: Expr
    op: str
    rhs: Expr

    def __post_init__(self):
        if self.op not in COMPARATORS:
            raise ValueError(f"unknown comparator {self.op!r}")


def oriented(c: Constraint) -> tuple[Expr, Expr, bool] | None:
    """An inequality as (lo, hi, strict), meaning lo <= hi or lo < hi;
    None for an equality."""
    if c.op in ("<=", "<"):
        return c.lhs, c.rhs, c.op == "<"
    if c.op in (">=", ">"):
        return c.rhs, c.lhs, c.op == ">"
    return None


# Parameter sign attributes, "none" meaning unconstrained.
SIGN_ATTRS = ("none", "nonneg", "pos", "nonpos", "neg")


@dataclass(frozen=True)
class ParamDecl:
    name: str
    sign: str = "none"

    def __post_init__(self):
        if self.sign not in SIGN_ATTRS:
            raise ValueError(f"unknown sign attribute {self.sign!r}")


# A point: names (variables and, when evaluating, parameters) to reals.
Assignment = dict[str, float]


def _names(e: Expr, vars_out: set, params_out: set) -> None:
    if isinstance(e, Var):
        vars_out.add(e.name)
    elif isinstance(e, Param):
        params_out.add(e.name)
    elif isinstance(e, Call):
        for a in e.args:
            _names(a, vars_out, params_out)


@dataclass(frozen=True)
class Problem:
    """Minimization problem.  Declaration order is significant and preserved."""

    variables: tuple[str, ...]
    params: tuple[ParamDecl, ...] = ()
    objective: Expr = Const(0.0)
    constraints: tuple[Constraint, ...] = ()

    def __post_init__(self):
        names = list(self.variables) + [d.name for d in self.params]
        if len(set(names)) != len(names):
            raise ValueError("variable/parameter names must be distinct")
        used_vars: set = set()
        used_params: set = set()
        _names(self.objective, used_vars, used_params)
        for c in self.constraints:
            _names(c.lhs, used_vars, used_params)
            _names(c.rhs, used_vars, used_params)
        undeclared = (used_vars - set(self.variables)) | (
            used_params - {d.name for d in self.params}
        )
        if undeclared:
            raise ValueError(f"undeclared names: {sorted(undeclared)}")


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


def _veval(e: Expr, env: dict[str, np.ndarray | float]):
    """Vector twin of evaluate over arrays; out-of-domain entries become nan."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, (Var, Param)):
        try:
            return env[e.name]
        except KeyError:
            raise UnboundName(e.name) from None
    assert isinstance(e, Call)
    a = _veval(e.args[0], env)
    if e.atom == "neg":
        return -a
    if e.atom == "exp":
        return np.exp(a)
    if e.atom == "log":
        a = np.asarray(a, dtype=float)
        return np.where(a > 0, np.log(np.where(a > 0, a, 1.0)), np.nan)
    if e.atom == "sqrt":
        a = np.asarray(a, dtype=float)
        return np.where(a >= 0, np.sqrt(np.where(a >= 0, a, 0.0)), np.nan)
    if e.atom == "abs":
        return np.abs(a)
    b = _veval(e.args[1], env)
    if e.atom == "add":
        return a + b
    if e.atom == "sub":
        return a - b
    if e.atom == "mul":
        return a * b
    if e.atom == "div":
        b = np.asarray(b, dtype=float)
        return np.where(b != 0, a / np.where(b != 0, b, 1.0), np.nan)
    if e.atom == "pow":
        return np.asarray(a, dtype=float) ** int(b)
    raise AssertionError(e.atom)


def _mask_ok(op: str, lv, rv, tol: float) -> np.ndarray:
    """Vector twin of comparison_holds; nan on either side compares False."""
    lv = np.asarray(lv, dtype=float)
    rv = np.asarray(rv, dtype=float)
    if op == "<=":
        return lv <= rv + tol
    if op == "<":
        return lv < rv
    if op == "=":
        return np.abs(lv - rv) <= tol
    if op == ">=":
        return lv + tol >= rv
    if op == ">":
        return lv > rv
    raise AssertionError(op)


@dataclass(frozen=True)
class Feasibility:
    """Verdict of check_feasible.  index names the first failing constraint."""

    feasible: bool
    index: int | None = None
    error: ConifyError | None = None


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


def _vcheck_feasible(p: Problem, env: dict[str, np.ndarray | float], tol: float = 1e-7) -> np.ndarray:
    """Vector twin of check_feasible over an env of equal-length arrays: for
    each point, the index of the first failing constraint, or -1.  A nan on
    either side fails, where the scalar path reports a DomainError."""
    first = np.full(np.broadcast_shapes(*map(np.shape, env.values())), -1)
    with np.errstate(all="ignore"):
        for i, c in enumerate(p.constraints):
            ok = _mask_ok(c.op, _veval(c.lhs, env), _veval(c.rhs, env), tol)
            first[(first < 0) & ~ok] = i
    return first


def objective_value(p: Problem, point: Assignment) -> float:
    return evaluate(p.objective, point)

