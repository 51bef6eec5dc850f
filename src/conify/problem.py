"""Core problem model: expression trees, constraints, and point-wise semantics.

A problem is a minimization over declared scalar variables, with named
parameters that stay symbolic until a numeric context binds them.  One
evaluator, _veval, computes over arrays of points or at one point (0-d): a
value outside an atom's domain becomes nan, and nan fails every comparison.
evaluate and check_feasible are that evaluator at one point; only where
evaluate's value is nan does _raise_domain_error walk the expression again
to name the atom that left its domain, and the argument it was given.
"""

import collections
import math
from dataclasses import dataclass

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


def _veval(e: Expr, env: dict[str, np.ndarray | float]):
    """e over arrays of points, or at one point; out-of-domain entries become nan."""
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
    """Comparator semantics: non-strict comparators get tol slack, strict none;
    nan on either side compares False."""
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


def _vcheck_feasible(p: Problem, env: dict[str, np.ndarray | float], tol: float = 1e-7) -> np.ndarray:
    """For each point of an env of equal-length arrays, or for one point, the
    index of the first failing constraint, or -1.  A nan on either side fails."""
    first = np.full(np.broadcast_shapes(*map(np.shape, env.values())), -1)
    with np.errstate(all="ignore"):
        for i, c in enumerate(p.constraints):
            ok = _mask_ok(c.op, _veval(c.lhs, env), _veval(c.rhs, env), tol)
            first[(first < 0) & ~ok] = i
    return first


def _raise_domain_error(e: Expr, env: Assignment) -> None:
    """Raise the DomainError of the first atom of e, arguments before their
    atom and left to right, that env puts outside its domain (log of <= 0,
    sqrt of < 0, division by 0), or UnboundName at a name env lacks if that
    comes first.  Return if there is none, as where inf - inf gives nan."""
    if not isinstance(e, Call):
        _veval(e, env)
        return
    for a in e.args:
        _raise_domain_error(a, env)
    if e.atom == "div" and _veval(e.args[1], env) == 0.0:
        raise DomainError("div", 0.0)
    if e.atom in ("log", "sqrt"):
        v = float(_veval(e.args[0], env))
        if v <= 0.0 if e.atom == "log" else v < 0.0:
            raise DomainError(e.atom, v)


def evaluate(e: Expr, point: Assignment) -> float:
    """e at a point covering its variables and parameters: _veval at 0-d."""
    with np.errstate(all="ignore"):
        try:
            v = float(_veval(e, point))
        except UnboundName:
            v = math.nan  # a domain fault before the name is raised instead
        if v != v:
            _raise_domain_error(e, point)
    return v


def objective_value(p: Problem, point: Assignment) -> float:
    return evaluate(p.objective, point)


def check_feasible(p: Problem, point: Assignment, tol: float = 1e-7) -> Feasibility:
    """_vcheck_feasible at one point, with the error evaluate raises on the
    failing constraint, if any.  A name the point does not bind reads as nan
    there, so its constraint fails in order like any other."""
    i = int(_vcheck_feasible(p, collections.defaultdict(lambda: math.nan, point), tol))
    if i < 0:
        return Feasibility(True)
    c = p.constraints[i]
    try:
        evaluate(c.lhs, point)
        evaluate(c.rhs, point)
    except (DomainError, UnboundName) as err:
        return Feasibility(False, index=i, error=err)
    return Feasibility(False, index=i)
