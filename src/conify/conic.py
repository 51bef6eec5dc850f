"""Conic form: emission, cone membership, and certificate checking.

A conic problem is  min c.x  subject to  A x = b  and  G x - h in K,  where K
is a product of blocks: nonnegative orthants, second-order cones
{v : v1 >= ||v[1:]||}, and the exponential cone

    EXP = {(x1, x2, x3) : x2 > 0, x1 >= x2 * e^(x3/x2)}
          union {(x1, 0, x3) : x1 >= 0, x3 <= 0}.

Emission recognizes four constraint shapes: affine = affine becomes an
equality row; affine <= affine an ORTHANT(1) row on rhs - lhs; u^2 <= e (u, e
affine) the SOC(3) rows ((e+1)/2, (e-1)/2, u), using
u^2 <= e  <=>  (e+1)/2 >= sqrt(((e-1)/2)^2 + u^2); and exp(u) <= e the EXP
rows (e, 1, u).

Weak duality: if A~y + G~z = c and each z block lies in the dual cone, then
for any primal-feasible x,  c.x - (b.y + h.z) = z.(Gx - h) >= 0,  so
b.y + h.z is a lower bound.  Orthant and SOC are self-dual.  For EXP as
ordered above the dual cone works out to

    EXP* = {(p, q, r) : r < 0, p > 0, q >= r - r*log(-r/p)}
           union {(p, q, 0) : p >= 0, q >= 0}:

minimizing p*x1 + q*x2 + r*x3 over the x2 > 0 branch needs p >= 0 (x1 free
upward), and with x1 at its floor x2*e^(x3/x2) the minimum over x3 sits at
x3 = x2*log(-r/p), where the objective is x2*(q - r + r*log(-r/p)); the r = 0
slice needs q >= 0 as x3 -> -infinity.  The closure branch adds nothing
beyond p >= 0, r <= 0.  Tests re-validate this formula against a sampled
inner-product oracle before it is trusted anywhere.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .atoms import Curvature
from .dcp import curvature_of, is_affine
from .dsl import print_expr
from .problem import (
    Assignment,
    Call,
    ConifyError,
    Const,
    Constraint,
    DomainError,
    Expr,
    Param,
    Problem,
    UnboundName,
    Var,
    _names,
    evaluate,
    oriented,
)


class ConicError(ConifyError):
    pass


class StrictComparatorRemains(ConicError):
    pass


class UnrecognizedShape(ConicError):
    pass


class UnboundParameter(ConicError):
    pass


class ConicFormatError(ConicError):
    pass


CONE_KINDS = ("ORTHANT", "SOC", "EXP")


@dataclass(frozen=True)
class ConeBlock:
    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in CONE_KINDS:
            raise ValueError(f"unknown cone kind {self.kind!r}")
        if self.kind == "EXP" and self.dim != 3:
            raise ValueError("EXP blocks have dimension 3")
        if self.dim < 1:
            raise ValueError("cone blocks need dimension >= 1")


@dataclass(frozen=True, eq=False)
class ConicProblem:
    variables: tuple[str, ...]
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    G: np.ndarray
    h: np.ndarray
    blocks: tuple[ConeBlock, ...]

    def __post_init__(self):
        n = len(self.variables)
        if self.c.shape != (n,):
            raise ValueError("objective length mismatch")
        if self.A.shape[1] != n or self.A.shape[0] != self.b.shape[0]:
            raise ValueError("equality block shape mismatch")
        if self.G.shape[1] != n or self.G.shape[0] != self.h.shape[0]:
            raise ValueError("cone block shape mismatch")
        if sum(bl.dim for bl in self.blocks) != self.G.shape[0]:
            raise ValueError("cone dimensions do not cover G")

    def __eq__(self, other):
        if not isinstance(other, ConicProblem):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.blocks == other.blocks
            and np.array_equal(self.c, other.c)
            and np.array_equal(self.A, other.A)
            and np.array_equal(self.b, other.b)
            and np.array_equal(self.G, other.G)
            and np.array_equal(self.h, other.h)
        )

    def block_slices(self) -> list[tuple[ConeBlock, slice]]:
        out, at = [], 0
        for bl in self.blocks:
            out.append((bl, slice(at, at + bl.dim)))
            at += bl.dim
        return out


@dataclass(frozen=True)
class DualCertificate:
    y: np.ndarray  # multipliers for A x = b
    z: np.ndarray  # multipliers for G x - h in K, block by block


# --- shape recognition --------------------------------------------------------


def constraint_shape(c: Constraint) -> str | None:
    """Emission shape of one constraint, or None when no rule applies.

    Strict comparators never emit; sign-flipped forms (>=) normalize first.
    """
    if c.op == "=":
        if is_affine(c.lhs) and is_affine(c.rhs):
            return "eq"
        return None
    lo, hi, strict = oriented(c)
    if strict or not is_affine(hi):
        return None
    if isinstance(lo, Call) and lo.atom == "pow" and lo.args[1] == Const(2.0) and is_affine(lo.args[0]):
        return "soc"
    if isinstance(lo, Call) and lo.atom == "exp" and is_affine(lo.args[0]):
        return "exp"
    if is_affine(lo):
        return "orthant"
    return None


# --- emission -----------------------------------------------------------------


class _NotAffine(Exception):
    pass


def _const_value(e: Expr, params: Assignment, variables=()) -> float:
    """e's value at params, with each of variables at 0."""
    try:
        return evaluate(e, {**dict.fromkeys(variables, 0.0), **params} if variables else params)
    except UnboundName as err:
        raise UnboundParameter(f"unbound parameter {err.name}") from None
    except DomainError as err:
        raise ConicError(f"constant {print_expr(e)} is undefined: {err}") from None


def _constant(e: Expr) -> bool:
    """Does dcp type e constant, although it may name a variable (0 * x)?"""
    return curvature_of(e, {}) == Curvature.CONSTANT


def _linear(e: Expr, vidx: dict[str, int], params: Assignment) -> tuple[np.ndarray, float]:
    """Coefficient vector and constant of an affine expression.

    A subterm that names no variable is a constant.  So is one that dcp
    types constant, such as 0 * x in 0 * x * y, valued with every variable
    at 0.  dcp is asked only where the walk would otherwise give up, so
    _linear raises _NotAffine exactly where is_affine fails, unless a
    constant the walk meets first cannot be valued (ConicError)."""
    n = len(vidx)
    if not _names(e)[0]:
        return np.zeros(n), _const_value(e, params)
    if isinstance(e, Var):
        row = np.zeros(n)
        row[vidx[e.name]] = 1.0
        return row, 0.0
    if isinstance(e, Call):
        if e.atom == "add":
            r0, c0 = _linear(e.args[0], vidx, params)
            r1, c1 = _linear(e.args[1], vidx, params)
            return r0 + r1, c0 + c1
        if e.atom == "sub":
            r0, c0 = _linear(e.args[0], vidx, params)
            r1, c1 = _linear(e.args[1], vidx, params)
            return r0 - r1, c0 - c1
        if e.atom == "neg":
            r0, c0 = _linear(e.args[0], vidx, params)
            return -r0, -c0
        if e.atom == "mul":
            if (i := next((i for i in (0, 1) if not _names(e.args[i])[0]), None)) is not None:
                k = _const_value(e.args[i], params)
            elif (i := next((i for i in (0, 1) if _constant(e.args[i])), None)) is not None:
                k = _const_value(e.args[i], params, vidx)
            else:
                raise _NotAffine
            r, c = _linear(e.args[1 - i], vidx, params)
            return k * r, k * c
        if e.atom == "div":
            if not _names(e.args[1])[0]:
                k = _const_value(e.args[1], params)
            elif _constant(e.args[1]):
                k = _const_value(e.args[1], params, vidx)
            else:
                raise _NotAffine
            if k == 0.0:
                raise ConicError(f"divisor {print_expr(e.args[1])} is zero: {DomainError('div', k)}")
            r, c = _linear(e.args[0], vidx, params)
            return r / k, c / k
        if e.atom == "pow" and e.args[1] == Const(1.0):
            return _linear(e.args[0], vidx, params)
        if _constant(e):  # an atom of constant arguments, such as exp(0 * x)
            return np.zeros(n), _const_value(e, params, vidx)
    raise _NotAffine


@np.errstate(over="ignore", invalid="ignore")
def emit(p: Problem, params: Assignment) -> ConicProblem:
    """Emit conic form with parameters bound.

    Row order is deterministic: equality rows in constraint order, then cone
    blocks in constraint order.  A parameter bound to inf or nan raises
    ConicError before any arithmetic, and so does an objective or constraint
    whose rows hold a number that is not finite, such as a product that
    overflowed.
    """
    for name, value in params.items():
        if not math.isfinite(value):
            raise ConicError(f"parameter {name} is {value}, expected a finite number")
    vidx = {v: i for i, v in enumerate(p.variables)}
    n = len(p.variables)

    try:
        c_row, c_off = _linear(p.objective, vidx, params)
    except _NotAffine:
        raise UnrecognizedShape("objective is not affine") from None
    if c_off != 0.0:
        raise UnrecognizedShape(
            "objective has a constant offset; conic form carries none"
        )
    _finite("objective", c_row)

    A_rows, b_vals, G_rows, h_vals, blocks = [], [], [], [], []

    def affine_parts(e: Expr, index: int) -> tuple[np.ndarray, float]:
        try:
            return _linear(e, vidx, params)
        except _NotAffine:
            raise UnrecognizedShape(
                f"constraint {index} is not an emittable shape"
            ) from None

    for i, c in enumerate(p.constraints):
        if c.op == "=":
            rl, cl = affine_parts(c.lhs, i)
            rr, cr = affine_parts(c.rhs, i)
            A_rows.append(rl - rr)
            b_vals.append(cr - cl)
            _finite(f"constraint {i}", A_rows[-1], b_vals[-1])

    for i, c in enumerate(p.constraints):
        if c.op == "=":
            continue
        lo, hi, strict = oriented(c)
        if strict:
            raise StrictComparatorRemains(
                f"constraint {i} keeps a strict comparator; it cannot emit"
            )
        shape, rows = constraint_shape(c), len(h_vals)
        if shape == "soc":
            ru, du = affine_parts(lo.args[0], i)
            re_, de = affine_parts(hi, i)
            G_rows += [re_ / 2.0, re_ / 2.0, ru]
            h_vals += [-(de + 1.0) / 2.0, -(de - 1.0) / 2.0, -du]
            blocks.append(ConeBlock("SOC", 3))
        elif shape == "exp":
            ru, du = affine_parts(lo.args[0], i)
            re_, de = affine_parts(hi, i)
            G_rows += [re_, np.zeros(n), ru]
            h_vals += [-de, -1.0, -du]
            blocks.append(ConeBlock("EXP", 3))
        elif shape == "orthant":
            rl, dl = affine_parts(lo, i)
            rr, dr = affine_parts(hi, i)
            G_rows.append(rr - rl)
            h_vals.append(-(dr - dl))
            blocks.append(ConeBlock("ORTHANT", 1))
        else:
            raise UnrecognizedShape(f"constraint {i} is not an emittable shape")
        _finite(f"constraint {i}", G_rows[rows:], h_vals[rows:])

    return _assemble(p.variables, c_row, A_rows, b_vals, G_rows, h_vals, blocks)


def _finite(what: str, *parts) -> None:
    if not all(np.isfinite(part).all() for part in parts):
        raise ConicError(f"{what} has a coefficient or constant that is not finite")


def _assemble(variables, c, A_rows, b_vals, G_rows, h_vals, blocks) -> ConicProblem:
    """ConicProblem from collected rows; no rows give a (0, n) block."""
    n = len(variables)
    A = np.array(A_rows, dtype=float).reshape(len(b_vals), n)
    G = np.array(G_rows, dtype=float).reshape(len(h_vals), n)
    b, h = np.array(b_vals, dtype=float), np.array(h_vals, dtype=float)
    return ConicProblem(tuple(variables), c, A, b, G, h, tuple(blocks))


# --- membership ---------------------------------------------------------------


def _cone_mask(kind: str, s: list, tol: float) -> np.ndarray:
    """Vectorized membership for one block; s holds its slack rows, which
    broadcast against each other."""
    if kind == "ORTHANT":
        mask = np.True_
        for r in s:
            mask = mask & (r >= -tol)
        return mask
    if kind == "SOC":
        sq = 0.0
        for r in s[1:]:
            sq = sq + r**2
        return s[0] + tol >= np.sqrt(sq)
    if kind == "EXP":
        x1, x2, x3 = s
        safe = np.where(np.abs(x2) > tol, x2, 1.0)
        main = (x2 > tol) & (x1 + tol >= safe * np.exp(x3 / safe))
        closure = (np.abs(x2) <= tol) & (x1 >= -tol) & (x3 <= tol)
        return main | closure
    raise ValueError(f"unknown cone kind {kind!r}")


def cone_member(kind: str, v, tol: float = 1e-7) -> bool:
    """Is v in the cone at tol?  _cone_mask at one point."""
    with np.errstate(all="ignore"):
        return bool(_cone_mask(kind, list(v), tol))


def dual_cone_member(kind: str, v, tol: float = 1e-7) -> bool:
    if kind in ("ORTHANT", "SOC"):
        return cone_member(kind, v, tol)
    if kind == "EXP":
        p_, q, r = (float(x) for x in np.asarray(v, dtype=float))
        if r > tol:
            return False
        if r >= -tol:
            return p_ >= -tol and q >= -tol
        if p_ <= 0.0:
            return False
        return q + tol >= r - r * math.log(-r / p_)
    raise ValueError(f"unknown cone kind {kind!r}")


# --- certificate checks ---------------------------------------------------------


@dataclass(frozen=True)
class PrimalReport:
    feasible: bool
    objective: float
    failures: tuple[str, ...] = ()


def check_primal(cp: ConicProblem, x, tol: float = 1e-7) -> PrimalReport:
    """Check x against every equality row and cone block at tol; each
    coordinate must also be finite."""
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):  # an infinite coordinate is a failure, not a warning
        res, s, objective = cp.A @ x - cp.b, cp.G @ x - cp.h, float(cp.c @ x)
    failures = [f"equality row {i} residual {r:.3e}" for i, r in enumerate(res) if not abs(r) <= tol]  # nan too
    for j, (bl, sl) in enumerate(cp.block_slices()):
        if not cone_member(bl.kind, s[sl], tol):
            failures.append(f"cone block {j}")
    for i in np.flatnonzero(~np.isfinite(x)):
        # An infinite slack can lie in a cone; a nan fails every row it meets.
        if np.isinf(x[i]) or not failures:
            failures.append(f"coordinate {i} is {float(x[i])!r}")
    return PrimalReport(not failures, objective, tuple(failures))


@dataclass(frozen=True)
class DualReport:
    accepted: bool
    bound: float | None
    failures: tuple[str, ...] = ()
    residual: float | None = None  # largest |c - A~y - G~z|; None when y or z has the wrong length


def check_dual_bound(cp: ConicProblem, cert: DualCertificate, tol: float = 1e-7) -> DualReport:
    """Accept a certificate iff its stationarity residual, the largest
    entry of |c - A~y - G~z|, is at most tol and every z block is dual
    feasible; bound is then b.y + h.z.

    The bound is approximate: weak duality makes b.y + h.z a lower bound
    only where the residual is exactly 0, and a residual r adds r.x to the
    objective at x, which no tol bounds on an unbounded feasible set."""
    y = np.asarray(cert.y, dtype=float)
    z = np.asarray(cert.z, dtype=float)
    failures = []
    if y.shape != (cp.A.shape[0],):
        failures.append("dual equality multiplier length mismatch")
    if z.shape != (cp.G.shape[0],):
        failures.append("dual cone multiplier length mismatch")
    if failures:
        return DualReport(False, None, tuple(failures))
    residual = float(np.abs(cp.A.T @ y + cp.G.T @ z - cp.c).max(initial=0.0))
    if not residual <= tol:  # a nan residual fails too
        failures.append(f"stationarity residual {residual:.3e}")
    for j, (bl, sl) in enumerate(cp.block_slices()):
        if not dual_cone_member(bl.kind, z[sl], tol):
            failures.append(f"dual cone block {j}")
    if failures:
        return DualReport(False, None, tuple(failures), residual)
    return DualReport(True, float(cp.b @ y + cp.h @ z), (), residual)


# --- files ----------------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def _row_text(row: np.ndarray, tail: float) -> str:
    return " ".join([_fmt(v) for v in row] + [_fmt(tail)])


def write_conic(cp: ConicProblem) -> str:
    lines = [
        "CONICFORM 1",
        f"VARS {len(cp.variables)}",
        " ".join(cp.variables),
        "# minimize c.x with A x = b and G x - h in the listed cones;",
        "# a dual (y, z) with A~y + G~z = c and z in the dual cones",
        "# certifies the lower bound b.y + h.z.",
        "OBJ " + " ".join(_fmt(v) for v in cp.c),
        f"EQ {cp.A.shape[0]}",
    ]
    for i in range(cp.A.shape[0]):
        lines.append(_row_text(cp.A[i], cp.b[i]))
    for bl, sl in cp.block_slices():
        head = f"CONE {bl.kind}" if bl.kind == "EXP" else f"CONE {bl.kind} {bl.dim}"
        lines.append(head)
        for i in range(sl.start, sl.stop):
            lines.append(_row_text(cp.G[i], cp.h[i]))
    lines.append("END")
    return "\n".join(lines) + "\n"


class _Lines:
    """items: (file line number, stripped text) of each line neither blank nor a # comment."""

    def __init__(self, text: str):
        self.items = [
            (i + 1, ln.strip())
            for i, ln in enumerate(text.splitlines())
            if ln.strip() and not ln.strip().startswith("#")
        ]
        self.at = 0

    def next(self, what: str) -> tuple[int, str]:
        if self.at >= len(self.items):
            raise ConicFormatError(f"unexpected end of file, wanted {what}")
        item = self.items[self.at]
        self.at += 1
        return item

    def keyed(self, what: str, expected: str, *keys: str) -> tuple[int, str, list[str]]:
        """The next line (what, at end of file): its number, its first word,
        which must be one of keys (else 'expected ...'), and its other words.
        END stands alone, and no line follows it."""
        no, ln = self.next(what)
        key, *words = ln.split()
        if key not in keys or key == "END" and words:
            raise ConicFormatError(f"line {no}: expected {expected}")
        if key == "END" and self.at < len(self.items):
            raise ConicFormatError(f"line {self.items[self.at][0]}: content after END")
        return no, key, words


# One number as the writers' repr prints it, in ASCII: a decimal with an
# optional exponent, or inf, -inf or nan, which only a .sol row may hold.
_NUMBER = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|-?inf|nan", re.ASCII)


def _numbers(no: int, words: list[str], count: int | None = None) -> list[float]:
    """A line's numbers.  With count given, problem data: count finite numbers."""
    if count is not None and len(words) != count:
        raise ConicFormatError(f"line {no}: expected {count} numbers, found {len(words)}")
    if not all(map(_NUMBER.fullmatch, words)):
        raise ConicFormatError(f"line {no}: unreadable number")
    out = [float(x) for x in words]
    if count is not None and not all(map(math.isfinite, out)):
        raise ConicFormatError(f"line {no}: non-finite number")
    return out


def _count(no: int, words: list[str], what: str) -> int:
    """A count: one word of ASCII digits."""
    if len(words) != 1 or not (words[0].isascii() and words[0].isdigit()):
        raise ConicFormatError(f"line {no}: unreadable {what}")
    return int(words[0])


def read_conic(text: str) -> ConicProblem:
    lines = _Lines(text)
    no, ln = lines.next("header")
    if ln != "CONICFORM 1":
        raise ConicFormatError(f"line {no}: expected 'CONICFORM 1'")
    no, _, words = lines.keyed("VARS", "'VARS <count>'", "VARS")
    n = _count(no, words, "variable count")
    no, ln = lines.next("variable names")
    names = tuple(ln.split())
    if len(names) != n:
        raise ConicFormatError(f"line {no}: expected {n} variable names")
    if len(set(names)) != n:
        raise ConicFormatError(f"line {no}: variable names must be distinct")
    no, _, words = lines.keyed("OBJ", "'OBJ'", "OBJ")
    c = np.array(_numbers(no, words, n))
    no, _, words = lines.keyed("EQ", "'EQ <count>'", "EQ")
    A_rows, b_vals = [], []
    for _ in range(_count(no, words, "equality count")):
        no, ln = lines.next("equality row")
        row = _numbers(no, ln.split(), n + 1)
        A_rows.append(row[:n])
        b_vals.append(row[n])
    G_rows, h_vals, blocks = [], [], []
    while True:
        no, key, words = lines.keyed("'CONE ...' or 'END'", "'CONE ORTHANT|SOC|EXP'", "CONE", "END")
        if key == "END":
            return _assemble(names, c, A_rows, b_vals, G_rows, h_vals, blocks)
        if not words or words[0] not in CONE_KINDS:
            raise ConicFormatError(f"line {no}: expected 'CONE ORTHANT|SOC|EXP'")
        kind, *dim = words
        if kind == "EXP" and dim:
            raise ConicFormatError(f"line {no}: 'CONE EXP' takes no dimension")
        try:
            blocks.append(ConeBlock(kind, 3 if kind == "EXP" else _count(no, dim, "cone dimension")))
        except ValueError as err:
            raise ConicFormatError(f"line {no}: {err}") from None
        for _ in range(blocks[-1].dim):
            no, ln = lines.next("cone row")
            row = _numbers(no, ln.split(), n + 1)
            G_rows.append(row[:n])
            h_vals.append(row[n])


@dataclass(frozen=True, eq=False)
class SolutionFile:
    primal: np.ndarray
    dual_eq: np.ndarray | None = None
    dual_cone: np.ndarray | None = None

    def __eq__(self, other):
        if not isinstance(other, SolutionFile):
            return NotImplemented

        def same(a, b):
            if a is None or b is None:
                return a is None and b is None
            return np.array_equal(a, b)

        return (
            same(self.primal, other.primal)
            and same(self.dual_eq, other.dual_eq)
            and same(self.dual_cone, other.dual_cone)
        )


def write_solution(sol: SolutionFile) -> str:
    lines = ["SOLUTION 1", "PRIMAL " + " ".join(_fmt(v) for v in sol.primal)]
    if sol.dual_eq is not None:
        lines.append("DUAL_EQ " + " ".join(_fmt(v) for v in sol.dual_eq))
    if sol.dual_cone is not None:
        lines.append("DUAL_CONE " + " ".join(_fmt(v) for v in sol.dual_cone))
    lines.append("END")
    return "\n".join(lines) + "\n"


def read_solution(text: str) -> SolutionFile:
    lines = _Lines(text)
    no, ln = lines.next("header")
    if ln != "SOLUTION 1":
        raise ConicFormatError(f"line {no}: expected 'SOLUTION 1'")
    no, _, words = lines.keyed("PRIMAL", "'PRIMAL'", "PRIMAL")
    primal, duals = np.array(_numbers(no, words)), {}
    while True:
        no, key, words = lines.keyed("'DUAL_...' or 'END'", "DUAL_EQ, DUAL_CONE or END", "DUAL_EQ", "DUAL_CONE", "END")
        if key == "END":
            return SolutionFile(primal, duals.get("DUAL_EQ"), duals.get("DUAL_CONE"))
        if key in duals:
            raise ConicFormatError(f"line {no}: second {key}")
        duals[key] = np.array(_numbers(no, words))
