"""Atom registry: analytic metadata and graph implementations.

Each atom carries a curvature label, per-argument monotonicity (conditioned on
argument signs where it has to be), a result-sign rule, and a domain note.
Curvature labels describe the atom as a function on its own domain; `mul` and
`div` are labelled unknown because a general bilinear product is neither convex
nor concave, and they only become typed inside the analyzer when one side is a
parameter or constant.

Graph implementations describe a nonlinear atom as the extreme solution of a
conic-friendly constraint: sqrt(x) is the greatest t with t^2 <= x, log(x) the
greatest t with exp(t) <= x.  exp itself has no greatest-style implementation
here; constraints with an exp head are recognized directly at conic emission.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .problem import (
    ATOM_ARITY,
    Call,
    Const,
    Constraint,
    Expr,
    Var,
    _mask_ok,
    _veval,
)


class Curvature(Enum):
    CONSTANT = "constant"
    AFFINE = "affine"
    CONVEX = "convex"
    CONCAVE = "concave"
    UNKNOWN = "unknown"

    def is_affine(self) -> bool:
        return self in (Curvature.CONSTANT, Curvature.AFFINE)

    def is_convex(self) -> bool:
        return self in (Curvature.CONSTANT, Curvature.AFFINE, Curvature.CONVEX)

    def is_concave(self) -> bool:
        return self in (Curvature.CONSTANT, Curvature.AFFINE, Curvature.CONCAVE)


class Monotonicity(Enum):
    NONDECREASING = "nondecreasing"
    NONINCREASING = "nonincreasing"
    NONE = "none"


class Sign(Enum):
    ZERO = "zero"
    POS = "pos"
    NONNEG = "nonneg"
    NEG = "neg"
    NONPOS = "nonpos"
    UNKNOWN = "unknown"

    def is_nonneg(self) -> bool:
        return self in (Sign.ZERO, Sign.POS, Sign.NONNEG)

    def is_nonpos(self) -> bool:
        return self in (Sign.ZERO, Sign.NEG, Sign.NONPOS)


def flip_curvature(c: Curvature) -> Curvature:
    if c == Curvature.CONVEX:
        return Curvature.CONCAVE
    if c == Curvature.CONCAVE:
        return Curvature.CONVEX
    return c


def flip_sign(s: Sign) -> Sign:
    return {
        Sign.POS: Sign.NEG,
        Sign.NEG: Sign.POS,
        Sign.NONNEG: Sign.NONPOS,
        Sign.NONPOS: Sign.NONNEG,
    }.get(s, s)


def sign_of_value(v: float) -> Sign:
    if v > 0:
        return Sign.POS
    if v < 0:
        return Sign.NEG
    return Sign.ZERO


def _sign_add(a: Sign, b: Sign) -> Sign:
    if a == Sign.ZERO:
        return b
    if b == Sign.ZERO:
        return a
    if a.is_nonneg() and b.is_nonneg():
        return Sign.POS if Sign.POS in (a, b) else Sign.NONNEG
    if a.is_nonpos() and b.is_nonpos():
        return Sign.NEG if Sign.NEG in (a, b) else Sign.NONPOS
    return Sign.UNKNOWN


def _sign_mul(a: Sign, b: Sign) -> Sign:
    if Sign.ZERO in (a, b):
        return Sign.ZERO
    if Sign.UNKNOWN in (a, b):
        return Sign.UNKNOWN
    strict = a in (Sign.POS, Sign.NEG) and b in (Sign.POS, Sign.NEG)
    same = a.is_nonneg() == b.is_nonneg()
    if same:
        return Sign.POS if strict else Sign.NONNEG
    return Sign.NEG if strict else Sign.NONPOS


# Monotonicity in an argument that grows the result where the sign s is
# nonnegative and shrinks it where s is nonpositive: a factor, with s the
# other factor's sign (a ZERO factor leaves the product constant, which counts
# as nondecreasing), and the base of abs or pow, with s its own sign.
def _sign_mono(s: Sign) -> Monotonicity:
    if s.is_nonneg():
        return Monotonicity.NONDECREASING
    if s.is_nonpos():
        return Monotonicity.NONINCREASING
    return Monotonicity.NONE


@dataclass(frozen=True)
class AtomSig:
    """Static metadata for one atom.

    `monotonicity` maps argument signs to per-argument monotonicities; `sign`
    maps argument signs to the result sign.
    """

    curvature: Curvature
    monotonicity: Callable[[tuple[Sign, ...]], tuple[Monotonicity, ...]]
    sign: Callable[[tuple[Sign, ...]], Sign]


_ND = Monotonicity.NONDECREASING
_NI = Monotonicity.NONINCREASING
_NM = Monotonicity.NONE

ATOMS: dict[str, AtomSig] = {
    "add": AtomSig(Curvature.AFFINE, lambda s: (_ND, _ND), lambda s: _sign_add(s[0], s[1])),
    "sub": AtomSig(Curvature.AFFINE, lambda s: (_ND, _NI), lambda s: _sign_add(s[0], flip_sign(s[1]))),
    "neg": AtomSig(Curvature.AFFINE, lambda s: (_NI,), lambda s: flip_sign(s[0])),
    "mul": AtomSig(Curvature.UNKNOWN,
                   lambda s: (_sign_mono(s[1]), _sign_mono(s[0])),
                   lambda s: _sign_mul(s[0], s[1])),
    "div": AtomSig(Curvature.UNKNOWN,
                   lambda s: (_sign_mono(s[1]), _NM),
                   lambda s: _sign_mul(s[0], s[1])),
    "pow": AtomSig(Curvature.CONVEX,
                   lambda s: (_sign_mono(s[0]), _NM),
                   lambda s: Sign.NONNEG if s[0] != Sign.ZERO else Sign.ZERO),
    "exp": AtomSig(Curvature.CONVEX, lambda s: (_ND,), lambda s: Sign.POS),
    "log": AtomSig(Curvature.CONCAVE, lambda s: (_ND,), lambda s: Sign.UNKNOWN),
    "sqrt": AtomSig(Curvature.CONCAVE, lambda s: (_ND,),
                    lambda s: Sign.POS if s[0] == Sign.POS else Sign.NONNEG),
    "abs": AtomSig(Curvature.CONVEX,
                   lambda s: (_sign_mono(s[0]),),
                   lambda s: Sign.POS if s[0] in (Sign.POS, Sign.NEG) else Sign.NONNEG),
}

assert set(ATOMS) == set(ATOM_ARITY)


def atom_lookup(name: str) -> AtomSig:
    try:
        return ATOMS[name]
    except KeyError:
        raise KeyError(f"unknown atom {name!r}") from None


@dataclass(frozen=True)
class GraphImplementation:
    """Extreme-solution description of an atom.

    `build_constraint(t, args)` instantiates the describing constraint
    d(t, args); `value(args)` computes the described extreme point, which for
    a greatest-style implementation must be the greatest t satisfying d.
    `required_fact` names a side condition on the argument that must already
    be recorded among a problem's constraints before the description is valid:
    "nonneg" wants 0 <= arg, "pos" wants 0 < arg.
    """

    atom: str
    direction: str  # "greatest" or "least"
    build_constraint: Callable[[Expr, tuple[Expr, ...]], Constraint]
    value: Callable[[tuple[float, ...]], float]
    required_fact: str | None = None


def _sqrt_constraint(t: Expr, args: tuple[Expr, ...]) -> Constraint:
    return Constraint(Call("pow", (t, Const(2.0))), "<=", args[0])


def _log_constraint(t: Expr, args: tuple[Expr, ...]) -> Constraint:
    return Constraint(Call("exp", (t,)), "<=", args[0])


_GRAPH_IMPLS: dict[str, GraphImplementation] = {
    # Greatest t with t^2 <= x.  Deliberately omits t >= 0: the squared form
    # already pins the greatest solution to +sqrt(x).
    "sqrt": GraphImplementation("sqrt", "greatest", _sqrt_constraint,
                                lambda a: math.sqrt(a[0]), required_fact="nonneg"),
    # Greatest t with exp(t) <= x, needing 0 < x for any t to exist.
    "log": GraphImplementation("log", "greatest", _log_constraint,
                               lambda a: math.log(a[0]), required_fact="pos"),
}


def graph_impl(name: str) -> GraphImplementation | None:
    """Nontrivial graph implementation for an atom, or None.

    exp in particular has none: exp-headed constraints are turned into
    exponential-cone rows at emission instead of being re-described here.
    """
    return _GRAPH_IMPLS.get(name)


@dataclass(frozen=True)
class IsGreatestResult:
    ok: bool
    value: float
    counterexample: float | None = None
    detail: str = ""


def check_is_greatest(
    gi: GraphImplementation,
    args: tuple[float, ...],
    lo: float = -10.0,
    hi: float = 10.0,
    step: float = 1e-3,
    tol: float = 1e-9,
) -> IsGreatestResult:
    """Numerically confirm the greatest-solution claim at one argument tuple.

    Checks that d(value(args), args) holds within tol and that no grid point
    y in [lo, hi] with d(y, args) exceeds value(args) + tol.
    """
    g = gi.value(args)
    names = {f"__a{i}": v for i, v in enumerate(args)}
    c = gi.build_constraint(Var("__t"), tuple(Var(f"__a{i}") for i in range(len(args))))

    def holds(t, slack):
        env = {**names, "__t": t}
        with np.errstate(all="ignore"):
            return _mask_ok(c.op, _veval(c.lhs, env), _veval(c.rhs, env), slack)

    if not holds(g, tol):
        return IsGreatestResult(False, g, detail="described point fails its own constraint")

    n = int(round((hi - lo) / step)) + 1
    ys = (lo * (n - 1 - np.arange(n)) + hi * np.arange(n)) / (n - 1)
    above = holds(ys, 0.0) & (ys > g + tol)
    if above.any():
        w = float(ys[above][0])
        return IsGreatestResult(False, g, counterexample=w,
                                detail="a larger grid point also satisfies the constraint")
    return IsGreatestResult(True, g)
