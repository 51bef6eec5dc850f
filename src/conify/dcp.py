"""Disciplined-convexity analysis: curvature, sign, and context polarity.

Curvature composes through the usual discipline: a convex atom applied to
affine arguments stays convex, and through a nondecreasing argument it accepts
convex arguments (nonincreasing accepts concave), mirrored for concave atoms.
Products and quotients are typed only when one side has constant curvature;
the constant's sign then decides whether scaling preserves or flips curvature,
and an unknown-sign constant times anything non-affine is unknown.

Polarity describes how a constraint set reacts when one subterm's value moves.
A subterm sits in an antimonotone context when lowering its value keeps every
holding constraint holding (the left side of <=), in a monotone context when
raising it does (the right side of <=), mirrored for >=.  Equality pins both
directions, so inner subterms of an = side get unknown polarity and only the
full side itself counts as both.  Objective subterms are reported unknown:
reductions here never rewrite the objective.
"""

from dataclasses import dataclass
from enum import Enum

from .atoms import (
    Curvature,
    Monotonicity,
    Sign,
    atom_lookup,
    flip_curvature,
    sign_of_value,
)
from .problem import Call, Const, Expr, Param, Problem, Var


class Polarity(Enum):
    MONOTONE = "monotone"
    ANTIMONOTONE = "antimonotone"
    BOTH = "both"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class OccPath:
    """Location of one subterm: constraint index (None for the objective),
    side, and the child-index walk from that root."""

    constraint: int | None
    side: str = "lhs"  # "lhs" | "rhs"; ignored for the objective
    steps: tuple[int, ...] = ()

    def __str__(self) -> str:
        head = "obj" if self.constraint is None else f"c{self.constraint}/{self.side}"
        return "/".join([head] + [str(s) for s in self.steps])

    @staticmethod
    def parse(text: str) -> "OccPath":
        """Read the str() form; every index is a decimal integer >= 0."""
        parts = text.strip().split("/")
        if parts[0] == "obj":
            constraint, side, steps = None, "lhs", parts[1:]
        elif parts[0].startswith("c") and len(parts) >= 2 and parts[1] in ("lhs", "rhs"):
            constraint, side, steps = parts[0][1:], parts[1], parts[2:]
        else:
            raise ValueError(f"bad occurrence path {text!r}")
        indices = steps if constraint is None else [constraint, *steps]
        if not all(s.isascii() and s.isdigit() for s in indices):
            raise ValueError(f"bad occurrence path {text!r}: indices are integers >= 0")
        return OccPath(None if constraint is None else int(constraint), side, tuple(map(int, steps)))


def path_root(p: Problem, path: OccPath) -> Expr:
    if path.constraint is None:
        return p.objective
    c = p.constraints[path.constraint]
    return c.lhs if path.side == "lhs" else c.rhs


def resolve(p: Problem, path: OccPath) -> Expr:
    e = path_root(p, path)
    for i in path.steps:
        if not isinstance(e, Call) or i >= len(e.args):
            raise ValueError(f"path {path} leaves the expression")
        e = e.args[i]
    return e


def param_sign_context(p: Problem) -> dict[str, Sign]:
    """Each parameter's declared sign; "none" declares nothing."""
    return {d.name: Sign.UNKNOWN if d.sign == "none" else Sign(d.sign) for d in p.params}


def _analyze(e: Expr, signs: dict[str, Sign], cache: dict) -> tuple[Curvature, Sign]:
    hit = cache.get(id(e))
    if hit is not None:
        return hit
    out = _analyze_raw(e, signs, cache)
    cache[id(e)] = out
    return out


def _scale(c: Curvature, s: Sign) -> Curvature:
    """Curvature of (constant with sign s) * (expression with curvature c);
    zero times a non-affine c keeps c, so the expression is still rewritten."""
    if c == Curvature.CONSTANT or (s == Sign.ZERO and c.is_affine()):
        return Curvature.CONSTANT
    if s.is_nonneg():
        return c
    if s.is_nonpos():
        return flip_curvature(c)
    return Curvature.AFFINE if c.is_affine() else Curvature.UNKNOWN


def _compose(sig, curvs: tuple[Curvature, ...], monos: tuple[Monotonicity, ...]) -> Curvature:
    if all(c == Curvature.CONSTANT for c in curvs):
        return Curvature.CONSTANT
    if sig.curvature == Curvature.AFFINE and all(c.is_affine() for c in curvs):
        return Curvature.AFFINE

    def arg_ok(want_convex: bool) -> bool:
        for c, m in zip(curvs, monos):
            if c.is_affine():
                continue
            inner_ok = c.is_convex() if want_convex else c.is_concave()
            inner_flip = c.is_concave() if want_convex else c.is_convex()
            if m == Monotonicity.NONDECREASING and inner_ok:
                continue
            if m == Monotonicity.NONINCREASING and inner_flip:
                continue
            return False
        return True

    if sig.curvature in (Curvature.CONVEX, Curvature.AFFINE) and arg_ok(True):
        return Curvature.CONVEX
    if sig.curvature in (Curvature.CONCAVE, Curvature.AFFINE) and arg_ok(False):
        return Curvature.CONCAVE
    return Curvature.UNKNOWN


def _analyze_raw(e: Expr, signs: dict[str, Sign], cache: dict) -> tuple[Curvature, Sign]:
    if isinstance(e, Const):
        return Curvature.CONSTANT, sign_of_value(e.value)
    if isinstance(e, Param):
        return Curvature.CONSTANT, signs.get(e.name, Sign.UNKNOWN)
    if isinstance(e, Var):
        return Curvature.AFFINE, Sign.UNKNOWN

    assert isinstance(e, Call)
    sig = atom_lookup(e.atom)
    parts = [_analyze(a, signs, cache) for a in e.args]
    curvs = tuple(c for c, _ in parts)
    arg_signs = tuple(s for _, s in parts)
    out_sign = sig.sign(arg_signs)

    if e.atom == "mul":
        if curvs[0] == Curvature.CONSTANT:
            return _scale(curvs[1], arg_signs[0]), out_sign
        if curvs[1] == Curvature.CONSTANT:
            return _scale(curvs[0], arg_signs[1]), out_sign
        return Curvature.UNKNOWN, out_sign

    if e.atom == "div":
        # A zero divisor leaves div's domain everywhere.
        if curvs[1] != Curvature.CONSTANT or arg_signs[1] == Sign.ZERO:
            return Curvature.UNKNOWN, out_sign
        return _scale(curvs[0], arg_signs[1]), out_sign

    if e.atom == "pow":
        k = int(e.args[1].value)  # validated integer literal >= 1
        base_curv, base_sign = curvs[0], arg_signs[0]
        if k % 2 == 1:
            # The registry sign rule covers even powers only.
            out_sign = base_sign
        if base_curv == Curvature.CONSTANT:
            return Curvature.CONSTANT, out_sign
        if k == 1:
            return base_curv, base_sign
        if k % 2 == 0:
            return _compose(sig, (base_curv,), sig.monotonicity(arg_signs)[:1]), out_sign
        # Odd powers preserve sign and are convex on the nonnegative side,
        # concave on the nonpositive side.
        if base_sign.is_nonneg() and base_curv.is_convex():
            return Curvature.CONVEX, base_sign
        if base_sign.is_nonpos() and base_curv.is_concave():
            return Curvature.CONCAVE, base_sign
        return Curvature.UNKNOWN, base_sign

    return _compose(sig, curvs, sig.monotonicity(arg_signs)), out_sign


def curvature_of(e: Expr, signs: dict[str, Sign]) -> Curvature:
    return _analyze(e, signs, {})[0]


def is_affine(e: Expr) -> bool:
    """Is e affine (or constant) in the variables?  Declared parameter signs
    choose among convex, concave and unknown, but never make or break
    affine, so none are needed."""
    return curvature_of(e, {}).is_affine()


def sign_of(e: Expr, signs: dict[str, Sign]) -> Sign:
    return _analyze(e, signs, {})[1]


def _flip_polarity(p: Polarity) -> Polarity:
    if p == Polarity.MONOTONE:
        return Polarity.ANTIMONOTONE
    if p == Polarity.ANTIMONOTONE:
        return Polarity.MONOTONE
    return p


def polarity_of(p: Problem, path: OccPath) -> Polarity:
    """Polarity of the subterm at `path` with respect to the constraint set."""
    signs = param_sign_context(p)
    if path.constraint is None:
        return Polarity.UNKNOWN
    c = p.constraints[path.constraint]
    if c.op == "=":
        # Only the whole side of an equality moves both ways safely.
        return Polarity.BOTH if not path.steps else Polarity.UNKNOWN
    if c.op in ("<=", "<"):
        pol = Polarity.ANTIMONOTONE if path.side == "lhs" else Polarity.MONOTONE
    else:
        pol = Polarity.MONOTONE if path.side == "lhs" else Polarity.ANTIMONOTONE

    e = path_root(p, path)
    cache: dict = {}
    for i in path.steps:
        assert isinstance(e, Call)
        sig = atom_lookup(e.atom)
        arg_signs = tuple(_analyze(a, signs, cache)[1] for a in e.args)
        m = sig.monotonicity(arg_signs)[i]
        if m == Monotonicity.NONE:
            return Polarity.UNKNOWN
        if m == Monotonicity.NONINCREASING:
            pol = _flip_polarity(pol)
        e = e.args[i]
    return pol


@dataclass(frozen=True)
class Diagnosis:
    """One conformance requirement: objective or one side of one constraint."""

    constraint: int | None  # None for the objective
    side: str  # "lhs" | "rhs" | "objective"
    required: str  # "convex" | "concave" | "affine"
    inferred: Curvature
    ok: bool
    failing_path: OccPath | None = None


@dataclass(frozen=True)
class DcpVerdict:
    conformant: bool
    diagnoses: tuple[Diagnosis, ...]

    def failures(self) -> tuple[Diagnosis, ...]:
        return tuple(d for d in self.diagnoses if not d.ok)


def _meets(c: Curvature, required: str) -> bool:
    if required == "affine":
        return c.is_affine()
    if required == "convex":
        return c.is_convex()
    return c.is_concave()


def _first_break(e: Expr, steps: tuple[int, ...], signs, cache) -> tuple[int, ...]:
    """Innermost-leftmost subterm where the requirement already fails."""
    if isinstance(e, Call):
        for i, a in enumerate(e.args):
            ca = _analyze(a, signs, cache)[0]
            if ca == Curvature.UNKNOWN:
                return _first_break(a, steps + (i,), signs, cache)
    return steps


def dcp_check(p: Problem) -> DcpVerdict:
    """Conformance: convex objective, convex <= concave rows, affine equalities."""
    signs = param_sign_context(p)
    cache: dict = {}
    out: list[Diagnosis] = []

    def judge(constraint: int | None, side: str, e: Expr, required: str) -> None:
        cur = _analyze(e, signs, cache)[0]
        ok = _meets(cur, required)
        path = None
        if not ok:
            root = OccPath(constraint, side if side != "objective" else "lhs")
            path = OccPath(root.constraint, root.side, _first_break(e, (), signs, cache))
        out.append(Diagnosis(constraint, side, required, cur, ok, path))

    judge(None, "objective", p.objective, "convex")
    for i, c in enumerate(p.constraints):
        if c.op == "=":
            judge(i, "lhs", c.lhs, "affine")
            judge(i, "rhs", c.rhs, "affine")
        elif c.op in ("<=", "<"):
            judge(i, "lhs", c.lhs, "convex")
            judge(i, "rhs", c.rhs, "concave")
        else:
            judge(i, "lhs", c.lhs, "concave")
            judge(i, "rhs", c.rhs, "convex")
    return DcpVerdict(all(d.ok for d in out), tuple(out))
