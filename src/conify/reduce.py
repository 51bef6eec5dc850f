"""Reduction schemas, the canonization driver, and recorded traces.

Each schema rewrites a problem and records enough to replay the rewrite and to
map solutions both ways.  Linearization replaces a nonlinear subterm g with a
fresh variable t at every syntactically identical occurrence of the same
polarity, then bounds t against g on the side that polarity allows (g <= t in
antimonotone contexts, t <= g in monotone ones).  Graph expansion does the
same replacement but pins t with the atom's describing constraint instead,
which is only sound where the polarity matches the implementation style:
a greatest-style description may stand in for the true value in monotone
contexts.  Redundancy elimination drops constraints that are syntactically
implied by the ones that remain.

The driver repeats one move: find the innermost non-affine atom occurrence in
constraint order (skipping constraints that conic emission already accepts
whole), graph-expand it when an implementation exists, linearize it otherwise.
At the fixpoint it sweeps for redundant constraints once.  Objectives are
never rewritten; canonization requires an affine objective and rejects
anything else.
"""

import re
from dataclasses import dataclass, field

import numpy as np

from .atoms import Curvature, atom_lookup, graph_impl
from .conic import _Lines, constraint_shape, emit
from .dcp import OccPath, Polarity, dcp_check, is_affine, polarity_of, resolve
from .oracle import sample_feasible
from .problem import (
    Assignment,
    Call,
    ConifyError,
    Const,
    Constraint,
    Expr,
    Problem,
    UnboundName,
    Var,
    _vcheck_feasible,
    _veval,
    evaluate,
    oriented,
)
from . import dsl


class ReduceError(ConifyError):
    pass


class AffineTarget(ReduceError):
    pass


class PolarityUnknown(ReduceError):
    pass


class PolarityMismatch(ReduceError):
    pass


class NoGraphImpl(ReduceError):
    pass


class MissingDomainFact(ReduceError):
    pass


class NotProvablyRedundant(ReduceError):
    pass


class NotConeRepresentable(ReduceError):
    pass


@dataclass(frozen=True)
class TraceStep:
    """One applied schema.

    `targets` are the replaced occurrence paths in the pre-step problem,
    `added` holds the constraints the step appended, and `removed` indexes
    dropped constraints in the pre-step problem.  `forward_def`
    defines the fresh variable from pre-step names.
    """

    schema: str
    targets: tuple[OccPath, ...] = ()
    fresh: str | None = None
    forward_def: Expr | None = None
    added: tuple[Constraint, ...] = ()
    removed: tuple[int, ...] = ()


@dataclass(frozen=True)
class ReductionTrace:
    original: Problem
    steps: tuple[TraceStep, ...]
    final: Problem

    def intermediates(self) -> list[Problem]:
        """Problems after each step: [original, p1, ..., final]."""
        out = [self.original]
        cur = self.original
        for s in self.steps:
            cur, _ = apply_step(cur, s.schema, s.targets[0] if s.targets else None, s.removed)
            out.append(cur)
        return out


def _fresh_name(p: Problem) -> str:
    """t<k>, k one more than the variables already named like a fresh one,
    with underscores appended until the name is unused."""
    used = set(p.variables) | {d.name for d in p.params}
    k = 1 + sum(1 for v in p.variables if re.fullmatch(r"t\d+_*", v))
    name = f"t{k}"
    while name in used:
        name += "_"
    return name


def _replace(p: Problem, g: Expr, pol: Polarity, t: Var) -> tuple[tuple[Constraint, ...], tuple[OccPath, ...]]:
    """p's constraints, rebuilt in one walk with t at every occurrence of g
    whose polarity in p is pol, and the replaced paths in constraint order,
    lhs first, outer before inner."""
    paths: list[OccPath] = []

    def walk(e: Expr, i: int, side: str, steps: tuple[int, ...]) -> Expr:
        if e == g:
            path = OccPath(i, side, steps)
            if polarity_of(p, path) != pol:
                return e
            paths.append(path)
            return t
        if not isinstance(e, Call):
            return e
        args = tuple(walk(a, i, side, steps + (k,)) for k, a in enumerate(e.args))
        return e if args == e.args else Call(e.atom, args)

    cs = tuple(
        Constraint(walk(c.lhs, i, "lhs", ()), c.op, walk(c.rhs, i, "rhs", ()))
        for i, c in enumerate(p.constraints)
    )
    return cs, tuple(paths)


def _introduce(p: Problem, g: Expr, pol: Polarity, schema: str, bound) -> tuple[Problem, TraceStep]:
    """Replace g wherever its polarity is pol with a fresh variable t and
    append bound(t)."""
    t = Var(_fresh_name(p))
    cs, occs = _replace(p, g, pol, t)
    added = bound(t)
    q = Problem(p.variables + (t.name,), p.params, p.objective, cs + (added,))
    return q, TraceStep(schema, occs, t.name, g, added=(added,))


def linearize(p: Problem, path: OccPath) -> tuple[Problem, TraceStep]:
    """Replace the non-affine subterm at `path` with a fresh bounded variable."""
    g = resolve(p, path)
    if is_affine(g):
        raise AffineTarget(f"subterm at {path} is already affine: {dsl.print_expr(g)}")
    pol = polarity_of(p, path)
    if pol not in (Polarity.MONOTONE, Polarity.ANTIMONOTONE):
        raise PolarityUnknown(f"polarity at {path} is {pol.value}; cannot linearize")
    if pol == Polarity.ANTIMONOTONE:
        return _introduce(p, g, pol, "linearize_antimono", lambda t: Constraint(g, "<=", t))
    return _introduce(p, g, pol, "linearize_mono", lambda t: Constraint(t, "<=", g))


def _fact_present(p: Problem, arg: Expr, fact: str) -> bool:
    """Is `0 <= arg` (fact nonneg) or `0 < arg` (fact pos) recorded?"""
    for lo, hi, strict in filter(None, map(oriented, p.constraints)):
        if lo == Const(0.0) and hi == arg and (strict or fact != "pos"):
            return True
    return False


def graph_expand(p: Problem, path: OccPath) -> tuple[Problem, TraceStep]:
    """Replace an atom occurrence with a fresh variable pinned by its graph
    description."""
    g = resolve(p, path)
    if not isinstance(g, Call):
        raise NoGraphImpl(f"subterm at {path} is not an atom application")
    impl = graph_impl(g.atom)
    if impl is None:
        raise NoGraphImpl(f"no graph implementation registered for {g.atom}")
    pol = polarity_of(p, path)
    want = Polarity.MONOTONE if impl.direction == "greatest" else Polarity.ANTIMONOTONE
    if pol != want:
        raise PolarityMismatch(
            f"{impl.direction}-style description needs {want.value} polarity, "
            f"got {pol.value} at {path}"
        )
    if impl.required_fact and not _fact_present(p, g.args[0], impl.required_fact):
        bound = "0 <= " if impl.required_fact == "nonneg" else "0 < "
        raise MissingDomainFact(
            f"expanding {dsl.print_expr(g)} needs {bound}{dsl.print_expr(g.args[0])} "
            "among the constraints"
        )
    curv = atom_lookup(g.atom).curvature
    schema = "graph_expand_concave" if curv == Curvature.CONCAVE else "graph_expand_convex"
    return _introduce(p, g, pol, schema, lambda t: impl.build_constraint(t, g.args))


def _implied(c: Constraint, rest: list[Constraint]) -> str | None:
    """Name of the implication rule justifying c from rest, or None."""
    # The premises used, each a non-strict lo <= hi.
    le = [(lo, hi) for lo, hi, strict in filter(None, map(oriented, rest)) if not strict]
    bound = oriented(c)
    if bound is not None and bound[0] == Const(0.0):
        _, e, strict = bound
        if not strict:
            # 0 <= e follows from any u^2 <= e.
            for lo, hi in le:
                if hi == e and isinstance(lo, Call) and lo.atom == "pow" and lo.args[1] == Const(2.0):
                    return "square-lower-bound"
        else:
            # 0 < e follows from any exp(t) <= e.
            for lo, hi in le:
                if hi == e and isinstance(lo, Call) and lo.atom == "exp":
                    return "exp-positivity"
    if c.op == "<=":
        # e1 <= e3 follows from e1 <= e2 and e2 <= e3.  Tested only on a
        # constraint written with <=: traces record what the sweep drops.
        mids_above = {hi for lo, hi in le if lo == c.lhs}
        for lo, hi in le:
            if hi == c.rhs and lo in mids_above:
                return "transitivity"
    return None


def eliminate_redundant(p: Problem, indices: tuple[int, ...]) -> tuple[Problem, TraceStep]:
    """Drop constraints provably implied by the ones that remain."""
    idx = tuple(sorted(set(indices)))
    if not idx:
        raise NotProvablyRedundant("no indices given")
    for i in idx:
        if not (0 <= i < len(p.constraints)):
            raise NotProvablyRedundant(f"constraint index {i} out of range")
    rest = [c for j, c in enumerate(p.constraints) if j not in idx]
    for i in idx:
        rule = _implied(p.constraints[i], rest)
        if rule is None:
            raise NotProvablyRedundant(
                f"constraint {i} ({dsl.print_constraint(p.constraints[i])}) "
                "is not implied by the remaining constraints"
            )
    q = Problem(p.variables, p.params, p.objective, tuple(rest))
    return q, TraceStep("eliminate_redundant", removed=idx)


# --- driver -----------------------------------------------------------------

MAX_STEPS = 500  # schema steps reduce_problem takes before it gives up


def _innermost_nonaffine(e: Expr) -> tuple[int, ...] | None:
    if not isinstance(e, Call):
        return None
    for i, a in enumerate(e.args):
        sub = _innermost_nonaffine(a)
        if sub is not None:
            return (i,) + sub
    if not is_affine(e):
        return ()
    return None


def _pick_target(p: Problem):
    """Innermost non-affine occurrence (an atom of affine arguments) in
    constraint order, skipping constraints emission accepts whole, and its
    schema: graph_expand if the atom has a graph implementation, else
    linearize.  Raises at a bare head with neither that nor an emission rule."""
    for i, c in enumerate(p.constraints):
        if constraint_shape(c) is not None:
            continue
        for side, root in (("lhs", c.lhs), ("rhs", c.rhs)):
            steps = _innermost_nonaffine(root)
            if steps is None:
                continue
            path = OccPath(i, side, steps)
            g = resolve(p, path)
            if graph_impl(g.atom) is not None:
                return path, graph_expand
            if steps == () and is_affine(c.rhs if side == "lhs" else c.lhs):
                raise NotConeRepresentable(
                    f"constraint {i}: no conic emission rule or graph "
                    f"implementation for {g.atom} at {path}"
                )
            return path, linearize
    return None


def _sweep_redundant(p: Problem) -> tuple[int, ...]:
    removed: set[int] = set()
    for i, c in enumerate(p.constraints):
        rest = [d for j, d in enumerate(p.constraints) if j != i and j not in removed]
        if _implied(c, rest) is not None:
            removed.add(i)
    # Each rule only needs its premises present, so a second pass would drop
    # nothing.  But a later drop can take away an earlier drop's premise: put
    # back every drop the remainder does not imply.
    rest = [d for j, d in enumerate(p.constraints) if j not in removed]
    return tuple(i for i in sorted(removed) if _implied(p.constraints[i], rest) is not None)


def reduce_problem(p: Problem) -> ReductionTrace:
    """Drive schemas to a fixpoint, then sweep redundant constraints once."""
    verdict = dcp_check(p)
    if not verdict.conformant:
        bad = verdict.failures()[0]
        where = "objective" if bad.constraint is None else f"constraint {bad.constraint} ({bad.side})"
        raise NotConeRepresentable(
            f"not DCP-conformant: {where} required {bad.required}, got {bad.inferred.value}"
        )
    if not is_affine(p.objective):
        raise NotConeRepresentable("objective must be affine to canonize")

    steps: list[TraceStep] = []
    cur = p
    for _ in range(MAX_STEPS):
        target = _pick_target(cur)
        if target is None:
            break
        path, schema = target
        cur, st = schema(cur, path)
        steps.append(st)
    else:
        raise NotConeRepresentable(f"no fixpoint after {MAX_STEPS} schema steps")

    drop = _sweep_redundant(cur)
    if drop:
        cur, st = eliminate_redundant(cur, drop)
        steps.append(st)
    return ReductionTrace(p, tuple(steps), cur)


def canonize(p: Problem, params: Assignment):
    """Reduce to conic-emittable form and emit with parameters bound.

    Returns (ConicProblem, ReductionTrace).
    """
    trace = reduce_problem(p)
    return emit(trace.final, params), trace


# --- solution maps ----------------------------------------------------------


def backmap(trace: ReductionTrace, point: Assignment) -> Assignment:
    """Restrict a final-problem point to the original variables."""
    out = {}
    for v in trace.original.variables:
        if v not in point:
            raise UnboundName(v)
        out[v] = point[v]
    return out


def forward_map(trace: ReductionTrace, point: Assignment) -> Assignment:
    """Extend an original-problem point with every fresh variable's defining
    value.  The point must also bind any parameters the definitions mention."""
    acc = dict(point)
    for s in trace.steps:
        if s.fresh is not None:
            acc[s.fresh] = evaluate(s.forward_def, acc)
    return acc


# --- replay and trace files ---------------------------------------------------


# Every schema name apply_step and `conify step --schema` accept, with the
# function that applies it.  A family name (linearize, graph_expand,
# eliminate) takes whichever schema of the family applies at the target; a
# full name must be the schema the step produced.
SCHEMAS = {
    "linearize": linearize,
    "linearize_antimono": linearize,
    "linearize_mono": linearize,
    "graph_expand": graph_expand,
    "graph_expand_concave": graph_expand,
    "graph_expand_convex": graph_expand,
    "eliminate": eliminate_redundant,
    "eliminate_redundant": eliminate_redundant,
}


def apply_step(
    p: Problem,
    schema: str,
    path: OccPath | None,
    removed: tuple[int, ...] = (),
) -> tuple[Problem, TraceStep]:
    """Apply the schema named by a key of SCHEMAS: eliminate_redundant at the
    removed indices, any other at path."""
    rule = SCHEMAS.get(schema)
    if rule is None:
        raise ReduceError(f"unknown schema {schema!r}")
    if rule is eliminate_redundant:
        q, st = eliminate_redundant(p, removed)
    elif path is None:
        raise ReduceError(f"{schema} needs an occurrence path")
    else:
        q, st = rule(p, path)
    if st.schema != schema and not st.schema.startswith(schema + "_"):
        raise ReduceError(f"the step at {path} is {st.schema}, not {schema}")
    return q, st


def _step_line(k: int, s: TraceStep) -> str:
    """Trace line of step k."""
    parts = [f"STEP {k} {s.schema}"]
    if s.targets:
        parts.append("AT " + ",".join(str(t) for t in s.targets))
    if s.fresh is not None:
        parts.append(f"FRESH {s.fresh}")
    if s.forward_def is not None:
        parts.append(f"DEF {dsl.print_expr(s.forward_def)}")
    for c in s.added:
        parts.append(f"ADD {dsl.print_constraint(c)}")
    if s.removed:
        parts.append("REMOVE " + " ".join(str(i) for i in s.removed))
    return " ".join(parts)


def write_trace(trace: ReductionTrace) -> str:
    lines = [_step_line(k, s) for k, s in enumerate(trace.steps, start=1)]
    return "\n".join(["TRACE 1", *lines, "END"]) + "\n"


# What replay needs from a step line: the schema, the AT targets and the
# REMOVE indices.  Whatever else the line says is checked by reprinting.
_STEP_RE = re.compile(
    r"STEP\s+\d+\s+(?P<schema>\w+)(?:\s+AT\s+(?P<at>\S+))?"
    r".*?(?:\s+REMOVE\s+(?P<remove>[\d ]+))?\s*$"
)


class TraceFormatError(ReduceError):
    pass


def read_trace(text: str, original: Problem) -> ReductionTrace:
    """Parse a trace file and replay it against the original problem.  Each
    step line must be, whitespace runs aside, the line write_trace prints
    for its replay, or TraceFormatError quotes the line."""
    lines = _Lines(text).items
    if not lines or lines[0][1] != "TRACE 1":
        raise TraceFormatError(f"line {lines[0][0] if lines else 1}: expected 'TRACE 1' header")
    if lines[-1][1] != "END":
        raise TraceFormatError(f"line {lines[-1][0]}: expected 'END' footer")
    cur = original
    steps: list[TraceStep] = []
    for k, (_, ln) in enumerate(lines[1:-1], start=1):
        m = _STEP_RE.match(ln)
        if m is None:
            raise TraceFormatError(f"unreadable step line: {ln!r}")
        try:
            targets = tuple(map(OccPath.parse, m.group("at").split(","))) if m.group("at") else ()
            removed = tuple(int(x) for x in m.group("remove").split()) if m.group("remove") else ()
            cur, st = apply_step(cur, m.group("schema"), targets[0] if targets else None, removed)
        except (ReduceError, ValueError, IndexError) as e:
            raise TraceFormatError(f"step line {ln!r}: {e}") from None
        replayed = _step_line(k, st)
        if " ".join(ln.split()) != replayed:
            raise TraceFormatError(f"step line {ln!r}: replay prints {replayed!r}")
        steps.append(st)
    return ReductionTrace(original, tuple(steps), cur)


# --- sampled soundness -------------------------------------------------------


@dataclass
class TraceCheckReport:
    backward_checked: int = 0
    forward_checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_trace_sampled(
    trace: ReductionTrace,
    params: Assignment,
    box: tuple[float, float] = (-5.0, 5.0),
    n: int = 200,
    seed: int = 0,
    tol: float = 1e-7,
) -> TraceCheckReport:
    """Sample exactly-feasible points of the final problem, map them back, and
    require original feasibility at tol with identical objective value; then
    mirror the check forward from original-feasible samples.

    The sampled points are checked all at once, as one array per variable,
    with the evaluator the sampler uses.  A point where an expression is
    undefined (nan) counts as infeasible, and a nan objective difference as
    a changed objective.  Failures are listed point by point in sample
    order, backward ones first.
    """
    report = TraceCheckReport()
    final_cols = sample_feasible(trace.final, params, box, n, seed)
    env = {**params, **final_cols}
    back_env = {**params, **{v: env[v] for v in trace.original.variables}}
    first = _vcheck_feasible(trace.original, back_env, tol)
    with np.errstate(all="ignore"):
        diff = _veval(trace.original.objective, back_env) - _veval(trace.final.objective, env)
    moved = (first < 0) & ~(np.abs(diff) <= tol)
    for k in np.flatnonzero((first >= 0) | moved):
        back = backmap(trace, {v: float(col[k]) for v, col in final_cols.items()})
        if first[k] >= 0:
            report.failures.append(f"backmapped point infeasible at constraint {first[k]}: {back}")
        else:
            report.failures.append(f"objective changed under backmap at {back}")
    report.backward_checked = int(np.count_nonzero(first < 0))

    env = {**params, **sample_feasible(trace.original, params, box, n, seed + 1)}
    with np.errstate(all="ignore"):
        for s in trace.steps:
            if s.fresh is not None:
                env[s.fresh] = _veval(s.forward_def, env)
    first = _vcheck_feasible(trace.final, env, tol)
    for k in np.flatnonzero(first >= 0):
        report.failures.append(f"forward-mapped point infeasible at constraint {first[k]}")
    report.forward_checked = int(np.count_nonzero(first < 0))
    return report
