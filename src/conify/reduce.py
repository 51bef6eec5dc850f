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

from .atoms import Curvature, atom_lookup, graph_impl
from .dcp import (
    OccPath,
    Polarity,
    curvature_of,
    dcp_check,
    find_occurrences,
    param_sign_context,
    polarity_of,
    resolve,
    substitute,
)
from .problem import (
    Assignment,
    Call,
    Const,
    Constraint,
    Expr,
    Problem,
    UnboundName,
    Var,
    evaluate,
)
from . import dsl


class ReduceError(Exception):
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
    `added` indexes new constraints in the post-step problem, and `removed`
    indexes dropped constraints in the pre-step problem.  `forward_def`
    defines the fresh variable from pre-step names.
    """

    schema: str
    targets: tuple[OccPath, ...] = ()
    fresh: str | None = None
    forward_def: Expr | None = None
    added: tuple[int, ...] = ()
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


def _fresh_name(p: Problem, index: int | None) -> tuple[str, int]:
    used = set(p.variables) | {d.name for d in p.params}
    if index is None:
        index = 1 + sum(1 for v in p.variables if re.fullmatch(r"t\d+_*", v))
    name = f"t{index}"
    while name in used:
        name += "_"
    return name, index


def _is_affine(e: Expr, p: Problem) -> bool:
    return curvature_of(e, param_sign_context(p)).is_affine()


def _replace_everywhere(p: Problem, occs: list[OccPath], new: Expr, variables) -> Problem:
    out = Problem(variables, p.params, p.objective, p.constraints)
    for o in occs:
        out = substitute(out, o, new)
    return out


def linearize(p: Problem, path: OccPath, fresh_index: int | None = None) -> tuple[Problem, TraceStep]:
    """Replace the non-affine subterm at `path` with a fresh bounded variable."""
    g = resolve(p, path)
    if _is_affine(g, p):
        raise AffineTarget(f"subterm at {path} is already affine: {dsl.print_expr(g)}")
    pol = polarity_of(p, path)
    if pol not in (Polarity.MONOTONE, Polarity.ANTIMONOTONE):
        raise PolarityUnknown(f"polarity at {path} is {pol.value}; cannot linearize")
    occs = [o for o in find_occurrences(p, g) if polarity_of(p, o) == pol]
    name, _ = _fresh_name(p, fresh_index)
    q = _replace_everywhere(p, occs, Var(name), p.variables + (name,))
    if pol == Polarity.ANTIMONOTONE:
        bound = Constraint(g, "<=", Var(name))
        schema = "linearize_antimono"
    else:
        bound = Constraint(Var(name), "<=", g)
        schema = "linearize_mono"
    q = Problem(q.variables, q.params, q.objective, q.constraints + (bound,))
    step = TraceStep(schema, tuple(occs), name, g, added=(len(q.constraints) - 1,))
    return q, step


def _fact_present(p: Problem, arg: Expr, fact: str) -> bool:
    """Is `0 <= arg` (fact nonneg) or `0 < arg` (fact pos) recorded?"""
    zero = Const(0.0)
    for c in p.constraints:
        forms = []
        if c.op in ("<=", "<"):
            forms.append((c.lhs, c.op, c.rhs))
        elif c.op in (">=", ">"):
            forms.append((c.rhs, "<=" if c.op == ">=" else "<", c.lhs))
        for lo, op, hi in forms:
            if lo == zero and hi == arg:
                if fact == "pos" and op != "<":
                    continue
                return True
    return False


def graph_expand(p: Problem, path: OccPath, fresh_index: int | None = None) -> tuple[Problem, TraceStep]:
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
    occs = [o for o in find_occurrences(p, g) if polarity_of(p, o) == want]
    name, _ = _fresh_name(p, fresh_index)
    q = _replace_everywhere(p, occs, Var(name), p.variables + (name,))
    described = impl.build_constraint(Var(name), g.args)
    q = Problem(q.variables, q.params, q.objective, q.constraints + (described,))
    curv = atom_lookup(g.atom).curvature
    schema = "graph_expand_concave" if curv == Curvature.CONCAVE else "graph_expand_convex"
    step = TraceStep(schema, tuple(occs), name, g, added=(len(q.constraints) - 1,))
    return q, step


def _as_lower_bound(c: Constraint) -> tuple[Expr, bool] | None:
    """Normalize `0 <= e` / `e >= 0` forms to (e, strict)."""
    zero = Const(0.0)
    if c.op in ("<=", "<") and c.lhs == zero:
        return c.rhs, c.op == "<"
    if c.op in (">=", ">") and c.rhs == zero:
        return c.lhs, c.op == ">"
    return None


def _le_pairs(c: Constraint) -> tuple[tuple[Expr, Expr], ...]:
    if c.op == "<=":
        return ((c.lhs, c.rhs),)
    if c.op == ">=":
        return ((c.rhs, c.lhs),)
    return ()


def _implied(c: Constraint, rest: list[Constraint]) -> str | None:
    """Name of the implication rule justifying c from rest, or None."""
    lb = _as_lower_bound(c)
    if lb is not None:
        e, strict = lb
        if not strict:
            # 0 <= e follows from any u^2 <= e.
            for r in rest:
                for lo, hi in _le_pairs(r):
                    if hi == e and isinstance(lo, Call) and lo.atom == "pow" and lo.args[1] == Const(2.0):
                        return "square-lower-bound"
        else:
            # 0 < e follows from any exp(t) <= e.
            for r in rest:
                for lo, hi in _le_pairs(r):
                    if hi == e and isinstance(lo, Call) and lo.atom == "exp":
                        return "exp-positivity"
    if c.op == "<=":
        # e1 <= e3 follows from e1 <= e2 and e2 <= e3.
        mids_above = {hi for r in rest for lo, hi in _le_pairs(r) if lo == c.lhs}
        for r in rest:
            for lo, hi in _le_pairs(r):
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


def _constraint_emittable(c: Constraint, p: Problem) -> bool:
    from .conic import constraint_shape

    return constraint_shape(c) is not None


def _innermost_nonaffine(e: Expr, p: Problem) -> tuple[int, ...] | None:
    if not isinstance(e, Call):
        return None
    for i, a in enumerate(e.args):
        sub = _innermost_nonaffine(a, p)
        if sub is not None:
            return (i,) + sub
    if not _is_affine(e, p):
        return ()
    return None


def _pick_target(p: Problem) -> OccPath | None:
    """Innermost non-affine occurrence in constraint order, skipping
    constraints emission accepts whole.  Raises when the occurrence is already
    a bare head with no implementation and no emission rule."""
    for i, c in enumerate(p.constraints):
        if _constraint_emittable(c, p):
            continue
        for side, root in (("lhs", c.lhs), ("rhs", c.rhs)):
            steps = _innermost_nonaffine(root, p)
            if steps is None:
                continue
            path = OccPath(i, side, steps)
            g = resolve(p, path)
            other = c.rhs if side == "lhs" else c.lhs
            at_head = (
                steps == ()
                and _is_affine(other, p)
                and isinstance(g, Call)
                and all(_is_affine(a, p) for a in g.args)
            )
            if at_head and graph_impl(g.atom) is None:
                raise NotConeRepresentable(
                    f"constraint {i}: no conic emission rule or graph "
                    f"implementation for {g.atom} at {path}"
                )
            return path
    return None


def _sweep_redundant(p: Problem) -> tuple[int, ...]:
    removed: set[int] = set()
    changed = True
    while changed:
        changed = False
        for i, c in enumerate(p.constraints):
            if i in removed:
                continue
            rest = [d for j, d in enumerate(p.constraints) if j != i and j not in removed]
            if _implied(c, rest) is not None:
                removed.add(i)
                changed = True
    return tuple(sorted(removed))


def reduce_problem(p: Problem, max_steps: int = 500) -> ReductionTrace:
    """Drive schemas to a fixpoint, then sweep redundant constraints once."""
    verdict = dcp_check(p)
    if not verdict.conformant:
        bad = verdict.failures()[0]
        where = "objective" if bad.constraint is None else f"constraint {bad.constraint} ({bad.side})"
        raise NotConeRepresentable(
            f"not DCP-conformant: {where} required {bad.required}, got {bad.inferred.value}"
        )
    if not _is_affine(p.objective, p):
        raise NotConeRepresentable("objective must be affine to canonize")

    steps: list[TraceStep] = []
    cur = p
    fresh = 1 + sum(1 for v in p.variables if re.fullmatch(r"t\d+_*", v))
    for _ in range(max_steps):
        path = _pick_target(cur)
        if path is None:
            break
        g = resolve(cur, path)
        if isinstance(g, Call) and graph_impl(g.atom) is not None:
            cur, st = graph_expand(cur, path, fresh_index=fresh)
        else:
            cur, st = linearize(cur, path, fresh_index=fresh)
        fresh += 1
        steps.append(st)
    else:
        raise NotConeRepresentable(f"no fixpoint after {max_steps} schema steps")

    drop = _sweep_redundant(cur)
    if drop:
        cur, st = eliminate_redundant(cur, drop)
        steps.append(st)
    return ReductionTrace(p, tuple(steps), cur)


def canonize(p: Problem, params: Assignment):
    """Reduce to conic-emittable form and emit with parameters bound.

    Returns (ConicProblem, ReductionTrace).
    """
    from .conic import emit

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


def apply_step(
    p: Problem,
    schema: str,
    path: OccPath | None,
    removed: tuple[int, ...] = (),
    fresh_index: int | None = None,
) -> tuple[Problem, TraceStep]:
    if schema in ("linearize_antimono", "linearize_mono", "linearize"):
        if path is None:
            raise ReduceError("linearize needs an occurrence path")
        q, st = linearize(p, path, fresh_index)
        if schema != "linearize" and st.schema != schema:
            raise ReduceError(f"polarity at {path} gives {st.schema}, not {schema}")
        return q, st
    if schema in ("graph_expand_concave", "graph_expand_convex", "graph_expand"):
        if path is None:
            raise ReduceError("graph_expand needs an occurrence path")
        return graph_expand(p, path, fresh_index)
    if schema == "eliminate_redundant":
        return eliminate_redundant(p, removed)
    raise ReduceError(f"unknown schema {schema!r}")


def write_trace(trace: ReductionTrace) -> str:
    lines = ["TRACE 1"]
    for k, s in enumerate(trace.steps, start=1):
        parts = [f"STEP {k} {s.schema}"]
        if s.targets:
            parts.append("AT " + ",".join(str(t) for t in s.targets))
        if s.fresh is not None:
            parts.append(f"FRESH {s.fresh}")
        if s.forward_def is not None:
            parts.append(f"DEF {dsl.print_expr(s.forward_def)}")
        if s.added:
            cur = trace.intermediates()[k]
            for i in s.added:
                parts.append(f"ADD {dsl.print_constraint(cur.constraints[i])}")
        if s.removed:
            parts.append("REMOVE " + " ".join(str(i) for i in s.removed))
        lines.append(" ".join(parts))
    lines.append("END")
    return "\n".join(lines) + "\n"


_STEP_RE = re.compile(
    r"STEP\s+(?P<k>\d+)\s+(?P<schema>\w+)"
    r"(?:\s+AT\s+(?P<at>\S+))?"
    r"(?:\s+FRESH\s+(?P<fresh>\S+))?"
    r"(?:\s+DEF\s+(?P<def>.*?))?"
    r"(?:\s+ADD\s+(?P<add>.*?))?"
    r"(?:\s+REMOVE\s+(?P<remove>[\d ]+))?\s*$"
)


class TraceFormatError(ReduceError):
    pass


def read_trace(text: str, original: Problem) -> ReductionTrace:
    """Parse a trace file and replay it against the original problem."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines or lines[0].strip() != "TRACE 1":
        raise TraceFormatError("line 1: expected 'TRACE 1' header")
    if lines[-1].strip() != "END":
        raise TraceFormatError(f"line {len(lines)}: expected 'END' footer")
    cur = original
    steps: list[TraceStep] = []
    fresh = 1 + sum(1 for v in original.variables if re.fullmatch(r"t\d+_*", v))
    for ln in lines[1:-1]:
        m = _STEP_RE.match(ln.strip())
        if m is None:
            raise TraceFormatError(f"unreadable step line: {ln!r}")
        schema = m.group("schema")
        try:
            path = OccPath.parse(m.group("at").split(",")[0]) if m.group("at") else None
            removed = tuple(int(x) for x in m.group("remove").split()) if m.group("remove") else ()
            cur, st = apply_step(cur, schema, path, removed, fresh_index=fresh)
            want = dsl.parse_expr_in(m.group("def").strip(), cur) if m.group("def") else None
        except (dsl.DslError, ValueError, IndexError) as e:
            raise TraceFormatError(f"step line {ln.strip()!r}: {e}") from None
        if st.fresh is not None:
            fresh += 1
            if m.group("fresh") and m.group("fresh") != st.fresh:
                raise TraceFormatError(
                    f"replay produced fresh name {st.fresh}, trace says {m.group('fresh')}"
                )
        if want is not None and want != st.forward_def:
            raise TraceFormatError(f"replayed definition differs for step {m.group('k')}")
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
    mirror the check forward from original-feasible samples."""
    from .oracle import sample_feasible

    from .problem import check_feasible, objective_value

    report = TraceCheckReport()
    final_pts = sample_feasible(trace.final, params, box, n, seed=seed, tol=0.0)
    for pt in final_pts:
        back = backmap(trace, pt)
        full = {**params, **back}
        verdict = check_feasible(trace.original, full, tol)
        if not verdict.feasible:
            report.failures.append(
                f"backmapped point infeasible at constraint {verdict.index}: {back}"
            )
            continue
        if abs(objective_value(trace.original, full) - objective_value(trace.final, {**params, **pt})) > tol:
            report.failures.append(f"objective changed under backmap at {back}")
        report.backward_checked += 1

    orig_pts = sample_feasible(trace.original, params, box, n, seed=seed + 1, tol=0.0)
    for pt in orig_pts:
        fwd = forward_map(trace, {**params, **pt})
        verdict = check_feasible(trace.final, fwd, tol)
        if not verdict.feasible:
            report.failures.append(
                f"forward-mapped point infeasible at constraint {verdict.index}"
            )
            continue
        report.forward_checked += 1
    return report
