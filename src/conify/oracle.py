"""Brute-force grid oracle.

Enumerates a finite lattice over a box, keeps feasible points, and returns the
lexicographically first minimizer.  This is the ground truth the reduction
pipeline is checked against, so it stays deliberately dumb: no pruning, no
continuous optimization, nothing shared with the canonizer beyond expression
evaluation.  Anything past three or four free axes is out of its depth; that
is a feature, not a bug.

Lattice nodes use the exact affine combination ((n-1-k)*lo + k*hi)/(n-1)
rather than lo + k*step, so round decimal endpoints produce round decimal
nodes (a 201-point grid on [0, 2] contains 1.0 exactly) and refining a grid
from n to 2n-1 points keeps every old node.

Points where evaluation leaves an atom's domain (log of a nonpositive value,
sqrt of a negative, division by zero) are skipped, matching the DomainError
behaviour of scalar evaluation.  The vectorized path must mask those to nan
itself: numpy maps log(0) to -inf, not nan, and masked comparisons must come
out False.

The vectorized scan evaluates on an open mesh: each axis is an array with its
own dimension and size 1 on every other, so a constraint, a cone row or the
objective is computed only over the axes it reads, and the per-constraint
masks meet by broadcasting.  Every lattice point is still judged, in exactly
the arithmetic of a pointwise evaluation.  No array is larger than a chunk,
which holds at most CHUNK points whatever the box shape; on chain1's reduced
problem only the combined mask and the guarded objective reach that size.

Feasible sampling is the one place that narrows a box: sample_feasible first
shrinks it by interval propagation, which cannot drop a point it would
accept.  The lattice scans never do, since their nodes are defined by the box.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .conic import ConicProblem, _linear, _NotAffine
from .dsl import print_constraint
from .problem import (
    Assignment,
    Call,
    Const,
    DomainError,
    Expr,
    Param,
    Problem,
    UnboundName,
    Var,
    _names,
    comparison_holds,
    evaluate,
    objective_value,
)


class OracleError(Exception):
    pass


class Infeasible(OracleError):
    """No lattice point (or sampled point) satisfied every constraint."""


CHUNK = 1 << 20


@dataclass(frozen=True)
class Axis:
    name: str
    lo: float
    hi: float
    points: int

    def __post_init__(self):
        if self.points < 2:
            raise ValueError("axes need at least two points")
        if not (self.lo <= self.hi):
            raise ValueError(f"axis {self.name}: lo must not exceed hi")

    def values(self) -> np.ndarray:
        n = self.points
        k = np.arange(n, dtype=float)
        return ((n - 1 - k) * self.lo + k * self.hi) / (n - 1)


@dataclass(frozen=True)
class SearchBox:
    axes: tuple[Axis, ...]

    @staticmethod
    def uniform(names, lo: float, hi: float, points: int) -> "SearchBox":
        return SearchBox(tuple(Axis(nm, lo, hi, points) for nm in names))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(ax.name for ax in self.axes)

    def axis(self, name: str) -> Axis:
        for ax in self.axes:
            if ax.name == name:
                return ax
        raise KeyError(name)

    def with_axis(self, name: str, lo: float, hi: float, points: int) -> "SearchBox":
        out = [Axis(name, lo, hi, points) if ax.name == name else ax for ax in self.axes]
        if not any(ax.name == name for ax in self.axes):
            out.append(Axis(name, lo, hi, points))
        return SearchBox(tuple(out))

    def without(self, name: str) -> "SearchBox":
        return SearchBox(tuple(ax for ax in self.axes if ax.name != name))

    def refined(self) -> "SearchBox":
        """Double the resolution; the old lattice is a subset of the new one."""
        return SearchBox(
            tuple(Axis(ax.name, ax.lo, ax.hi, 2 * ax.points - 1) for ax in self.axes)
        )

    def total_points(self) -> int:
        return math.prod(ax.points for ax in self.axes)


def _as_box(box, names) -> SearchBox:
    if isinstance(box, SearchBox):
        return box
    lo, hi = box
    return SearchBox.uniform(names, float(lo), float(hi), 2)


@dataclass(frozen=True)
class GridResult:
    point: Assignment
    value: float
    feasible_count: int


# --- vectorized evaluation ------------------------------------------------------


def _veval(e: Expr, env: dict[str, np.ndarray | float]):
    """Evaluate over arrays; out-of-domain entries become nan."""
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


# --- equality elimination -------------------------------------------------------


@dataclass(frozen=True)
class Elimination:
    """One variable solved out of one affine equality constraint."""

    constraint: int
    var: str
    row: np.ndarray  # coefficients over p.variables, lhs minus rhs
    rhs: float  # constant moved right

    def solve(self, env: dict[str, np.ndarray | float], variables) -> np.ndarray | float:
        acc = self.rhs
        coeff = 0.0
        for j, name in enumerate(variables):
            if name == self.var:
                coeff = self.row[j]
            elif self.row[j] != 0.0:
                acc = acc - self.row[j] * env[name]
        return acc / coeff


def find_elimination(p: Problem, params: Assignment, var: str | None = None) -> Elimination | None:
    """First affine equality that can be solved for a variable.

    With var unset, the solved variable is the one with the largest
    coefficient magnitude, later declaration winning ties.
    """
    vidx = {v: i for i, v in enumerate(p.variables)}
    for i, c in enumerate(p.constraints):
        if c.op != "=":
            continue
        try:
            rl, cl = _linear(c.lhs, vidx, params)
            rr, cr = _linear(c.rhs, vidx, params)
        except _NotAffine:
            continue
        row = rl - rr
        if var is not None:
            if row[vidx[var]] != 0.0:
                return Elimination(i, var, row, cr - cl)
            continue
        best = None
        for j, name in enumerate(p.variables):
            if row[j] != 0.0 and (best is None or abs(row[j]) >= abs(row[best])):
                best = j
        if best is not None:
            return Elimination(i, p.variables[best], row, cr - cl)
    return None


# --- grid search ----------------------------------------------------------------


def _chunks(shape: tuple[int, ...]):
    """C-order blocks of the lattice, each holding at most CHUNK points.

    Axes before the split axis take one index per block, the split axis a
    run of indices, and every later axis its full range; the split axis is
    the first one whose trailing axes fit in CHUNK together.  Yields one
    index slice per axis.
    """
    split, inner = len(shape) - 1, 1
    while split > 0 and inner * shape[split] <= CHUNK:
        inner *= shape[split]
        split -= 1
    run = max(1, CHUNK // inner)
    for prefix in itertools.product(*map(range, shape[:split])):
        for lo in range(0, shape[split], run):
            yield (
                *(slice(i, i + 1) for i in prefix),
                slice(lo, min(lo + run, shape[split])),
                *(slice(None),) * (len(shape) - split - 1),
            )


def _scan_grid(axes: tuple[Axis, ...], fill_env, mask_and_obj):
    """Chunked argmin over the lattice product.

    Each axis enters env as an open-mesh array (its own dimension, size 1 on
    every other), so an expression comes out shaped over only the axes it
    reads, and mask_and_obj's results broadcast to the chunk.  Returns (env
    at best, best value, feasible count) with ties resolved to the smallest
    flat index, which is lexicographic order in axis values.
    """
    shape = tuple(ax.points for ax in axes)
    values = [ax.values() for ax in axes]
    n = len(axes)
    best_idx, best_val, feasible, start = -1, math.inf, 0, 0
    for index in _chunks(shape):
        env = {
            ax.name: values[d][index[d]].reshape([-1 if k == d else 1 for k in range(n)])
            for d, ax in enumerate(axes)
        }
        block = tuple(env[ax.name].size for ax in axes)
        fill_env(env)
        with np.errstate(all="ignore"):
            mask, obj = mask_and_obj(env)
            mask = np.broadcast_to(mask & ~np.isnan(obj), block)
        count = int(np.count_nonzero(mask))
        feasible += count
        if count:
            guarded = np.where(mask, obj, math.inf).ravel()
            local = int(np.argmin(guarded))
            if guarded[local] < best_val:
                best_val = float(guarded[local])
                best_idx = start + local
        start += math.prod(block)
    if best_idx < 0:
        raise Infeasible("no feasible lattice point")
    multi = np.unravel_index(best_idx, shape)
    env = {ax.name: float(values[d][multi[d]]) for d, ax in enumerate(axes)}
    fill_env(env)
    return env, best_val, feasible


def grid_minimize(
    p: Problem,
    params: Assignment,
    box,
    tol: float = 1e-6,
    eliminate: str | None = None,
    method: str = "vectorized",
) -> GridResult:
    """Lexicographically first lattice minimizer of p at bound parameters.

    box: a SearchBox covering every variable, or a (lo, hi) pair applied
    uniformly (then useful only for sampling; grids want explicit axes).
    eliminate: "auto" solves the first affine equality for one variable, a
    variable name forces the choice; the solved variable keeps its box bounds
    as a membership filter but costs no axis.
    """
    full = _as_box(box, p.variables)
    missing = set(p.variables) - set(full.names)
    if missing:
        raise OracleError(f"box misses variables: {sorted(missing)}")

    elim = None
    if eliminate is not None:
        elim = find_elimination(p, params, None if eliminate == "auto" else eliminate)
        if elim is None:
            raise OracleError("no affine equality available to eliminate")

    if method == "sequential":
        return _grid_sequential(p, params, full, tol, elim)
    if method != "vectorized":
        raise ValueError(f"unknown method {method!r}")

    axes = tuple(ax for ax in full.axes if elim is None or ax.name != elim.var)
    if not axes:
        raise OracleError("elimination leaves no grid axis")
    skip = () if elim is None else (elim.constraint,)

    def fill_env(env):
        if elim is not None:
            env[elim.var] = elim.solve(env, p.variables)
        env.update(params)

    def mask_and_obj(env):
        mask = np.True_
        if elim is not None:
            ax = full.axis(elim.var)
            v = env[elim.var]
            mask = (v >= ax.lo) & (v <= ax.hi) & np.isfinite(v)
        for i, c in enumerate(p.constraints):
            if i in skip:
                continue
            mask = mask & _mask_ok(c.op, _veval(c.lhs, env), _veval(c.rhs, env), tol)
        return mask, np.asarray(_veval(p.objective, env), dtype=float)

    env, value, count = _scan_grid(axes, fill_env, mask_and_obj)
    point = {v: float(env[v]) for v in p.variables}
    return GridResult(point, value, count)


def _grid_sequential(p, params, box, tol, elim) -> GridResult:
    """Reference implementation: plain loops and scalar evaluation."""
    axes = [ax for ax in box.axes if elim is None or ax.name != elim.var]
    names = [ax.name for ax in axes]
    best = None
    feasible = 0
    for combo in itertools.product(*[ax.values().tolist() for ax in axes]):
        point = dict(zip(names, combo))
        if elim is not None:
            acc, coeff = elim.rhs, 0.0
            for j, name in enumerate(p.variables):
                if name == elim.var:
                    coeff = elim.row[j]
                elif elim.row[j] != 0.0:
                    acc -= elim.row[j] * point[name]
            v = float(acc / coeff)
            ax = box.axis(elim.var)
            if not (ax.lo <= v <= ax.hi) or not math.isfinite(v):
                continue
            point[elim.var] = v
        full = {**params, **point}
        held = True
        for i, c in enumerate(p.constraints):
            if elim is not None and i == elim.constraint:
                continue
            try:
                lv = evaluate(c.lhs, full)
                rv = evaluate(c.rhs, full)
            except DomainError:
                held = False
                break
            if not comparison_holds(c.op, lv, rv, tol):
                held = False
                break
        if not held:
            continue
        try:
            val = objective_value(p, full)
        except DomainError:
            continue
        if math.isnan(val):
            continue
        feasible += 1
        if best is None or val < best[0]:
            best = (val, {v: point[v] for v in p.variables})
    if best is None:
        raise Infeasible("no feasible lattice point")
    return GridResult(best[1], best[0], feasible)


# --- conic grid search ----------------------------------------------------------


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
    raise ValueError(kind)


def grid_minimize_conic(
    cp: ConicProblem, box, tol: float = 1e-6, eliminate: str | None = None
) -> GridResult:
    """Grid search directly on conic data.

    eliminate solves the first equality row for one variable ("auto" picks
    the largest coefficient, later variable winning ties), so that row holds
    to rounding rather than to tol.
    """
    full = _as_box(box, cp.variables)
    missing = set(cp.variables) - set(full.names)
    if missing:
        raise OracleError(f"box misses variables: {sorted(missing)}")

    solved = None
    if eliminate is not None:
        if not cp.A.shape[0]:
            raise OracleError("no equality row to eliminate")
        row, rhs = cp.A[0], float(cp.b[0])
        if eliminate == "auto":
            nz = np.flatnonzero(np.abs(row) == np.abs(row).max())
            j = int(nz[-1])
        else:
            j = cp.variables.index(eliminate)
        if row[j] == 0.0:
            raise OracleError(f"equality row has no {cp.variables[j]} term")
        solved = (j, row, rhs)

    axes = tuple(
        full.axis(v)
        for i, v in enumerate(cp.variables)
        if solved is None or i != solved[0]
    )
    if not axes:
        raise OracleError("elimination leaves no grid axis")

    def fill_env(env):
        if solved is not None:
            j, row, rhs = solved
            acc = rhs
            for i, v in enumerate(cp.variables):
                if i != j and row[i] != 0.0:
                    acc = acc - row[i] * env[v]
            env[cp.variables[j]] = acc / row[j]

    def affine(row, env):
        # Only the nonzero columns, in column order, so the result is
        # shaped over just the axes the row reads.
        acc = 0.0
        for i in np.flatnonzero(row):
            acc = acc + row[i] * env[cp.variables[i]]
        return acc

    def mask_and_obj(env):
        mask = np.True_
        if solved is not None:
            v = env[cp.variables[solved[0]]]
            ax = full.axis(cp.variables[solved[0]])
            mask = (v >= ax.lo) & (v <= ax.hi) & np.isfinite(v)
        for r in range(0 if solved is None else 1, cp.A.shape[0]):
            mask = mask & (np.abs(affine(cp.A[r], env) - cp.b[r]) <= tol)
        for bl, sl in cp.block_slices():
            s = [affine(cp.G[r], env) - cp.h[r] for r in range(sl.start, sl.stop)]
            mask = mask & _cone_mask(bl.kind, s, tol)
        return mask, affine(cp.c, env)

    env, value, count = _scan_grid(axes, fill_env, mask_and_obj)
    point = {v: float(env[v]) for v in cp.variables}
    return GridResult(point, value, count)


# --- feasible sampling ----------------------------------------------------------


class _Empty(Exception):
    """A subterm's enclosure and its allowed range do not meet."""


def _out(lo, hi):
    """Push [lo, hi] outward by four ulps, so that the enclosure also covers
    the rounding of the arithmetic that computed it and of the sampler's own
    evaluation; nan endpoints become unbounded."""
    lo, hi = -math.inf if lo != lo else lo, math.inf if hi != hi else hi
    for _ in range(4):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    return lo, hi


def _root(z, k: int, up: bool):
    """k-th root of z >= 0, stepped until r**k lies above (up) or below z."""
    r = np.float64(z) ** (1.0 / k)
    while (r**k < z) if up else (r**k > z):
        r = np.nextafter(r, math.inf if up else -math.inf)
    return r


def _hull(e: Expr, box, params):
    """Forward pass: (lo, hi, argument passes), [lo, hi] enclosing e's value
    at every point of box where it is defined."""
    if isinstance(e, Const):
        return e.value, e.value, ()
    if isinstance(e, Var):
        return (*box[e.name], ())
    if isinstance(e, Param):
        if e.name not in params:
            raise UnboundName(e.name)
        return params[e.name], params[e.name], ()
    kids = tuple(_hull(x, box, params) for x in e.args)
    (a, b), (c, d) = kids[0][:2], kids[-1][:2]
    op = e.atom
    if (op == "log" and b <= 0) or (op == "sqrt" and b < 0) or (op == "div" and c == d == 0):
        raise _Empty(e)
    if op == "neg":
        lo, hi = -b, -a
    elif op in ("exp", "log", "sqrt"):
        f = getattr(np, op)
        lo, hi = (f(a) if op == "exp" or a > 0 else f(0.0)), f(b)
    elif op == "abs":
        lo, hi = (a, b) if a >= 0 else (-b, -a) if b <= 0 else (0.0, max(-a, b))
    elif op == "pow":
        k = int(c)
        lo, hi = sorted((np.float64(a) ** k, np.float64(b) ** k))
        if k % 2 == 0 and a < 0 < b:
            lo = 0.0
    elif op == "add":
        lo, hi = a + c, b + d
    elif op == "sub":
        lo, hi = a - d, b - c
    elif op == "div" and c <= 0 <= d:
        lo, hi = -math.inf, math.inf
    else:
        ends = [x * y if op == "mul" else x / y for x in (a, b) for y in (c, d)]
        lo, hi = (-math.inf, math.inf) if any(v != v for v in ends) else (min(ends), max(ends))
    return (*_out(lo, hi), kids)


def _narrow(e: Expr, lo, hi, node, box) -> None:
    """Backward pass: e's value must lie in [lo, hi].  Narrows the box at
    variables; raises _Empty where a range empties."""
    if isinstance(e, Var):
        node = box[e.name]
    lo, hi = max(lo, node[0]), min(hi, node[1])
    if lo > hi:
        raise _Empty(e)
    if isinstance(e, Var):
        box[e.name] = (lo, hi)
    if not isinstance(e, Call):
        return
    kids = node[2]
    z0, z1 = _out(lo, hi)
    (a, b), (c, d) = kids[0][:2], kids[-1][:2]
    op = e.atom
    want = {}
    if op == "neg":
        want[0] = (-z1, -z0)
    elif op == "add":
        want = {0: (z0 - d, z1 - c), 1: (z0 - b, z1 - a)}
    elif op == "sub":
        want = {0: (z0 + c, z1 + d), 1: (a - z1, b - z0)}
    elif op in ("mul", "div"):
        # Only a factor against a point interval, or a numerator over one.
        for i in (0, 1) if op == "mul" else (0,):
            k0, k1 = kids[1 - i][:2]
            if k0 == k1 != 0:
                ends = (z0 / k0, z1 / k0) if op == "mul" else (z0 * k0, z1 * k0)
                want[i] = (min(ends), max(ends))
    elif op == "exp":
        if z1 <= 0:
            raise _Empty(e)
        want[0] = (np.log(z0) if z0 > 0 else -math.inf, np.log(z1))
    elif op == "log":
        want[0] = (np.exp(z0), np.exp(z1))
    elif op == "pow" and int(c) % 2:
        k = int(c)
        want[0] = tuple(math.copysign(_root(abs(z), k, up), z) for z, up in ((z0, z0 < 0), (z1, z1 >= 0)))
    elif op in ("sqrt", "pow", "abs"):
        if z1 < 0:
            raise _Empty(e)
        if op == "sqrt":
            want[0] = (np.square(max(z0, 0.0)), np.square(z1))
        else:
            # |x| lies in [inner, r]; keep the sign halves that meet [a, b].
            k = int(c) if op == "pow" else 1
            r, inner = _root(z1, k, True), _root(max(z0, 0.0), k, False)
            want[0] = (-r if a <= -inner else inner, r if b >= inner else -inner)
    for i, (t0, t1) in want.items():
        _narrow(e.args[i], *_out(t0, t1), kids[i], box)


def _tighten(p: Problem, params: Assignment, full: SearchBox, tol: float, elim) -> dict:
    """Shrink full to a sub-box that still holds every point the sampler can
    accept, by HC4-style hull consistency (Benhamou, Goualard, Granvilliers &
    Puget, 1999): forward/backward passes over every constraint, swept until
    no bound moves, at most 16 times.  Raises Infeasible when it empties."""
    box = {ax.name: (ax.lo, ax.hi) for ax in full.axes}
    rows = []
    for i, c in enumerate(p.constraints):
        lhs, op, rhs, t = c.lhs, c.op, c.rhs, tol
        if elim is not None and i == elim.constraint:
            # The sampler solves this one; propagate its formula, which it
            # evaluates in exactly this order, at tol 0.
            acc = Const(float(elim.rhs))
            for j, name in enumerate(p.variables):
                if name == elim.var:
                    coeff = float(elim.row[j])
                elif elim.row[j] != 0.0:
                    acc = Call("sub", (acc, Call("mul", (Const(float(elim.row[j])), Var(name)))))
            lhs, rhs, t = Var(elim.var), Call("div", (acc, Const(coeff))), 0.0
        elif op in (">=", ">"):
            lhs, rhs = rhs, lhs
        if op in ("<", ">"):
            t = 0.0
        rows.append((i, lhs, op == "=", rhs, t))
    with np.errstate(all="ignore"):
        for _ in range(16):
            before = dict(box)
            for i, lhs, eq, rhs, t in rows:
                try:
                    L, R = _hull(lhs, box, params), _hull(rhs, box, params)
                    _narrow(lhs, *_out(R[0] - t if eq else -math.inf, R[1] + t), L, box)
                    _narrow(rhs, *_out(L[0] - t, L[1] + t if eq else math.inf), R, box)
                except _Empty as err:
                    names: set = set()
                    _names(err.args[0], names, set())
                    raise Infeasible(
                        f"constraint {i} ({print_constraint(p.constraints[i])}) cannot "
                        "hold in the box" + (f": no room left for {', '.join(sorted(names))}" if names else "")
                    ) from None
            if box == before:
                break
    return box


def sample_feasible(
    p: Problem,
    params: Assignment,
    box,
    n: int,
    seed: int = 0,
    tol: float = 0.0,
    max_batches: int = 4000,
) -> list[Assignment]:
    """Rejection-sample n feasible points, uniform over the feasible part of
    the box.

    An affine equality, if present, is solved for one variable instead of
    being tested: a random box never hits a hyperplane, and at tol 0 even a
    lattice rarely does.  The solved variable must land inside its box
    bounds.  The solved equality holds by construction (to rounding); every
    other constraint is tested at the given tol, which defaults to exact.

    Draws come from a tightened box: interval constraint propagation first
    shrinks each axis to the hull it proves every acceptable point lies in
    (outward-rounded, so that hull holds under floating-point evaluation
    too).  Every constraint is still tested on every candidate, so the
    accepted set is the same as from the caller's box and uniform draws
    restricted to it keep the same distribution; fewer draws are wasted, and
    a given seed gives different points.  A box the propagation empties
    raises Infeasible before any draw.
    """
    full = _as_box(box, p.variables)
    missing = set(p.variables) - set(full.names)
    if missing:
        raise OracleError(f"box misses variables: {sorted(missing)}")

    elim = find_elimination(p, params)
    eq_left = sum(
        1
        for i, c in enumerate(p.constraints)
        if c.op == "=" and (elim is None or i != elim.constraint)
    )
    if eq_left and tol <= 0.0:
        raise OracleError(
            "equality constraints beyond the first affine one cannot be "
            "sampled exactly; raise tol or reformulate"
        )

    bounds = _tighten(p, params, full, tol, elim)
    rng = np.random.default_rng(seed)
    free = [ax.name for ax in full.axes if elim is None or ax.name != elim.var]
    out: list[Assignment] = []
    batch = max(256, min(8192, 8 * n))
    for _ in range(max_batches):
        env: dict[str, np.ndarray | float] = {
            name: rng.uniform(*bounds[name], size=batch) for name in free
        }
        mask = np.ones(batch, dtype=bool)
        if elim is not None:
            v = elim.solve(env, p.variables)
            env[elim.var] = v
            ax = full.axis(elim.var)
            mask &= (v >= ax.lo) & (v <= ax.hi) & np.isfinite(v)
        env.update(params)
        with np.errstate(all="ignore"):
            for i, c in enumerate(p.constraints):
                if elim is not None and i == elim.constraint:
                    continue
                mask &= _mask_ok(c.op, _veval(c.lhs, env), _veval(c.rhs, env), tol)
        for k in np.flatnonzero(mask):
            out.append({v: float(env[v][k] if np.ndim(env[v]) else env[v]) for v in p.variables})
            if len(out) == n:
                return out
    raise Infeasible(
        f"rejection sampling found {len(out)} of {n} requested points; "
        "the feasible region may be too thin for this box"
    )
