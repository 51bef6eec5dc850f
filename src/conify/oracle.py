"""Brute-force grid oracle.

Enumerates a finite lattice over a box, keeps feasible points, and returns the
lexicographically first minimizer.  This is the ground truth the reduction
pipeline is checked against, so it stays deliberately dumb: no pruning, no
continuous optimization, nothing shared with the canonizer beyond expression
evaluation and the cone membership rule, conic._cone_mask, which
conic.cone_member applies to one point and the conic scan to a lattice.
Anything past three or four free axes is out of its depth; that is a
feature, not a bug.

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
problem only the combined mask reaches that size.

Feasible sampling is the one place that narrows a box: sample_feasible first
shrinks it by interval propagation, which cannot drop a point it would
accept.  The lattice scans never do, since their nodes are defined by the box.

An eliminated equality is solved once, into Elimination.formula; both lattice
scans and the sampler evaluate that expression, and the interval propagation
narrows through it, so none of them can drift from the others.  The reference
twins in the tests write the formula out again on their own.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .conic import ConicError, ConicProblem, _cone_mask, _linear, _NotAffine
from .dsl import print_constraint
from .problem import (
    Assignment,
    Call,
    ConifyError,
    Const,
    Expr,
    Param,
    Problem,
    UnboundName,
    Var,
    _mask_ok,
    _names,
    _veval,
    oriented,
)


class OracleError(ConifyError):
    pass


class Infeasible(OracleError):
    """No lattice point (or sampled point) satisfied every constraint."""


CHUNK = 1 << 20

# sample_feasible gives up after this many batches of draws.
MAX_BATCHES = 4000


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


def _as_box(box, names) -> SearchBox:
    """box itself when it is a SearchBox, else its (lo, hi) pair on every
    name.  Raises OracleError unless the result covers every name."""
    if not isinstance(box, SearchBox):
        lo, hi = box
        box = SearchBox.uniform(names, float(lo), float(hi), 2)
    missing = set(names) - set(box.names)
    if missing:
        raise OracleError(f"box misses variables: {sorted(missing)}")
    return box


@dataclass(frozen=True)
class GridResult:
    point: Assignment
    value: float
    feasible_count: int


# --- equality elimination -------------------------------------------------------


@dataclass(frozen=True)
class Elimination:
    """One variable solved out of one affine equality constraint.

    formula is the solved variable as an expression in the others,
    (rhs - sum of row[j] * x_j) / row[var] with the terms subtracted in
    declaration order; the lattice scans, the sampler and the tightened box
    all evaluate this one tree."""

    constraint: int
    var: str
    row: np.ndarray  # coefficients over the variables, lhs minus rhs
    rhs: float  # constant moved right
    formula: Expr


def _solve_for(constraint: int, variables, row, rhs, var: str | None) -> Elimination | None:
    """Solve row . x = rhs for var, or with var unset for the variable with
    the largest coefficient magnitude, later declaration winning ties.
    None when the chosen variable has no term in the row."""
    if var is not None and var not in variables:
        raise OracleError(f"no variable {var} to eliminate")
    nonzero = [j for j in range(len(variables)) if row[j] != 0.0]
    if var is None:
        if not nonzero:
            return None
        j = max(nonzero, key=lambda j: (abs(row[j]), j))
    elif (j := variables.index(var)) not in nonzero:
        return None
    acc = Const(float(rhs))
    for i in nonzero:
        if i != j:
            acc = Call("sub", (acc, Call("mul", (Const(float(row[i])), Var(variables[i])))))
    return Elimination(constraint, variables[j], row, rhs, Call("div", (acc, Const(float(row[j])))))


def _solved_in_box(elim: Elimination, env, full: SearchBox):
    """Points where the solved variable lands inside its box bounds."""
    v, ax = env[elim.var], full.axis(elim.var)
    return (v >= ax.lo) & (v <= ax.hi) & np.isfinite(v)


def _feasible(p: Problem, elim: Elimination | None, env, full: SearchBox, tol: float):
    """Points of env that satisfy p: the solved variable inside its box and
    every constraint but the solved equality at tol."""
    mask = np.True_ if elim is None else _solved_in_box(elim, env, full)
    for i, c in enumerate(p.constraints):
        if elim is None or i != elim.constraint:
            mask = mask & _mask_ok(c.op, _veval(c.lhs, env), _veval(c.rhs, env), tol)
    return mask


def _first_solvable(rows, variables, var: str | None) -> Elimination | None:
    """Elimination for the first of rows, (index, row, rhs) triples, that
    _solve_for can solve for var (or by its rule); None when none can."""
    for i, row, rhs in rows:
        elim = _solve_for(i, variables, row, rhs, var)
        if elim is not None:
            return elim
    return None


def find_elimination(p: Problem, params: Assignment, var: str | None = None) -> Elimination | None:
    """First affine equality that can be solved for a variable (var, or by
    _solve_for's rule).  Raises OracleError when an equality's constant part
    cannot be evaluated, such as sqrt(0 - 2) or an unbound parameter.
    """
    vidx = {v: i for i, v in enumerate(p.variables)}

    def rows():
        for i, c in enumerate(p.constraints):
            if c.op != "=":
                continue
            try:
                rl, cl = _linear(c.lhs, vidx, params)
                rr, cr = _linear(c.rhs, vidx, params)
            except _NotAffine:
                continue
            except ConicError as err:
                raise OracleError(f"constraint {i} ({print_constraint(c)}): {err}") from None
            yield i, rl - rr, cr - cl

    return _first_solvable(rows(), p.variables, var)


def _complete(env: dict, elim: Elimination | None, params: Assignment) -> None:
    """Add the solved variable, evaluated from elim.formula, and params to env."""
    if elim is not None:
        env[elim.var] = _veval(elim.formula, env)
    env.update(params)


def _free(variables, elim: Elimination | None) -> list[str]:
    """Axes a scan or the sampler draws: declared variables less the solved one."""
    return [v for v in variables if elim is None or v != elim.var]


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


def _scan_grid(full: SearchBox, variables, elim: Elimination | None, params, mask_and_obj) -> GridResult:
    """Chunked argmin over the lattice of full's axes for the free variables.

    Each axis enters env as an open-mesh array (its own dimension, size 1 on
    every other), so an expression comes out shaped over only the axes it
    reads, and mask_and_obj's results broadcast to the chunk.  The solved
    variable and params join env before mask_and_obj sees it.

    The objective is judged once per cell of the axes it reads, never
    broadcast to the chunk: a cell is live when its mask holds at some point,
    and the chunk's low is the least non-nan objective over live cells.  A
    point where the objective is nan is not feasible, so it is counted out
    only in the rare chunk whose objective holds a nan.  Only a chunk whose
    low beats the best so far looks for its first feasible point at that
    value and reads the value there, so the sign of a zero is the first
    point's.  Ties therefore resolve to the smallest flat index, which is
    lexicographic order in axis values, even where the first tying point
    lies in a later cell.  The first chunk with a feasible point always
    takes it, so an objective that is +inf wherever it is feasible still
    has a minimizer.
    """
    axes = tuple(full.axis(v) for v in _free(variables, elim))
    if not axes:
        raise OracleError("elimination leaves no grid axis")

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
        _complete(env, elim, params)
        with np.errstate(all="ignore"):
            mask, obj = mask_and_obj(env)
        mask = np.broadcast_to(mask, block)
        obj = np.asarray(obj, dtype=float)
        if obj.ndim == 0:
            obj = obj.reshape((1,) * n)
        nan = np.isnan(obj)
        count = int(np.count_nonzero(mask & ~nan if nan.any() else mask))
        feasible += count
        if count:
            live = np.any(mask, axis=tuple(d for d in range(n) if obj.shape[d] == 1), keepdims=True)
            low = np.fmin.reduce(obj, axis=None, where=live, initial=math.inf)
            if low < best_val or best_idx < 0:
                local = int(np.argmax(mask & (obj == low)))
                best_val = float(np.broadcast_to(obj, block).flat[local])
                best_idx = start + local
        start += math.prod(block)
    if best_idx < 0:
        raise Infeasible("no feasible lattice point")
    multi = np.unravel_index(best_idx, shape)
    env = {ax.name: float(values[d][multi[d]]) for d, ax in enumerate(axes)}
    _complete(env, elim, params)
    return GridResult({v: float(env[v]) for v in variables}, best_val, feasible)


def grid_minimize(
    p: Problem,
    params: Assignment,
    box,
    tol: float = 1e-6,
    eliminate: str | None = None,
) -> GridResult:
    """Lexicographically first lattice minimizer of p at bound parameters.

    box: a SearchBox covering every variable, scanned in declaration order
    (an axis no variable declares is ignored), or a (lo, hi) pair applied
    uniformly (then useful only for sampling; grids want explicit axes).
    eliminate: "auto" solves the first affine equality for one variable, a
    variable name forces the choice; the solved variable keeps its box bounds
    as a membership filter but costs no axis.
    """
    full = _as_box(box, p.variables)
    elim = None
    if eliminate is not None:
        elim = find_elimination(p, params, None if eliminate == "auto" else eliminate)
        if elim is None:
            raise OracleError("no affine equality available to eliminate")

    def mask_and_obj(env):
        return _feasible(p, elim, env, full, tol), np.asarray(_veval(p.objective, env), dtype=float)

    return _scan_grid(full, p.variables, elim, params, mask_and_obj)


# --- conic grid search ----------------------------------------------------------


def grid_minimize_conic(
    cp: ConicProblem, box, tol: float = 1e-6, eliminate: str | None = None
) -> GridResult:
    """Grid search directly on conic data.

    eliminate solves an equality row for one variable as grid_minimize
    solves an affine equality, first row first, so that row holds to
    rounding rather than to tol.
    """
    full = _as_box(box, cp.variables)
    elim = None
    if eliminate is not None:
        rows = ((r, cp.A[r], float(cp.b[r])) for r in range(cp.A.shape[0]))
        elim = _first_solvable(rows, cp.variables, None if eliminate == "auto" else eliminate)
        if elim is None:
            raise OracleError("no affine equality available to eliminate")

    def affine(row, env):
        # Only the nonzero columns, in column order, so the result is
        # shaped over just the axes the row reads.
        acc = 0.0
        for i in np.flatnonzero(row):
            acc = acc + row[i] * env[cp.variables[i]]
        return acc

    def mask_and_obj(env):
        mask = np.True_ if elim is None else _solved_in_box(elim, env, full)
        for r in range(cp.A.shape[0]):
            if elim is None or r != elim.constraint:
                mask = mask & (np.abs(affine(cp.A[r], env) - cp.b[r]) <= tol)
        for bl, sl in cp.block_slices():
            s = [affine(cp.G[r], env) - cp.h[r] for r in range(sl.start, sl.stop)]
            mask = mask & _cone_mask(bl.kind, s, tol)
        return mask, affine(cp.c, env)

    return _scan_grid(full, cp.variables, elim, {}, mask_and_obj)


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
        if elim is not None and i == elim.constraint:
            # The sampler solves this one: propagate the very formula it
            # evaluates, at tol 0.
            rows.append((i, Var(elim.var), True, elim.formula, 0.0))
        elif c.op == "=":
            rows.append((i, c.lhs, True, c.rhs, tol))
        else:
            lo, hi, strict = oriented(c)
            rows.append((i, lo, False, hi, 0.0 if strict else tol))
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
    raises Infeasible before any draw.  n below 1 raises OracleError.
    """
    cols = _sample_columns(p, params, box, n, seed, tol)
    values = [cols[v].tolist() for v in p.variables]
    return [dict(zip(p.variables, row)) for row in zip(*values)]


def _sample_columns(
    p: Problem, params: Assignment, box, n: int, seed: int, tol: float
) -> dict[str, np.ndarray]:
    """sample_feasible's points as one array of n values per variable."""
    if n < 1:
        raise OracleError(f"cannot sample n={n} points; n must be at least 1")
    full = _as_box(box, p.variables)

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
    cols: dict[str, list[np.ndarray]] = {v: [] for v in p.variables}
    found = 0
    batch = max(256, min(8192, 8 * n))
    for _ in range(MAX_BATCHES):
        env: dict[str, np.ndarray | float] = {
            name: rng.uniform(*bounds[name], size=batch) for name in _free(p.variables, elim)
        }
        with np.errstate(all="ignore"):
            _complete(env, elim, params)
            mask = np.broadcast_to(_feasible(p, elim, env, full, tol), (batch,))
        kept = np.flatnonzero(mask)[: n - found]
        for v in p.variables:
            cols[v].append(np.broadcast_to(env[v], (batch,))[kept])
        found += len(kept)
        if found == n:
            return {v: np.concatenate(cols[v]) for v in p.variables}
    raise Infeasible(
        f"rejection sampling found {found} of {n} requested points; "
        "the feasible region may be too thin for this box"
    )
