"""Brute-force grid oracle.

Enumerates a finite lattice over a box, keeps feasible points, and returns the
lexicographically first minimizer.  This is the ground truth the reduction
pipeline is checked against, so it stays deliberately dumb: no pruning, no
continuous optimization.  It shares with the canonizer the evaluator
problem._veval, the cone membership rule conic._cone_mask (which
conic.cone_member applies to one point, the scans to a lattice) and
conic._linear, which reads affine equalities for find_elimination as for
emit.  The conic scan is the expression scan of its own rows.  Anything
past three or four free axes is out of its depth; that is a feature, not a
bug.

Lattice nodes use the exact affine combination ((n-1-k)*lo + k*hi)/(n-1)
rather than lo + k*step, so round decimal endpoints produce round decimal
nodes (a 201-point grid on [0, 2] contains 1.0 exactly) and refining a grid
from n to 2n-1 points keeps every old node.

Points where evaluation leaves an atom's domain (log of a nonpositive value,
sqrt of a negative, division by zero) are skipped: the one evaluator,
problem._veval, masks those to nan (numpy itself maps log(0) to -inf), and a
nan fails every comparison, as it fails check_feasible at a single point.

The vectorized scan evaluates on an open mesh: each axis is an array with its
own dimension and size 1 on every other, so a constraint, a cone row or the
objective is computed only over the axes it reads.  Every lattice point is
still judged, in exactly the arithmetic of a pointwise evaluation.  The scan
walks counting blocks: in each, the per-constraint masks are counted per
objective cell by summing out one axis at a time over the masks and counts
that read it, a sum of products that never builds their product.  A sum of
two factors that each read two axes, the summed one and one of their own,
is a plain matrix product and runs as np.matmul; every other sum is one
np.einsum loop.  Counts are float64, exact while a block has fewer than
2**53 points, and int64 past that, so a lattice of more than 2**63 - 1
points raises OracleError before anything is evaluated.  A block is as
large as its counts allow: at most CHUNK // 2 bytes held at once by the
arrays any one of them builds (the masks' count copies, the sums' outputs
and the iterator buffers of a loop whose operands broadcast against each
other), or at most CHUNK points.  A lattice that fits whole is one block.
A block that improves on the best point so far finds its first minimizing
point from its own counts and then by the same counts, one axis at a time:
the leading axes the objective reads are fixed at the first objective cell
at the block's low that holds a feasible point, then each later axis at its
first index with a feasible point at the low, and so on.  So the masks
never meet over a block or any part of one.

Feasible sampling is the one place that narrows a box: sample_feasible first
shrinks it by interval propagation, which cannot drop a point it would
accept.  The lattice scans never do, since their nodes are defined by the box.

An eliminated equality is chosen by find_elimination and solved once, into
Elimination.formula; both lattice scans and the sampler evaluate that
expression, and the interval propagation narrows through it, so none of
them can drift from the others.  The reference twins in the tests write the
formula out again on their own.
"""

import functools
import itertools
import math
import operator
import string
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .conic import ConicError, ConicProblem, _cone_mask, _linear, _NotAffine
from .dsl import print_constraint
from .problem import (
    Assignment,
    Call,
    ConifyError,
    Const,
    Constraint,
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
        # Each term of a node is at most points - 1 times the wider bound, so
        # only a product past half the float range can make a node overflow.
        if not (self.points - 1) * max(abs(self.lo), abs(self.hi)) <= sys.float_info.max / 2:
            with np.errstate(over="ignore", invalid="ignore"):
                if not np.isfinite(self.values()).all():
                    raise ValueError(f"axis {self.name}: a node of the {self.points}-point lattice is not finite")

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


def _feasible(p: Problem, elim: Elimination | None, env, full: SearchBox, tol: float) -> list:
    """Masks whose meet is the points of env that satisfy p: the solved
    variable inside its box, then every constraint but the solved equality
    at tol, one mask each."""
    masks = [] if elim is None else [_solved_in_box(elim, env, full)]
    for i, c in enumerate(p.constraints):
        if elim is None or i != elim.constraint:
            masks.append(_mask_ok(c.op, _veval(c.lhs, env), _veval(c.rhs, env), tol))
    return masks


def find_elimination(p: Problem, params: Assignment, var: str | None = None) -> Elimination | None:
    """First affine equality that can be solved for a variable (var, or by
    _solve_for's rule).  Raises OracleError when an equality's constant part
    cannot be evaluated, such as sqrt(0 - 2) or an unbound parameter.
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
        except ConicError as err:
            raise OracleError(f"constraint {i} ({print_constraint(c)}): {err}") from None
        elim = _solve_for(i, p.variables, rl - rr, cr - cl, var)
        if elim is not None:
            return elim
    return None


def _complete(env: dict, elim: Elimination | None, params: Assignment) -> None:
    """Add the solved variable, evaluated from elim.formula, and params to env."""
    if elim is not None:
        env[elim.var] = _veval(elim.formula, env)
    env.update(params)


def _free(variables, elim: Elimination | None) -> list[str]:
    """Axes a scan or the sampler draws: declared variables less the solved one."""
    return [v for v in variables if elim is None or v != elim.var]


# --- grid search ----------------------------------------------------------------


def _chunks(shape: tuple[int, ...], fits):
    """C-order blocks of the lattice, each as large as fits allows.

    fits(block) says whether a block of that shape is small enough.  A
    lattice that fits is one block.  Otherwise axes before the split axis
    take one index per block, the split axis the longest run of indices
    that fits (at least one, found by bisection), and every later axis its
    full range; the split axis is the first one whose trailing axes fit
    together.  Yields each block as one index slice per axis and its shape.
    """
    if fits(shape):
        yield (slice(None),) * len(shape), shape
        return
    split = len(shape) - 1
    while split > 0 and fits((1,) * split + shape[split:]):
        split -= 1
    # no block takes the whole split axis: at split 0 the first fits call
    # said so, and elsewhere the loop's last one
    run, top = 1, shape[split] - 1
    while run < top:
        mid = (run + top + 1) // 2
        if fits((1,) * split + (mid,) + shape[split + 1 :]):
            run = mid
        else:
            top = mid - 1
    for prefix in itertools.product(*map(range, shape[:split])):
        for lo in range(0, shape[split], run):
            hi = min(lo + run, shape[split])
            index = (*(slice(i, i + 1) for i in prefix), slice(lo, hi), *(slice(None),) * (len(shape) - split - 1))
            yield index, (1,) * split + (hi - lo,) + shape[split + 1 :]


def _count_type(block: tuple[int, ...]) -> np.dtype:
    """The type of a block's counts: float64, whose integers are exact below
    2**53, unless the block holds that many points; then int64."""
    return np.dtype(np.float64 if math.prod(block) < 2**53 else np.int64)


class _Plan(NamedTuple):
    steps: tuple  # (positions, subscripts, matmul, shape), one per sum
    scale: int  # the lengths of the summed axes no factor reads, multiplied
    peak: int  # bytes


# The same shapes recur in every block of a scan and in every scan of a problem.
@functools.lru_cache(maxsize=256)
def _plan(shapes: tuple, block: tuple[int, ...], cell: tuple[int, ...]) -> _Plan:
    """The steps by which _cell_counts counts from factors of the given
    shapes, and the most bytes the arrays they build hold at once.

    The factors are the masks and, last, the scale as a 0-d count.  A step
    takes the factors at its positions out of the list and appends the sum
    of their product over its summed axis, reshaped to shape.  There is one
    step per axis that cell does not read and some factor reads, which sums
    it out of the factors that read it, and a last step that multiplies the
    factors left.  A step is one of two kinds:
    - a plain product (matmul True): two factors that each read two axes,
      the summed one and one the other lacks.  It runs as np.matmul, the
      factor whose kept axis comes first in the output first;
    - a loop, any other step: one np.einsum call over the subscripts.

    The bytes held during a step are the counts earlier steps built that are
    still factors, a count-type copy of each mask the step reads and the
    step's output.  matmul reads its factors as views, transposed or not,
    and a loop whose operands other than 0-d ones all read the same axes
    walks them in step, unbuffered; any other loop also fills an iterator's
    buffers, at most np.getbufsize() elements for each factor and the
    output.  The next axis is the one whose step holds the fewest, the
    earliest axis on a tie.
    """
    n, itemsize = len(block), _count_type(block).itemsize

    def nbytes(axes):
        return itemsize * math.prod(block[d] for d in range(n) if axes >> d & 1)

    def subscript(axes):
        return "".join(string.ascii_letters[d] for d in range(n) if axes >> d & 1)

    def step(take, summed):
        """(bytes held beyond the counts built before, output axes,
        subscripts, matmul, positions, summed) of the step over the
        factors at take."""
        ops = [factors[i][0] for i in take]
        axes = functools.reduce(operator.or_, ops)
        out = axes & ~summed
        matmul = bool(summed) and len(ops) == 2 and ops[0] != ops[1] and {a.bit_count() for a in ops} == {2}
        if matmul:
            take, ops = zip(*sorted(zip(take, ops), key=lambda f: f[1] & ~summed))
        if matmul or len(set(ops) - {0}) <= 1:
            scratch = 0
        else:
            scratch = (len(ops) + 1) * min(nbytes(axes), itemsize * np.getbufsize())
        held = sum(nbytes(a) for a, made in (factors[i] for i in take) if not made)
        subscripts = ",".join(map(subscript, ops)) + "->" + subscript(out)
        return held + scratch + nbytes(out), out, subscripts, matmul, take, summed

    # (axes read, one bit each; whether _cell_counts built it)
    factors = [(sum(1 << d for d, k in enumerate(s) if k > 1), False) for s in shapes] + [(0, True)]
    read = functools.reduce(operator.or_, (a for a, _ in factors))
    todo = [d for d in range(n) if cell[d] == 1 < block[d] and read >> d & 1]
    scale = math.prod(block[d] for d in range(n) if cell[d] == 1 and not read >> d & 1)
    steps, built, peak = [], itemsize, 0
    while True:
        buckets = [(tuple(i for i, (a, _) in enumerate(factors) if a >> d & 1), 1 << d) for d in todo]
        options = (step(*b) for b in buckets or [(tuple(range(len(factors))), 0)])
        top, out, subscripts, matmul, take, summed = min(options, key=lambda o: o[0])
        peak = max(peak, built + top)
        built += nbytes(out) - sum(nbytes(factors[i][0]) for i in take if factors[i][1])
        steps.append((take, subscripts, matmul, tuple(block[d] if out >> d & 1 else 1 for d in range(n))))
        factors = [f for i, f in enumerate(factors) if i not in take] + [(out, True)]
        if not todo:
            return _Plan(tuple(steps), scale, peak)
        todo.remove(summed.bit_length() - 1)


def _cell_counts(masks, block: tuple[int, ...], cell: tuple[int, ...]):
    """Points of a block of the given shape where every mask holds, counted
    per cell of the axes cell reads (size block[d] on those, 1 elsewhere).

    Each mask is 0-d or shaped over the block's axes with size 1 on those it
    does not read.  The axes cell does not read are summed out one at a time
    in _plan's order, which is bucket elimination (Dechter, 1999): each step
    sums an axis out of the factors that read it, a sum of products that
    never builds their product, so no count spans more axes than its factors
    do together.  A plain product "ab,bc->ac", either factor's axes maybe
    swapped, is np.matmul of the two squeezed factors, each transposed where
    its summed axis is on the wrong side; every other step is one np.einsum
    loop.  An axis no factor reads multiplies the count by its length.
    Counts are in _count_type(block): every partial sum counts points of
    the block, so float64 is exact while the block has fewer than 2**53.
    The result broadcasts to cell.
    """
    count = _count_type(block)
    plan = _plan(tuple(np.shape(m) for m in masks), block, cell)
    factors = [*map(np.asarray, masks), np.asarray(plan.scale, dtype=count)]
    for take, subscripts, matmul, shape in plan.steps:
        operands = [factors[i].squeeze().astype(count, copy=False) for i in take]
        factors = [f for i, f in enumerate(factors) if i not in take]
        if matmul:  # transpose each factor whose summed axis is on the wrong side
            operands = [o.T if subscripts[k] not in subscripts[-2:] else o for o, k in zip(operands, (0, 4))]
        factors.append((np.matmul(*operands) if matmul else np.einsum(subscripts, *operands)).reshape(shape))
        del operands  # the step's mask copies, gone before the next step's are made
    return factors[0]


def _leading(shape: tuple[int, ...], block: tuple[int, ...]) -> int:
    """How many leading axes of block an array of the given shape spans in
    full, up to the first it does not."""
    return next((d for d, k in enumerate(block) if shape[d] != k), len(block))


def _first_at(masks, obj, low, block: tuple[int, ...], cells) -> tuple[int, float]:
    """The flat index in the block of its first feasible point where obj is
    low, and obj there; cells is the block's count per cell of obj.

    Bucket elimination's decoding pass.  The leading axes obj reads, those
    up to the first it does not, need no count: cells says which of obj's
    cells hold a feasible point, and the first such cell at low, in C order,
    fixes them.  Then in axis order _cell_counts counts the points at low
    per index of one axis, and the first index with a positive count is
    fixed in every factor that reads the axis.  The block's low is at a live
    cell, so every axis has one."""
    n = len(block)
    k = _leading(obj.shape, block)
    live = ((cells > 0) & (obj == low)).any(axis=tuple(range(k, n)))
    index = [int(i) for i in np.unravel_index(int(np.argmax(live)), block[:k])]
    factors = [*masks, obj == low]
    for d in range(n):
        if d >= k:
            cell = (1,) * d + block[d : d + 1] + (1,) * (n - d - 1)
            counts = np.broadcast_to(_cell_counts(factors, (1,) * d + block[d:], cell), cell)
            index.append(int(np.argmax(counts.ravel() > 0)))
        cut = (slice(None),) * d + (slice(index[d], index[d] + 1),)
        factors = [f[cut] if f.ndim and f.shape[d] > 1 else f for f in factors]
    at = tuple(i if m > 1 else 0 for i, m in zip(index, obj.shape))
    return int(np.ravel_multi_index(index, block)), float(obj[at])


def _read_axes(reads, axes, elim: Elimination | None) -> list[tuple[bool, ...]]:
    """Whether each of reads, a set of variable names, reads each of axes; a
    set that names the solved variable reads elim.formula's variables too."""
    solved = set() if elim is None else _names(elim.formula)[0]
    return [tuple(ax.name in r or (ax.name in solved and elim.var in r) for ax in axes) for r in reads]


def _scan_grid(full: SearchBox, variables, elim: Elimination | None, params, reads, mask_and_obj) -> GridResult:
    """Blocked argmin over the lattice of full's axes for the free variables.

    Each axis enters env as an open-mesh array (its own dimension, size 1 on
    every other), so an expression comes out shaped over only the axes it
    reads.  The solved variable and params join env before mask_and_obj
    sees it; it returns the masks whose meet is the feasible set, and the
    objective.  reads holds the variables of each mask and, last, of the
    objective, so a block's shapes are known before it is evaluated.

    The objective is judged once per cell of the axes it reads, and the
    masks never meet over a block: _cell_counts counts each cell's feasible
    points from the masks, a cell is live when its count is positive, and
    the block's low is the least objective over live cells.  A point where
    the objective is nan is not feasible, so ~isnan(objective) is one more
    mask in every block's count.  Only a block whose low beats the best so
    far looks for its first feasible point at that value (_first_at, from
    the block's counts on the leading axes the objective reads and by more
    counts on the rest) and reads the value there, so the sign of a zero is
    the first point's.  Ties therefore resolve to the smallest flat index,
    which is lexicographic order in axis values, even where the first tying
    point lies in a later cell.  The first block with a feasible point
    always takes it, so an objective that is +inf wherever it is feasible
    still has a minimizer.

    A block fits when it holds at most CHUNK points, or when the arrays
    built by every count it may run to, its own and each of _first_at's
    past the leading axes the objective reads, hold at most CHUNK // 2
    bytes at once by _plan's peak.  Blocks grow until that binds: a lattice
    that fits whole is one block, and every block is evaluated once.
    """
    axes = tuple(full.axis(v) for v in _free(variables, elim))
    if not axes:
        raise OracleError("elimination leaves no grid axis")

    shape = tuple(ax.points for ax in axes)
    if math.prod(shape) > 2**63 - 1:
        raise OracleError(f"the lattice has {math.prod(shape)} points; a scan counts at most 2**63 - 1")
    values = [ax.values() for ax in axes]
    n = len(axes)
    reads = _read_axes(reads, axes, elim)

    def fits(block):
        shapes = tuple(tuple(k if r else 1 for k, r in zip(block, read)) for read in reads)

        def counts():  # (shapes, block, cell) of the block's own, then of _first_at's along each axis it counts
            yield shapes, block, shapes[-1]
            for d in range(_leading(shapes[-1], block), n):
                cell = (1,) * d + block[d : d + 1] + (1,) * (n - d - 1)
                yield tuple((1,) * d + s[d:] for s in shapes), (1,) * d + block[d:], cell

        return math.prod(block) <= CHUNK or all(_plan(*c).peak <= CHUNK // 2 for c in counts())

    best_idx, best_val, feasible, start = -1, math.inf, 0, 0
    for index, block in _chunks(shape, fits):
        env = {
            ax.name: values[d][index[d]].reshape([-1 if k == d else 1 for k in range(n)])
            for d, ax in enumerate(axes)
        }
        _complete(env, elim, params)
        with np.errstate(all="ignore"):
            masks, obj = mask_and_obj(env)
        masks = [np.asarray(m) for m in masks]
        obj = np.asarray(obj, dtype=float).reshape(np.shape(obj) or (1,) * n)
        cells = np.broadcast_to(_cell_counts([*masks, ~np.isnan(obj)], block, obj.shape), obj.shape)
        count = int(cells.sum())
        feasible += count
        if count:
            low = np.fmin.reduce(obj, axis=None, where=cells > 0, initial=math.inf)
            if low < best_val or best_idx < 0:
                local, best_val = _first_at(masks, obj, low, block, cells)
                best_idx = start + local
        start += math.prod(block)
    if best_idx < 0:
        raise Infeasible("no feasible lattice point")
    multi = np.unravel_index(best_idx, shape)
    env = {ax.name: float(values[d][multi[d]]) for d, ax in enumerate(axes)}
    _complete(env, elim, params)
    return GridResult({v: float(env[v]) for v in variables}, best_val, feasible)


def _minimize(p: Problem, params: Assignment, box, tol: float, eliminate: str | None, cones=()) -> GridResult:
    """grid_minimize of p with cones, (kind, slack-row expressions) pairs,
    as further constraints: each holds where its rows lie in the cone."""
    full = _as_box(box, p.variables)
    elim = None
    if eliminate is not None:
        elim = find_elimination(p, params, None if eliminate == "auto" else eliminate)
        if elim is None:
            raise OracleError("no affine equality available to eliminate")

    def mask_and_obj(env):
        masks = _feasible(p, elim, env, full, tol)
        masks += [_cone_mask(kind, [_veval(r, env) for r in rows], tol) for kind, rows in cones]
        return masks, np.asarray(_veval(p.objective, env), dtype=float)

    # the variables of each mask, in mask_and_obj's order, then of the objective
    reads = [] if elim is None else [{elim.var}]
    reads += [_names(c.lhs, c.rhs)[0] for i, c in enumerate(p.constraints) if elim is None or i != elim.constraint]
    reads += [_names(*rows)[0] for _, rows in cones]
    return _scan_grid(full, p.variables, elim, params, [*reads, _names(p.objective)[0]], mask_and_obj)


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
    return _minimize(p, params, box, tol, eliminate)


def grid_minimize_conic(
    cp: ConicProblem, box, tol: float = 1e-6, eliminate: str | None = None
) -> GridResult:
    """Grid search directly on conic data: grid_minimize of its rows.

    Each row is the expression 0.0 + a_j * x_j + ... over its nonzero
    columns, in column order, so it is shaped over just the axes it reads;
    the equality rows are = constraints, each cone row that expression less
    h.  eliminate solves an equality row as grid_minimize solves an affine
    equality, so that row holds to rounding rather than to tol.
    """

    def row(coeffs) -> Expr:
        acc = Const(0.0)
        for v, a in zip(cp.variables, coeffs.tolist()):
            if a:
                acc = Call("add", (acc, Call("mul", (Const(a), Var(v)))))
        return acc

    equalities = tuple(Constraint(row(a), "=", Const(b)) for a, b in zip(cp.A, cp.b.tolist()))
    cones = [
        (bl.kind, [Call("sub", (row(cp.G[r]), Const(float(cp.h[r])))) for r in range(sl.start, sl.stop)])
        for bl, sl in cp.block_slices()
    ]
    return _minimize(Problem(cp.variables, (), row(cp.c), equalities), {}, box, tol, eliminate, cones)


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


def _tighten(p: Problem, params: Assignment, full: SearchBox, elim) -> dict:
    """Shrink full to a sub-box that still holds every point the sampler can
    accept, by HC4-style hull consistency (Benhamou, Goualard, Granvilliers &
    Puget, 1999): forward/backward passes over every constraint, swept until
    no bound moves, at most 16 times.  Raises Infeasible when it empties.
    The one equality p may hold is elim's."""
    box = {ax.name: (ax.lo, ax.hi) for ax in full.axes}
    rows = []
    for i, c in enumerate(p.constraints):
        if elim is not None and i == elim.constraint:
            # The sampler solves this one: propagate the very formula it evaluates.
            rows.append((i, Var(elim.var), True, elim.formula))
        else:
            lo, hi, _ = oriented(c)
            rows.append((i, lo, False, hi))
    with np.errstate(all="ignore"):
        for _ in range(16):
            before = dict(box)
            for i, lhs, eq, rhs in rows:
                try:
                    L, R = _hull(lhs, box, params), _hull(rhs, box, params)
                    _narrow(lhs, *_out(R[0] if eq else -math.inf, R[1]), L, box)
                    _narrow(rhs, *_out(L[0], L[1] if eq else math.inf), R, box)
                except _Empty as err:
                    names = _names(err.args[0])[0]
                    raise Infeasible(
                        f"constraint {i} ({print_constraint(p.constraints[i])}) cannot "
                        "hold in the box" + (f": no room left for {', '.join(sorted(names))}" if names else "")
                    ) from None
            if box == before:
                break
    return box


def _draws(seed: int, start: int, n: int) -> np.ndarray:
    """Draws start .. start+n-1 of SplitMix64 (Steele, Lea & Flood, 2014)
    seeded with seed mod 2**64, each as its top 53 bits times 2**-53: doubles
    uniform on [0, 1).  Draw i mixes state + (i+1) * gamma, gamma the odd
    integer nearest 2**64 / golden ratio, so any stretch of the stream is
    computed on its own, in place in uint64 (which wraps mod 2**64)."""
    z = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(seed % 2**64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    return z * 2.0**-53


def sample_feasible(p: Problem, params: Assignment, box, n: int, seed: int = 0) -> dict[str, np.ndarray]:
    """Rejection-sample n feasible points, uniform over the feasible part of
    the box, as one array of n values per declared variable: point k is
    {v: cols[v][k]}.

    An affine equality, if present, is solved for one variable instead of
    being tested: a random box never hits a hyperplane.  The solved variable
    must land inside its box bounds.  The solved equality holds by
    construction (to rounding); every other constraint is tested exactly,
    so a second equality raises OracleError.

    Draws come from a tightened box: interval constraint propagation first
    shrinks each axis to the hull it proves every acceptable point lies in
    (outward-rounded, so that hull holds under floating-point evaluation
    too).  Every constraint is still tested on every candidate, so the
    accepted set is the same as from the caller's box and uniform draws
    restricted to it keep the same distribution; fewer draws are wasted, and
    a given seed gives different points.  A box the propagation empties
    raises Infeasible before any draw.  n below 1 raises OracleError.

    The draws are the SplitMix64 stream seeded with seed mod 2**64 (_draws),
    consumed in batches: each batch takes the next (free axes) x (batch)
    draws, row k for the k-th free axis, scaled as lo + (hi - lo) * u.  The
    same seed gives the same points.  The stream is not numpy.random's: the
    sampler needs only uniform doubles, and importing numpy.random (which
    loads hashlib, OpenSSL's _hashlib and secrets) adds about 6.3 MB of
    resident memory and 14 ms of CPU to a `conify canon` process (numpy
    2.4, Python 3.11).
    """
    if n < 1:
        raise OracleError(f"cannot sample n={n} points; n must be at least 1")
    full = _as_box(box, p.variables)

    elim = find_elimination(p, params)
    if any(c.op == "=" and (elim is None or i != elim.constraint) for i, c in enumerate(p.constraints)):
        raise OracleError(
            "equality constraints beyond the first affine one cannot be "
            "sampled exactly; reformulate"
        )

    bounds = _tighten(p, params, full, elim)
    free = _free(p.variables, elim)
    cols: dict[str, list[np.ndarray]] = {v: [] for v in p.variables}
    found = 0
    batch = max(256, min(8192, 8 * n))
    for b in range(MAX_BATCHES):
        u = _draws(seed, b * len(free) * batch, len(free) * batch).reshape(len(free), batch)
        env: dict[str, np.ndarray | float] = {
            name: bounds[name][0] + (bounds[name][1] - bounds[name][0]) * row for name, row in zip(free, u)
        }
        with np.errstate(all="ignore"):
            _complete(env, elim, params)
            mask = functools.reduce(operator.and_, _feasible(p, elim, env, full, 0.0), np.True_)
            mask = np.broadcast_to(mask, (batch,))
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
