"""Command-line front end.

Subcommands mirror the pipeline: `check` runs the conformance analysis,
`canon` reduces and emits conic form, `step` applies one schema at one
occurrence, `solve-oracle` grid-searches a problem or an emitted conic file,
and `verify` replays a trace against a solution file and re-checks everything
numerically.

Exit codes: 0 success, 1 semantic failure (non-conformance, failed check,
infeasible grid), 2 unusable input or output (parse or file format errors,
input nested too deeply, bad option values, files that cannot be read or
written).  Every error a subcommand raises gets its code and message from
one table, _EXITS.
"""

import argparse
import functools
import math
import pathlib
import sys

import numpy as np

from .conic import (
    ConicFormatError,
    DualCertificate,
    UnboundParameter,
    _Lines,
    check_dual_bound,
    check_primal,
    emit,
    read_conic,
    read_solution,
    write_conic,
    write_solution,
    SolutionFile,
)
from .dcp import OccPath, dcp_check, resolve
from .dsl import DslError, parse, print_expr, print_problem
from .oracle import Infeasible, OracleError, SearchBox, grid_minimize, grid_minimize_conic
from .problem import ConifyError, check_feasible, objective_value
from .reduce import (
    SCHEMAS,
    ReduceError,
    apply_step,
    backmap,
    canonize,
    read_trace,
    verify_trace_sampled,
    write_trace,
)


class _Unusable(ConifyError):
    """An input file or option value the subcommand cannot use."""


# (subcommand or "*", error family, exit code, message): the first row that
# matches an escaping error decides.  {e} is the error's message, {kind} its
# class name, and {issues} a DslError's issues, one "path:line:col: ..." line
# each.  In step, an IndexError or ValueError can only come from resolving
# --path in the problem.
_EXITS = (
    ("*", _Unusable, 2, "error: {e}"),
    ("*", DslError, 2, "error: {issues}"),
    ("*", RecursionError, 2, "error: input nested too deeply"),
    ("solve-oracle", ConicFormatError, 2, "error: {e}"),
    ("verify", ConicFormatError, 2, "error: solution: {e}"),
    ("verify", ReduceError, 2, "error: trace: {e}"),
    ("canon", OracleError, 1, "trace verification could not sample: {e}"),
    ("solve-oracle", Infeasible, 1, "infeasible on grid"),
    ("step", ReduceError, 1, "{kind}: {e}"),
    ("step", (IndexError, ValueError), 1, "path does not resolve in this problem"),
    ("*", ConifyError, 1, "{e}"),
)


def _read_text(path: str) -> str:
    try:
        return pathlib.Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise _Unusable(f"cannot read {path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise _Unusable(f"cannot read {path}: {e}") from None


def _write_text(path: pathlib.Path, text: str) -> None:
    try:
        pathlib.Path(path).write_text(text, encoding="utf-8")
    except OSError as e:
        raise _Unusable(f"cannot write {path}: {e.strerror or e}") from None


def _parse_params(pairs: list[str], decls) -> dict[str, float]:
    """--param values by name, each given once, declared by a ParamDecl in
    decls, finite and of the sign declared."""
    signs, out = {d.name: d.sign for d in decls}, {}
    for item in pairs:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise _Unusable(f"bad --param {item!r}, expected name=value")
        if name not in signs:
            raise _Unusable(f"bad --param {item!r}, the problem declares no parameter {name}")
        if name in out:
            raise _Unusable(f"bad --param {item!r}, {name} given twice")
        try:
            out[name] = v = float(value)
        except ValueError:
            raise _Unusable(f"bad --param value {value!r} for {name}") from None
        if not math.isfinite(v):
            raise _Unusable(f"bad --param value {value!r} for {name}, expected a finite number")
        if not {"nonneg": v >= 0, "pos": v > 0, "nonpos": v <= 0, "neg": v < 0}.get(signs.get(name), True):
            raise _Unusable(f"bad --param value {value!r} for {name}, declared {signs[name]}")
    return out


def _parse_boxes(pairs: list[str]) -> dict[str, tuple[float, float]]:
    out = {}
    for item in pairs:
        name, sep, span = item.partition("=")
        lo, sep2, hi = span.partition(":")
        if not sep or not sep2:
            raise _Unusable(f"bad --box {item!r}, expected var=lo:hi")
        if name in out:
            raise _Unusable(f"bad --box {item!r}, {name} given twice")
        try:
            out[name] = (float(lo), float(hi))
        except ValueError:
            raise _Unusable(f"bad --box bounds in {item!r}") from None
        if not -math.inf < out[name][0] <= out[name][1] < math.inf:
            raise _Unusable(f"bad --box {item!r}, expected finite lo <= hi")
    return out


def _make_box(names, boxes: dict[str, tuple[float, float]], res: int) -> SearchBox:
    box = SearchBox.uniform(names, -5.0, 5.0, res)
    for name, (lo, hi) in boxes.items():
        if name not in names:
            raise _Unusable(f"--box names unknown variable {name}")
        try:
            box = box.with_axis(name, lo, hi, res)
        except ValueError as e:
            raise _Unusable(f"bad --box {name}={lo!r}:{hi!r}, {e}") from None
    return box


# --- subcommands --------------------------------------------------------------


def _cmd_check(args) -> int:
    p = parse(_read_text(args.problem))
    verdict = dcp_check(p)
    failures = []
    for d in verdict.diagnoses:
        what = f"required {d.required}, got {d.inferred.name.lower()}"
        if not d.ok and d.failing_path is not None:
            what += f" at {print_expr(resolve(p, d.failing_path))}"
        where = "objective" if d.constraint is None else f"constraint #{d.constraint}"
        side = "" if d.constraint is None else f" {d.side}"
        print(f"{where}{side}: {what}")
        if not d.ok:
            failures.append(f"{where}: {what}")
    print("DCP: conformant" if verdict.conformant else "DCP: not conformant")
    for line in failures:
        print(line, file=sys.stderr)
    return 0 if verdict.conformant else 1


def _cmd_canon(args) -> int:
    p = parse(_read_text(args.problem))
    params = _parse_params(args.param, p.params)
    if not args.skip_verify and args.samples < 1:
        raise _Unusable(f"bad --samples {args.samples}, expected at least 1 (or --skip-verify)")
    cp, trace = canonize(p, params)

    if not args.skip_verify:
        report = verify_trace_sampled(trace, params, box=(-5.0, 5.0), n=args.samples, tol=args.tol)
        if not report.ok:
            for f in report.failures[:5]:
                print(f"verification failure: {f}", file=sys.stderr)
            raise ConifyError("sampled trace verification failed")
        print(
            f"trace verified on {report.backward_checked} backward and "
            f"{report.forward_checked} forward samples"
        )
    else:
        print("trace verification skipped")

    src = pathlib.Path(args.problem)
    out = pathlib.Path(args.out) if args.out else src.with_suffix(".cone")
    tr = pathlib.Path(args.trace) if args.trace else src.with_suffix(".trace")
    _write_text(out, write_conic(cp))
    _write_text(tr, write_trace(trace))
    kinds = " ".join(bl.kind for bl in cp.blocks) or "none"
    print(f"wrote {out}: {len(cp.variables)} vars, {cp.A.shape[0]} equalities, blocks {kinds}")
    print(f"wrote {tr}: {len(trace.steps)} steps")
    return 0


def _cmd_step(args) -> int:
    p = parse(_read_text(args.problem))
    try:
        path = None if args.path is None else OccPath.parse(args.path)
    except ValueError as e:
        raise _Unusable(str(e)) from None
    removed = [s.strip() for s in args.drop.split(",")] if args.drop else []
    if not all(s.isascii() and s.isdigit() for s in removed):
        raise _Unusable(f"bad --drop {args.drop!r}, expected indices like 2,3")
    q, _ = apply_step(p, args.schema, path, tuple(map(int, removed)))
    print(print_problem(q), end="")
    return 0


def _cmd_solve_oracle(args) -> int:
    text = _read_text(args.problem)
    boxes = _parse_boxes(args.box)
    if args.res is not None and args.res < 2:
        raise _Unusable(f"bad --res {args.res}, expected at least 2 points per axis")
    head = _Lines(text).items[:1]
    if head and head[0][1].startswith("CONICFORM"):
        _parse_params(args.param, ())  # a conic file's parameters are bound already
        cp = read_conic(text)
        names = cp.variables
        solve = functools.partial(grid_minimize_conic, cp)
    else:
        p = parse(text)
        params = _parse_params(args.param, p.params)
        missing = [d.name for d in p.params if d.name not in params]
        if missing:
            raise UnboundParameter(f"unbound parameter {missing[0]}")
        names = p.variables
        solve = functools.partial(grid_minimize, p, params)
    if args.eliminate not in (None, "auto", *names):
        raise _Unusable(f"bad --eliminate {args.eliminate}, the problem has no variable {args.eliminate}")
    res = args.res or _auto_res(len(names) - (1 if args.eliminate else 0))
    result = solve(_make_box(names, boxes, res), tol=args.tol, eliminate=args.eliminate)

    at = ", ".join(f"{v}={result.point[v]!r}" for v in names)
    print(f"minimum {result.value!r} at {at} ({result.feasible_count} feasible lattice points)")
    out = pathlib.Path(args.out) if args.out else pathlib.Path(args.problem).with_suffix(".sol")
    _write_text(out, write_solution(SolutionFile(np.array([result.point[v] for v in names]))))
    print(f"wrote {out}")
    return 0


def _auto_res(axes: int) -> int:
    budget = 200_000
    if axes < 1:
        return 3
    return max(3, min(2001, int(budget ** (1.0 / axes))))


def _cmd_verify(args) -> int:
    p = parse(_read_text(args.problem))
    params = _parse_params(args.param, p.params)
    trace = read_trace(_read_text(args.trace), p)
    sol = read_solution(_read_text(args.solution))
    cp = emit(trace.final, params)

    if sol.primal.shape != (len(cp.variables),):
        raise ConifyError(f"primal has {sol.primal.shape[0]} values, problem has {len(cp.variables)}")

    primal = check_primal(cp, sol.primal, tol=args.tol)
    if not primal.feasible:
        raise ConifyError("FAIL primal: " + "; ".join(primal.failures))
    print(f"conic primal feasible, objective {primal.objective!r}")

    point = dict(zip(cp.variables, (float(v) for v in sol.primal)))
    back = backmap(trace, point)
    full = {**params, **back}
    verdict = check_feasible(trace.original, full, tol=args.tol)
    if not verdict.feasible:
        detail = f"constraint #{verdict.index}"
        if verdict.error is not None:
            detail += f" ({verdict.error})"
        raise ConifyError(f"FAIL backmap: original infeasible at {detail}")
    original_value = objective_value(trace.original, full)
    at = ", ".join(f"{v}={back[v]!r}" for v in trace.original.variables)
    print(f"backmapped point feasible: {at}")
    print(f"original objective {original_value!r}")
    scale = max(1.0, abs(primal.objective), abs(original_value))
    if not abs(primal.objective - original_value) <= args.tol * scale:  # a nan fails too
        raise ConifyError(f"FAIL objective: conic {primal.objective!r}, original {original_value!r}")

    if sol.dual_cone is not None or sol.dual_eq is not None:
        y = sol.dual_eq if sol.dual_eq is not None else np.zeros(cp.A.shape[0])
        z = sol.dual_cone if sol.dual_cone is not None else np.zeros(cp.G.shape[0])
        report = check_dual_bound(cp, DualCertificate(y, z), tol=args.tol)
        if not report.accepted:
            raise ConifyError("FAIL dual: " + "; ".join(report.failures))
        gap = primal.objective - report.bound
        print(
            f"approximate lower bound {report.bound!r} "
            f"(stationarity residual {report.residual!r}), duality gap {gap!r}"
        )
        if not gap >= -args.tol:  # a nan gap fails too
            raise ConifyError("FAIL dual: bound exceeds objective")
    print("OK")
    return 0


# --- parser --------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args leaves the parser unchanged and
    # gives each call a fresh Namespace, and append copies its default list.
    ap = argparse.ArgumentParser(prog="conify", description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="parse and report DCP conformance")
    c.add_argument("problem")
    c.set_defaults(func=_cmd_check)

    c = sub.add_parser("canon", help="reduce to conic form, write .cone and trace")
    c.add_argument("problem")
    c.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")
    c.add_argument("--out", help="conic output path (default: problem path with .cone)")
    c.add_argument("--trace", help="trace output path (default: problem path with .trace)")
    c.add_argument("--skip-verify", action="store_true", help="skip sampled trace checks")
    c.add_argument("--samples", type=int, default=200, help="verification sample count")
    c.add_argument("--tol", type=float, default=1e-7)
    c.set_defaults(func=_cmd_canon)

    c = sub.add_parser("step", help="apply one reduction schema and print the result")
    c.add_argument("problem")
    c.add_argument("--schema", required=True, choices=list(SCHEMAS))
    c.add_argument("--path", help="occurrence path like c0/rhs/0/1")
    c.add_argument("--drop", help="constraint indices for eliminate, like 2,3")
    c.set_defaults(func=_cmd_step)

    c = sub.add_parser("solve-oracle", help="grid-search a .opt problem or .cone file")
    c.add_argument("problem")
    c.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")
    c.add_argument("--box", action="append", default=[], metavar="VAR=LO:HI")
    c.add_argument("--res", type=int, help="lattice points per axis (default: by point budget)")
    c.add_argument("--tol", type=float, default=1e-6, help="feasibility tolerance on the lattice")
    c.add_argument("--eliminate", metavar="VAR",
                   help="solve an affine equality for VAR (or 'auto') instead of gridding it")
    c.add_argument("--out", help="solution output path (default: problem path with .sol)")
    c.set_defaults(func=_cmd_solve_oracle)

    c = sub.add_parser("verify", help="replay a trace and check a solution end to end")
    c.add_argument("problem")
    c.add_argument("trace")
    c.add_argument("solution")
    c.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")
    c.add_argument("--tol", type=float, default=1e-7)
    c.set_defaults(func=_cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        if not 0.0 <= getattr(args, "tol", 0.0) < math.inf:
            raise _Unusable(f"bad --tol {args.tol}, expected a finite number >= 0")
        return args.func(args)
    except (ConifyError, IndexError, ValueError, RecursionError) as e:
        for command, family, code, message in _EXITS:
            if command in ("*", args.command) and isinstance(e, family):
                issues = "\n".join(f"{args.problem}:{issue}" for issue in getattr(e, "issues", ()))
                print(message.format(e=e, kind=type(e).__name__, issues=issues), file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
