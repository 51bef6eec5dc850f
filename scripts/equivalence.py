"""Print one line per oracle and file-format case, to compare two source trees.

Run it once per tree and diff the outputs; any line that differs names the
case that moved:

    python3 scripts/equivalence.py OLD/src > old.txt
    python3 scripts/equivalence.py src > new.txt
    diff old.txt new.txt

Cases cover the 15 corpus problems and, where reduction succeeds, their
reduced forms: the write_trace and write_conic text; sample_feasible with
n=300, seeds 0-3, at tol 0 and 1e-3; grid_minimize and grid_minimize_conic,
each with and without eliminate="auto".  Each problem that canonizes also
gets check_primal's report at its emitted form's grid_minimize_conic point.
Then one line per k-chain (perfbench/kchain.py) for k = 1, 2, 4, 8, 16 and
32 gives the digest of its write_trace text and whether read_trace gives
back the same trace.  Last, each objective of EDGE_CASES, at the edges of
the lattice scans' reduction (a tie across cells, nan, -0.0 against 0.0,
-inf), goes through grid_minimize and grid_minimize_conic at the default
CHUNK and at CHUNK 1 and 7.  A case that raises prints the error's type and
message instead of its result.  Parameters are bound to 1.0; boxes are the
corpus manifest's where it gives one, else [-5, 5].

That makes 340 oracle and file-format lines, 10 check_primal lines, 6
k-chain lines and 48 edge-case lines: 404 in all.
"""

import hashlib
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"
RES = 9  # lattice points per axis: small enough for five axes
KCHAIN_KS = (1, 2, 4, 8, 16, 32)
# (label, variables, constraints, objective, axis range, points per axis)
EDGE_CASES = (
    ("trailing-axis tie", "x z", "0.25 <= abs(z), 0 <= x + z", "abs(z)", (-1.0, 1.0), 5),
    ("middle axis", "x y z", "1 <= x + y + z, y <= x, 0 <= z", "2 * y", (-1.0, 1.0), 5),
    ("nan at feasible points", "x y z", "0 <= z + 1", "log(x) + z", (-1.0, 2.0), 7),
    ("constant", "x y", "1 <= x + y", "2", (0.0, 1.0), 5),
    ("conic c = 0", "x y", "1 <= x + y", "0 * x", (0.0, 1.0), 5),
    ("-0.0 first", "x", "x <= 1", "0 * x", (-1.0, 1.0), 5),
    ("0.0 first", "x z", "0 <= x + z", "0 * z", (-1.0, 1.0), 5),
    ("pow overflow to -inf", "x y", "0 <= y", "x ^ 3", (-1e200, 1e200), 5),
)


def show(run) -> str:
    """repr of run()'s result, or the error it raises; a long repr is
    shortened to its digest."""
    try:
        text = repr(run())
    except Exception as e:  # every error is a result to compare
        return f"{type(e).__name__}: {e}"
    if len(text) > 2000:
        return f"sha256 {hashlib.sha256(text.encode()).hexdigest()} of {len(text)} chars"
    return text


def main(src: str) -> None:
    sys.path.insert(0, str(pathlib.Path(src).resolve()))
    sys.path.insert(0, str(ROOT))
    from conify import Axis, SearchBox, check_primal, emit, grid_minimize, grid_minimize_conic, oracle, parse
    from conify import read_trace, reduce_problem, sample_feasible, write_conic, write_trace
    from perfbench.kchain import chain_text

    manifest = json.loads((CORPUS / "manifest.json").read_text())
    for name, meta in manifest.items():
        p = parse((CORPUS / name).read_text())
        params = {d.name: 1.0 for d in p.params}
        bounds = meta.get("boxes") or {}
        forms = {"original": p}
        try:
            trace = reduce_problem(p)
        except Exception as e:
            print(f"{name} reduce: {type(e).__name__}: {e}")
        else:
            forms["reduced"] = trace.final
            print(f"{name} write_trace: {show(lambda: write_trace(trace))}")
        for form, q in forms.items():
            case = f"{name} {form}"
            print(f"{case} write_conic: {show(lambda: write_conic(emit(q, params)))}")
            for seed in range(4):
                for tol in (0.0, 1e-3):
                    got = show(lambda: sample_feasible(q, params, (-5.0, 5.0), 300, seed=seed, tol=tol))
                    print(f"{case} sample_feasible seed={seed} tol={tol}: {got}")
            box = SearchBox(tuple(Axis(v, *bounds.get(v, (-5.0, 5.0)), RES) for v in q.variables))
            for eliminate in (None, "auto"):
                got = show(lambda: grid_minimize(q, params, box, eliminate=eliminate))
                print(f"{case} grid_minimize eliminate={eliminate}: {got}")
                got = show(lambda: grid_minimize_conic(emit(q, params), box, eliminate=eliminate))
                print(f"{case} grid_minimize_conic eliminate={eliminate}: {got}")
        if "reduced" in forms:

            def primal_at_lattice_point():
                cp = emit(trace.final, params)
                point = grid_minimize_conic(cp, box).point
                return check_primal(cp, [point[v] for v in cp.variables])

            print(f"{name} check_primal at grid_minimize_conic: {show(primal_at_lattice_point)}")

    for k in KCHAIN_KS:
        p = parse(chain_text(k))

        def trace_digest():
            text = write_trace(reduce_problem(p))
            reads_back = write_trace(read_trace(text, p)) == text
            return f"sha256 {hashlib.sha256(text.encode()).hexdigest()} of {len(text)} chars", reads_back

        print(f"kchain k={k} write_trace, read back: {show(trace_digest)}")

    default_chunk = oracle.CHUNK
    for label, names, constraints, objective, (lo, hi), points in EDGE_CASES:
        q = parse(f"minimization\n!vars {names}\n!objective {objective}\n!constraints\n{constraints}\n")
        box = SearchBox.uniform(q.variables, lo, hi, points)
        for chunk in (default_chunk, 1, 7):
            oracle.CHUNK = chunk
            print(f"edge {label} CHUNK={chunk} grid_minimize: {show(lambda: grid_minimize(q, {}, box))}")
            got = show(lambda: grid_minimize_conic(emit(q, {}), box))
            print(f"edge {label} CHUNK={chunk} grid_minimize_conic: {got}")
    oracle.CHUNK = default_chunk


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: equivalence.py SRC_DIR")
    main(sys.argv[1])
