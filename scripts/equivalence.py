"""Print one line per oracle and file-format case, to compare two source trees.

Run it once per tree and diff the outputs; any line that differs names the
case that moved:

    python3 scripts/equivalence.py OLD/src > old.txt
    python3 scripts/equivalence.py src > new.txt
    diff old.txt new.txt

Cases cover the 15 corpus problems and, where reduction succeeds, their
reduced forms: the write_trace and write_conic text; sample_feasible with
n=300, seeds 0-3, printed as a list of points whether the tree returns one
or one column per variable; grid_minimize and grid_minimize_conic, each
with and without eliminate="auto".  Each problem that canonizes also
gets check_primal's report at its emitted form's grid_minimize_conic point,
and one line more: check_feasible and objective_value of the original
problem at that point mapped back, and forward_map of the original
problem's grid_minimize point.
Then one line per k-chain (perfbench/kchain.py) for k = 1, 2, 4, 8, 16 and
32 gives the digest of its write_trace text and whether read_trace gives
back the same trace.  Last, each problem of EDGE_CASES, at the edges of
the lattice scans' reduction (a tie across cells, nan, -0.0 against 0.0,
-inf), of their per-cell counts (a constant-false constraint, an axis no
constraint reads, a constraint on every axis, a chain over four axes, three
constraints on one summed axis) and
of their counting blocks and first-point search (a best cell whose first
points are infeasible, a minimizer only at the last lattice point), and of
their read sets (constraints that read a solved variable, scanned with
eliminate="auto"), goes through grid_minimize and grid_minimize_conic at
the default CHUNK and at CHUNK 1, 7 and 50; each problem of BUCKET_CASES
(a bucket that is a batched matrix product, and one that fuses two axes) at
the default CHUNK and at CHUNK 7; each problem of WIDE_CASES (a count past
int32) only at the default CHUNK.  Then each problem of
CONIC_CASES, conic data emit never writes (an all-zero or -0.0 row, an
all-zero c, cone rows that read no variable), goes through
grid_minimize_conic at each of its eliminate settings at the default CHUNK.
Then PARSE_CASES texts, each a corpus file with one to three seeded edits
(see mutated_text), go through parse and print one line each: "ok" and the
first 16 hex digits of the sha256 of print_problem's text, or the error.
Then FILE_CASES texts go through read_conic or read_solution in turn:
each is the .cone text of a problem that canonizes, or a .sol text of its
sizes, with one to three seeded edits of FILE_INSERTS, and prints one line
the same way, hashing the text write_conic or write_solution gives back.
Last, each problem of REDUCE_CASES prints its write_trace text.
A case that raises prints the error's type and message instead of
its result.  Parameters are bound to 1.0; boxes are the corpus manifest's
where it gives one, else [-5, 5].

That makes 240 oracle and file-format lines, 10 check_primal lines, 10
solution-map lines, 6 k-chain lines, 138 edge-case lines, 15 conic-case
lines, 300 parse lines, 300 file lines and 3 reduce lines: 1 022 in all.
"""

import hashlib
import json
import pathlib
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"
RES = 9  # lattice points per axis: small enough for five axes
KCHAIN_KS = (1, 2, 4, 8, 16, 32)
# (label, variables, constraints, objective, axis range, points per axis,
# eliminate)
EDGE_CASES = (
    ("trailing-axis tie", "x z", "0.25 <= abs(z), 0 <= x + z", "abs(z)", (-1.0, 1.0), 5, None),
    ("middle axis", "x y z", "1 <= x + y + z, y <= x, 0 <= z", "2 * y", (-1.0, 1.0), 5, None),
    ("nan at feasible points", "x y z", "0 <= z + 1", "log(x) + z", (-1.0, 2.0), 7, None),
    ("constant", "x y", "1 <= x + y", "2", (0.0, 1.0), 5, None),
    ("conic c = 0", "x y", "1 <= x + y", "0 * x", (0.0, 1.0), 5, None),
    ("-0.0 first", "x", "x <= 1", "0 * x", (-1.0, 1.0), 5, None),
    ("0.0 first", "x z", "0 <= x + z", "0 * z", (-1.0, 1.0), 5, None),
    ("pow overflow to -inf", "x y", "0 <= y", "x ^ 3", (-1e200, 1e200), 5, None),
    ("constant false", "x y z", "1 <= 0", "x", (-1.0, 1.0), 5, None),
    ("objective on an unread axis", "x y z", "x <= 1", "z", (-1.0, 1.0), 5, None),
    ("constraint on every axis", "x y z", "x + y + z <= 0", "0 * x", (-1.0, 1.0), 5, None),
    # chain1's reduced problem at unit parameters, y = 1 - x substituted
    ("four-axis chain", "x t1 t2 t3", "t1 <= t3, exp(1 - x) <= t1, t2 ^ 2 <= x, exp(t3) <= t2 + 1", "x",
     (0.0, 3.0), 9, None),
    # x = -1 is the best cell, and its first seven y rows hold none of its
    # feasible points; at CHUNK 50 they fill the first of its two blocks
    ("hit before feasible", "x y z", "0.5 <= y", "x", (-1.0, 1.0), 10, None),
    # x = z = 1 is the only minimizer, and y = 1 the only feasible y there
    ("minimizer at the last point", "x y z", "z <= y, y <= x, 1 <= x + z", "0 - x - z", (-1.0, 1.0), 5, None),
    # summing y out takes one einsum over three factors, through an
    # intermediate
    ("three constraints on a summed axis", "x y z w", "x <= y, z <= y, 0.5 <= w + y", "x + z",
     (-1.0, 1.0), 5, None),
    # z is solved out of the equality, and two more constraints read it: their
    # masks come out shaped over the axes of x and y, z's formula's variables
    ("solved variable read by another constraint", "x y z", "x + y + z = 1, 0 <= z, z <= x", "x - y",
     (-1.0, 1.0), 9, "auto"),
)
# Problems whose block count sums an axis out of exactly two masks by a
# matrix product that is not a plain one: summing z out of x + y + z <= 1
# and z - x <= w is batched over x ("abc,acd->abd"), and summing y out of
# x + y + z <= 1 and y <= w fuses x and z ("abc,bd->acd").  Both scans plan
# these steps at the default CHUNK.
BUCKET_CASES = (
    ("batched product", "x y z w", "x + y + z <= 1, z - x <= w", "x + y + w", (-1.0, 1.0), 5, None),
    ("axis-fusing sum", "x y z w", "x + y + z <= 1, y <= w", "x + z + w", (-1.0, 1.0), 5, None),
)
# 50**6 points, too many to scan at CHUNK 1, 7 or 50; the one cell counts
# more than 2**31 feasible points
WIDE_CASES = (
    ("six axes past int32", "x1 x2 x3 x4 x5 x6",
     "x1 <= 44, x2 <= 44, 2 <= x3, x4 <= 44, x5 <= 47, 1 <= x6", "0", (0.0, 49.0), 50, None),
)


# Conic problems emit never writes, built from their rows: (label, variables,
# c, equality rows, cone blocks, axis range, points per axis, eliminate
# settings).  Each equality row is its coefficients then b; each cone block
# is its kind and its rows, each its coefficients then h.
CONIC_CASES = (
    ("all-zero row before the solvable one", "x y", [1.0, 2.0], [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]],
     [("ORTHANT", [[1.0, 0.0, 0.0], [0.0, 1.0, -0.5]])], (-1.0, 1.0), 5, (None, "auto", "y")),
    ("-0.0 coefficients", "x y", [-0.0, 1.0], [[-0.0, 1.0, 0.5]], [("ORTHANT", [[1.0, -0.0, 0.0]])],
     (-1.0, 1.0), 5, (None, "auto", "x", "y")),
    ("all-zero c", "x y", [0.0, -0.0], [], [("ORTHANT", [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]])],
     (-1.0, 1.0), 5, (None, "auto")),
    ("cone rows that read no variable", "x y z", [0.0, 1.0, 1.0], [[1.0, 0.0, -1.0, 0.0]],
     [("SOC", [[0.0, 0.0, 0.0, -2.0], [0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 0.0, -1.0]]),
      ("EXP", [[0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 0.0, 0.0]]),
      ("ORTHANT", [[0.0, 1.0, 0.0, -0.5], [0.0, 0.0, 0.0, -1.0]])],
     (-1.0, 1.0), 5, (None, "auto")),
    ("a cone row false everywhere", "x y", [1.0, 1.0], [], [("ORTHANT", [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])],
     (-1.0, 1.0), 5, (None,)),
    ("a variable only a later row holds", "x y z", [1.0, 1.0, 1.0], [[1.0, 1.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.5]],
     [("ORTHANT", [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, -1.0]])], (-1.0, 1.0), 9, (None, "auto", "z")),
)


# Problems at the edges of reduce_problem's driver: (label, variables,
# constraints).  A sweep drop that a later drop takes back (README's
# put-back example), an atom at the head of a constraint with no conic rule
# and no graph implementation, and a linearize at a head whose other side is
# not affine followed by a graph_expand.
REDUCE_CASES = (
    ("put-back", "x y z u", "x <= y, z <= y, x <= z, x <= u, u <= z"),
    ("refused head", "x y", "abs(x) <= y"),
    ("linearize then graph_expand", "x y", "exp(x) <= log(y), 0 < y"),
)


PARSE_CASES = 300
# What an edit may insert: tokens, their fragments, characters no token
# starts with, whitespace that moves line:col, and literals past the float
# range (as a number and as an exponent).
INSERTS = ("(", ")", ",", "-", "+", "*", "/", "^", "^ 0", "<=", "=", ":", "!", "@", "\t", "\r", "\n", " ", "#",
           "x", "zz", "1", ".5", "2e", " * 1e400", "-1e400 + ", " ^ " + "9" * 400, "1e-400 * ", "exp(", "sin(",
           "sqrt", "!vars", "!params a, a", "!constraints", "minimization", ": none", ": pos", "\u00e9")


FILE_CASES = 300
FILE_SEED = 1000  # file case k draws from random.Random(FILE_SEED + k)
# What an edit of a .cone or .sol text may insert: keywords, suffixes that
# lengthen a keyword, counts that are not one word of ASCII digits, non-finite
# numbers and lines after END.
FILE_INSERTS = ("X", "S", "+", "-", "\u0661", " junk", " ", "\n", "#", "0", "1", "-2", "nan", "inf", "1e400",
                "END\n", "\nEND", "PRIMAL 1\n", "DUAL_EQ 1\n", "DUAL_CONE\n", "CONE ", "SOC", "ORTHANT", "EXP", "OBJ",
                "EQ", "VARS")


def mutated_text(texts: list, case: int, inserts: tuple = INSERTS) -> str:
    """One of texts with one to three edits, seeded by case: each inserts one
    of inserts, deletes one to three characters, or swaps two neighbours."""
    rng = random.Random(case)
    text = rng.choice(texts)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text))
        edit = rng.randrange(3)
        if edit == 0:
            text = text[:at] + rng.choice(inserts) + text[at:]
        elif edit == 1:
            text = text[:at] + text[at + rng.randint(1, 3):]
        else:
            text = text[:at] + text[at + 1:at + 2] + text[at:at + 1] + text[at + 2:]
    return text


def conic_problem(names, c, equalities, cones):
    """The ConicProblem of one of CONIC_CASES' rows.  It imports conify
    when called, from the tree main puts first on sys.path."""
    import numpy as np
    from conify.conic import ConeBlock, ConicProblem

    n = len(names.split())
    rows = [row for _, block in cones for row in block]
    eq, g = np.array(equalities, dtype=float).reshape(-1, n + 1), np.array(rows, dtype=float).reshape(-1, n + 1)
    blocks = tuple(ConeBlock(kind, len(block)) for kind, block in cones)
    return ConicProblem(tuple(names.split()), np.array(c), eq[:, :n], eq[:, n], g[:, :n], g[:, n], blocks)


def as_points(sampled) -> list:
    """sample_feasible's result as a list of points: a dict of columns is
    zipped, a list of points passes through."""
    if isinstance(sampled, dict):
        return [dict(zip(sampled, row)) for row in zip(*(c.tolist() for c in sampled.values()))]
    return sampled


def digest(run) -> str:
    """"ok" and the first 16 hex digits of the sha256 of the text run()
    returns, or the error it raises."""
    try:
        text = run()
    except Exception as e:  # every error is a result to compare
        return f"{type(e).__name__}: {e}"
    return f"ok {hashlib.sha256(text.encode()).hexdigest()[:16]}"


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
    import numpy as np
    from conify import Axis, SearchBox, backmap, check_feasible, check_primal, emit, forward_map, grid_minimize
    from conify import grid_minimize_conic, objective_value, oracle, parse, read_trace, reduce_problem
    from conify import print_problem, sample_feasible, write_conic, write_trace
    from conify.conic import SolutionFile, read_conic, read_solution, write_solution
    from perfbench.kchain import chain_text

    manifest = json.loads((CORPUS / "manifest.json").read_text())
    cone_texts, sol_texts = [], []
    for name, meta in manifest.items():
        p = parse((CORPUS / name).read_text())
        params = {d.name: 1.0 for d in p.params}
        bounds = meta.get("boxes") or {}
        forms = {"original": p}
        boxes = {}
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
                got = show(lambda: as_points(sample_feasible(q, params, (-5.0, 5.0), 300, seed=seed)))
                print(f"{case} sample_feasible seed={seed}: {got}")
            box = boxes[form] = SearchBox(tuple(Axis(v, *bounds.get(v, (-5.0, 5.0)), RES) for v in q.variables))
            for eliminate in (None, "auto"):
                got = show(lambda: grid_minimize(q, params, box, eliminate=eliminate))
                print(f"{case} grid_minimize eliminate={eliminate}: {got}")
                got = show(lambda: grid_minimize_conic(emit(q, params), box, eliminate=eliminate))
                print(f"{case} grid_minimize_conic eliminate={eliminate}: {got}")
        if "reduced" in forms:
            cp = emit(trace.final, params)
            cone_texts.append(write_conic(cp))
            primal = np.linspace(-1.0, 1.0, len(cp.variables))
            sol = SolutionFile(primal, np.full(len(cp.b), 0.5), np.full(len(cp.h), 0.25))
            sol_texts.append(write_solution(sol))

            def primal_at_lattice_point():
                cp = emit(trace.final, params)
                point = grid_minimize_conic(cp, box).point
                return check_primal(cp, [point[v] for v in cp.variables])

            print(f"{name} check_primal at grid_minimize_conic: {show(primal_at_lattice_point)}")

            def maps_at_lattice_points():
                back = backmap(trace, grid_minimize_conic(emit(trace.final, params), box).point)
                full = {**params, **back}
                at = grid_minimize(p, params, boxes["original"]).point
                return check_feasible(p, full), objective_value(p, full), forward_map(trace, {**params, **at})

            print(f"{name} backmap at grid_minimize_conic, forward_map at grid_minimize: "
                  f"{show(maps_at_lattice_points)}")

    for k in KCHAIN_KS:
        p = parse(chain_text(k))

        def trace_digest():
            text = write_trace(reduce_problem(p))
            reads_back = write_trace(read_trace(text, p)) == text
            return f"sha256 {hashlib.sha256(text.encode()).hexdigest()} of {len(text)} chars", reads_back

        print(f"kchain k={k} write_trace, read back: {show(trace_digest)}")

    default_chunk = oracle.CHUNK
    scans = ((EDGE_CASES, (default_chunk, 1, 7, 50)), (BUCKET_CASES, (default_chunk, 7)), (WIDE_CASES, (default_chunk,)))
    for cases, chunks in scans:
        for label, names, constraints, objective, (lo, hi), points, eliminate in cases:
            q = parse(f"minimization\n!vars {names}\n!objective {objective}\n!constraints\n{constraints}\n")
            box = SearchBox.uniform(q.variables, lo, hi, points)
            for chunk in chunks:
                oracle.CHUNK = chunk
                got = show(lambda: grid_minimize(q, {}, box, eliminate=eliminate))
                print(f"edge {label} CHUNK={chunk} grid_minimize: {got}")
                got = show(lambda: grid_minimize_conic(emit(q, {}), box, eliminate=eliminate))
                print(f"edge {label} CHUNK={chunk} grid_minimize_conic: {got}")
    oracle.CHUNK = default_chunk

    for label, names, c, equalities, cones, (lo, hi), points, eliminates in CONIC_CASES:
        box = SearchBox.uniform(names.split(), lo, hi, points)
        cp = conic_problem(names, c, equalities, cones)
        for eliminate in eliminates:
            got = show(lambda: grid_minimize_conic(cp, box, eliminate=eliminate))
            print(f"conic {label} eliminate={eliminate}: {got}")

    texts = [(CORPUS / name).read_text() for name in sorted(manifest)]
    for case in range(PARSE_CASES):
        print(f"parse {case}: {digest(lambda: print_problem(parse(mutated_text(texts, case))))}")

    files = {"cone": (cone_texts, read_conic, write_conic), "sol": (sol_texts, read_solution, write_solution)}
    for case in range(FILE_CASES):
        kind = ("cone", "sol")[case % 2]
        texts, read, write = files[kind]
        got = digest(lambda: write(read(mutated_text(texts, FILE_SEED + case, FILE_INSERTS))))
        print(f"{kind} {case}: {got}")

    for label, names, constraints in REDUCE_CASES:
        q = parse(f"minimization\n!vars {names}\n!objective 0\n!constraints\n{constraints}\n")
        print(f"reduce {label}: {show(lambda: write_trace(reduce_problem(q)))}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: equivalence.py SRC_DIR")
    main(sys.argv[1])
