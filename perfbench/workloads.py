"""The benchmark's workloads, and the conify functions its traced run wraps.

An op takes one input through its workload's whole pipeline, checks every
output, and returns the input's deterministic counts (conic size, reduction
steps, lattice points, feasible points).  It raises OpFailed when an output is
wrong.  A pass is the workload's unit of repetition: one sweep of the corpus
files, one sweep of the k values, or one criterion-4 parameter tuple (one op
there takes about 15 s, so a sweep of all three would not fit a run).

Calls into conify go through module attributes (conic.emit, not a name
imported from it), so that the traced run's wrappers see them.
"""

import contextlib
import io
import json
import math
import pathlib
import random
import re
import shutil
from collections import Counter

from conify import cli, conic, dcp, dsl, oracle, problem, reduce

import kchain

ROOT = pathlib.Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"


class OpFailed(Exception):
    """An op's output differs from what its workload expects."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise OpFailed(message)


def _step_counts(schemas) -> dict[str, int]:
    families = Counter()
    for schema in schemas:
        family = next(f for f in ("linearize", "graph_expand", "eliminate_redundant") if schema.startswith(f))
        families[f"steps.{family}"] += 1
    return dict(families)


def _conic_size(cp) -> int:
    return len(cp.variables) + cp.A.shape[0] + cp.G.shape[0]


# --- corpus-loop ---------------------------------------------------------------


def _cli(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def _cone_file_size(text: str) -> tuple[int, int, int]:
    """Variables, equality rows and cone rows named by a .cone file's headers."""
    nvars = int(re.search(r"^VARS (\d+)$", text, re.M)[1])
    eq_rows = int(re.search(r"^EQ (\d+)$", text, re.M)[1])
    cone_rows = sum(
        3 if kind == "EXP" else int(dim)
        for kind, dim in re.findall(r"^CONE (\w+) ?(\d*)$", text, re.M)
    )
    return nvars, eq_rows, cone_rows


class CorpusLoop:
    """Every corpus file through the CLI, as a user runs it."""

    def __init__(self, seed: int, workdir: pathlib.Path):
        self.rng = random.Random(seed)
        self.manifest = json.loads((CORPUS / "manifest.json").read_text())
        self.files = sorted(self.manifest)
        on_disk = sorted(p.name for p in CORPUS.glob("*.opt"))
        expect(len(self.files) == 15 and on_disk == self.files, f"corpus files {on_disk}")
        for name in self.files:
            shutil.copy(CORPUS / name, workdir / name)
        self.workdir = workdir

    def next_pass(self) -> list[str]:
        order = list(self.files)
        self.rng.shuffle(order)
        return order

    def run_op(self, name: str) -> dict:
        meta = self.manifest[name]
        src = self.workdir / name
        code, _, err = _cli("check", src)
        expect(code == (0 if meta["conformant"] else 1), f"check exited {code}")
        if not meta["conformant"]:
            failing = [int(i) for i in re.findall(r"^constraint #(\d+):", err, re.M)]
            first = min(failing, default=None)
            expect(first == meta["failing_index"], f"first failing constraint {first}")
            return {"conic_size": 0}

        params = [arg for k, v in meta.get("params", {}).items() for arg in ("--param", f"{k}={v}")]
        code, _, err = _cli("canon", src, *params)
        if not meta["canonizable"]:
            expect(code == 1, f"canon exited {code} on a non-canonizable problem")
            return {"conic_size": 0}
        expect(code == 0, f"canon exited {code}: {err.strip()}")

        cone, trace, sol = (src.with_suffix(s) for s in (".cone", ".trace", ".sol"))
        schemas = re.findall(r"^STEP \d+ (\w+)", trace.read_text(), re.M)
        expect(len(schemas) == meta["steps"], f"trace has {len(schemas)} steps")
        nvars, eq_rows, cone_rows = _cone_file_size(cone.read_text())

        solve = ["solve-oracle", cone, "--res", meta["res"], "--tol", "1e-7", "--out", sol]
        for var, (lo, hi) in meta["boxes"].items():
            solve += ["--box", f"{var}={lo}:{hi}"]
        if meta["eliminate"]:
            solve += ["--eliminate", "auto"]
        code, out, err = _cli(*solve)
        expect(code == 0, f"solve-oracle exited {code}: {err.strip()}")
        feasible = int(re.search(r"\((\d+) feasible lattice points\)", out)[1])

        code, out, err = _cli("verify", src, trace, sol, *params)
        expect(code == 0 and out.rstrip().endswith("OK"), f"verify exited {code}: {err.strip()}")
        return {
            "conic_size": nvars + eq_rows + cone_rows,
            **_step_counts(schemas),
            "points": meta["res"] ** (nvars - bool(meta["eliminate"])),
            "feasible": feasible,
        }


# --- kchain --------------------------------------------------------------------


class KChain:
    """The k-chain family through reduction, emission and both file formats."""

    def __init__(self, seed: int, workdir: pathlib.Path):
        self.rng = random.Random(seed)
        chain1 = dsl.parse((CORPUS / "chain1.opt").read_text())
        expect(dsl.parse(kchain.chain_text(1)) == chain1, "k=1 chain differs from corpus/chain1.opt")
        self.inputs = {k: (kchain.chain_text(k), kchain.seeded_params(self.rng)) for k in kchain.KS}

    def next_pass(self) -> list[str]:
        order = [f"k={k}" for k in kchain.KS]
        self.rng.shuffle(order)
        return order

    def run_op(self, key: str) -> dict:
        k = int(key[2:])
        text, params = self.inputs[k]
        p = dsl.parse(text)
        expect(dcp.dcp_check(p).conformant, "not DCP-conformant")
        trace = reduce.reduce_problem(p)
        cp = conic.emit(trace.final, params)
        back = conic.read_conic(conic.write_conic(cp))
        replay = reduce.read_trace(reduce.write_trace(trace), p)
        expect(len(trace.steps) == kchain.expected_steps(k), f"{len(trace.steps)} reduction steps")
        expect(back == cp, "read_conic(write_conic(cp)) differs from cp")
        expect(replay.final == trace.final, "replayed trace reaches another final problem")
        expect(len(cp.blocks) == 4 * k, f"{len(cp.blocks)} cone blocks")
        expect(cp.A.shape[0] == k, f"{cp.A.shape[0]} equality rows")
        return {"conic_size": _conic_size(cp), **_step_counts(s.schema for s in trace.steps)}


# --- lattice -------------------------------------------------------------------

# Acceptance criterion 4: per (a, b, c, d), the original scan's point, value
# and feasible count, then the feasible count both criterion-4 scans share.
GOLDEN = {
    (1.0, 1.0, 1.0, 1.0): (1.28, -0.28, 1.28, 273, 4298607),
    (2.0, 1.0, 1.0, 3.0): (1.41, 0.18000000000000016, 1.41, 210, 3580301),
    (1.0, 2.0, 1.0, 1.0): (0.86, 0.07, 0.86, 315, 4892835),
}
CHAIN_BOX = oracle.SearchBox.uniform(("x",), 0.0, 4.0, 401).with_axis("y", -4.0, 2.0, 401)


class Lattice:
    """Criterion 4's three scans per parameter tuple: expression trees on the
    original problem, cone matrices, and expression trees on the final one."""

    def __init__(self, seed: int, workdir: pathlib.Path):
        self.chain1 = dsl.parse((CORPUS / "chain1.opt").read_text())
        self.trace = reduce.reduce_problem(self.chain1)
        self.order = [",".join(f"{n}={v}" for n, v in zip("abcd", t)) for t in GOLDEN]
        random.Random(seed).shuffle(self.order)
        self.done = 0

    def next_pass(self) -> list[str]:
        # The untimed warm-up pass and the first measured pass take the same
        # tuple.  Peak RSS grows on a process's second op by an amount that
        # depends on which tuple came first; a repeat always gives the same.
        key = self.order[max(self.done - 1, 0) % len(self.order)]
        self.done += 1
        return [key]

    def run_op(self, key: str) -> dict:
        params = {n: float(v) for n, v in (item.split("=") for item in key.split(","))}
        gx, gy, gval, gcount, gscan = GOLDEN[tuple(params.values())]
        orig = oracle.grid_minimize(self.chain1, params, CHAIN_BOX, eliminate="y")
        expect((orig.point["x"], orig.point["y"], orig.value, orig.feasible_count) == (gx, gy, gval, gcount),
               f"original scan gave {orig}")

        cp = conic.emit(self.trace.final, params)
        center = reduce.forward_map(self.trace, {**orig.point, **params})
        box = CHAIN_BOX
        for t in ("t1", "t2", "t3"):
            box = box.with_axis(t, center[t] - 0.25, center[t] + 0.25, 51)
        cone = oracle.grid_minimize_conic(cp, box, eliminate="y")
        tree = oracle.grid_minimize(self.trace.final, params, box, eliminate="y")
        expect(cone.value == tree.value and cone.point == tree.point,
               f"conic scan {cone.value} at {cone.point}, expression scan {tree.value} at {tree.point}")
        expect(cone.feasible_count == tree.feasible_count == gscan,
               f"feasible counts {cone.feasible_count} and {tree.feasible_count}, expected {gscan}")
        expect(abs(cone.value - orig.value) <= params["c"] * 0.02 + 1e-12, f"conic optimum {cone.value}")
        back = {"x": cone.point["x"], "y": cone.point["y"], **params}
        expect(problem.check_feasible(self.chain1, back, tol=1e-5).feasible, "backmapped point infeasible")
        scan = math.prod(ax.points for ax in box.axes if ax.name != "y")
        return {
            "conic_size": _conic_size(cp),
            "points": CHAIN_BOX.axis("x").points + 2 * scan,
            "feasible": orig.feasible_count + cone.feasible_count + tree.feasible_count,
        }


WORKLOADS = {"corpus-loop": CorpusLoop, "kchain": KChain, "lattice": Lattice}


# --- layers the traced run wraps -----------------------------------------------


def _count_steps(counts, arguments, trace) -> None:
    for name, n in _step_counts(s.schema for s in trace.steps).items():
        counts[f"reduce.{name}"] += n


def _count_checked(counts, arguments, report) -> None:
    counts["reduce.verify.checked"] += report.backward_checked + report.forward_checked


def _count_rows(counts, arguments, cp) -> None:
    counts["conic.rows"] += cp.A.shape[0] + cp.G.shape[0]


def _count_sample_call(counts, arguments, points) -> None:
    counts["oracle.sample_feasible.calls"] += 1


def _count_scan(counts, points: int, result) -> None:
    counts["oracle.points"] += points
    counts["oracle.feasible"] += result.feasible_count


def _count_grid(counts, arguments, result) -> None:
    eliminated = arguments["eliminate"]
    if eliminated == "auto":
        eliminated = oracle.find_elimination(arguments["p"], arguments["params"]).var
    box = arguments["box"]
    _count_scan(counts, math.prod(ax.points for ax in box.axes if ax.name != eliminated), result)


def _count_grid_conic(counts, arguments, result) -> None:
    cp, box, eliminated = arguments["cp"], arguments["box"], arguments["eliminate"]
    if eliminated == "auto":
        row = abs(cp.A[0])
        eliminated = cp.variables[int((row == row.max()).nonzero()[0][-1])]
    _count_scan(counts, math.prod(box.axis(v).points for v in cp.variables if v != eliminated), result)


def layer_targets() -> list:
    """(function, span name, count) for every wrapped conify function.

    `atoms` is reached only through dcp and reduce and gets no span.  The
    CLI span is named after its subcommand, so its self time is argparse,
    file I/O and printing.
    """
    return [
        (cli.main, lambda args: f"cli.{args[0][0]}", None),
        (dsl.parse, "dsl.parse", None),
        (dcp.dcp_check, "dcp.dcp_check", None),
        (reduce.reduce_problem, "reduce.reduce_problem", _count_steps),
        (reduce.write_trace, "reduce.write_trace", None),
        (reduce.read_trace, "reduce.read_trace", None),
        (reduce.verify_trace_sampled, "reduce.verify_trace_sampled", _count_checked),
        (conic.emit, "conic.emit", _count_rows),
        (conic.write_conic, "conic.write_conic", None),
        (conic.read_conic, "conic.read_conic", None),
        (conic.check_primal, "conic.check_primal", None),
        (oracle.grid_minimize, "oracle.grid_minimize", _count_grid),
        (oracle.grid_minimize_conic, "oracle.grid_minimize_conic", _count_grid_conic),
        (oracle.sample_feasible, "oracle.sample_feasible", _count_sample_call),
        (problem.check_feasible, "problem.check_feasible", None),
    ]


LAYER_MODULES = (cli, conic, dcp, dsl, oracle, problem, reduce)
