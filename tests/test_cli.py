import pathlib
import shutil

import numpy as np
import pytest

from conify.cli import main
from conify.conic import SolutionFile, emit, read_conic, write_solution
from conify.dsl import parse
from conify.reduce import read_trace

CORPUS = pathlib.Path(__file__).resolve().parents[1] / "corpus"
UNIT_ARGS = ["--param", "a=1", "--param", "b=1", "--param", "c=1", "--param", "d=1"]


@pytest.fixture
def chain_file(tmp_path):
    dst = tmp_path / "chain1.opt"
    shutil.copy(CORPUS / "chain1.opt", dst)
    return dst


def canon_chain(tmp_path, chain_file):
    out = tmp_path / "chain1.cone"
    trace = tmp_path / "chain1.trace"
    code = main(
        ["canon", str(chain_file), *UNIT_ARGS, "--samples", "25",
         "--out", str(out), "--trace", str(trace)]
    )
    assert code == 0
    return out, trace


class TestCheck:
    def test_conformant_problem(self, capsys):
        assert main(["check", str(CORPUS / "chain1.opt")]) == 0
        out = capsys.readouterr().out
        assert "DCP: conformant" in out
        assert "objective" in out

    def test_nonconformant_problem(self, capsys):
        assert main(["check", str(CORPUS / "mirrored.opt")]) == 1
        captured = capsys.readouterr()
        assert "DCP: not conformant" in captured.out
        assert "constraint #0" in captured.err

    def test_parse_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.opt"
        bad.write_text("minimization\n!vars x\n!objective x + )\n")
        assert main(["check", str(bad)]) == 2
        assert "bad.opt:3:" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "nope.opt")]) == 2
        assert "error" in capsys.readouterr().err


class TestCanon:
    def test_writes_cone_and_trace(self, tmp_path, chain_file, capsys):
        out, trace = canon_chain(tmp_path, chain_file)
        printed = capsys.readouterr().out
        assert "wrote" in printed and "blocks" in printed
        cp = read_conic(out.read_text())
        assert len(cp.variables) == 5
        tr = read_trace(trace.read_text(), parse(chain_file.read_text()))
        assert len(tr.steps) == 4

    def test_default_output_paths(self, tmp_path, chain_file):
        assert main(["canon", str(chain_file), *UNIT_ARGS, "--samples", "10"]) == 0
        assert (tmp_path / "chain1.cone").exists()
        assert (tmp_path / "chain1.trace").exists()

    def test_skip_verify(self, tmp_path, chain_file):
        code = main(["canon", str(chain_file), *UNIT_ARGS, "--skip-verify"])
        assert code == 0

    def test_unbound_parameter_fails(self, tmp_path, chain_file, capsys):
        code = main(["canon", str(chain_file), "--param", "a=1", "--skip-verify"])
        assert code == 1
        assert "unbound parameter" in capsys.readouterr().err

    def test_nonconformant_input_fails(self, capsys, tmp_path):
        src = tmp_path / "m.opt"
        shutil.copy(CORPUS / "mirrored.opt", src)
        assert main(["canon", str(src)]) == 1
        assert "not DCP-conformant" in capsys.readouterr().err

    def test_missing_domain_fact_fails(self, capsys, tmp_path):
        src = tmp_path / "n.opt"
        shutil.copy(CORPUS / "log_nofact.opt", src)
        assert main(["canon", str(src)]) == 1
        assert "needs 0 < x" in capsys.readouterr().err

    def test_bad_param_syntax_exits_two(self, chain_file, capsys):
        assert main(["canon", str(chain_file), "--param", "a"]) == 2
        assert "expected name=value" in capsys.readouterr().err


class TestStep:
    def test_linearize_prints_next_problem(self, capsys):
        code = main(
            ["step", str(CORPUS / "chain1.opt"), "--schema", "linearize",
             "--path", "c0/lhs"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "t1 <= log(a * sqrt(x) + b)" in out
        assert "exp(y) <= t1" in out

    def test_graph_expand_without_impl_fails(self, capsys):
        code = main(
            ["step", str(CORPUS / "chain1.opt"), "--schema", "graph_expand",
             "--path", "c0/lhs"]
        )
        assert code == 1
        assert "NoGraphImpl" in capsys.readouterr().err

    def test_eliminate_with_drop(self, capsys, tmp_path):
        src = tmp_path / "p.opt"
        src.write_text(
            "minimization\n!vars x t\n!objective x\n!constraints\n"
            "t ^ 2 <= x, 0 <= x\n"
        )
        code = main(["step", str(src), "--schema", "eliminate", "--drop", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 <= x" not in out

    def test_unprovable_drop_fails(self, capsys, tmp_path):
        src = tmp_path / "p.opt"
        src.write_text(
            "minimization\n!vars x\n!objective x\n!constraints\nx <= 5\n"
        )
        code = main(["step", str(src), "--schema", "eliminate", "--drop", "0"])
        assert code == 1
        assert "NotProvablyRedundant" in capsys.readouterr().err

    def test_graph_expand_keeps_other_polarity(self, capsys, tmp_path):
        src = tmp_path / "p.opt"
        src.write_text(
            "minimization\n!vars x\n!objective x\n!constraints\n"
            "1 <= sqrt(x), sqrt(x) <= 2, 0 <= x\n"
        )
        code = main(["step", str(src), "--schema", "graph_expand", "--path", "c0/rhs"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sqrt(x) <= 2" in out and "t1 <= 2" not in out

    def test_malformed_path_exits_two(self, capsys):
        code = main(
            ["step", str(CORPUS / "chain1.opt"), "--schema", "linearize",
             "--path", "nowhere"]
        )
        assert code == 2


class TestSolveOracle:
    def test_chain_problem_with_elimination(self, chain_file, capsys):
        code = main(
            ["solve-oracle", str(chain_file), *UNIT_ARGS,
             "--box", "x=0:4", "--box", "y=-4:2", "--res", "401",
             "--eliminate", "y"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "minimum 1.28 at" in out
        assert "x=1.28" in out
        # the primal lands next to the input by default
        assert chain_file.with_suffix(".sol").exists()

    def test_writes_solution_file(self, tmp_path, capsys):
        sol = tmp_path / "lp.sol"
        code = main(
            ["solve-oracle", str(CORPUS / "lp_box.opt"),
             "--box", "x=-2:2", "--box", "y=-2:2", "--res", "41",
             "--eliminate", "y", "--out", str(sol)]
        )
        assert code == 0
        assert sol.exists() and sol.read_text().startswith("SOLUTION 1")

    def test_reads_conic_files(self, tmp_path, chain_file, capsys):
        out, _ = canon_chain(tmp_path, chain_file)
        capsys.readouterr()
        code = main(
            ["solve-oracle", str(out),
             "--box", "x=1:1.5", "--box", "y=-0.5:0", "--box", "t1=0.5:1",
             "--box", "t2=1:1.3", "--box", "t3=0.5:1",
             "--res", "11", "--eliminate", "y"]
        )
        assert code == 0
        assert "minimum" in capsys.readouterr().out

    def test_infeasible_box_fails(self, capsys):
        code = main(
            ["solve-oracle", str(CORPUS / "exp_budget.opt"),
             "--box", "x=5:9", "--res", "5"]
        )
        assert code == 1
        assert "infeasible on grid" in capsys.readouterr().err

    def test_unknown_box_variable_exits_two(self, capsys):
        code = main(
            ["solve-oracle", str(CORPUS / "exp_budget.opt"),
             "--box", "z=0:1"]
        )
        assert code == 2

    def test_unbound_parameter_fails(self, capsys):
        code = main(
            ["solve-oracle", str(CORPUS / "chain1.opt"),
             "--box", "x=0:4", "--box", "y=-4:2", "--res", "11"]
        )
        assert code == 1
        assert "unbound parameter a" in capsys.readouterr().err


class TestVerify:
    def make_artifacts(self, tmp_path, chain_file, capsys):
        cone, trace = canon_chain(tmp_path, chain_file)
        sol = tmp_path / "chain1.sol"
        code = main(
            ["solve-oracle", str(cone),
             "--box", "x=1:1.5", "--box", "y=-0.5:0", "--box", "t1=0.5:1",
             "--box", "t2=1:1.3", "--box", "t3=0.5:1",
             "--res", "11", "--eliminate", "y", "--tol", "1e-7",
             "--out", str(sol)]
        )
        assert code == 0
        capsys.readouterr()
        return trace, sol

    def test_end_to_end_ok(self, tmp_path, chain_file, capsys):
        trace, sol = self.make_artifacts(tmp_path, chain_file, capsys)
        code = main(
            ["verify", str(chain_file), str(trace), str(sol), *UNIT_ARGS]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "OK" in out and "objective" in out

    def test_perturbed_primal_fails(self, tmp_path, chain_file, capsys):
        trace, sol = self.make_artifacts(tmp_path, chain_file, capsys)
        from conify.conic import read_solution

        parsed = read_solution(sol.read_text())
        worse = parsed.primal.copy()
        worse[0] += 0.5  # breaks the equality row
        sol.write_text(write_solution(SolutionFile(worse, None, None)))
        code = main(
            ["verify", str(chain_file), str(trace), str(sol), *UNIT_ARGS]
        )
        assert code == 1
        assert "FAIL primal" in capsys.readouterr().err

    def test_wrong_primal_length_fails(self, tmp_path, chain_file, capsys):
        trace, sol = self.make_artifacts(tmp_path, chain_file, capsys)
        sol.write_text(write_solution(SolutionFile(np.array([1.0, 2.0]), None, None)))
        code = main(
            ["verify", str(chain_file), str(trace), str(sol), *UNIT_ARGS]
        )
        assert code == 1

    def test_accepts_valid_dual_certificate(self, tmp_path, chain_file, capsys):
        trace, sol = self.make_artifacts(tmp_path, chain_file, capsys)
        from conify.conic import read_solution

        parsed = read_solution(sol.read_text())
        # weight 1 on both leading SOC rows satisfies c = A~y + G~z
        # with y = 0 and certifies the bound h.z = 0
        z = np.zeros(10)
        z[4] = z[5] = 1.0
        sol.write_text(write_solution(SolutionFile(parsed.primal, np.zeros(1), z)))
        code = main(
            ["verify", str(chain_file), str(trace), str(sol), *UNIT_ARGS]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bound" in out and "gap" in out

    def test_broken_dual_reports_stationarity(self, tmp_path, chain_file, capsys):
        trace, sol = self.make_artifacts(tmp_path, chain_file, capsys)
        from conify.conic import read_solution

        parsed = read_solution(sol.read_text())
        cp = read_conic((tmp_path / "chain1.cone").read_text())
        y = np.full(cp.A.shape[0], 5.0)
        z = np.zeros(sum(b.dim for b in cp.blocks))
        sol.write_text(write_solution(SolutionFile(parsed.primal, y, z)))
        code = main(
            ["verify", str(chain_file), str(trace), str(sol), *UNIT_ARGS]
        )
        assert code == 1
        assert "stationarity" in capsys.readouterr().err

    def test_garbage_solution_exits_two(self, tmp_path, chain_file, capsys):
        trace, _ = self.make_artifacts(tmp_path, chain_file, capsys)
        bad = tmp_path / "bad.sol"
        bad.write_text("SOLUTION 9\n")
        code = main(
            ["verify", str(chain_file), str(trace), str(bad), *UNIT_ARGS]
        )
        assert code == 2

    @pytest.mark.parametrize("old,new", [("DEF exp(y)", "DEF exp((y)"), ("AT c0/lhs", "AT c0/zz")])
    def test_malformed_trace_exits_two(self, tmp_path, chain_file, capsys, old, new):
        trace, sol = self.make_artifacts(tmp_path, chain_file, capsys)
        text = trace.read_text()
        assert old in text
        trace.write_text(text.replace(old, new, 1))
        code = main(["verify", str(chain_file), str(trace), str(sol), *UNIT_ARGS])
        assert code == 2
        assert "trace: step line 'STEP 1 " in capsys.readouterr().err

    def test_unreadable_solution_number_exits_two(self, tmp_path, chain_file, capsys):
        trace, _ = self.make_artifacts(tmp_path, chain_file, capsys)
        bad = tmp_path / "bad.sol"
        bad.write_text("SOLUTION 1\nPRIMAL 1.0 abc\nEND\n")
        code = main(
            ["verify", str(chain_file), str(trace), str(bad), *UNIT_ARGS]
        )
        assert code == 2
        assert "line 2" in capsys.readouterr().err


class TestCorpusPipeline:
    """canon, solve-oracle, and verify chain cleanly on every canonizable entry."""

    def test_canon_solve_verify_loop(self, tmp_path, manifest, capsys):
        ran = 0
        for name, meta in manifest.items():
            if not meta.get("canonizable"):
                continue
            ran += 1
            src = tmp_path / name
            shutil.copy(CORPUS / name, src)
            param_args = []
            for k, v in meta["params"].items():
                param_args += ["--param", f"{k}={v}"]
            cone = src.with_suffix(".cone")
            trace = src.with_suffix(".trace")
            assert main(["canon", str(src), *param_args, "--samples", "25"]) == 0, name

            box_args = []
            for var, (lo, hi) in meta["boxes"].items():
                box_args += ["--box", f"{var}={lo}:{hi}"]
            sol = src.with_suffix(".sol")
            solve = ["solve-oracle", str(cone), *box_args,
                     "--res", str(meta["res"]), "--tol", "1e-7", "--out", str(sol)]
            if meta["eliminate"]:
                solve += ["--eliminate", "auto"]
            assert main(solve) == 0, name

            code = main(["verify", str(src), str(trace), str(sol), *param_args])
            captured = capsys.readouterr()
            assert code == 0, (name, captured.err)
            assert "OK" in captured.out
        assert ran == 10
