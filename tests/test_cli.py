import dataclasses
import os
import pathlib
import random
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import conify
from conify import cli, oracle
from conify.cli import main
from conify.conic import ConeBlock, ConicProblem, SolutionFile, emit, read_conic, write_conic, write_solution
from conify.dsl import parse
from conify.reduce import read_trace

CORPUS = pathlib.Path(__file__).resolve().parents[1] / "corpus"
UNIT_ARGS = ["--param", "a=1", "--param", "b=1", "--param", "c=1", "--param", "d=1"]
# The constant side leaves sqrt's domain, so folding it to a number fails.
UNDEFINED_CONSTANT = "minimization\n!vars x y\n!objective x\n!constraints\nx + y = sqrt(0 - 2), 0 <= x, x <= 1\n"
SQRT_MESSAGE = "constant sqrt(0 - 2) is undefined: sqrt applied outside its domain (argument -2.0)"


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

    @pytest.mark.parametrize("lhs", ["x / 0", "exp(x) / 0"])
    def test_zero_divisor_is_unknown(self, tmp_path, capsys, lhs):
        src = tmp_path / "div.opt"
        src.write_text(f"minimization\n!vars x y\n!objective y\n!constraints\n{lhs} <= y\n")
        assert main(["check", str(src)]) == 1
        assert capsys.readouterr().err == f"constraint #0: required convex, got unknown at {lhs}\n"

    def test_parse_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.opt"
        bad.write_text("minimization\n!vars x\n!objective x + )\n")
        assert main(["check", str(bad)]) == 2
        assert "bad.opt:3:" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "nope.opt")]) == 2
        assert "error" in capsys.readouterr().err

    def test_files_are_utf8_whatever_the_locale(self, tmp_path):
        # Under the C locale without UTF-8 mode, Python's default encoding is
        # ASCII; a comment with an accent still reads, and canon writes
        src = tmp_path / "accent.opt"
        src.write_bytes("# café\nminimization\n!vars x\n!objective x\n!constraints\n1 <= x\n".encode())
        script = (
            "import codecs, locale\n"
            "from conify.cli import main\n"
            "default = codecs.lookup(locale.getpreferredencoding(False)).name\n"
            "print(default, main(['check', 'accent.opt']), main(['canon', 'accent.opt']))\n"
        )
        root = str(pathlib.Path(conify.__file__).resolve().parents[1])
        env = {
            **os.environ,
            "LC_ALL": "C",
            "PYTHONUTF8": "0",
            "PYTHONCOERCECLOCALE": "0",
            "PYTHONPATH": os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")])),
        }
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert "DCP: conformant" in done.stdout
        assert done.stdout.splitlines()[-1] == "ascii 0 0"
        assert read_conic((tmp_path / "accent.cone").read_text(encoding="utf-8")).variables == ("x",)


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

    def test_sampling_imports_neither_numpy_random_nor_hashlib(self, tmp_path, chain_file):
        # The sampler's own stream keeps numpy.random, and the hashlib and
        # OpenSSL modules it loads, out of a canon process.
        script = (
            "import sys\n"
            "from conify.cli import main\n"
            f"code = main(['canon', {str(chain_file)!r}, *{UNIT_ARGS!r}])\n"
            "print(code, 'numpy.random' in sys.modules, 'hashlib' in sys.modules)\n"
        )
        src = str(pathlib.Path(conify.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert "trace verified on 200 backward and 200 forward samples" in done.stdout
        assert done.stdout.splitlines()[-1] == "0 False False"

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

    def test_undefined_constant_fails_in_one_line(self, tmp_path, capsys):
        src = tmp_path / "dom.opt"
        src.write_text(UNDEFINED_CONSTANT)
        assert main(["canon", str(src)]) == 1
        assert capsys.readouterr().err == SQRT_MESSAGE + "\n"

    def test_zero_times_convex_is_linearized(self, tmp_path, capsys):
        src = tmp_path / "zero.opt"
        src.write_text("minimization\n!vars x y\n!objective y\n!constraints\n0 * exp(x) <= y, 0 <= x, x <= 1\n")
        assert main(["canon", str(src)]) == 0
        assert "trace verified on 200 backward and 200 forward samples" in capsys.readouterr().out
        step = "STEP 1 linearize_antimono AT c0/lhs/1 FRESH t1 DEF exp(x) ADD exp(x) <= t1"
        assert (tmp_path / "zero.trace").read_text().splitlines()[1] == step

    def test_zero_parameter_divisor_named(self, tmp_path, capsys):
        src = tmp_path / "p.opt"
        src.write_text("minimization\n!params p\n!vars x y\n!objective y\n!constraints\nx / p <= y, 0 <= x, x <= 1\n")
        assert main(["canon", str(src), "--param", "p=0"]) == 1
        assert capsys.readouterr().err == "divisor p is zero: div applied outside its domain (argument 0.0)\n"

    @pytest.mark.parametrize("constraints", ["0 * x * y <= 1, -1 <= x", "abs(0 * y) <= x, x <= 1"])
    def test_constant_with_a_variable_term_emits(self, tmp_path, capsys, constraints):
        # dcp types 0 * x * y and abs(0 * y) constant, and so does emit
        src = tmp_path / "zero.opt"
        src.write_text(f"minimization\n!vars x y\n!objective x\n!constraints\n{constraints}\n")
        assert main(["check", str(src)]) == 0
        assert main(["canon", str(src)]) == 0
        assert "trace verified on 200 backward and 200 forward samples" in capsys.readouterr().out

    @pytest.mark.parametrize("option", ["--out", "--trace"])
    def test_unwritable_output_exits_two(self, tmp_path, chain_file, capsys, option):
        bad = tmp_path / "no" / "such" / "dir" / "x"
        assert main(["canon", str(chain_file), *UNIT_ARGS, "--skip-verify", option, str(bad)]) == 2
        assert capsys.readouterr().err == f"error: cannot write {bad}: No such file or directory\n"

    def test_default_output_over_the_problem_exits_two(self, tmp_path, chain_file, capsys):
        # an .opt text named .cone: the default conic output is the problem file
        src = tmp_path / "p.cone"
        shutil.copy(chain_file, src)
        assert main(["canon", str(src), *UNIT_ARGS, "--skip-verify"]) == 2
        assert capsys.readouterr().err == f"error: conic output {src} would overwrite the problem file\n"
        assert src.read_text() == chain_file.read_text()
        assert not src.with_suffix(".trace").exists()

    def test_both_outputs_on_one_path_exit_two(self, tmp_path, chain_file, capsys):
        text, both = chain_file.read_text(), tmp_path / "x"
        argv = ["canon", str(chain_file), *UNIT_ARGS, "--skip-verify", "--out", str(both), "--trace", str(both)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: trace output {both} would overwrite the conic output\n"
        assert chain_file.read_text() == text and not both.exists()

    @pytest.mark.parametrize("samples", ["-1", "0"])
    def test_no_samples_exits_two(self, chain_file, capsys, samples):
        assert main(["canon", str(chain_file), *UNIT_ARGS, "--samples", samples]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad --samples {samples}") and "--skip-verify" in err
        assert not chain_file.with_suffix(".cone").exists()


    def test_chained_transitive_drops_canonize_and_verify(self, tmp_path, capsys):
        src = tmp_path / "tr.opt"
        src.write_text(
            "minimization\n!vars x y z u\n!objective x\n!constraints\nx <= y, z <= y, x <= z, x <= u, u <= z\n"
        )
        assert main(["canon", str(src)]) == 0
        assert "trace verified on 200 backward and 200 forward samples\n" in capsys.readouterr().out
        assert (tmp_path / "tr.trace").read_text() == "TRACE 1\nSTEP 1 eliminate_redundant REMOVE 2\nEND\n"
        assert main(["solve-oracle", str(tmp_path / "tr.cone"), "--res", "3"]) == 0
        assert main(["verify", str(src), str(tmp_path / "tr.trace"), str(tmp_path / "tr.sol")]) == 0
        assert capsys.readouterr().out.endswith("OK\n")


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

    def test_full_schema_name_must_be_the_step_produced(self, capsys):
        argv = ["step", str(CORPUS / "chain1.opt"), "--path", "c0/rhs/0/0/1", "--schema"]
        assert main([*argv, "graph_expand_convex"]) == 1
        assert "is graph_expand_concave, not graph_expand_convex" in capsys.readouterr().err
        assert main([*argv, "graph_expand_concave"]) == 0

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

    @pytest.mark.parametrize("drop", ["\u0661", "+0", "-1", "1,", "1 2"])
    def test_drop_indices_are_ascii_digits(self, capsys, tmp_path, drop):
        src = tmp_path / "p.opt"
        src.write_text("minimization\n!vars x t\n!objective x\n!constraints\nt ^ 2 <= x, 0 <= x, 0 <= x\n")
        assert main(["step", str(src), "--schema", "eliminate", "--drop", drop]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"error: bad --drop {drop!r}, expected indices like 2,3\n"

    def test_drop_indices_may_be_spaced(self, capsys, tmp_path):
        src = tmp_path / "p.opt"
        src.write_text("minimization\n!vars x t\n!objective x\n!constraints\nt ^ 2 <= x, 0 <= x, 0 <= x\n")
        assert main(["step", str(src), "--schema", "eliminate", "--drop", " 1, 2"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].strip() == "t ^ 2 <= x"

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

    def test_drop_without_eliminate_exits_two(self, capsys):
        argv = ["step", str(CORPUS / "chain1.opt"), "--schema", "linearize", "--path", "c0/rhs", "--drop", "1"]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == "error: bad --drop '1': only eliminate reads it\n"

    def test_path_with_eliminate_exits_two(self, capsys):
        argv = ["step", str(CORPUS / "chain1.opt"), "--schema", "eliminate", "--path", "c0/rhs", "--drop", "1"]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == "error: bad --path 'c0/rhs': eliminate does not read it\n"

    def test_malformed_path_exits_two(self, capsys):
        code = main(
            ["step", str(CORPUS / "chain1.opt"), "--schema", "linearize",
             "--path", "nowhere"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "path,code,message",
        [
            ("c0/lhs/5/5", 1, "path does not resolve in this problem\n"),
            ("c-1/rhs", 2, "error: bad occurrence path 'c-1/rhs'"),
            ("c3/rhs/0/-1", 2, "error: bad occurrence path 'c3/rhs/0/-1'"),
        ],
        ids=["leaves-the-expression", "negative-constraint", "negative-argument"],
    )
    def test_path_outside_the_problem(self, capsys, path, code, message):
        argv = ["step", str(CORPUS / "chain1.opt"), "--schema", "linearize", "--path", path]
        assert main(argv) == code
        assert capsys.readouterr().err.startswith(message)


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

    def test_unwritable_output_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "no" / "x.sol"
        argv = ["solve-oracle", str(CORPUS / "exp_budget.opt"), "--res", "5", "--out", str(bad)]
        assert main(argv) == 2
        assert capsys.readouterr().err.endswith(f"error: cannot write {bad}: No such file or directory\n")

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

    def test_lattice_past_int64_fails_in_one_line(self, tmp_path, capsys):
        src = tmp_path / "big.opt"
        src.write_text("minimization\n!vars x a b c d e\n!objective x\n!constraints\nx >= 0\n")
        assert main(["solve-oracle", str(src), "--res", "2001"]) == 1
        out = capsys.readouterr()
        assert out.err == f"the lattice has {2001**6} points; a scan counts at most 2**63 - 1\n"
        assert not src.with_suffix(".sol").exists()

    def test_eliminates_past_a_zero_product(self, tmp_path, capsys):
        # x * 0 * y is constant, so the equality is x = 1
        src = tmp_path / "zero.opt"
        src.write_text("minimization\n!vars x y\n!objective x\n!constraints\nx * 0 * y + x = 1, -3 <= y, y <= 3\n")
        argv = ["solve-oracle", str(src), "--eliminate", "auto", "--box", "y=-3:3", "--res", "3"]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("minimum 1.0 at x=1.0, y=-3.0 (3 feasible lattice points)")

    @pytest.mark.parametrize("link", [False, True], ids=["same-path", "symlink"])
    def test_output_over_the_problem_exits_two(self, tmp_path, chain_file, capsys, link):
        text, out = chain_file.read_text(), chain_file
        if link:
            out = tmp_path / "link.sol"
            out.symlink_to(chain_file)
        assert main(["solve-oracle", str(chain_file), *UNIT_ARGS, "--res", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: solution output {out} would overwrite the problem file\n"
        assert chain_file.read_text() == text

    def test_allocation_failure_exits_two(self, tmp_path, capsys, monkeypatch):
        # A lattice too large to allocate (such as --res 10000000000) fails
        # in Axis.values; a real allocation of that size would depend on the
        # host's overcommit policy, so the failure is simulated.
        def refuse(self):
            raise MemoryError

        src = tmp_path / "lp_box.opt"
        shutil.copy(CORPUS / "lp_box.opt", src)
        monkeypatch.setattr(oracle.Axis, "values", refuse)
        assert main(["solve-oracle", str(src), "--res", "3", "--eliminate", "auto"]) == 2
        assert capsys.readouterr().err == "error: out of memory\n"
        assert not src.with_suffix(".sol").exists()

    def test_infeasible_box_fails(self, capsys):
        code = main(
            ["solve-oracle", str(CORPUS / "exp_budget.opt"),
             "--box", "x=5:9", "--res", "5"]
        )
        assert code == 1
        assert "infeasible on grid" in capsys.readouterr().err

    @pytest.mark.parametrize("emitted", [False, True])
    def test_unknown_eliminate_variable_fails(self, tmp_path, capsys, emitted):
        src = tmp_path / "lp_box.opt"
        shutil.copy(CORPUS / "lp_box.opt", src)
        if emitted:
            assert main(["canon", str(src), "--skip-verify"]) == 0
            src = src.with_suffix(".cone")
        # an option value the problem cannot use, as an unknown --box name
        code, err = TestUnusableData.run(["solve-oracle", str(src), "--res", "3", "--eliminate", "z"], capsys)
        assert (code, err) == (2, "error: bad --eliminate z, the problem has no variable z\n")
        assert not src.with_suffix(".sol").exists()

    def test_emitted_file_eliminates_from_any_equality_row(self, tmp_path, capsys):
        # z has no term in the first equality row, only in the second.
        src = tmp_path / "two.opt"
        src.write_text("minimization\n!vars x y z\n!objective y + 2 * z\n"
                       "!constraints\nx + y = 1, z - x = 0, 0 <= x, x <= 1\n")
        assert main(["canon", str(src), "--skip-verify"]) == 0
        capsys.readouterr()
        found = []
        for path in (src, src.with_suffix(".cone")):
            argv = ["solve-oracle", str(path), "--box", "x=-2:2", "--box", "y=-2:2", "--box", "z=-2:2",
                    "--res", "41", "--eliminate", "z", "--out", str(tmp_path / "two.sol")]
            assert main(argv) == 0
            found.append(capsys.readouterr().out.splitlines()[0])
        assert found[0] == found[1] == "minimum 1.0 at x=0.0, y=1.0, z=0.0 (11 feasible lattice points)"

    @pytest.mark.parametrize(
        "option",
        [["--box", "x=1:0"], ["--box", "x=nan:1"], ["--res", "1"], ["--res", "-3"], ["--res", "0"]],
        ids=["box-reversed", "box-nan", "res-1", "res-negative", "res-0"],
    )
    def test_out_of_range_option_exits_two(self, tmp_path, capsys, option):
        argv = ["solve-oracle", str(CORPUS / "exp_budget.opt"), *option, "--out", str(tmp_path / "x.sol")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: bad {option[0]} ")

    @pytest.mark.parametrize(
        "names,cone,message",
        [
            ("x", "CONE ORTHANT 0\n", "line 6: cone blocks need dimension >= 1"),
            ("x", "CONE SOC -2\n", "line 6: unreadable cone dimension"),
            ("x", "CONE ORTHANT +1\n1 0\n", "line 6: unreadable cone dimension"),
            ("x", "CONE ORTHANT \u0661\n1 0\n", "line 6: unreadable cone dimension"),
            ("x", "CONE ORTHANT 1 junk\n1 0\n", "line 6: unreadable cone dimension"),
            ("x", "CONE SOC\n", "line 6: unreadable cone dimension"),
            ("x x", "", "line 3: variable names must be distinct"),
        ],
        ids=["orthant-0", "soc-negative", "plus-sign", "arabic-indic-digit", "trailing-word", "soc-missing",
             "repeated-name"],
    )
    def test_malformed_cone_file_exits_two(self, tmp_path, capsys, names, cone, message):
        src = tmp_path / "bad.cone"
        objective = " ".join("1" for _ in names.split())
        src.write_text(f"CONICFORM 1\nVARS {len(names.split())}\n{names}\nOBJ {objective}\nEQ 0\n{cone}END\n")
        assert main(["solve-oracle", str(src), "--res", "3", "--out", str(tmp_path / "bad.sol")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "bad.sol").exists()

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

    def test_undefined_constant_with_elimination_fails_in_one_line(self, tmp_path, capsys):
        src = tmp_path / "dom.opt"
        src.write_text(UNDEFINED_CONSTANT)
        code = main(
            ["solve-oracle", str(src), "--box", "x=0:1", "--box", "y=0:1",
             "--res", "5", "--eliminate", "auto"]
        )
        assert code == 1
        assert capsys.readouterr().err == f"constraint 0 (x + y = sqrt(0 - 2)): {SQRT_MESSAGE}\n"

    def test_repeated_options_do_not_carry_over_between_calls(self, tmp_path, capsys):
        src = tmp_path / "p.opt"
        src.write_text("minimization\n!params a\n!vars x y\n!objective x + y\n!constraints\na <= x, 0 <= y\n")
        base = ["solve-oracle", str(src), "--res", "3", "--box", "y=0:2"]
        assert main([*base, "--param", "a=1", "--box", "x=0:2"]) == 0
        assert "at x=1.0, y=0.0 " in capsys.readouterr().out
        # x back on its default box [-5, 5], with only this call's a.
        assert main([*base, "--param", "a=-5"]) == 0
        assert "at x=-5.0, y=0.0 " in capsys.readouterr().out
        assert main(base) == 1
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

    def test_readme_example(self, tmp_path, chain_file, capsys):
        # README's canon, solve-oracle and verify commands: verify prints
        # README's lines, with Python float reprs and no numpy ones
        cone, trace, sol = (tmp_path / f"chain1.{ext}" for ext in ("cone", "trace", "sol"))
        boxes = ["--box", "x=0:4", "--box", "y=-4:2", "--box", "t1=-4:2", "--box", "t2=0:2", "--box", "t3=-4:2"]
        assert main(["canon", str(chain_file), *UNIT_ARGS, "--samples", "50",
                     "--out", str(cone), "--trace", str(trace)]) == 0
        assert main(["solve-oracle", str(cone), *boxes, "--res", "21", "--eliminate", "auto",
                     "--tol", "1e-7", "--out", str(sol)]) == 0
        capsys.readouterr()
        assert main(["verify", str(chain_file), str(trace), str(sol), *UNIT_ARGS]) == 0
        out = capsys.readouterr().out
        readme = (CORPUS.parent / "README.md").read_text()
        assert out == readme.split("$ conify verify chain1.opt")[1].split("```")[0].split("\n", 1)[1]
        assert "original objective 1.8\n" in out and "np.float64(" not in out

    def test_second_dual_section_exits_two(self, tmp_path, chain_file, capsys):
        trace, sol = self.make_artifacts(tmp_path, chain_file, capsys)
        sol.write_text(sol.read_text().replace("END", "DUAL_EQ 1\nDUAL_EQ 5 6\nEND"))
        assert main(["verify", str(chain_file), str(trace), str(sol), *UNIT_ARGS]) == 2
        assert capsys.readouterr().err == "error: solution: line 4: second DUAL_EQ\n"

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

    def test_dual_bound_is_called_approximate(self, tmp_path, capsys):
        # The residual 5e-8 passes tol, yet x = -1e9 is feasible: the bound
        # -999999950 does not hold, so verify does not call it certified
        src, sol = tmp_path / "lb.opt", tmp_path / "lb.sol"
        src.write_text("minimization\n!vars x\n!objective x\n!constraints\n-1000000000 <= x\n")
        assert main(["canon", str(src), "--skip-verify"]) == 0
        sol.write_text("SOLUTION 1\nPRIMAL 100.0\nDUAL_CONE 0.99999995\nEND\n")
        capsys.readouterr()
        assert main(["verify", str(src), str(tmp_path / "lb.trace"), str(sol)]) == 0
        out = capsys.readouterr().out
        assert "certified" not in out
        assert out.splitlines()[-2:] == [
            "approximate lower bound -999999950.0 (stationarity residual 5.000000002919336e-08), "
            "duality gap 1000000050.0",
            "OK",
        ]

    def test_changed_objective_fails(self, tmp_path, chain_file, capsys, monkeypatch):
        # emit with c doubled: the conic point is feasible and maps back to a
        # feasible point, but the two objectives differ
        trace, sol = self.make_artifacts(tmp_path, chain_file, capsys)
        assert main(["verify", str(chain_file), str(trace), str(sol), *UNIT_ARGS]) == 0
        assert capsys.readouterr().out.endswith("OK\n")

        def doubled(p, params):
            cp = emit(p, params)
            return dataclasses.replace(cp, c=2 * cp.c)

        monkeypatch.setattr(cli, "emit", doubled)
        assert main(["verify", str(chain_file), str(trace), str(sol), *UNIT_ARGS]) == 1
        out = capsys.readouterr()
        conic = float(out.out.split("objective ")[1].split()[0])
        original = float(out.out.split("original objective ")[1].split()[0])
        assert conic == 2 * original != 0
        assert out.err == f"FAIL objective: conic {conic!r}, original {original!r}\n"
        assert "OK" not in out.out

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

    @pytest.mark.parametrize(
        "old,new",
        [
            ("DEF exp(y)", "DEF exp((y)"),
            ("AT c0/lhs", "AT c0/zz"),
            ("STEP 2 ", "STEP 7 "),
            ("STEP 2 graph_expand_concave", "STEP 2 graph_expand_convex"),
            ("STEP 1 linearize_antimono", "STEP 1 linearize"),
            ("ADD exp(y) <= t1\n", "ADD exp(y) <= t1 REMOVE 0\n"),
            (" FRESH t1 DEF exp(y)", ""),
            ("DEF exp(y)", "DEF (exp(y))"),
        ],
    )
    def test_malformed_trace_exits_two(self, tmp_path, chain_file, capsys, old, new):
        trace, sol = self.make_artifacts(tmp_path, chain_file, capsys)
        text = trace.read_text()
        assert old in text
        tampered = text.replace(old, new, 1)
        trace.write_text(tampered)
        code = main(["verify", str(chain_file), str(trace), str(sol), *UNIT_ARGS])
        assert code == 2
        line = tampered.splitlines()[text[: text.index(old)].count("\n")]
        assert line.startswith("STEP ")
        assert f"error: trace: step line {line!r}: " in capsys.readouterr().err

    def test_trace_claim_differing_from_replay_exits_two(self, tmp_path, chain_file, capsys):
        trace, sol = self.make_artifacts(tmp_path, chain_file, capsys)
        trace.write_text(trace.read_text().replace("ADD exp(y) <= t1", "ADD exp(y) <= t1 + 100", 1))
        code = main(["verify", str(chain_file), str(trace), str(sol), *UNIT_ARGS])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: trace: step line 'STEP 1 linearize_antimono AT c0/lhs FRESH t1 DEF exp(y) ADD exp(y) <= t1 + 100': "
            "replay prints 'STEP 1 linearize_antimono AT c0/lhs FRESH t1 DEF exp(y) ADD exp(y) <= t1'\n"
        )

    def test_unreadable_solution_number_exits_two(self, tmp_path, chain_file, capsys):
        trace, _ = self.make_artifacts(tmp_path, chain_file, capsys)
        bad = tmp_path / "bad.sol"
        bad.write_text("SOLUTION 1\nPRIMAL 1.0 abc\nEND\n")
        code = main(
            ["verify", str(chain_file), str(trace), str(bad), *UNIT_ARGS]
        )
        assert code == 2
        assert "line 2" in capsys.readouterr().err


class TestNanAndTol:
    """A nan in a solution file fails its check, and --tol must be a finite
    number >= 0."""

    def files(self, tmp_path, text):
        src = tmp_path / "eq.opt"
        src.write_text("minimization\n!vars x y\n!objective x\n!constraints\nx + y = 1\n")
        assert main(["canon", str(src), "--skip-verify"]) == 0
        sol = tmp_path / "eq.sol"
        sol.write_text(text)
        return [str(src), str(tmp_path / "eq.trace"), str(sol)]

    @pytest.mark.parametrize(
        "lines,message",
        [
            ("PRIMAL 0.5 0.5\nDUAL_EQ nan", "FAIL dual: stationarity residual nan"),
            ("PRIMAL nan 0.5", "FAIL primal: equality row 0 residual nan"),
        ],
        ids=["dual", "primal"],
    )
    def test_nan_solution_fails(self, tmp_path, capsys, lines, message):
        files = self.files(tmp_path, f"SOLUTION 1\n{lines}\nEND\n")
        assert main(["verify", *files]) == 1
        assert capsys.readouterr().err == message + "\n"

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("command", ["canon", "solve-oracle", "verify"])
    def test_tol_must_be_finite_and_nonneg(self, tmp_path, capsys, command, tol):
        files = self.files(tmp_path, "SOLUTION 1\nPRIMAL 0.5 0.5\nEND\n")
        argv = {"canon": files[:1], "solve-oracle": [files[0], "--res", "3"], "verify": files}[command]
        assert main([command, *argv, f"--tol={tol}"]) == 2
        assert capsys.readouterr().err == f"error: bad --tol {float(tol)}, expected a finite number >= 0\n"


class TestUnusableData:
    """A --param value that is not finite or contradicts its declared sign,
    a numeric literal past the float range, a cone file with non-finite
    data, a number that is not one ASCII decimal word, a negative count or
    a keyword that is not exact, and a solution file with a keyword that
    is not exact, such a number or a line after END, exit 2 with
    one line that names the parameter or the line, and no numpy warning;
    coefficients that overflow in emit exit 1 the same way."""

    @staticmethod
    def run(argv, capsys):
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        return code, out.err

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "-1"])
    @pytest.mark.parametrize("command", ["canon", "solve-oracle", "verify"])
    def test_chain_param_a(self, tmp_path, chain_file, capsys, command, value):
        canon_chain(tmp_path, chain_file)
        sol = tmp_path / "chain1.sol"
        sol.write_text("SOLUTION 1\nPRIMAL 1 0 1 1 1\nEND\n")
        given = ["--param", f"a={value}", *UNIT_ARGS[2:]]
        argv = {
            "canon": [str(chain_file), "--skip-verify"],
            "solve-oracle": [str(chain_file), "--res", "3"],
            "verify": [str(chain_file), str(tmp_path / "chain1.trace"), str(sol)],
        }[command]
        code, err = self.run([command, *argv, *given], capsys)
        why = "declared nonneg" if value == "-1" else "expected a finite number"
        assert (code, err) == (2, f"error: bad --param value {value!r} for a, {why}\n")

    @pytest.mark.parametrize(
        "name,value,sign", [("p", "0", "pos"), ("q", "1e-300", "nonpos"), ("r", "0", "neg"), ("r", "-0.0", "neg")]
    )
    def test_declared_signs(self, tmp_path, capsys, name, value, sign):
        src = tmp_path / "signs.opt"
        src.write_text("minimization\n!params p: pos, q: nonpos, r: neg\n!vars x\n!objective x\n"
                       "!constraints\np <= x, x <= 1 - q - r\n")
        given = {"p": "1", "q": "0", "r": "-1", name: value}
        argv = ["canon", str(src), "--skip-verify", *(f"--param={k}={v}" for k, v in given.items())]
        code, err = self.run(argv, capsys)
        assert (code, err) == (2, f"error: bad --param value {value!r} for {name}, declared {sign}\n")
        assert main(["canon", str(src), "--skip-verify", "--param=p=1", "--param=q=-0.0", "--param=r=-1"]) == 0

    @pytest.mark.parametrize(
        "rows,line",
        [
            ("OBJ nan 1.0\nEQ 0\n", 4),
            ("OBJ 1 0\nEQ 1\n1 1 inf\n", 6),
            ("OBJ 1 0\nEQ 0\nCONE ORTHANT 1\n-inf 1 0\n", 7),
        ],
        ids=["obj", "eq", "cone"],
    )
    def test_non_finite_cone_data(self, tmp_path, capsys, rows, line):
        src = tmp_path / "bad.cone"
        src.write_text(f"CONICFORM 1\nVARS 2\nx y\n{rows}END\n")
        code, err = self.run(["solve-oracle", str(src), "--res", "3", "--out", str(tmp_path / "bad.sol")], capsys)
        assert (code, err) == (2, f"error: line {line}: non-finite number\n")
        assert not (tmp_path / "bad.sol").exists()

    @pytest.mark.parametrize(
        "command", [["canon"], ["check"], ["step", "--schema", "eliminate", "--drop", "0"]], ids=["canon", "check", "step"]
    )
    @pytest.mark.parametrize("bound,col", [("1e400", 6), ("-1e400", 7)])
    def test_literal_past_float_range(self, tmp_path, capsys, command, bound, col):
        src = tmp_path / "big.opt"
        src.write_text(f"minimization\n!vars x\n!objective x\n!constraints\nx >= {bound}, x <= 1\n")
        code, err = self.run([command[0], str(src), *command[1:]], capsys)
        assert (code, err) == (2, f"error: {src}:5:{col}: number '1e400' is past the float range\n")
        assert not src.with_suffix(".cone").exists()

    @pytest.mark.parametrize(
        "objective,constraint,what",
        [("x", "1e300 * (1e300 * x) <= 1", "constraint 0"), ("1e308 * x * 10", "0 <= x", "objective")],
        ids=["constraint", "objective"],
    )
    @pytest.mark.parametrize("verify", [[], ["--skip-verify"]])
    def test_overflowing_coefficients(self, tmp_path, capsys, objective, constraint, what, verify):
        src = tmp_path / "over.opt"
        src.write_text(f"minimization\n!vars x\n!objective {objective}\n!constraints\n{constraint}, x <= 1\n")
        code, err = self.run(["canon", str(src), *verify], capsys)
        assert (code, err) == (1, f"{what} has a coefficient or constant that is not finite\n")
        assert not src.with_suffix(".cone").exists()

    @pytest.mark.parametrize(
        "header,line", [("VARS -1\nx y", "2: unreadable variable"), ("EQ -1", "5: unreadable equality")], ids=["vars", "eq"]
    )
    def test_negative_cone_count(self, tmp_path, capsys, header, line):
        text = "CONICFORM 1\nVARS 2\nx y\nOBJ 1 0\nEQ 0\nEND\n"
        src = tmp_path / "neg.cone"
        src.write_text(text.replace("VARS 2\nx y" if header.startswith("VARS") else "EQ 0", header))
        code, err = self.run(["solve-oracle", str(src), "--res", "3"], capsys)
        assert (code, err) == (2, f"error: line {line} count\n")

    @pytest.mark.parametrize(
        "rows,line", [("OBJ \u0661 0\nEQ 0\n", 4), ("OBJ 1 0\nEQ 1\n1_000 0 1\n", 6)], ids=["obj-digit", "eq-underscore"]
    )
    def test_cone_number_not_ascii_decimal(self, tmp_path, capsys, rows, line):
        src = tmp_path / "bad.cone"
        src.write_text(f"CONICFORM 1\nVARS 2\nx y\n{rows}END\n")
        code, err = self.run(["solve-oracle", str(src), "--res", "3", "--out", str(tmp_path / "bad.sol")], capsys)
        assert (code, err) == (2, f"error: line {line}: unreadable number\n")
        assert not (tmp_path / "bad.sol").exists()

    def test_cone_keyword_is_exact(self, tmp_path, capsys):
        src = tmp_path / "bad.cone"
        src.write_text("CONICFORM 1\nVARS 2\nx y\nOBJX 1 0\nEQ 0\nEND\n")
        code, err = self.run(["solve-oracle", str(src), "--res", "3", "--out", str(tmp_path / "bad.sol")], capsys)
        assert (code, err) == (2, "error: line 4: expected 'OBJ'\n")
        assert not (tmp_path / "bad.sol").exists()

    @pytest.mark.parametrize(
        "text,message",
        [
            ("SOLUTION 1\nPRIMALS 0.5 0.5\nEND\n", "line 2: expected 'PRIMAL'"),
            ("SOLUTION 1\nPRIMAL 0.5 0.5\nDUAL_EQX 1\nEND\n", "line 3: expected DUAL_EQ, DUAL_CONE or END"),
            ("SOLUTION 1\nPRIMAL 0.5 0.5\nEND\nPRIMAL 2 2\n", "line 4: content after END"),
            ("SOLUTION 1\nPRIMAL Infinity \u0663\nEND\n", "line 2: unreadable number"),
        ],
        ids=["longer-primal", "longer-dual", "after-end", "not-ascii-number"],
    )
    def test_solution_keywords(self, tmp_path, capsys, text, message):
        src = tmp_path / "eq.opt"
        src.write_text("minimization\n!vars x y\n!objective x\n!constraints\nx + y = 1\n")
        assert main(["canon", str(src), "--skip-verify"]) == 0
        sol = tmp_path / "eq.sol"
        sol.write_text(text)
        before = sorted(tmp_path.iterdir())
        code, err = self.run(["verify", str(src), str(tmp_path / "eq.trace"), str(sol)], capsys)
        assert (code, err) == (2, f"error: solution: {message}\n")
        assert sorted(tmp_path.iterdir()) == before


def _opt(objective, constraints="0 <= x"):
    return f"minimization\n!vars x\n!objective {objective}\n!constraints\n{constraints}\n"


def _wide_cone(n):
    """A .cone text whose one equality row and objective hold n variables."""
    names = tuple(f"v{i}" for i in range(n))
    one = (ConeBlock("ORTHANT", 1),)
    return write_conic(ConicProblem(names, np.ones(n), np.ones((1, n)), np.ones(1), np.eye(n)[:1], np.zeros(1), one))


class TestDeepInput:
    """An expression nested past Python's recursion limit, as the parser,
    dcp or emission walks it, exits 2 with one line and no traceback."""

    @pytest.mark.parametrize(
        "command,name,text,options",
        [
            ("check", "sum.opt", _opt(" + ".join(["x"] * 1500)), []),
            ("check", "parens.opt", _opt("(" * 1500 + "x" + ")" * 1500), []),
            ("check", "minuses.opt", _opt("-" * 1500 + "x"), []),
            ("canon", "csum.opt", _opt("x", " + ".join(["x"] * 900) + " <= 1"), []),
            ("solve-oracle", "wide.cone", _wide_cone(1200), ["--eliminate", "auto", "--res", "2"]),
        ],
        ids=["sum", "parentheses", "unary-minus", "constraint-sum", "wide-cone-row"],
    )
    def test_exits_two(self, tmp_path, capsys, command, name, text, options):
        src = tmp_path / name
        src.write_text(text)
        code = main([command, str(src), *options])
        assert code == 2
        assert capsys.readouterr().err == "error: input nested too deeply\n"  # one line, no traceback
        assert sorted(tmp_path.iterdir()) == [src]


class TestOptionNames:
    """A --param the problem does not declare, any --param on a cone file,
    and a --param or --box name given twice exit 2 with one line that
    names the option."""

    @pytest.mark.parametrize("command", ["canon", "solve-oracle", "verify"])
    def test_undeclared_param(self, tmp_path, chain_file, capsys, command):
        canon_chain(tmp_path, chain_file)
        argv = {
            "canon": [str(chain_file), "--skip-verify"],
            "solve-oracle": [str(chain_file), "--res", "3"],
            "verify": [str(chain_file), str(tmp_path / "chain1.trace"), str(tmp_path / "chain1.sol")],
        }[command]
        code, err = TestUnusableData.run([command, *argv, *UNIT_ARGS, "--param", "zz=5"], capsys)
        assert (code, err) == (2, "error: bad --param 'zz=5', the problem declares no parameter zz\n")

    @pytest.mark.parametrize("given", [["--param", "qq=3"], UNIT_ARGS[:2]])
    def test_any_param_on_a_cone_file(self, tmp_path, chain_file, capsys, given):
        cone, _ = canon_chain(tmp_path, chain_file)
        name = given[1].partition("=")[0]
        code, err = TestUnusableData.run(["solve-oracle", str(cone), "--res", "3", *given], capsys)
        assert (code, err) == (2, f"error: bad --param {given[1]!r}, the problem declares no parameter {name}\n")
        assert not cone.with_suffix(".sol").exists()

    def test_param_given_twice(self, chain_file, capsys):
        argv = ["canon", str(chain_file), "--skip-verify", *UNIT_ARGS, "--param", "c=2"]
        code, err = TestUnusableData.run(argv, capsys)
        assert (code, err) == (2, "error: bad --param 'c=2', c given twice\n")

    def test_box_given_twice(self, capsys):
        argv = ["solve-oracle", str(CORPUS / "lp_box.opt"), "--res", "3", "--box", "x=0:4", "--box", "x=0:1"]
        code, err = TestUnusableData.run(argv, capsys)
        assert (code, err) == (2, "error: bad --box 'x=0:1', x given twice\n")

    def test_box_whose_lattice_overflows(self, tmp_path, chain_file, capsys):
        # each bound is finite, but the node formula's 2 * 1e308 is not
        out = tmp_path / "wide.sol"
        argv = ["solve-oracle", str(chain_file), "--res", "3", "--box", "x=0:1e308", *UNIT_ARGS, "--out", str(out)]
        code, err = TestUnusableData.run(argv, capsys)
        assert (code, err) == (2, "error: bad --box x=0.0:1e+308, axis x: a node of the 3-point lattice is not finite\n")
        assert not out.exists()


class TestInfinitePrimal:
    """An infinite primal coordinate fails verify before the backmap, even
    where its slack lies in the cone."""

    @pytest.mark.parametrize("value", ["inf", "-inf"])
    def test_infinite_primal_fails(self, tmp_path, capsys, value):
        src = tmp_path / "ray.opt"
        src.write_text("minimization\n!vars x\n!objective x\n!constraints\n0 <= x\n")
        assert main(["canon", str(src), "--skip-verify"]) == 0
        sol = tmp_path / "ray.sol"
        sol.write_text(f"SOLUTION 1\nPRIMAL {value}\nDUAL_CONE 1.0\nEND\n")
        capsys.readouterr()
        assert main(["verify", str(src), str(tmp_path / "ray.trace"), str(sol)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("FAIL primal: ")
        assert out.err.endswith(f"coordinate 0 is {float(value)!r}\n")


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


class TestFuzz:
    """Seeded byte mutations of every input file kind and of option values:
    main returns an exit code of 0, 1 or 2 and raises nothing but argparse's
    own SystemExit(2) for an option value that is not a number."""

    BYTES = b" \n\t,.:;-+*/^()=<>!#0123456789eExyzt_CONEVARSTEPADD\xff\x00"

    @staticmethod
    def mutate(data: bytes, rng: random.Random) -> bytes:
        k = rng.randrange(len(data))
        kind = rng.choice(["replace", "insert", "delete", "repeat"])
        if kind == "replace":
            return data[:k] + bytes([rng.choice(TestFuzz.BYTES)]) + data[k + 1:]
        if kind == "insert":
            return data[:k] + bytes([rng.choice(TestFuzz.BYTES)]) + data[k:]
        if kind == "delete":
            return data[:k] + data[k + 1:]
        j = min(len(data), k + rng.randrange(1, 12))
        return data[:j] + data[k:j] + data[j:]

    def test_mutated_inputs_exit_cleanly(self, tmp_path, chain_file, capsys):
        trace, sol = TestVerify().make_artifacts(tmp_path, chain_file, capsys)
        cone = tmp_path / "chain1.cone"
        assert main(["verify", str(chain_file), str(trace), str(sol), *UNIT_ARGS]) == 0
        problems = sorted(CORPUS.glob("*.opt"))
        rng = random.Random(20240)
        codes = set()
        for case in range(200):
            kind = ("opt", "trace", "sol", "cone")[case % 4]
            base = {"opt": rng.choice(problems), "trace": trace, "sol": sol, "cone": cone}[kind]
            bad = tmp_path / f"bad.{kind}"
            bad.write_bytes(self.mutate(base.read_bytes(), rng))
            if kind == "opt":
                runs = [["check", str(bad)],
                        ["canon", str(bad), *UNIT_ARGS, "--skip-verify"],
                        ["solve-oracle", str(bad), *UNIT_ARGS, "--res", "3"]]
            elif kind == "cone":
                runs = [["solve-oracle", str(bad), "--res", "3", "--eliminate", "auto"]]
            else:
                files = {"trace": bad, "sol": sol} if kind == "trace" else {"trace": trace, "sol": bad}
                runs = [["verify", str(chain_file), str(files["trace"]), str(files["sol"]), *UNIT_ARGS]]
            for argv in runs:
                code = main(argv)
                assert code in (0, 1, 2), (argv, bad.read_bytes())
                codes.add(code)
        capsys.readouterr()
        assert codes == {0, 1, 2}

    def test_mutated_options_exit_cleanly(self, chain_file, capsys):
        rng = random.Random(20241)
        step = ["step", str(chain_file), "--schema"]
        cases = [
            lambda v: [*step, rng.choice(["linearize", "graph_expand", "linearize_mono"]), "--path", v],
            lambda v: [*step, "eliminate", "--drop", v],
            lambda v: ["solve-oracle", str(chain_file), *UNIT_ARGS, "--res", "3", "--box", v],
            lambda v: ["solve-oracle", str(chain_file), *UNIT_ARGS, "--res", v],
            lambda v: ["canon", str(chain_file), *UNIT_ARGS, "--samples", v],
            lambda v: ["solve-oracle", str(chain_file), *UNIT_ARGS, "--res", "3", f"--tol={v}"],
        ]
        values = [
            ["c0/lhs", "c0/rhs/0/0/1", "c3/rhs/0", "obj"], ["2,3", "0"], ["x=0:4", "y=-4:2"], ["3"], ["25"], ["1e-6"]
        ]
        codes = set()
        for case in range(180):
            value = self.mutate(rng.choice(values[case % 6]).encode(), rng).decode("latin-1")
            argv = cases[case % 6](value)
            try:
                code = main(argv)
            except SystemExit as e:  # argparse's own exit 2 for a non-number
                code = e.code
            assert code in (0, 1, 2), argv
            codes.add(code)
        capsys.readouterr()
        assert codes == {0, 1, 2}
