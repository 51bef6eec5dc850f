"""scripts/bench_pairs.py's summary: runs that are null or not correct stay
out of the medians and are named per side; one pair gives no spread; a
traced run per side is recorded apart and, when not correct, fails the
script."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
BENCH_PAIRS = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(BENCH_PAIRS)

METRICS = [{"name": "ops_per_s", "better": "higher"}, {"name": "op_ms.p50", "better": "lower"}]


def result(ops, ms, correct=True):
    return {"correct": correct, "metrics": {"ops_per_s": {"value": ops}, "op_ms.p50": {"value": ms}}}


def test_one_pair_has_no_spread():
    pairs = [{"seed": 3, "parent": result(100.0, 10.0), "change": result(110.0, 9.0)}]
    assert BENCH_PAIRS.summary(pairs, METRICS) == {
        "left_out": {"parent": [], "change": []},
        "ops_per_s": {"parent_median": 100.0, "change_median": 110.0, "parent_quartile_spread": None, "change_better": "1/1"},
        "op_ms.p50": {"parent_median": 10.0, "change_median": 9.0, "parent_quartile_spread": None, "change_better": "1/1"},
    }


def test_null_and_incorrect_runs_stay_out():
    pairs = [
        {"seed": 1, "parent": result(100.0, 10.0), "change": result(120.0, 8.0)},
        {"seed": 2, "parent": result(90.0, 11.0), "change": result(1000.0, 1.0, correct=False)},
        {"seed": 3, "parent": None, "change": result(130.0, 7.0)},
        {"seed": 4, "parent": result(110.0, 9.0), "change": result(100.0, 10.0)},
    ]
    got = BENCH_PAIRS.summary(pairs, METRICS)
    assert got["left_out"] == {"parent": [3], "change": [2]}
    assert got["ops_per_s"] == {
        "parent_median": 105.0,
        "change_median": 110.0,
        "parent_quartile_spread": 5.0,
        "change_better": "1/2",
    }


def test_main_writes_the_file_and_exits_1_on_an_incorrect_run(tmp_path, monkeypatch):
    # one seed, so one pair; the runs are stubbed, no benchmark starts
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "end_to_end": METRICS}))
    runs = {"parent": result(100.0, 10.0), "change": result(120.0, 8.0, correct=False)}
    monkeypatch.setattr(BENCH_PAIRS, "run", lambda checkout, *args, trace=0: runs[checkout.name])
    monkeypatch.chdir(tmp_path)
    argv = ["parent", "change", "--workload", "lattice", "--seeds", "3", "--label", "t"]
    assert BENCH_PAIRS.main(argv) == 1
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert report["workloads"]["lattice"]["summary"] == {"left_out": {"parent": [], "change": [3]}}
    runs["change"] = result(120.0, 8.0)
    assert BENCH_PAIRS.main(argv) == 0


def test_a_traced_run_is_recorded_apart_and_named_when_not_correct(tmp_path, monkeypatch, capsys):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "end_to_end": METRICS}))
    calls = []

    def stub(checkout, workload, seed, seconds, trace=0):
        calls.append((checkout.name, seed, trace))
        return result(100.0, 10.0, correct=not (trace and checkout.name == "change"))

    monkeypatch.setattr(BENCH_PAIRS, "run", stub)
    monkeypatch.chdir(tmp_path)
    argv = ["parent", "change", "--workload", "corpus-loop", "--seeds", "4-5", "--label", "t"]
    assert BENCH_PAIRS.main(argv) == 1
    # two alternating untraced pairs, then one traced run per side at the first seed
    assert calls == [("parent", 4, 0), ("change", 4, 0), ("change", 5, 0), ("parent", 5, 0), ("parent", 4, 1), ("change", 4, 1)]
    assert "corpus-loop: traced change run at seed 4 printed no result or one not correct" in capsys.readouterr().out
    report = json.loads((tmp_path / "BENCH_t.json").read_text())["workloads"]["corpus-loop"]
    assert report["traced"]["seed"] == 4
    assert (report["traced"]["parent"]["correct"], report["traced"]["change"]["correct"]) == (True, False)
    # the traced runs stay out of the medians: both untraced pairs count
    assert report["summary"]["left_out"] == {"parent": [], "change": []}
    assert report["summary"]["ops_per_s"]["change_better"] == "0/2"
