"""Self-tests of the benchmark (slow: each workload runs once or twice).

    python3 -m pytest -q perfbench/check_bench.py

Tiny-budget passes check that every metric BENCHMARK.json names is
printed with its unit, that a wrong answer fails the command, that a
stopped daemon leaves no process behind, and that the command refuses
to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout


def test_benchmark_json_matches_the_command():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        run.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, "max of 3 samples "
                                         "(fewer than 21)")
    assert run.tail([float(i) for i in range(1, 21)])[0] == 20.0
    assert run.tail([float(i) for i in range(1, 41)]) == (
        30.0, "p75.0 of 40 samples")
    assert run.tail([float(i) for i in range(1, 145)]) == (
        134.0, "p93.1 of 144 samples")


def test_check_flags_errors_that_disagree_with_ground_truth():
    spec = run.catalog("cold_debug")[0]
    truth = run.ground_truth(spec)
    good = {"index": 0, "result": {"errors": truth, "n_rounds": 0}}
    bad = {"index": 0, "result": {"errors": truth[:0], "n_rounds": 0}}
    run.check([good, bad], [spec])
    assert good["incorrect"] == ""
    assert "ground truth" in bad["incorrect"]
    assert run.failed(bad)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_pass_emits_every_metric(workload, trace):
    code, out = bench("--workload", workload, "--seed", "1",
                      "--seconds", "1", "--trace", str(trace))
    assert code == 0, out
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    names = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in names} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for m in names:  # every metric is also printed by name with its unit
        assert any(line.split()[:1] == [m["name"]]
                   and m["unit"] in line.split() for line in out.splitlines())


def test_localized_comes_from_the_ground_truth(monkeypatch):
    truth = [{"kind": "table_bit", "instance": "a", "detail": ""},
             {"kind": "table_bit", "instance": "b", "detail": ""}]
    monkeypatch.setattr(run, "ground_truth", lambda spec: truth)
    rounds = [{"candidates": ["a", "x"]}, {"candidates": ["b"]}]
    result = {"errors": truth, "detected": True, "candidates": ["b"],
              "rounds": rounds, "n_rounds": 2}
    honest = {"index": 0, "result": dict(result, localized=True)}
    boastful = {"index": 1, "result": dict(result, localized=True,
                                           rounds=rounds[1:])}
    run.check([honest, boastful], [None, None])
    assert honest["localized"] and honest["incorrect"] == ""
    assert not boastful["localized"]
    assert "localized" in boastful["incorrect"]


def test_wrong_answer_fails_the_command(monkeypatch, capsys):
    answer = {"status": "ok", "errors": [], "detected": False,
              "localized": False}
    record = {"index": 0, "result": answer, "latency_s": 1.0,
              "probe_gaps": []}
    monkeypatch.setattr(run, "run_cold", lambda args, specs, workdir: {
        "setup_s": 0.5, "records": [record], "timed": [record],
        "wall_s": 1.0, "rss_kb": 1024})
    monkeypatch.setattr(run, "ground_truth", lambda spec: [
        {"kind": "table_bit", "instance": "injected", "detail": ""}])
    code = run.main(["--workload", "cold_debug", "--seed", "1",
                     "--seconds", "1"])
    out = capsys.readouterr().out
    assert code == 1
    result = json.loads(out.splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1
    assert "WRONG ANSWER" in out


def group_members(pgid: int) -> list:
    """Pids whose process group is ``pgid`` (zombies included)."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid:
            members.append(int(stat.parent.name))
    return members


@pytest.mark.parametrize("on_error", [False, True])
def test_daemon_leaves_no_process_behind(tmp_path, monkeypatch, on_error):
    monkeypatch.chdir(tmp_path)
    run.become_subreaper()
    spec = run.catalog("sat_repair")[2]  # 9sym: a short job
    for _ in range(3):  # its worker can outlive the daemon
        daemon = run.Daemon(tmp_path)
        daemon.run(spec)
        if on_error:
            run.stop_all()
        else:
            daemon.stop()
        assert group_members(daemon.proc.pid) == []
        assert run._GROUPS == [] and run._LIVE == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, out = bench("--workload", "cold_debug", "--seed", "1",
                      "--seconds", "1", cwd=tmp_path)
    assert code != 0 and out == ""
