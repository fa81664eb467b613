"""Tests of the benchmark itself: seeds, the correctness gate, and loud metric loss.

Run from the repository root with ``python3 -m pytest perfbench``. They take
about two minutes, because they run every workload.
"""
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parents[1]
COUNT_STATS = (".calls", ".failed", ".returned", ".constructed", ".ok_ratio")


def result_of(capsys, argv: list[str]) -> tuple[int, dict | None]:
    code = run.main(argv)
    lines = capsys.readouterr().out.strip().splitlines()
    last = lines[-1] if lines else ""
    return code, json.loads(last) if last.startswith("{") else None


def args(workload: str, seed: int, trace: int) -> list[str]:
    # --seconds 0 makes exactly one pass (one untraced and one traced when tracing)
    return ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_seeds_rename_inputs():
    a, b = workloads.seeded_names(1), workloads.seeded_names(2)
    assert a != b and len(set(a.values())) == len(a) == len(workloads.CANONICAL_NAMES)
    assert workloads.seeded_names(1) == a


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_two_seeds_agree(capsys, workload):
    """Both seeds pass the same gate, so verdicts and anchors agree; counts must too."""
    results = []
    for seed in (1, 2):
        code, result = result_of(capsys, args(workload, seed, trace=1))
        assert code == 0 and result["correct"] and result["failed"] == 0
        results.append(result["metrics"])
    counts = [{k: v["value"] for k, v in m.items() if k.endswith(COUNT_STATS)} for m in results]
    assert counts[0] == counts[1]
    assert set(results[0]) == set(tracer.metric_units())


def test_same_seed_counts_repeat(capsys):
    counts = []
    for _ in range(2):
        code, result = result_of(capsys, args("sweep", 5, trace=1))
        assert code == 0
        counts.append({k: v["value"] for k, v in result["metrics"].items() if k.endswith(COUNT_STATS)})
    assert counts[0] == counts[1]


def test_untraced_run_reports_end_to_end_metrics(capsys):
    code, result = result_of(capsys, args("duality", 3, trace=0))
    assert code == 0 and result["correct"] and result["attempted"] == 7
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_gate_catches_a_rejected_morphism(capsys, monkeypatch):
    """A validator that rejects valid morphisms deleting three edges must fail the operad suite."""
    real_import = run.import_oplab

    def import_with_defect():
        api = real_import()
        good = api.graphs.validate_morphism
        failing = importlib.import_module("oplab.report").failing

        def defective(m):
            if len(m.source.edges) == 3 and not m.target.edges:
                return failing("seeded-defect", "valid deletion rejected")
            return good(m)

        tracer.rebind(good, defective)
        return api

    monkeypatch.setattr(run, "import_oplab", import_with_defect)
    code, result = result_of(capsys, args("operad", 1, trace=0))
    assert code != 0
    assert not result["correct"] and result["failed"] > 0


def test_gate_catches_a_changed_anchor(capsys, monkeypatch):
    monkeypatch.setitem(workloads.OPERAD_CASES, ("lm", ("a",), 3), (15, 2, 226))
    code, result = result_of(capsys, args("operad", 1, trace=0))
    assert code != 0
    assert not result["correct"] and result["failed"] == 1


def test_lost_public_name_fails_the_traced_run(capsys, monkeypatch):
    real_import = run.import_oplab

    def import_without_name():
        api = real_import()
        del api.graphs.pairing_inert
        return api

    monkeypatch.setattr(run, "import_oplab", import_without_name)
    code, result = result_of(capsys, args("sweep", 1, trace=1))
    assert code == 2 and result is None


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args("operad", 1, trace=0)],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
