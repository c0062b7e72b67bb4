"""Tests for the end-to-end benchmark.

    PYTHONPATH=src python -m pytest benchmarks/e2e

They run the benchmark at ``--smoke`` sizes (the same code path, a fraction
of a second per workload) and are not part of the tier-1 suite.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import ledger  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(out: Path, *args: str, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--smoke", "--seconds", "0",
         "--out", str(out), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines else None


def test_names_match_benchmark_json_and_the_code():
    import workloads as registry

    workloads = [w["name"] for w in SPEC["workloads"]]
    assert tuple(workloads) == run.WORKLOADS == tuple(registry.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (n, u) for n, u, on_line in ledger.LAYER_METRICS if on_line
    ]
    names = workloads + [n for n, _ in run.END_TO_END] + [
        n for n, _, _ in ledger.LAYER_METRICS
    ]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name


def test_smoke_prints_every_end_to_end_metric(tmp_path):
    proc, line = bench(tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    units = dict(run.END_TO_END)
    expected = {
        f"{w['name']}.{m['name']}" for w in SPEC["workloads"]
        for m in SPEC["end_to_end"]
    }
    assert set(line["metrics"]) == expected
    for key, metric in line["metrics"].items():
        assert metric["unit"] == units[key.split(".", 1)[1]]
        assert metric["value"] > 0
    for w in SPEC["workloads"]:
        assert f"== {w['name']} " in proc.stdout


def test_check_passes_twice_with_identical_counters_and_digests(tmp_path):
    records = []
    for i in range(2):
        out = tmp_path / str(i)
        proc, line = bench(out, "--check")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert line["correct"]
        assert {k.split(".", 1)[1] for k in line["metrics"]} == {
            m["name"] for m in SPEC["per_layer"]
        }
        records.append({
            p.name: json.loads(p.read_text())
            for p in sorted(out.glob("*-trace.json"))
        })
    assert records[0].keys() == records[1].keys() and len(records[0]) == 4
    for name, first in records[0].items():
        second = records[1][name]
        assert first["digests"] == second["digests"]
        for metric, unit, _ in ledger.LAYER_METRICS:
            if unit in ledger.DETERMINISTIC_UNITS:
                assert first["metrics"][metric] == second["metrics"][metric]


def test_self_times_plus_traffic_sum_to_the_root_total():
    import worker
    import workloads

    originals = {
        (owner, attr): ledger._resolve(owner).__dict__[attr]
        for owner, attr, _ in ledger.ENTRY_POINTS
    }
    for cls in workloads.WORKLOADS.values():
        wl = cls("smoke")
        calls = wl.calls(wl.setup(5), 0)
        capture = worker.NetworkCapture()
        try:
            _, led = worker.traced_pass(wl, calls, capture, keep_spans=10**6)
        finally:
            capture.restore()
        metrics = led.metrics()
        layers = sum(metrics[f"{layer}.self_s"] for layer in ledger.LAYERS)
        assert metrics["traffic.self_s"] > 0
        assert layers == pytest.approx(led.root_s, rel=1e-9)
        roots = [s for s in led.spans if s[3] == -1]
        assert led.dropped == 0
        assert sum(end - start for _, start, end, _, _ in roots) == (
            pytest.approx(led.root_s, rel=1e-9)
        )
        assert {s[4] for s in roots} == set(range(len(roots)))
    for (owner, attr), raw in originals.items():
        assert ledger._resolve(owner).__dict__[attr] is raw


def test_planted_digest_mismatch_fails_the_run(tmp_path, monkeypatch, capsys):
    pins = json.loads(run.EXPECTED.read_text())
    pins["smoke"]["load-paper"]["tree"] = "0" * 64
    planted = tmp_path / "expected.json"
    planted.write_text(json.dumps(pins))
    monkeypatch.setattr(run, "EXPECTED", planted)
    code = run.main([
        "--smoke", "--seconds", "0", "--workload", "load-paper",
        "--out", str(tmp_path),
    ])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not line["correct"] and line["failed"] > 0
    rec = json.loads((tmp_path / "load-paper-seed1.json").read_text())
    assert rec["fail_frac"] > 0
    assert any("!= pin" in p for p in rec["problems"])


def test_fails_without_printing_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("runs", "__pycache__"),
    )
    proc, line = bench(tmp_path / "out", cwd=tmp_path)
    assert proc.returncode != 0
    assert line is None


STEADY = [10, 10.1, 9.9, 10, 10.2] * 2
FASTER = [12, 12.1, 11.9, 12, 12.2] * 2


@pytest.mark.parametrize("a, b, higher, expected", [
    (STEADY, FASTER, False, "regression"),
    (STEADY, FASTER, True, "gain"),
    (STEADY[:5], FASTER[:5], True, "same"),  # too few pairs for a gain
    ([10, 14, 6, 10, 13], [10, 14, 6, 10, 13], False, "unresolved"),
    (STEADY, [10.1, 10, 10, 10.2, 9.9] * 2, False, "same"),
])
def test_compare_verdicts(a, b, higher, expected):
    runs_a, runs_b = dict(enumerate(a)), dict(enumerate(b))
    assert compare.verdict(runs_a, runs_b, 0.1, higher) == expected
