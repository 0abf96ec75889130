"""Smoke test of the benchmark itself, at toy sizes.

    python3 -m pytest -q perfbench/smoke.py

Runs every workload with and without tracing and checks that each metric
named in BENCHMARK.json is printed, that a deliberately perturbed output
is counted as a failed job, and that the benchmark refuses to report a
result when the bbecho sources are missing.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"][1:], "--workload", workload, "--seed", "3",
           "--seconds", "0.2", "--trace", str(trace), "--tiny"]
    return subprocess.run([sys.executable, *cmd], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    printed = {line.split()[2] for line in lines if line.startswith("# metric ")}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        assert m["name"] in printed
    assert "failed_frac" in printed
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        uses_cli = workload == "series-cli"
        uses_oracle = workload == "oracle-check"
        assert (values["cli.main.calls"] > 0) == uses_cli
        assert (values["oracle.build_hamiltonian.calls"] > 0) == uses_oracle
        assert values["setup.oracle.calibrate_conventions.busy_s"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _perturb_series(result):
    code, out = result
    lines = out.read_text(encoding="utf-8").splitlines()
    t, le, log_le, kind = lines[2].split(",")
    lines[2] = ",".join([t, repr(float(le) * (1 - 1e-6)), log_le, kind])
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return result


def _perturb_sweep(result):
    rows, closed = result
    row = rows[0]
    return [type(row)(row.lam, row.delta_t, row.le_pulsed, row.le_free,
                      row.ratio * (1 + 1e-9))], closed


def _perturb_oracle(result):
    det_free, *rest = result
    det_free = det_free.copy()
    det_free[1] += 1e-6
    return (det_free, *rest)


@pytest.mark.parametrize("name, perturb", [
    ("series-cli", _perturb_series),
    ("sweep-star", _perturb_sweep),
    ("oracle-check", _perturb_oracle),
])
def test_perturbed_output_counted_as_failed(name, perturb, tmp_path, monkeypatch):
    monkeypatch.setenv("BBECHO_STATE_DIR", str(tmp_path / "state"))
    workload = workloads.WORKLOADS[name](tiny=True)
    honest_run = workload.run
    perturbed = []

    def run_once_perturbed(job, workdir):
        result = honest_run(job, workdir)
        if not perturbed:
            perturbed.append(job.index)
            result = perturb(result)
        return result

    monkeypatch.setattr(workload, "run", run_once_perturbed)
    records = run.timed_loop(workload, random.Random(0), 0.0, tmp_path)
    failed = [r for r in records if r.error is not None]
    assert [r.index for r in failed] == perturbed
    assert len(records) > 1


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
