"""Tests of the benchmark itself, on the tiny ``--smoke`` inputs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(name: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed",
         str(workload.DEFAULT_SEED), "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_and_digest(proc: subprocess.CompletedProcess):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split("sha256 ")[1].split(";")[0] for line in lines if "sha256" in line)
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_and_traced_outputs_match(name):
    plain, plain_digest = result_and_digest(run_bench(name, 0))
    traced, traced_digest = result_and_digest(run_bench(name, 1))
    for result, declared in ((plain, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared
        }
    for metric in SPEC["end_to_end"]:
        assert plain["metrics"][metric["name"]]["value"] > 0
    assert plain_digest == traced_digest


def test_without_the_package_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = run_bench("mc-cna9", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_sweep_gate_rejects_a_changed_or_missing_row():
    cfg = workload.SMOKE["design-sweep"]
    data = workload.load_reference("design-sweep", True)
    reference = cfg.reference_for(data, 7, 0)
    rows = [type("Row", (), dict(row)) for row in reference.values()]
    assert cfg.check(rows, reference) == []
    rows[-1].dof_brute += 2
    assert len(cfg.check(rows, reference)) == 1
    assert len(cfg.check(rows[:-2], reference)) == 2
    warmup = cfg.reference_for(data, 7, None)
    assert sorted(warmup) == [(v, cfg.n_values[0]) for v in sorted(cfg.variants)]


def test_monte_carlo_gate_rejects_unsorted_and_off_reference_estimates():
    import numpy as np

    cfg = workload.SMOKE["mc-cna24"]
    data = workload.load_reference("mc-cna24", True)
    reference = cfg.reference_for(data, workload.DEFAULT_SEED, 0)
    assert cfg.reference_for(data, workload.DEFAULT_SEED + 1, 0) is None
    est = np.asarray(reference, dtype=float)[0, 0]

    def out(trial):
        return [type("Stats", (), {"per_trial_estimates": trial[None, :]})]

    assert cfg.check(out(est), reference) == []
    assert len(cfg.check(out(est[::-1].copy()), reference)) == 1
    shifted = est.copy()
    shifted[0] += 2 * cfg.grid_step_deg
    assert len(cfg.check(out(shifted), reference)) == 1
    assert len(cfg.check(out(np.full_like(est, np.nan)), None)) == 1


def test_warmup_is_checked_against_its_reference_at_any_seed():
    cfg = workload.SMOKE["mc-cna9"]
    tosda = workload.import_package()
    data = workload.load_reference("mc-cna9", True)
    runner = workload.Runner(tosda, cfg, cfg.setup(tosda), 12345, 1, data)
    out, _ = runner.warmup(1)
    assert runner.attempted == cfg.warmup_ops and runner.failures == []
    bad = dict(data, warmup=(cfg.estimates(out) + 2 * cfg.grid_step_deg).tolist())
    runner = workload.Runner(tosda, cfg, runner.state, 12345, 1, bad)
    runner.warmup(1)
    assert len(runner.failures) == cfg.warmup_ops
