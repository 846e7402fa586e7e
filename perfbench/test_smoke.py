"""Smoke test of the benchmark itself, at tiny sizes (a few seconds).

    python3 -m pytest perfbench -q

Checks that every metric BENCHMARK.json names is emitted with its unit, and
that the correctness checks catch deliberately wrong results.
"""

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import workloads  # noqa: E402
from majcirc import construct, core, verify  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((HERE / "reference.json").read_text())


def tiny(name):
    """The workload called name, shrunk to a few milliseconds per op."""
    if name == "sampled_block4096":
        return workloads.VerifyWorkload(
            name, lambda seed: construct.build_block_circuit(construct.BlockParams(64, 16, 16)),
            "sampled", samples=300, workers=1, check_workers=2)
    if name == "agree_corr1001":
        return workloads.VerifyWorkload(
            name, lambda seed: construct.build_correlation(construct.CorrelationParams(n=101, k=88, seed=seed)),
            "agreement", samples=1024, workers=1, check_workers=2, min_agreement=2 / 3)
    if name == "exact_block25":
        build = lambda seed: construct.build_block_circuit(construct.BlockParams(9, 3, 3))  # noqa: E731
        return workloads.VerifyWorkload(
            name, build, "exact", samples=None, workers=2, check_workers=1,
            reference=verify.verify_minmax(build(0), workers=1).to_json())
    return workloads.SearchPipeline(
        name, encode_nk=[(7, 5)], multiplicity=2, decode_tags=["n7"],
        exhaustive=[(n, k, m) for n in range(1, 4) for k in range(1, n + 1) for m in (1, 2)],
        fool_ns=[5, 7], fool_per_n=3, reference=REFERENCE["search_pipeline"])


NAMES = list(workloads.full_workloads(REFERENCE))


@pytest.fixture(autouse=True)
def short_setup(monkeypatch):
    """Tiny set-ups take milliseconds; do not repeat them for seconds."""
    monkeypatch.setattr(harness, "SETUP_MIN_SECONDS", 0.05)


def run_tiny(workload, tmp_path, trace_on=False):
    return harness.run(workload, seed=3, seconds=0.01, trace_on=trace_on, out_dir=tmp_path)


def test_benchmark_names_workloads_it_runs():
    assert {w["name"] for w in BENCH["workloads"]} <= set(NAMES)


@pytest.mark.parametrize("trace_on", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted_with_its_unit(name, trace_on, tmp_path):
    result = run_tiny(tiny(name), tmp_path, trace_on)
    listed = BENCH["per_layer" if trace_on else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(json.loads(json.dumps(result))) == {"correct", "attempted", "failed", "metrics"}
    if not trace_on:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_tampered_counts_fail_every_op(tmp_path, monkeypatch):
    real = verify.verify_minmax

    def tampered(*args, **kwargs):
        r = real(*args, **kwargs)
        counts = dict(r.checked_by_weight)
        counts[max(counts)] -= 1
        return dataclasses.replace(r, checked_by_weight=counts, total_checked=r.total_checked - 1)

    monkeypatch.setattr(verify, "verify_minmax", tampered)
    result = run_tiny(tiny("sampled_block4096"), tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 3


def test_worker_count_mismatch_is_a_failure(tmp_path, monkeypatch):
    real = verify.estimate_agreement

    def seed_depends_on_workers(c, samples, seed, *, workers=1, **kwargs):
        return real(c, samples, seed + workers, workers=workers, **kwargs)

    monkeypatch.setattr(verify, "estimate_agreement", seed_depends_on_workers)
    result = run_tiny(tiny("agree_corr1001"), tmp_path)
    assert result["failed"] == 1


def test_checks_reject_wrong_verify_results():
    exact = tiny("exact_block25")
    c = exact.build(0)
    rep = json.loads(exact.reference)
    assert exact.check(c, exact.reference) == []
    wrong = dict(rep, errors=1, errors_by_weight={"5": 1})
    assert exact.check(c, json.dumps(wrong))

    agree = tiny("agree_corr1001")
    low = {"mode": "sample", "total_checked": 1024, "errors": 400, "checked_by_weight": {}, "errors_by_weight": {}}
    assert any("agreement" in reason for reason in agree.check(None, json.dumps(low)))


def test_checks_reject_wrong_search_results(tmp_path):
    pipeline = tiny("search_pipeline")
    state = pipeline.setup(3, tmp_path, harness.Trace(False))
    good = pipeline.op(state, 0, 1, harness.Trace(False))
    assert pipeline.check(state, good) == []

    counts = json.loads(json.dumps(good))
    counts["encode"]["7,5"][1] += 1
    verdicts = json.loads(json.dumps(good))
    verdicts["exhaustive"]["1,1,1"] = not verdicts["exhaustive"]["1,1,1"]
    c = state["omission"][0]
    minterms = (core.Assignment.from_ones(c.n, ones)
                for ones in itertools.combinations(range(1, c.n + 1), core.majority_threshold(c.n)))
    right = next(a for a in minterms if core.eval_circuit(c, a) == 1)
    not_fooled = json.loads(json.dumps(good))
    not_fooled["fool"][0] = "".join(map(str, right.bits))
    not_minterm = json.loads(json.dumps(good))
    not_minterm["fool"][0] = "0" * c.n
    for wrong in (counts, verdicts, not_fooled, not_minterm):
        assert pipeline.check(state, wrong)


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable] + BENCH["command"][1:] + [
        "--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
