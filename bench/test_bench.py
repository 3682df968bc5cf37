"""Self-test of the benchmark on tiny sizes of its workloads.

    python3 -m pytest bench/test_bench.py -q

Every workload must emit every metric BENCHMARK.json names, with no failed
record; a deliberately wrong expected value or report digest must fail every
record, and so must a repeat that gives another output than the first run of
its input; and the command must refuse to run without the package's sources.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_package()

import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]
# Results land in bench_out/ by workload and seed; a seed no real run uses
# keeps them apart.
TEST_SEED = 987654321


def tiny(name: str):
    """The workload at a size that runs a pass in well under a second."""
    if name == "tangent-3x5":
        return workloads.TangentWorkload(name, n=3, d=3)
    if name == "small-ci":
        return workloads.SmallCiWorkload(name)
    return workloads.IdentitiesWorkload(name, max_p=6, max_r=6, max_n=8, max_m=8, max_nd=6)


def test_workload_names_match_spec():
    assert NAMES == list(run.NAMES)
    for name in NAMES:
        assert workloads.build(name).name == name


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_emits_every_metric(name, trace):
    result = run.measure(tiny(name), seed=TEST_SEED, seconds=0.5, trace=bool(trace))
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True


def _identities_off_by_one(monkeypatch):
    honest = workloads.IdentitiesWorkload.identity_values

    def wrong(self):
        return ((ident, params, value + 1) for ident, params, value in honest(self))

    monkeypatch.setattr(workloads.IdentitiesWorkload, "identity_values", wrong)


WRONG_EXPECTATIONS = {
    "tangent-3x5": lambda mp: mp.setitem(workloads.EXPECTED_N, (3, 3), 23),
    "small-ci": lambda mp: [
        mp.setitem(workloads.EXPECTED_HILBERT, key, value + (0,))
        for key, value in list(workloads.EXPECTED_HILBERT.items())
    ],
    "identities-default": _identities_off_by_one,
}


@pytest.mark.parametrize("name", NAMES)
def test_wrong_expected_value_fails_every_record(name, monkeypatch):
    WRONG_EXPECTATIONS[name](monkeypatch)
    result = run.measure(tiny(name), seed=TEST_SEED, seconds=0.5, trace=False)
    assert result["attempted"] >= 1
    assert result["failed_frac"] == 1 and result["correct"] is False


def test_raising_trial_fails_its_records(monkeypatch):
    def broken(f):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads.ci, "associated_form", broken)
    result = run.measure(tiny("small-ci"), seed=TEST_SEED, seconds=0.5, trace=False)
    assert result["attempted"] >= 1 and result["failed_frac"] == 1


def test_report_digest_mismatch_fails_every_record():
    workload = workloads.TangentWorkload("tangent-3x5", n=3, d=3, digests={0: "0" * 64})
    result = run.measure(workload, seed=workloads.DEFAULT_SEED, seconds=0.5, trace=False)
    assert result["failed_frac"] == 1


def test_repeat_with_another_output_fails(monkeypatch):
    honest = workloads.SmallCiWorkload._one_tuple
    calls = []

    def drifting(n, d, tuple_seed, matrix_seed):
        calls.append(1)
        output = honest(n, d, tuple_seed, matrix_seed)
        return {**output, "n": n + (len(calls) > 4)}

    monkeypatch.setattr(workloads.SmallCiWorkload, "_one_tuple", staticmethod(drifting))
    workload = workloads.SmallCiWorkload("small-ci")
    monkeypatch.setattr(workload, "check", lambda *args: (0, True))
    result = run.measure(workload, seed=TEST_SEED, seconds=2.0, trace=False)
    assert result["passes"] >= 2 and result["failed"] == result["attempted"] - 4


def test_refuses_to_run_without_sources():
    bare = run.OUT_DIR / "no-sources"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
    argv = [sys.executable, *SPEC["command"][1:], "--workload", NAMES[0],
            "--seed", "0", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
