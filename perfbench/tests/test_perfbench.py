"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench/tests -q

The smoke runs start fresh interpreters and take a few minutes in all.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import record  # noqa: E402
import workloads as wl  # noqa: E402
from toricfib.criterion import epsilon_prime  # noqa: E402
from toricfib.divisors import toric_mld, zero_divisor  # noqa: E402
from toricfib.exactmath import is_primitive  # noqa: E402
from toricfib.models import model_V  # noqa: E402
from toricfib.serialize import fan_from_dict  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def test_streams_are_deterministic_per_seed_and_differ_across_seeds():
    assert wl.certify_stream(3) == wl.certify_stream(3)
    assert wl.userfan_stream(3) == wl.userfan_stream(3)
    assert wl.certify_stream(3) != wl.certify_stream(4)
    assert wl.userfan_stream(3) != wl.userfan_stream(4)


def test_certify_instances_are_distinct_primitive_singular_minimizers():
    stream = wl.certify_stream(0)
    assert len({n for n, _, _ in stream}) == len(stream)
    lo, hi = wl.CERTIFY_N1
    eps_p = epsilon_prime(wl.CERTIFY_D, wl.CERTIFY_R, wl.CERTIFY_EPS)
    for n, l, _ in stream:
        assert lo <= n[0] <= hi and max(abs(x) for x in n[1:]) <= wl.CERTIFY_HORIZONTAL
        assert is_primitive(n) and is_primitive(l) and l[0] > 0 and l != n
    for n, l, _ in stream[:5]:
        v = model_V(wl.CERTIFY_D, n)
        value, minimizer = toric_mld(v.fan, zero_divisor(v.fan))
        assert value < eps_p and minimizer == l


def test_user_fans_are_distinct_valid_documents():
    stream = wl.userfan_stream(0)
    keys = {json.dumps(doc, sort_keys=True) for doc, _ in stream}
    assert len(keys) == len(stream)
    lo, hi = record.USER_FAN_CONES
    for doc, _ in stream[:5]:
        fan = fan_from_dict(doc)
        assert lo <= len(fan.maximal_cones) <= hi
        assert all(is_primitive(ray) for ray in fan.rays)


def test_user_fan_generator_is_deterministic_and_valid():
    first = record.generate_user_fans(7, 2)
    assert first == record.generate_user_fans(7, 2)
    assert first != record.generate_user_fans(8, 2)
    for entry in first:
        fan = fan_from_dict(wl.fan_doc(entry["rays"], entry["cones"]))
        assert len(fan.rays) == len(entry["rays"])
        assert record.USER_FAN_CONES[0] <= len(fan.maximal_cones) <= record.USER_FAN_CONES[1]


def test_certify_candidates_are_primitive_and_in_range():
    candidates = record.certify_candidates()
    assert len(set(candidates)) == len(candidates)
    assert all(math.gcd(*n) == 1 and wl.CERTIFY_N1[0] <= n[0] <= wl.CERTIFY_N1[1] for n in candidates)


def test_pinned_scan_summaries():
    goldens = wl.load_scan_goldens()
    assert set(goldens) == set(wl.SCANS)
    d3 = goldens["scan-d3"]
    assert (d3["total"], d3["epsilon_lc"], d3["singular"], d3["fired"], d3["failures"]) == (1929, 1929, 0, 0, 0)
    d2 = goldens["scan-d2"]
    assert d2["singular"] == d2["fired"] > 0 and d2["failures"] == 0


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_named_metric(workload, trace):
    result = _run(workload, trace)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_refuses_a_directory_without_the_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify-d3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_p90_stays_within_the_samples():
    import run

    children = [{"latencies_ns": [1e9, 2e9], "speeds": [1.0, 1.0], "instances": 10, "peak_rss_mb": 20.0}]
    setups = [{"setup_s": s, "setup_speed": 1.0} for s in (0.1, 0.3, 0.2)]
    metrics = run.end_to_end(children, setups)
    assert 1000 < metrics["latency_p90_ms"] <= 2000
    assert metrics["setup_s"] == 0.2
