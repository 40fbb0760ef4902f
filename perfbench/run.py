"""The toricfib benchmark.  Run from the repository root:

    python3 perfbench/run.py --workload certify-d3 --seed 1 --seconds 20 --trace 0

Workloads: scan-d2, scan-d3, certify-d3, mld-userfan (see README.md).
Every measurement runs in a fresh interpreter (``child.py``), one at a
time.  With ``--trace 0`` it reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run plus the tracing
overhead against an untraced run of the same work.  End-to-end times are
reported at reference speed (see ``workloads.REFERENCE_S``); the times as
measured go to stderr.  The last line of stdout is one JSON object:
correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
# Fresh interpreters per untraced run: each scan runs in its own; the
# per-call workloads split the run into this many time slices.  After the
# measured work, SETUP_SAMPLES more interpreters only set up, so that every
# workload's setup_s is a median over enough samples.
SLICES = 5
MIN_SCANS = 2
SETUP_SAMPLES = 15
# Every measurement of a run must end this many seconds after it starts.
RUN_LIMIT_S = 170

UNITS = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "calls_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class ChildFailed(RuntimeError):
    pass


@dataclass
class Runner:
    """Starts measurements in the checkout at ``root``, one at a time, each
    in its own session so that a measurement overrunning ``deadline``
    (a ``time.monotonic`` value) is killed together with its pool workers."""

    root: str
    deadline: float

    def child(self, **spec) -> dict:
        spec = {"jobs": 1, "limit": None, "offset": 0, "trace": False, "probe": False, "setup_only": False, **spec}
        with subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), str(spec["jobs"]), json.dumps(spec)],
            cwd=self.root,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        ) as proc:
            try:
                out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise ChildFailed(f"a measurement did not end within {RUN_LIMIT_S} s") from None
        if proc.returncode != 0:
            raise ChildFailed(f"measurement exited with {proc.returncode}:\n{err[-2000:]}")
        return json.loads(out.strip().splitlines()[-1])


def untraced(runner: Runner, workload: str, seed: int, seconds: float) -> tuple[list[dict], list[dict]]:
    """The measuring interpreters of an untraced run, and its set-up-only
    ones."""
    children: list[dict] = []
    if workload in wl.SCANS:
        spent = 0.0
        # start another scan only while it is expected to end within the run
        while len(children) < MIN_SCANS or spent * (len(children) + 1) / len(children) <= seconds:
            child = runner.child(workload=workload, seed=seed, seconds=seconds, limit=1, probe=True)
            children.append(child)
            spent += child["setup_s"] + child["wall_s"]
    else:
        offset = 0
        for _ in range(SLICES):
            child = runner.child(workload=workload, seed=seed, seconds=seconds / SLICES, offset=offset, probe=True)
            children.append(child)
            offset += len(child["latencies_ns"])
    setups = [runner.child(workload=workload, seed=seed, seconds=seconds, setup_only=True) for _ in range(SETUP_SAMPLES)]
    return children, children + setups


def at_reference_speed(child: dict) -> list[float]:
    """A probed child's call times in nanoseconds at reference speed."""
    return [t * s for t, s in zip(child["latencies_ns"], child["speeds"])]


def busy_s(child: dict) -> float:
    return sum(at_reference_speed(child)) / 1e9


def end_to_end(children: list[dict], setups: list[dict], scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics of the measuring interpreters ``children``,
    with set-up timed in ``setups``; times at reference speed unless
    ``scaled`` is false."""
    if scaled:
        latencies = sorted(t for c in children for t in at_reference_speed(c))
        setup_times = [c["setup_s"] * c["setup_speed"] for c in setups]
    else:
        latencies = sorted(t for c in children for t in c["latencies_ns"])
        setup_times = [c["setup_s"] for c in setups]
    busy = sum(latencies) / 1e9
    p50 = statistics.median(latencies) / 1e6
    # inclusive: p90 stays within the samples however few scans a run holds
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8] / 1e6 if len(latencies) > 1 else p50
    return {
        "setup_s": statistics.median(setup_times),
        "instances_per_s": sum(c["instances"] for c in children) / busy,
        "calls_per_s": len(latencies) / busy,
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
    }


def traced(runner: Runner, workload: str, seed: int, seconds: float, trace_path: str) -> tuple[list[dict], dict]:
    """A traced run (scans at jobs=1) and an untraced run of the same work,
    both probed, so the overhead compares times at reference speed; scans
    add an untraced POOL_JOBS run for the parent/worker CPU split."""
    common = {"workload": workload, "seed": seed, "probe": True}
    if workload in wl.SCANS:
        common.update(seconds=seconds, limit=1)
    else:
        common.update(seconds=seconds / 2)
    trace = runner.child(trace=True, trace_path=trace_path, **common)
    common["limit"] = len(trace["latencies_ns"])
    reference = runner.child(**common)
    children = [trace, reference]
    metrics = dict(trace["layers"])
    metrics["trace.overhead_frac"] = busy_s(trace) / busy_s(reference) - 1
    split = {"parent_cpu_s": 0.0, "worker_cpu_s": 0.0}
    if workload in wl.SCANS:
        pooled = runner.child(workload=workload, seed=seed, seconds=seconds, limit=1, jobs=wl.POOL_JOBS)
        children.append(pooled)
        split = pooled
    metrics["criterion.scan.parent_cpu_s"] = split["parent_cpu_s"]
    metrics["criterion.scan.worker_cpu_s"] = split["worker_cpu_s"]
    return children, metrics


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("hit_ratio", "per_call", "coverage", "overhead_frac")):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    runner = Runner(os.getcwd(), time.monotonic() + RUN_LIMIT_S)
    root = runner.root
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "toricfib", "__init__.py")):
        print(f"error: no toricfib source under {src}; run from the repository root", file=sys.stderr)
        return 2
    # Compile the package once, so every measured import reads bytecode as
    # an installed CLI would.
    warm = subprocess.run([sys.executable, "-c", "import toricfib.serialize"], cwd=root, env={**os.environ, "PYTHONPATH": src})
    if warm.returncode != 0:
        print("error: toricfib does not import", file=sys.stderr)
        return 2

    try:
        if args.trace:
            out_dir = os.path.join(HERE, "out")
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.jsonl")
            children, metrics = traced(runner, args.workload, args.seed, args.seconds, path)
            units = {name: layer_unit(name) for name in metrics}
        else:
            children, setups = untraced(runner, args.workload, args.seed, args.seconds)
            metrics = end_to_end(children, setups)
            units = UNITS
            raw = end_to_end(children, setups, scaled=False)
            print("as measured: " + json.dumps(raw), file=sys.stderr)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(c["latencies_ns"]) for c in children)
    failed = sum(c["failed"] for c in children)
    for c in children:
        for line in c["mismatches"]:
            print(f"mismatch: {line}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
