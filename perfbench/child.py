"""One measurement in a fresh interpreter, started by ``run.py``.

    python3 perfbench/child.py <jobs> '<json spec>'

Every measurement starts cold because the result path is full of
unbounded ``lru_cache`` caches and a CLI user pays that cost on every
invocation.  Set-up is the import of toricfib, timed before this file
imports anything else, plus loading this child's inputs; a set-up-only
child stops there.  The timed loop then runs operations until the spec's
time slice or operation limit is used up.  Each output's digest is
compared with its golden digest outside the timed region.  Set-up is followed by seven
timings of ``workloads.setup_kernel``, which scale it.  Probed runs then
time the machine-speed kernel (``workloads.reference_kernel``) five times
and between every two calls, or, for a scan, from a thread every
PROBE_INTERVAL_S seconds.  The last line of stdout is one JSON
object with the raw measurements.
"""

import os
import sys
import time

# Set-up starts here, before any module the measured import might share:
# pin (argv[1] is the spec's job count), start the clock, import toricfib.
if sys.argv[1] == "1":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
T0 = time.perf_counter()
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import toricfib  # noqa: E402,F401
from toricfib import serialize  # noqa: E402,F401

IMPORT_S = time.perf_counter() - T0

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import threading  # noqa: E402

import workloads as wl  # noqa: E402

PROBE_INTERVAL_S = 0.1


def _ops(spec: dict):
    """(operation, [(args, golden digest), ...]) for the spec's workload."""
    from toricfib import criterion, divisors, serialize

    name = spec["workload"]
    if name in wl.SCANS:
        d, r, eps, bound = wl.SCANS[name]
        gold = wl.load_scan_goldens()[name]["digest"]

        def op(encode):
            summary = criterion.scan(d, r, eps, bound, jobs=spec["jobs"])
            return summary.total, encode(serialize.dumps, serialize.scan_summary_to_dict(summary))

        return op, [((), gold)]
    if name == "certify-d3":
        stream = wl.certify_stream(spec["seed"])

        def op(encode, n, l):
            report = criterion.certify(wl.CERTIFY_D, wl.CERTIFY_R, wl.CERTIFY_EPS, n, l)
            return 1, encode(serialize.dumps, serialize.certificate_to_dict(report))

        items = [((n, l), gold) for n, l, gold in stream]
    else:
        stream = wl.userfan_stream(spec["seed"])

        def op(encode, doc):
            fan = serialize.fan_from_dict(doc)
            value, minimizer = divisors.toric_mld(fan, divisors.zero_divisor(fan))
            return 1, encode(serialize.dumps, serialize.mld_report_to_dict(fan.ambient_dim, value, minimizer))

        items = [((doc,), gold) for doc, gold in stream]
    offset = spec["offset"] % len(items)
    return op, items[offset:] + items[:offset]


def timed(kernel) -> float:
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t


def probe() -> float:
    return timed(wl.reference_kernel)


class ProbeThread:
    """Times the reference kernel every PROBE_INTERVAL_S seconds, by thread
    CPU time, while the main thread runs one long call.  The process is
    pinned to one CPU, so the probes see the speed of the CPU the call runs
    on; each probe takes the interpreter lock from the call for about a
    millisecond."""

    def __init__(self) -> None:
        self.speeds: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_S):
            t = time.thread_time()
            wl.reference_kernel()
            self.speeds.append(wl.REFERENCE_S / (time.thread_time() - t))

    def __enter__(self) -> "ProbeThread":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def main() -> int:
    spec = json.loads(sys.argv[2])
    t1 = time.perf_counter()
    op, items = _ops(spec)
    setup_s = IMPORT_S + time.perf_counter() - t1
    setup_speed = wl.SETUP_REFERENCE_S / statistics.median(timed(wl.setup_kernel) for _ in range(7))
    if spec["setup_only"]:
        print(json.dumps({"setup_s": setup_s, "setup_speed": setup_speed}))
        return 0
    start_speed = wl.REFERENCE_S / statistics.median(probe() for _ in range(5))

    tracer = None
    encode = lambda fn, doc: fn(doc)  # noqa: E731
    if spec["trace"]:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
        encode = tracer.encode
    # End-to-end runs are probed: per-call loops between calls, a scan (one
    # long call) from a probe thread.
    scan = spec["workload"] in wl.SCANS
    probes = [probe()] if spec["probe"] and not scan else []
    speeds: list[float] = []

    limit = spec["limit"] or len(items)
    latencies: list[int] = []
    instances = failed = 0
    mismatches: list[str] = []
    cpu0 = os.times()
    start = time.perf_counter()
    deadline = start + spec["seconds"]
    while len(latencies) < limit and (spec["limit"] or time.perf_counter() < deadline):
        args, gold = items[len(latencies)]
        with ProbeThread() if spec["probe"] and scan else contextlib.nullcontext() as thread:
            t = time.perf_counter_ns()
            try:
                count, text = op(encode, *args)
            except Exception as exc:  # a failing operation is counted, not fatal
                count, text = 0, repr(exc)
            latencies.append(time.perf_counter_ns() - t)
        if thread is not None:
            speeds.append(statistics.fmean(thread.speeds) if thread.speeds else start_speed)
        instances += count
        if wl.digest(text) != gold:
            failed += 1
            if len(mismatches) < 3:
                mismatches.append(f"{args!r}: {text[:200]}")
        if probes:
            probes.append(probe())
    wall_s = time.perf_counter() - start
    cpu1 = os.times()
    if probes:
        # REFERENCE_S over the mean of the two probes around each call
        speeds = [2 * wl.REFERENCE_S / (before + after) for before, after in zip(probes, probes[1:])]

    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "setup_s": setup_s,
        "setup_speed": setup_speed,
        "latencies_ns": latencies,
        "speeds": speeds if spec["probe"] else None,
        "instances": instances,
        "wall_s": wall_s,
        "failed": failed,
        "mismatches": mismatches,
        "peak_rss_mb": kb / 1024,
        "parent_cpu_s": (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
        "worker_cpu_s": (cpu1.children_user - cpu0.children_user)
        + (cpu1.children_system - cpu0.children_system),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(wall_s)
        tracer.write(spec["trace_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
