"""Workload definitions shared by the runner, the measuring child, the
golden recorder and the self-tests.

Inputs come from committed pools recorded at a fixed commit
(``data/*.json``), each entry carrying the digest of its deterministic
JSON output.  A run's ``--seed`` draws a permutation of a pool, so the same
seed gives the same stream, every stream is free of duplicates, and every
output can be checked against its golden digest.  The two scan workloads
sweep a fixed family whose summary is pinned; the seed does not change it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import marshal
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")

# (d, r, eps, bound) of the two scan workloads.  End-to-end and traced
# scans run at jobs=1 (see REFERENCE_S); the traced run adds one scan at
# POOL_JOBS for the split of CPU time between the parent and its workers.
SCANS = {
    "scan-d2": (2, 1, Fraction(1, 2), 40),
    "scan-d3": (3, 2, Fraction(1, 3), 8),
}
POOL_JOBS = 2

# Parameters of every certify-d3 instance.  n_1 ranges over the start of
# the d=3 singular stratum, where (N, 1, 1) has mld 2/N < eps/(3 d r) = 1/54;
# n_1 <= 200 holds only 447 singular instances, fewer than one run uses, so
# the range goes on to 300.
CERTIFY_D, CERTIFY_R, CERTIFY_EPS = 3, 2, Fraction(1, 3)
CERTIFY_N1 = (109, 300)
CERTIFY_HORIZONTAL = 3

WORKLOADS = ("scan-d2", "scan-d3", "certify-d3", "mld-userfan")


# Machine-speed probe.  On the shared two-CPU host the benchmark was defined
# on (Xeon, Python 3.11.7), each CPU independently switches every few
# seconds between a fast state and one about 1.7x slower, so raw timings
# spread by 10-30% from run to run, and a two-process scan cannot be
# corrected from outside its workers.  End-to-end measurements therefore
# run in one process pinned to one CPU, time this fixed pure-Python kernel
# (Fraction arithmetic, small tuples, dict updates, like toricfib's own
# code) next to the measured work, and report times at reference speed:
# measured time x REFERENCE_S / kernel time.  REFERENCE_S is the kernel's
# median in the fast state there and must never change, or every number
# shifts.
REFERENCE_S = 0.0013


def reference_kernel() -> int:
    acc = Fraction(0)
    seen: dict = {}
    for i in range(1, 400):
        row = tuple((i * j) % 11 - 5 for j in range(4))
        seen[row] = seen.get(row, 0) + 1
        acc += Fraction(row[0] + 7, (i % 5) + 1)
    return acc.numerator + len(seen)


# Set-up probe.  Importing toricfib and loading a pool is bound by
# compiling (dataclass methods), unmarshalling bytecode and parsing JSON,
# and slows down less than reference_kernel in the slow CPU state: scaled
# by that kernel, the set-up medians of ten runs spread by 0.09-0.20, and
# by this kernel, which does the same three kinds of work, by 0.03-0.05.
# SETUP_REFERENCE_S is its time in the fast state there and must never
# change either.
SETUP_REFERENCE_S = 0.0047

_SETUP_SOURCE = "".join(
    f"@dataclasses.dataclass(frozen=True)\nclass C{i}:\n    a: int\n    b: tuple\n\n"
    f"    def f(self, x):\n        return [self.a * y for y in x if y % 3]\n"
    for i in range(6)
)
_SETUP_DOC = json.dumps({"instances": [[[i, i % 7, -3], [1, 0, 0], f"{i * 7919:020x}"] for i in range(400)]})


def setup_kernel() -> int:
    code = marshal.loads(marshal.dumps(compile(_SETUP_SOURCE, "<setup-kernel>", "exec")))
    namespace = {"dataclasses": dataclasses}
    exec(code, namespace)
    return len(namespace) + len(json.loads(_SETUP_DOC)["instances"])


def digest(text: str) -> str:
    """Golden digest of one deterministic JSON document."""
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def _load(name: str) -> dict:
    with open(os.path.join(DATA, name)) as fh:
        return json.load(fh)


def load_scan_goldens() -> dict:
    return _load("scans.json")


def certify_stream(seed: int) -> list[tuple[tuple[int, ...], tuple[int, ...], str]]:
    """The pool of distinct singular d=3 instances (n, l, golden digest) in
    the order drawn by ``seed``; l is the mld minimizer of V_n."""
    pool = [(tuple(n), tuple(l), gold) for n, l, gold in _load("certify_d3.json")["instances"]]
    random.Random(seed).shuffle(pool)
    return pool


def fan_doc(rays: list[list[int]], cones: list[list[int]]) -> dict:
    """The JSON fan document a user would pass to ``toricfib mld --fan``."""
    return {"ambient_dim": len(rays[0]), "maximal_cones": [[rays[i] for i in cone] for cone in cones]}


def userfan_stream(seed: int) -> list[tuple[dict, str]]:
    """The pool of distinct user fan documents (with golden digest) in the
    order drawn by ``seed``."""
    pool = [(fan_doc(f["rays"], f["cones"]), f["digest"]) for f in _load("userfan_d3.json")["fans"]]
    random.Random(seed).shuffle(pool)
    return pool
