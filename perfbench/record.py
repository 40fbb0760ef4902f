"""Record the benchmark's input pools and golden digests.

Run from the repository root, once per deliberate change of the pools:

    python3 perfbench/record.py

It rewrites all three files ``perfbench/data/*.json``.
Every certify-d3 instance is certified and must fire; every user fan's mld
is cross-checked against the independent bounding-cube oracle
``brute_force_mld`` in ``tests/oracles.py``.  The work is spread over two
worker processes.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), os.path.join(ROOT, "perfbench")]

from toricfib import serialize  # noqa: E402
from toricfib.criterion import certify, epsilon_prime, scan  # noqa: E402
from toricfib.divisors import toric_mld, zero_divisor  # noqa: E402
from toricfib.exactmath import primitive  # noqa: E402
from toricfib.fan import standard_fibration_fan, star_subdivide  # noqa: E402
from toricfib.models import model_V  # noqa: E402

import workloads as wl  # noqa: E402

RECORD_SEED = 20230530
USER_FANS = 300
USER_FAN_CONES = (18, 22)
USER_FAN_MAX_ENTRY = 3


def certify_candidates() -> list[tuple[int, ...]]:
    """Every primitive n with n_1 in CERTIFY_N1 and horizontal entries of
    absolute value at most CERTIFY_HORIZONTAL, in lexicographic order."""
    lo, hi = wl.CERTIFY_N1
    h = wl.CERTIFY_HORIZONTAL
    return [
        (n1, a, b)
        for n1 in range(lo, hi + 1)
        for a in range(-h, h + 1)
        for b in range(-h, h + 1)
        if math.gcd(n1, a, b) == 1
    ]


def certify_entry(n: tuple[int, ...]) -> list | None:
    """[n, l, digest] for a singular n (l the mld minimizer of V_n, the
    choice ``scan`` makes), None for an eps'-lc one."""
    d, r, eps = wl.CERTIFY_D, wl.CERTIFY_R, wl.CERTIFY_EPS
    v = model_V(d, n)
    value, l = toric_mld(v.fan, zero_divisor(v.fan))
    if value >= epsilon_prime(d, r, eps):
        return None
    report = certify(d, r, eps, n, l)
    if not report.fires or l[0] <= 0:
        raise AssertionError(f"instance {n} did not fire")
    return [list(n), list(l), wl.digest(serialize.dumps(serialize.certificate_to_dict(report)))]


def generate_user_fans(seed: int, count: int) -> list[dict]:
    """``count`` distinct d=3 fans of USER_FAN_CONES maximal cones, grown
    from the standard fibration fan by star subdivisions at small primitive
    vectors, with rays, cones and the rays inside each cone listed in a
    shuffled order as a user might write them."""
    rng = random.Random(seed)
    seen: set = set()
    fans: list[dict] = []
    while len(fans) < count:
        fan = standard_fibration_fan(3)
        target = rng.randint(*USER_FAN_CONES)
        while len(fan.maximal_cones) < target:
            cone = rng.choice(fan.maximal_cones)
            used = rng.sample(cone.rays, rng.randint(2, 3))
            v = primitive(tuple(sum(rng.randint(1, 2) * ray[i] for ray in used) for i in range(3)))
            if max(abs(x) for x in v) > USER_FAN_MAX_ENTRY or v in fan.rays:
                continue
            fan = star_subdivide(fan, v)
        if fan.maximal_cones in seen:
            continue
        seen.add(fan.maximal_cones)
        rays = list(fan.rays)
        rng.shuffle(rays)
        index = {ray: i for i, ray in enumerate(rays)}
        cones = [rng.sample([index[ray] for ray in c.rays], 3) for c in fan.maximal_cones]
        rng.shuffle(cones)
        fans.append({"rays": [list(ray) for ray in rays], "cones": cones})
    return fans


def userfan_digest(entry: dict) -> str:
    """Golden digest of one user fan's mld report, after checking the mld
    and its minimizer against the brute-force oracle."""
    from oracles import brute_force_mld

    fan = serialize.fan_from_dict(wl.fan_doc(entry["rays"], entry["cones"]))
    value, minimizer = toric_mld(fan, zero_divisor(fan))
    if brute_force_mld(fan, zero_divisor(fan)) != (value, minimizer):
        raise AssertionError(f"brute-force oracle disagrees on fan {entry}")
    return wl.digest(serialize.dumps(serialize.mld_report_to_dict(3, value, minimizer)))


def scan_golden(name: str) -> dict:
    d, r, eps, bound = wl.SCANS[name]
    summary = scan(d, r, eps, bound, jobs=1)
    return {
        "total": summary.total,
        "epsilon_lc": summary.epsilon_lc,
        "singular": summary.singular,
        "fired": summary.fired,
        "failures": len(summary.failures),
        "digest": wl.digest(serialize.dumps(serialize.scan_summary_to_dict(summary))),
    }


def _write(name: str, doc: dict) -> None:
    with open(os.path.join(wl.DATA, name), "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")


def main() -> int:
    os.makedirs(wl.DATA, exist_ok=True)
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(2) as pool:
        entries = [e for e in pool.map(certify_entry, certify_candidates(), chunksize=64) if e]
        _write(
            "certify_d3.json",
            {"d": wl.CERTIFY_D, "r": wl.CERTIFY_R, "eps": str(wl.CERTIFY_EPS), "instances": entries},
        )
        print(f"certify-d3: {len(entries)} singular instances", flush=True)
        fans = generate_user_fans(RECORD_SEED, USER_FANS)
        for fan, gold in zip(fans, pool.map(userfan_digest, fans, chunksize=4)):
            fan["digest"] = gold
        _write("userfan_d3.json", {"fans": fans})
        print(f"mld-userfan: {len(fans)} fans, all matching the brute-force oracle", flush=True)
        scans = dict(zip(wl.SCANS, pool.map(scan_golden, wl.SCANS)))
        _write("scans.json", scans)
        print(f"scans: {scans}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
