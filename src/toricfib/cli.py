"""Command-line interface: every subcommand reads exact inputs and writes
one deterministic JSON report to stdout.

Exit codes: 0 success, 2 invalid input (one line ``error: <message>`` on
stderr), 4 an internal invariant failed (one JSON error record carrying
the arguments on stderr); the last two write nothing to stdout.
The CLI only parses flags and files, and ``main`` writes the report that
each subcommand returns.  Vectors, comma-separated integers in --n and
--l and integer arrays in JSON files (--in instances, --fan rays), must
have length d, so d is checked first, before any vector is parsed, by the
library's rule ``exactmath.check_int``; the CLI checks a vector's shape,
and the library its entries (``exactmath.lattice_vector``).  Giving --in
with any of --d, --r, --eps, --n or --l is invalid input, and so is mld's
--fan with --fan-of-v, --d or --n; certify needs all of d, r, eps, n and l.
Every other rule (r >= 1, eps in (0, 1], n and l primitive, ...) is the
library's, and its ``ValueError`` is exit 2.  scan --jobs N (default 1)
starts at most min(N, usable CPUs, tasks) worker processes, one task per
n_1 that can hold a singular class, and runs in this process when that
is at most 1; the worker machinery is imported when the first pool
starts, so no other command loads it.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Mapping, Sequence

from . import criterion, serialize, surface
from .divisors import toric_mld, zero_divisor
from .exactmath import InvariantViolation, check_int
from .models import model_V_mld
from .serialize import InputError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 4


def _load_json(path: str) -> Mapping[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError(f"{path} must contain a JSON object")
    return doc


def _flag_vector(text: str, expected_dim: int) -> tuple[int, ...]:
    """A vector given on the command line as comma-separated integers."""
    try:
        entries = [int(part) for part in text.split(",")]
    except ValueError:
        raise InputError(f"vectors must be comma-separated integers, got {text!r}") from None
    return serialize.parse_vector(entries, expected_dim)


def _instance_from_args(args: argparse.Namespace) -> tuple:
    flags = (("--d", args.d), ("--r", args.r), ("--eps", args.eps), ("--n", args.n), ("--l", args.l))
    if args.infile:
        given = [flag for flag, value in flags if value is not None]
        if given:
            raise InputError(f"--in cannot be combined with {', '.join(given)}")
        doc = _load_json(args.infile)
        try:
            d = doc["d"]
            r = doc["r"]
            eps = serialize.parse_rational(doc["eps"])
            check_int(d, "d", 2)
            n = serialize.parse_vector(doc["n"], d)
            l = serialize.parse_vector(doc["l"], d)
        except KeyError as exc:
            raise InputError(f"instance file is missing key {exc}") from None
        return d, r, eps, n, l
    missing = [flag for flag, value in flags if value is None]
    if missing:
        raise InputError(f"missing {', '.join(missing)} (or provide --in)")
    eps = serialize.parse_rational(args.eps)
    check_int(args.d, "d", 2)
    return args.d, args.r, eps, _flag_vector(args.n, args.d), _flag_vector(args.l, args.d)


def _cmd_certify(args: argparse.Namespace) -> criterion.CertificateReport:
    return criterion.certify(*_instance_from_args(args))


def _cmd_mld(args: argparse.Namespace) -> serialize.MldReport:
    if args.fan:
        others = (("--fan-of-v", args.fan_of_v or None), ("--d", args.d), ("--n", args.n))
        given = [flag for flag, value in others if value is not None]
        if given:
            raise InputError(f"--fan cannot be combined with {', '.join(given)}")
        fan = serialize.fan_from_dict(_load_json(args.fan))
        d = fan.ambient_dim
        value, minimizer = toric_mld(fan, zero_divisor(fan))
    elif args.fan_of_v:
        if args.d is None or args.n is None:
            raise InputError("--fan-of-v needs --d and --n")
        d = check_int(args.d, "d", 2)
        value, minimizer = model_V_mld(d, _flag_vector(args.n, d))
    else:
        raise InputError("either --fan-of-v or --fan is required")
    return serialize.MldReport(d, value, minimizer)


def _cmd_example(args: argparse.Namespace) -> surface.ChainReport:
    return surface.example_verify(args.n, args.r, serialize.parse_rational(args.eps))


def _cmd_scan(args: argparse.Namespace) -> criterion.ScanSummary:
    eps = serialize.parse_rational(args.eps)
    return criterion.scan(args.d, args.r, eps, args.bound, jobs=args.jobs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricfib",
        description="Exact computations on toric fibration models over the affine line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    certify = sub.add_parser("certify", help="run the negativity certificate on one instance")
    certify.add_argument("--d", type=int)
    certify.add_argument("--r", type=int)
    certify.add_argument("--eps", type=str)
    certify.add_argument("--n", type=str)
    certify.add_argument("--l", type=str)
    certify.add_argument("--in", dest="infile", type=str)
    certify.set_defaults(handler=_cmd_certify)

    mld = sub.add_parser("mld", help="minimal log discrepancy of a fan")
    mld.add_argument("--fan-of-v", action="store_true", dest="fan_of_v")
    mld.add_argument("--d", type=int)
    mld.add_argument("--n", type=str)
    mld.add_argument("--fan", type=str)
    mld.set_defaults(handler=_cmd_mld)

    example = sub.add_parser("example", help="verify the chain family closed forms")
    example.add_argument("--n", type=int, required=True)
    example.add_argument("--r", type=int, required=True)
    example.add_argument("--eps", type=str, required=True)
    example.set_defaults(handler=_cmd_example)

    scan = sub.add_parser("scan", help="sweep all primitive vectors up to a bound")
    scan.add_argument("--d", type=int, required=True)
    scan.add_argument("--r", type=int, required=True)
    scan.add_argument("--eps", type=str, required=True)
    scan.add_argument("--bound", type=int, required=True)
    scan.add_argument("--jobs", type=int, default=1)
    scan.set_defaults(handler=_cmd_scan)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        sys.stdout.write(serialize.dumps(serialize.encode(args.handler(args))))
        return EXIT_OK
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InvariantViolation as exc:
        record = {
            "schema_version": serialize.SCHEMA_VERSION,
            "kind": "internal-error",
            "message": str(exc),
            "argv": list(sys.argv[1:] if argv is None else argv),
        }
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
