"""JSON encoding for reports and input files.

Rationals travel as exact lowest-terms strings ("2/5", "-3", "1"); floats
are rejected everywhere.  Every report is a dataclass written by one
encoder, ``encode``: a report becomes a document carrying schema_version 1,
its kind and a legend describing each quantity, and a report nested inside
another keeps that envelope.  ``encode`` reads each report class through a
field plan built on its first use: the keys and attributes of its fields,
its derived properties, its constants and its envelope.  One writer,
``dumps``, emits the text: sorted keys, two-space indentation and ASCII
escapes, byte for byte what ``json.dumps(doc, sort_keys=True, indent=2)``
writes, which the tests hold it to.  Reports are output only; nothing
reads them back in.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Mapping

from .criterion import CertificateReport, ExplicitBounds, ScanSummary
from .exactmath import LatticeVector, Rat, check_int
from .fan import Cone, Fan
from .surface import ChainReport

SCHEMA_VERSION = 1

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


class InputError(ValueError):
    """Malformed user input (bad rational, non-primitive vector, ...)."""


def parse_rational(text: Any) -> Rat:
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise InputError(f"rationals must be p/q, got {text!r}")
    return Fraction(text.strip())


def parse_vector(value: Any, expected_dim: int | None = None) -> LatticeVector:
    """A lattice vector from a JSON document: an array of integers."""
    if not isinstance(value, (list, tuple)):
        raise InputError(f"vectors must be integer arrays, got {value!r}")
    if any(isinstance(e, bool) or not isinstance(e, int) for e in value):
        raise InputError(f"vector entries must be integers, got {value!r}")
    entries = tuple(value)
    if not entries:
        raise InputError("vectors must have at least one entry")
    if expected_dim is not None and len(entries) != expected_dim:
        raise InputError(f"expected a vector of length {expected_dim}, got {len(entries)}")
    return entries


@dataclass(frozen=True)
class MldReport:
    """The mld of a fan (with zero boundary) and its minimizer."""

    d: int
    mld: Rat
    minimizer: LatticeVector


# kind and legend of each report that is a document of its own
_ENVELOPES: dict[type, tuple[str, dict[str, str]]] = {
    CertificateReport: (
        "certificate",
        {
            "n": "primitive vector of the fiber support divisor T on the model V",
            "l": "primitive vector of the extracted divisor D",
            "a": "log discrepancy of D with respect to (V, 0)",
            "gamma": "coefficient of n when l is written on its smallest cone; equals l_1/n_1",
            "alphas": "horizontal-ray coefficients of that decomposition",
            "lambda": "coefficient of l in the swapped decomposition; equals n_1/l_1 = 1/gamma",
            "betas": "horizontal-ray coefficients of the swapped decomposition",
            "u": "(r - 1) times the sum of the alphas",
            "eps_prime": "threshold eps/(3 d r) below which the explicit bounds apply",
            "lhs": "eps - a - u",
            "rhs": "(r - 1) times the sum of gamma * beta_k",
            "fires": "strict inequality lhs > rhs: the transformed fiber divisor is"
            " certified inside the divisorial negative part of K_Y + theta over the base",
            "bounds": "explicit sufficient bounds, evaluated only when a < eps_prime",
        },
    ),
    ScanSummary: (
        "scan",
        {
            "epsilon_lc": "instances whose model V has mld >= eps_prime; nothing to certify",
            "singular": "instances below the threshold, certified via their mld minimizer",
            "fired": "singular instances whose certificate fired",
            "failures": "singular instances whose certificate failed to fire (expected none)",
        },
    ),
    ChainReport: (
        "chain",
        {
            "a": "log discrepancy of the contracted divisor on V; closed form 2/n",
            "d_dot_t": "pairing of D with the transformed fiber divisor; closed form 1",
            "pairing": "pairing of K_Y + theta with the transformed fiber divisor;"
            " closed form -eps + 2r/n",
            "coincidence_ok": "certificate fires exactly when the pairing is negative",
        },
    ),
    MldReport: (
        "mld",
        {
            "mld": "minimal log discrepancy over the primitive vectors of the support",
            "minimizer": "lexicographically smallest primitive vector attaining it",
        },
    ),
}
# properties written next to the fields
_DERIVED: dict[type, tuple[str, ...]] = {
    ExplicitBounds: ("all_hold",),
    ChainReport: ("all_pass",),
}
_CONSTANTS: dict[type, dict[str, str]] = {
    ScanSummary: {
        "epsilon_lc_note": "fiber multiplicity bounded by the external boundedness theorem",
    },
}
_RENAMED = {"lam": "lambda"}
# JSON scalars that a report holds and that encode to themselves
_SCALARS = frozenset((type(None), bool, int, str))
# a report class's (key, attribute) pairs, its derived properties, and the
# constants and envelope written after them
_Plan = tuple[tuple[tuple[str, str], ...], tuple[str, ...], dict[str, Any]]
# one plan per report class, built on its first use
_PLANS: dict[type, _Plan] = {}


def _plan(cls: type) -> _Plan:
    if not is_dataclass(cls):
        raise TypeError(f"cannot encode {cls.__name__} exactly")
    pairs = tuple((_RENAMED.get(f.name, f.name), f.name) for f in fields(cls))
    extra = dict(_CONSTANTS.get(cls, {}))
    if cls in _ENVELOPES:
        kind, legend = _ENVELOPES[cls]
        extra.update(schema_version=SCHEMA_VERSION, kind=kind, legend=legend)
    plan = _PLANS[cls] = (pairs, _DERIVED.get(cls, ()), extra)
    return plan


def encode(value: Any) -> Any:
    """The JSON value of a report or of anything inside one: a dataclass
    becomes an object of its fields (a report adds its envelope), a
    Fraction its string, a tuple or list an array.  Leaves are dispatched
    on their exact type; a dataclass is written by the plan of its class."""
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind is Fraction:
        return str(value)
    if kind is tuple or kind is list:
        return [encode(item) for item in value]
    pairs, derived, extra = _PLANS.get(kind) or _plan(kind)
    doc = {key: encode(getattr(value, attr)) for key, attr in pairs}
    for name in derived:
        doc[name] = getattr(value, name)
    doc.update(extra)
    return doc


certificate_to_dict = encode
scan_summary_to_dict = encode


def mld_report_to_dict(d: int, value: Rat, minimizer: LatticeVector) -> dict[str, Any]:
    return encode(MldReport(d, Fraction(value), minimizer))


def fan_from_dict(doc: Mapping[str, Any]) -> Fan:
    try:
        dim = doc["ambient_dim"]
        cones = doc["maximal_cones"]
    except (KeyError, TypeError):
        raise InputError("fan documents need keys 'ambient_dim' and 'maximal_cones'") from None
    arrays = (list, tuple)
    try:
        check_int(dim, "ambient_dim", 1)
        if not isinstance(cones, arrays) or not all(isinstance(rays, arrays) for rays in cones):
            raise InputError("maximal_cones must be an array of ray arrays")
        return Fan(dim, tuple(Cone(tuple(parse_vector(r, dim) for r in rays)) for rays in cones))
    except ValueError as exc:
        raise InputError(str(exc)) from None


_LITERALS = {None: "null", True: "true", False: "false"}


def _write(value: Any, newline: str, out: list[str]) -> None:
    """Append the text of ``value`` to ``out``.  ``newline`` is a newline
    and the indentation of ``value``'s own line; its members go on lines
    indented two spaces more."""
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(f"{sep}{encode_basestring_ascii(key)}: ")
            _write(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif kind is bool or value is None:
        out.append(_LITERALS[value])
    else:
        raise TypeError(f"cannot write {kind.__name__} as JSON")


def dumps(doc: Mapping[str, Any]) -> str:
    """The text of ``json.dumps(doc, sort_keys=True, indent=2)`` and a
    newline, for a document of dicts with str keys, lists (or tuples),
    str, int, bool and None; any other type raises ``TypeError``."""
    out: list[str] = []
    _write(doc, "\n", out)
    out.append("\n")
    return "".join(out)
