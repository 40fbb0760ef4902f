import concurrent.futures
import json
import multiprocessing
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from oracles import rebind_everywhere

from toricfib import cli, criterion, exactmath, models, serialize, surface
from toricfib.exactmath import InvariantViolation

CERTIFY = ["certify", "--d", "2", "--r", "1", "--eps", "1/2", "--n", "5,1", "--l", "1,0"]


def test_invariant_violation_is_a_json_record(monkeypatch, capsys):
    def broken(*args):
        raise InvariantViolation("the two smallest-cone decompositions do not glue")

    monkeypatch.setattr(cli.criterion, "certify", broken)
    assert cli.main(CERTIFY) == cli.EXIT_INTERNAL
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {
        "schema_version": 1,
        "kind": "internal-error",
        "message": "the two smallest-cone decompositions do not glue",
        "argv": CERTIFY,
    }


def test_example_model_disagreement_is_a_json_record(monkeypatch, capsys):
    model_Y = surface.model_Y
    monkeypatch.setattr(
        surface, "model_Y", lambda v, l, r, eps: model_Y(models.model_V(2, (7, 1)), l, r, eps)
    )
    argv = ["example", "--n", "6", "--r", "1", "--eps", "1/2"]
    assert cli.main(argv) == cli.EXIT_INTERNAL
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {
        "schema_version": 1,
        "kind": "internal-error",
        "message": "chain Y-fan disagrees with the model construction",
        "argv": argv,
    }


def test_success_writes_only_the_report(capsys):
    assert cli.main(CERTIFY) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["kind"] == "certificate"


# The exact stdout of `mld --fan-of-v`, as computed by toric_mld on the fan
# of model_V before the closed form replaced it.
MLD_REPORT = """{
  "d": %d,
  "kind": "mld",
  "legend": {
    "minimizer": "lexicographically smallest primitive vector attaining it",
    "mld": "minimal log discrepancy over the primitive vectors of the support"
  },
  "minimizer": [
%s
  ],
  "mld": "%s",
  "schema_version": 1
}
"""


# The `mld --fan-of-v` cases.  The last three, with n_1 from 211 to
# 100003, were computed by the loop over the boxes of the d cones of V_n
# that model_V_mld ran before its lattice form (oracles.box_mld_below).
MLD_FAN_OF_V_CASES = [
    ("1,0", "1", (0, -1)),
    ("1,5", "1", (0, -1)),
    ("5,1", "2/5", (1, 0)),
    ("7,-3", "3/7", (2, -1)),
    ("12,5", "1/3", (2, 1)),
    ("1,0,0", "1", (0, -1, -1)),
    ("1,-4,7", "1", (0, -1, -1)),
    ("3,1,1", "2/3", (1, 0, 0)),
    ("8,-3,5", "1/2", (2, -1, 1)),
    ("109,1,1", "2/109", (1, 0, 0)),
    ("1,0,0,0", "1", (0, -1, -1, -1)),
    ("5,2,-1,3", "1", (0, -1, -1, -1)),
    ("7,1,1,1", "2/7", (1, 0, 0, 0)),
    ("12,-5,7,3", "1", (0, -1, -1, -1)),
    ("100003,31622", "379/100003", (253, 80)),
    ("997,401,-613", "101/997", (5, 2, -3)),
    ("211,17,-88,140", "28/211", (12, 1, -5, 8)),
]


def _mld_text(n, mld, minimizer):
    lines = ",\n".join(f"    {x}" for x in minimizer)
    return MLD_REPORT % (n.count(",") + 1, lines, mld)


@pytest.mark.parametrize("n,mld,minimizer", MLD_FAN_OF_V_CASES)
def test_mld_fan_of_v_golden(capsys, n, mld, minimizer):
    d = n.count(",") + 1
    assert cli.main(["mld", "--fan-of-v", "--d", str(d), f"--n={n}"]) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert out == _mld_text(n, mld, minimizer)
    assert err == ""


@pytest.mark.parametrize(
    "d,n,message",
    [
        (2, "2,4", "n must be primitive"),
        (3, "6,4,2", "n must be primitive"),
        (2, "0,1", "n must have positive first coordinate"),
        (2, "-1,2", "n must have positive first coordinate"),
        (3, "0,0,1", "n must have positive first coordinate"),
        (1, "1", "d must be an integer >= 2"),
        (1, "5,1", "d must be an integer >= 2"),
        (1, "5", "d must be an integer >= 2"),
        (0, "5", "d must be an integer >= 2"),
    ],
)
def test_mld_fan_of_v_rejects_bad_n(capsys, d, n, message):
    assert cli.main(["mld", "--fan-of-v", "--d", str(d), f"--n={n}"]) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "flags,named",
    [
        (["--d", "2"], "--d"),
        (["--l", "1,0"], "--l"),
        (["--r", "1", "--eps", "1/2", "--n", "5,1"], "--r, --eps, --n"),
    ],
)
def test_in_conflicts_with_flags(tmp_path, capsys, flags, named):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"d": 2, "r": 1, "eps": "1/2", "n": [5, 1], "l": [1, 0]}))
    assert cli.main(["certify", "--in", str(path)]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["certify", "--in", str(path)] + flags) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --in cannot be combined with {named}\n"


# The exact stdout of `example`, recorded while the chain models were still
# built through every intermediate blowup.
EXAMPLE_REPORT = """{
  "a": "%s",
  "a_ok": true,
  "all_pass": true,
  "coincidence_ok": true,
  "d_dot_t": "1",
  "d_dot_t_ok": true,
  "eps": "%s",
  "fires": %s,
  "kind": "chain",
  "legend": {
    "a": "log discrepancy of the contracted divisor on V; closed form 2/n",
    "coincidence_ok": "certificate fires exactly when the pairing is negative",
    "d_dot_t": "pairing of D with the transformed fiber divisor; closed form 1",
    "pairing": "pairing of K_Y + theta with the transformed fiber divisor; closed form -eps + 2r/n"
  },
  "n": %d,
  "pairing": "%s",
  "pairing_ok": true,
  "r": %d,
  "schema_version": 1
}
"""


EXAMPLE_CASES = [
    (2, 1, "1/2", "1", "false", "1/2"),
    (3, 1, "1/2", "2/3", "false", "1/6"),
    (5, 2, "1/3", "2/5", "false", "7/15"),
    (7, 3, "2/5", "2/7", "false", "16/35"),
    (12, 2, "1/3", "1/6", "false", "0"),
    (40, 2, "1/3", "1/20", "true", "-7/30"),
    (60, 1, "1", "1/30", "true", "-29/30"),
    (120, 3, "1/7", "1/60", "true", "-13/140"),
    (200, 2, "1/3", "1/100", "true", "-47/150"),
]


@pytest.mark.parametrize("n,r,eps,a,fires,pairing", EXAMPLE_CASES)
def test_example_golden(capsys, n, r, eps, a, fires, pairing):
    assert cli.main(["example", "--n", str(n), "--r", str(r), "--eps", eps]) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert out == EXAMPLE_REPORT % (a, eps, fires, n, pairing, r)
    assert err == ""


# stderr of `example` on invalid flags, recorded while `example_verify`
# still checked r and eps itself, with n's message that of
# `exactmath.check_int`; every one exits 2 and writes nothing to stdout.
EXAMPLE_FLAG_ERRORS = [
    ({"n": "1"}, "n must be an integer >= 2"),
    ({"r": "0"}, "r must be an integer >= 1"),
    ({"eps": "0"}, "eps must lie in (0, 1]"),
    ({"eps": "3/2"}, "eps must lie in (0, 1]"),
    ({"eps": "0.5"}, "rationals must be p/q, got '0.5'"),
]


@pytest.mark.parametrize("flags,message", EXAMPLE_FLAG_ERRORS)
def test_example_flag_errors(capsys, flags, message):
    values = {"n": "3", "r": "1", "eps": "1/2", **flags}
    assert cli.main(["example"] + [f"--{key}={value}" for key, value in values.items()]) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def _golden(doc, legend):
    """The exact stdout of a report: sorted keys, two-space indent, newline."""
    return json.dumps(dict(doc, legend=legend, schema_version=1), sort_keys=True, indent=2) + "\n"


CERTIFICATE_LEGEND = {
    "a": "log discrepancy of D with respect to (V, 0)",
    "alphas": "horizontal-ray coefficients of that decomposition",
    "betas": "horizontal-ray coefficients of the swapped decomposition",
    "bounds": "explicit sufficient bounds, evaluated only when a < eps_prime",
    "eps_prime": "threshold eps/(3 d r) below which the explicit bounds apply",
    "fires": "strict inequality lhs > rhs: the transformed fiber divisor is certified inside"
    " the divisorial negative part of K_Y + theta over the base",
    "gamma": "coefficient of n when l is written on its smallest cone; equals l_1/n_1",
    "l": "primitive vector of the extracted divisor D",
    "lambda": "coefficient of l in the swapped decomposition; equals n_1/l_1 = 1/gamma",
    "lhs": "eps - a - u",
    "n": "primitive vector of the fiber support divisor T on the model V",
    "rhs": "(r - 1) times the sum of gamma * beta_k",
    "u": "(r - 1) times the sum of the alphas",
}
SCAN_LEGEND = {
    "epsilon_lc": "instances whose model V has mld >= eps_prime; nothing to certify",
    "failures": "singular instances whose certificate failed to fire (expected none)",
    "fired": "singular instances whose certificate fired",
    "singular": "instances below the threshold, certified via their mld minimizer",
}
MLD_LEGEND = {
    "minimizer": "lexicographically smallest primitive vector attaining it",
    "mld": "minimal log discrepancy over the primitive vectors of the support",
}
ALL_BOUNDS_HOLD = {
    "all_hold": True, "beta_terms_bounded": True, "margin_strict": True, "u_bounded": True,
}

# Recorded from the hand-written per-kind encoders, before one dataclass
# encoder replaced them.
CERTIFY_GOLDENS = [
    (
        ["--d", "2", "--r", "1", "--eps", "1/2", "--n", "5,1", "--l", "1,0"],
        {"a": "2/5", "alphas": [[[0, -1], "1/5"]], "betas": [[[0, 1], "1"]], "bounds": None,
         "d": 2, "eps": "1/2", "eps_prime": "1/12", "fires": True, "gamma": "1/5",
         "kind": "certificate", "l": [1, 0], "lambda": "5", "lhs": "1/10", "n": [5, 1], "r": 1,
         "rhs": "0", "u": "0"},
    ),
    (
        ["--d", "2", "--r", "2", "--eps", "1/3", "--n", "40,1", "--l", "1,0"],
        {"a": "1/20", "alphas": [[[0, -1], "1/40"]], "betas": [[[0, 1], "1"]], "bounds": None,
         "d": 2, "eps": "1/3", "eps_prime": "1/36", "fires": True, "gamma": "1/40",
         "kind": "certificate", "l": [1, 0], "lambda": "40", "lhs": "31/120", "n": [40, 1],
         "r": 2, "rhs": "1/40", "u": "1/40"},
    ),
    (
        ["--d", "3", "--r", "2", "--eps", "1/3", "--n", "109,1,1", "--l", "1,0,0"],
        {"a": "2/109", "alphas": [[[0, -1, -1], "1/109"]],
         "betas": [[[0, 0, 1], "1"], [[0, 1, 0], "1"]], "bounds": ALL_BOUNDS_HOLD, "d": 3,
         "eps": "1/3", "eps_prime": "1/54", "fires": True, "gamma": "1/109",
         "kind": "certificate", "l": [1, 0, 0], "lambda": "109", "lhs": "100/327",
         "n": [109, 1, 1], "r": 2, "rhs": "2/109", "u": "1/109"},
    ),
    (
        ["--d", "3", "--r", "2", "--eps", "1/3", "--n", "8,-3,5", "--l", "2,-1,1"],
        {"a": "1/2", "alphas": [[[0, -1, -1], "1/4"]],
         "betas": [[[0, 0, 1], "1"], [[0, 1, 0], "1"]], "bounds": None, "d": 3, "eps": "1/3",
         "eps_prime": "1/54", "fires": False, "gamma": "1/4", "kind": "certificate",
         "l": [2, -1, 1], "lambda": "4", "lhs": "-5/12", "n": [8, -3, 5], "r": 2, "rhs": "1/2",
         "u": "1/4"},
    ),
    (
        ["--d", "4", "--r", "1", "--eps", "1", "--n", "7,1,1,1", "--l", "1,0,0,0"],
        {"a": "2/7", "alphas": [[[0, -1, -1, -1], "1/7"]],
         "betas": [[[0, 0, 0, 1], "1"], [[0, 0, 1, 0], "1"], [[0, 1, 0, 0], "1"]],
         "bounds": None, "d": 4, "eps": "1", "eps_prime": "1/12", "fires": True, "gamma": "1/7",
         "kind": "certificate", "l": [1, 0, 0, 0], "lambda": "7", "lhs": "5/7",
         "n": [7, 1, 1, 1], "r": 1, "rhs": "0", "u": "0"},
    ),
    (
        ["--d", "4", "--r", "2", "--eps", "1/2", "--n", "101,1,1,1", "--l", "1,0,0,0"],
        {"a": "2/101", "alphas": [[[0, -1, -1, -1], "1/101"]],
         "betas": [[[0, 0, 0, 1], "1"], [[0, 0, 1, 0], "1"], [[0, 1, 0, 0], "1"]],
         "bounds": ALL_BOUNDS_HOLD, "d": 4, "eps": "1/2", "eps_prime": "1/48", "fires": True,
         "gamma": "1/101", "kind": "certificate", "l": [1, 0, 0, 0], "lambda": "101",
         "lhs": "95/202", "n": [101, 1, 1, 1], "r": 2, "rhs": "3/101", "u": "1/101"},
    ),
]


@pytest.mark.parametrize("flags,doc", CERTIFY_GOLDENS)
def test_certify_golden(capsys, flags, doc):
    assert cli.main(["certify"] + flags) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert out == _golden(doc, CERTIFICATE_LEGEND)
    assert err == ""


SCAN_D2 = ["scan", "--d", "2", "--r", "1", "--eps", "1/2", "--bound", "26"]
SCAN_FAILURE_DOC = {
    "bound": 8, "d": 3, "eps": "1/3", "eps_prime": "1/54", "epsilon_lc": 4,
    "epsilon_lc_note": "fiber multiplicity bounded by the external boundedness theorem",
    "failures": [dict(CERTIFY_GOLDENS[3][1], legend=CERTIFICATE_LEGEND, schema_version=1)],
    "fired": 0, "kind": "scan", "r": 2, "singular": 1, "total": 5,
}


SCAN_D2_DOC = {
    "bound": 26, "d": 2, "eps": "1/2", "eps_prime": "1/12", "epsilon_lc": 837,
    "epsilon_lc_note": "fiber multiplicity bounded by the external boundedness theorem",
    "failures": [], "fired": 10, "kind": "scan", "r": 1, "singular": 10, "total": 847,
}


@pytest.mark.parametrize("jobs", [[], ["--jobs", "1"]])
def test_scan_golden(capsys, jobs):
    assert cli.main(SCAN_D2 + jobs) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert out == _golden(SCAN_D2_DOC, SCAN_LEGEND)
    assert err == ""


def test_scan_failure_nests_certificates():
    # scan writes no failures (the lemma of criterion.scan), so a non-firing
    # certificate is nested in a summary built by hand
    flags, certificate = CERTIFY_GOLDENS[3]
    assert not certificate["fires"]
    report = criterion.certify(3, 2, Fraction(1, 3), (8, -3, 5), (2, -1, 1))
    summary = criterion.ScanSummary(
        d=3, r=2, eps=Fraction(1, 3), eps_prime=Fraction(1, 54), bound=8, total=5,
        epsilon_lc=4, singular=1, fired=0, failures=(report,),
    )
    doc = serialize.scan_summary_to_dict(summary)
    nested = doc["failures"]
    assert nested == [serialize.certificate_to_dict(report)]
    assert nested[0]["schema_version"] == 1 and nested[0]["kind"] == "certificate"
    assert nested[0]["legend"] == CERTIFICATE_LEGEND
    assert serialize.dumps(doc) == _golden(SCAN_FAILURE_DOC, SCAN_LEGEND)


MLD_FAN_GOLDENS = [
    (
        {"ambient_dim": 2, "maximal_cones": [[[1, 0], [1, 3]], [[1, 3], [-1, 2]]]},
        {"d": 2, "kind": "mld", "minimizer": [0, 1], "mld": "2/5"},
    ),
    (
        {"ambient_dim": 3, "maximal_cones": [[[1, 0, 0], [0, 1, 0], [1, 2, 5]],
                                             [[1, 0, 0], [0, 1, 0], [0, 0, -1]]]},
        {"d": 3, "kind": "mld", "minimizer": [0, 0, -1], "mld": "1"},
    ),
]


@pytest.mark.parametrize("fan,doc", MLD_FAN_GOLDENS)
def test_mld_fan_golden(tmp_path, capsys, fan, doc):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(fan))
    assert cli.main(["mld", "--fan", str(path)]) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert out == _golden(doc, MLD_LEGEND)
    assert err == ""


NOT_RAY_ARRAYS = "maximal_cones must be an array of ray arrays"


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"ambient_dim": 2, "maximal_cones": 5}, NOT_RAY_ARRAYS),
        ({"ambient_dim": 2, "maximal_cones": [5]}, NOT_RAY_ARRAYS),
        ({"ambient_dim": 2, "maximal_cones": "ab"}, NOT_RAY_ARRAYS),
        ({"ambient_dim": 2, "maximal_cones": {"a": [1, 0]}}, NOT_RAY_ARRAYS),
        ({"ambient_dim": 2, "maximal_cones": [[[1, 0], [0, 1]], "ab"]}, NOT_RAY_ARRAYS),
        ({"ambient_dim": 2, "maximal_cones": [[5]]}, "vectors must be integer arrays, got 5"),
        ({"ambient_dim": "2", "maximal_cones": []}, "ambient_dim must be an integer >= 1"),
        ({"maximal_cones": []}, "fan documents need keys 'ambient_dim' and 'maximal_cones'"),
        # a cone needs exactly d rays
        (
            {"ambient_dim": 3, "maximal_cones": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 1, 0], [0, 0, 1]]]},
            "cone ((0, 0, 1), (1, 1, 0)) is not full dimensional",
        ),
        ({"ambient_dim": 2, "maximal_cones": [[[1, 0], [0, 1]], [[1, 0]]]}, "cone ((1, 0),) is not full dimensional"),
        ({"ambient_dim": 2, "maximal_cones": [[[1, 0], [0, 1], [1, 1]]]}, "cone rays must be linearly independent"),
        ({"ambient_dim": 0, "maximal_cones": []}, "ambient_dim must be an integer >= 1"),
        ({"ambient_dim": True, "maximal_cones": 5}, "ambient_dim must be an integer >= 1"),
        # a ray's entries are checked by Cone, the library's rule
        ({"ambient_dim": 2, "maximal_cones": [[[1, 0], [1, 3]], [[1, 3], [-1, 1.5]]]},
         "lattice vector entries must be ints, got 1.5"),
        ({"ambient_dim": 2, "maximal_cones": [[[1, 0], [1, 3]], [[1, 3], [-1, True]]]},
         "lattice vector entries must be ints, got True"),
        ({"ambient_dim": 2, "maximal_cones": [[[1, 0], [1, 3]], [[1, 3], []]]}, "expected a vector of length 2, got 0"),
    ],
)
def test_mld_fan_rejects_malformed_documents(tmp_path, capsys, doc, message):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["mld", "--fan", str(path)]) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "flags,named",
    [
        (["--fan-of-v"], "--fan-of-v"),
        (["--d", "2"], "--d"),
        (["--d", "0"], "--d"),
        (["--n", "5,1"], "--n"),
        (["--fan-of-v", "--d", "2", "--n", "5,1"], "--fan-of-v, --d, --n"),
    ],
)
def test_mld_fan_conflicts_with_flags(tmp_path, capsys, flags, named):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({"ambient_dim": 2, "maximal_cones": [[[1, 0], [1, 3]]]}))
    assert cli.main(["mld", "--fan", str(path)]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["mld", "--fan", str(path)] + flags) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --fan cannot be combined with {named}\n"


@pytest.mark.parametrize(
    "cones,ray",
    [
        ([["1,0", " 1, 3"], [[1, 3], [-1, 2]]], "1,0"),
        ([[[1, 0], [1, 3]], [[1, 3], "-1,2"]], "-1,2"),
    ],
)
def test_mld_fan_rejects_string_rays(tmp_path, capsys, cones, ray):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({"ambient_dim": 2, "maximal_cones": cones}))
    assert cli.main(["mld", "--fan", str(path)]) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: vectors must be integer arrays, got {ray!r}\n"


@pytest.mark.parametrize("key,value", [("n", "5,1"), ("l", "1,0"), ("n", "5"), ("l", None)])
def test_certify_in_rejects_string_vectors(tmp_path, capsys, key, value):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"d": 2, "r": 1, "eps": "1/2", "n": [5, 1], "l": [1, 0], key: value}))
    assert cli.main(["certify", "--in", str(path)]) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: vectors must be integer arrays, got {value!r}\n"


# The CLI checks only a vector's shape; its entries are checked by the
# library function that takes it, so the message is the library's.
@pytest.mark.parametrize(
    "key,value,message",
    [
        ("n", [5, 1.5], "lattice vector entries must be ints, got 1.5"),
        ("n", [5, True], "lattice vector entries must be ints, got True"),
        ("l", [1.0, 0], "lattice vector entries must be ints, got 1.0"),
        ("l", [], "expected a vector of length 2, got 0"),
    ],
)
def test_certify_in_rejects_entries_that_are_not_ints(tmp_path, capsys, key, value, message):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"d": 2, "r": 1, "eps": "1/2", "n": [5, 1], "l": [1, 0], key: value}))
    assert cli.main(["certify", "--in", str(path)]) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("fan,doc", MLD_FAN_GOLDENS)
def test_mld_fan_checks_each_ray_occurrence_once(tmp_path, monkeypatch, capsys, fan, doc):
    # the rays' entries are checked by Cone alone: serialize checks only
    # their shape (the message tests above show whose check reports)
    checked = []

    def counting(entries, original=exactmath.lattice_vector):
        checked.append(tuple(entries))
        return original(entries)

    monkeypatch.setattr("toricfib.fan.lattice_vector", counting)
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(fan))
    assert cli.main(["mld", "--fan", str(path)]) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert out == _golden(doc, MLD_LEGEND)
    assert err == ""
    assert sorted(checked) == sorted(tuple(ray) for rays in fan["maximal_cones"] for ray in rays)


# stderr of `certify` on invalid flags, recorded before the closed form
# replaced the fan route but for the last; every one exits 2 and writes
# nothing to stdout.
# d is checked before the vectors are parsed, as with --in, so d = 1 with
# vectors of length 2 reports d
CERTIFY_FLAG_ERRORS = [
    ({"d": "1", "n": "5", "l": "1"}, "d must be an integer >= 2"),
    ({"d": "1"}, "d must be an integer >= 2"),
    ({"r": "0"}, "r must be an integer >= 1"),
    ({"eps": "0"}, "eps must lie in (0, 1]"),
    ({"eps": "3/2"}, "eps must lie in (0, 1]"),
    ({"eps": "0.5"}, "rationals must be p/q, got '0.5'"),
    ({"n": "2,4"}, "n must be primitive"),
    ({"n": "0,1"}, "n must have positive first coordinate"),
    ({"n": "-1,2"}, "n must have positive first coordinate"),
    ({"n": "5,1,1"}, "expected a vector of length 2, got 3"),
    ({"n": "5,x"}, "vectors must be comma-separated integers, got '5,x'"),
    ({"l": "2,4"}, "l must be primitive"),
    ({"l": "0,1"}, "l must have positive first coordinate"),
    ({"l": "-1,1"}, "l must have positive first coordinate"),
    ({"l": "5,1"}, "T and D must be distinct toric prime divisors"),
    ({"l": "1,0,0"}, "expected a vector of length 2, got 3"),
    # n is checked in full before l
    ({"n": "0,1", "l": "2,4"}, "n must have positive first coordinate"),
]


@pytest.mark.parametrize("flags,message", CERTIFY_FLAG_ERRORS)
def test_certify_flag_errors(capsys, flags, message):
    values = {"d": "2", "r": "1", "eps": "1/2", "n": "5,1", "l": "1,0", **flags}
    assert cli.main(["certify"] + [f"--{key}={value}" for key, value in values.items()]) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_certify_needs_l_flag(capsys):
    assert cli.main(CERTIFY[:-2]) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: missing --l (or provide --in)\n"


def test_certify_in_needs_l(tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"d": 2, "r": 1, "eps": "1/2", "n": [5, 1]}))
    assert cli.main(["certify", "--in", str(path)]) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: instance file is missing key 'l'\n"


def _golden_texts():
    """The stdout of every golden above, as recorded."""
    texts = [_golden(doc, CERTIFICATE_LEGEND) for _, doc in CERTIFY_GOLDENS]
    texts += [_golden(doc, MLD_LEGEND) for _, doc in MLD_FAN_GOLDENS]
    texts += [_golden(doc, SCAN_LEGEND) for doc in (SCAN_D2_DOC, SCAN_FAILURE_DOC)]
    texts += [_mld_text(*case) for case in MLD_FAN_OF_V_CASES]
    texts += [EXAMPLE_REPORT % (a, eps, fires, n, pairing, r) for n, r, eps, a, fires, pairing in EXAMPLE_CASES]
    return texts


@pytest.mark.parametrize("text", _golden_texts())
def test_dumps_writes_every_golden_as_json_does(text):
    doc = json.loads(text)
    assert serialize.dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n" == text


@pytest.mark.parametrize(
    "d,n",
    [(True, [3, 1]), (False, [3, 1]), (1, [3, 1]), (1, [3]), ("2", [3, 1]), (2.0, [3, 1]), (None, [3, 1])],
)
def test_certify_in_checks_d_before_the_vectors(tmp_path, capsys, d, n):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"d": d, "r": 1, "eps": "1/2", "n": n, "l": [1, 0]}))
    assert cli.main(["certify", "--in", str(path)]) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: d must be an integer >= 2\n"


def _no_smith_normal_form(*args, **kwargs):
    raise AssertionError("a CLI command ran a Smith normal form")


SMITH_FREE_RUNS = (
    [(["certify"] + flags, _golden(doc, CERTIFICATE_LEGEND), None) for flags, doc in CERTIFY_GOLDENS]
    + [(["mld", "--fan"], _golden(doc, MLD_LEGEND), fan) for fan, doc in MLD_FAN_GOLDENS]
    + [
        (["mld", "--fan-of-v", "--d", str(n.count(",") + 1), f"--n={n}"], _mld_text(n, mld, minimizer), None)
        for n, mld, minimizer in MLD_FAN_OF_V_CASES
    ]
    + [
        (["example", "--n", str(n), "--r", str(r), "--eps", eps], EXAMPLE_REPORT % (a, eps, fires, n, pairing, r), None)
        for n, r, eps, a, fires, pairing in EXAMPLE_CASES
    ]
    + [(SCAN_D2 + ["--jobs", "1"], _golden(SCAN_D2_DOC, SCAN_LEGEND), None)]
)


def _run_id(argv, fan):
    """A run's id: its argv, followed by the cones of its fan file."""
    words = argv if fan is None else argv + [json.dumps(fan["maximal_cones"], separators=(",", ":"))]
    return " ".join(words)


@pytest.mark.parametrize("argv,text,fan", SMITH_FREE_RUNS, ids=[_run_id(argv, fan) for argv, _, fan in SMITH_FREE_RUNS])
def test_no_command_runs_a_smith_normal_form(tmp_path, monkeypatch, capsys, argv, text, fan):
    rebind_everywhere(monkeypatch, exactmath.smith_normal_form, _no_smith_normal_form)
    if fan is not None:
        path = tmp_path / "fan.json"
        path.write_text(json.dumps(fan))
        argv = argv + [str(path)]
    assert cli.main(argv) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert out == text
    assert err == ""


def _no_box_loop(*args, **kwargs):
    raise AssertionError("scan computed an mld")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_scan_runs_no_box_loop(monkeypatch, capsys, jobs):
    # scan enumerates the singular classes, so model_V_mld, with its loop
    # over the box points, never runs.  --jobs 1 runs the sweep in this
    # process.  --jobs 2 checks the workers only where the pool has two and
    # forks them, so that they inherit the rebinding; elsewhere it would
    # pass without checking them, so it is skipped.
    if jobs == "2" and (len(os.sched_getaffinity(0)) < 2 or multiprocessing.get_start_method() != "fork"):
        pytest.skip("the pool does not fork two workers on this host")
    rebind_everywhere(monkeypatch, models.model_V_mld, _no_box_loop)
    assert cli.main(SCAN_D2 + ["--jobs", jobs]) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert out == _golden(SCAN_D2_DOC, SCAN_LEGEND)
    assert err == ""


def _no_pool(max_workers):
    raise AssertionError("scan started a pool")


def test_scan_runs_in_process_by_default(monkeypatch, capsys):
    # SCAN_D2 has two tasks, n_1 = 25 and 26; with no --jobs they run in
    # this process however many CPUs there are
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    monkeypatch.setattr(criterion.os, "sched_getaffinity", lambda pid: set(range(64)))
    assert cli.main(SCAN_D2) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert out == _golden(SCAN_D2_DOC, SCAN_LEGEND)
    assert err == ""


def _run_python(args):
    """A child interpreter run with ``args``, importing the package from
    this checkout's src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable] + args, capture_output=True, text=True, env=env, timeout=120)


def _run_module(argv):
    """``python -m toricfib.cli`` in a child interpreter."""
    return _run_python(["-m", "toricfib.cli"] + argv)


COLD_IMPORT = """
import sys
before = set(sys.modules)
import toricfib, toricfib.serialize, toricfib.cli
print(*sorted(set(sys.modules) - before))
"""


def test_import_loads_no_worker_machinery():
    # only a scan that starts a pool imports it; the modules are diffed so
    # that whatever the interpreter's site hooks load stays out of the check
    done = _run_python(["-c", COLD_IMPORT])
    new = set(done.stdout.split())
    assert done.returncode == 0 and "toricfib.cli" in new, done.stderr
    pool = {m for m in new if m.partition(".")[0] == "multiprocessing" or m == "concurrent.futures.process"}
    assert pool == set()


def test_module_writes_a_golden_and_exits_0():
    flags, doc = CERTIFY_GOLDENS[0]
    done = _run_module(["certify"] + flags)
    assert (done.returncode, done.stdout, done.stderr) == (cli.EXIT_OK, _golden(doc, CERTIFICATE_LEGEND), "")


def test_module_reports_invalid_input_in_one_line_and_exits_2():
    done = _run_module(["certify", "--d", "2", "--r", "0", "--eps", "1/2", "--n", "5,1", "--l", "1,0"])
    assert (done.returncode, done.stdout, done.stderr) == (cli.EXIT_INPUT, "", "error: r must be an integer >= 1\n")
