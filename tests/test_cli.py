import json

import pytest

from toricfib import cli
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


@pytest.mark.parametrize(
    "n,mld,minimizer",
    [
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
    ],
)
def test_mld_fan_of_v_golden(capsys, n, mld, minimizer):
    d = n.count(",") + 1
    assert cli.main(["mld", "--fan-of-v", "--d", str(d), f"--n={n}"]) == cli.EXIT_OK
    out, err = capsys.readouterr()
    lines = ",\n".join(f"    {x}" for x in minimizer)
    assert out == MLD_REPORT % (d, lines, mld)
    assert err == ""


@pytest.mark.parametrize(
    "d,n,message",
    [
        (2, "2,4", "n must be primitive"),
        (3, "6,4,2", "n must be primitive"),
        (2, "0,1", "n must have positive first coordinate"),
        (2, "-1,2", "n must have positive first coordinate"),
        (3, "0,0,1", "n must have positive first coordinate"),
        (1, "1", "models need ambient dimension >= 2"),
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


@pytest.mark.parametrize(
    "n,r,eps,a,fires,pairing",
    [
        (2, 1, "1/2", "1", "false", "1/2"),
        (3, 1, "1/2", "2/3", "false", "1/6"),
        (5, 2, "1/3", "2/5", "false", "7/15"),
        (7, 3, "2/5", "2/7", "false", "16/35"),
        (12, 2, "1/3", "1/6", "false", "0"),
        (40, 2, "1/3", "1/20", "true", "-7/30"),
        (60, 1, "1", "1/30", "true", "-29/30"),
        (120, 3, "1/7", "1/60", "true", "-13/140"),
        (200, 2, "1/3", "1/100", "true", "-47/150"),
    ],
)
def test_example_golden(capsys, n, r, eps, a, fires, pairing):
    assert cli.main(["example", "--n", str(n), "--r", str(r), "--eps", eps]) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert out == EXAMPLE_REPORT % (a, eps, fires, n, pairing, r)
    assert err == ""
