import json

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
