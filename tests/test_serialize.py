"""``serialize.encode`` against the generic dataclass walk of the oracles,
and ``serialize.dumps`` against ``json.dumps``."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import generic_encode

from toricfib import criterion, serialize, surface
from toricfib.serialize import InputError, MldReport, parse_vector

REPORTS = {
    "certificate-with-bounds": criterion.certify(3, 2, Fraction(1, 3), (109, 1, 1), (1, 0, 0)),
    "certificate-without-bounds": criterion.certify(2, 1, Fraction(1, 2), (5, 1), (1, 0)),
    "certificate-not-firing": criterion.certify(3, 2, Fraction(1, 3), (8, -3, 5), (2, -1, 1)),
    "scan": criterion.scan(2, 1, Fraction(1, 2), 26, jobs=1),
    "scan-with-failures": criterion.ScanSummary(
        d=3, r=2, eps=Fraction(1, 3), eps_prime=Fraction(1, 54), bound=8, total=5, epsilon_lc=3,
        singular=2, fired=0,
        failures=(
            criterion.certify(3, 2, Fraction(1, 3), (8, -3, 5), (2, -1, 1)),
            criterion.certify(3, 2, Fraction(1, 3), (4, 1, 1), (1, 0, 1)),
        ),
    ),
    "chain": surface.example_verify(40, 2, Fraction(1, 3)),
    "mld": MldReport(3, Fraction(2, 109), (1, 0, 0)),
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_encode_equals_the_generic_walk(name):
    doc = serialize.encode(REPORTS[name])
    expected = generic_encode(REPORTS[name])
    assert doc == expected
    assert list(doc) == list(expected)
    assert serialize.dumps(doc) == json.dumps(expected, sort_keys=True, indent=2) + "\n"


def test_the_plans_hold_one_entry_per_report_class():
    for report in REPORTS.values():
        serialize.encode(report)
        serialize.encode(report)
    classes = {criterion.CertificateReport, criterion.ExplicitBounds, criterion.ScanSummary,
               surface.ChainReport, MldReport}
    assert set(serialize._PLANS) == classes


@pytest.mark.parametrize("value", [1.5, {1, 2}, object(), {"a": 1}])
def test_encode_rejects_what_no_report_holds(value):
    with pytest.raises(TypeError):
        serialize.encode(value)


JSON_TEXT = st.text(st.characters(blacklist_categories=("Cs",)))
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10 ** 40), 10 ** 40)
    | JSON_TEXT
    | st.sampled_from(["", '"', "\\", "\x00\x1f\x7f", "é ü ß", "  ", "\U0001f600"])
)
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(st.booleans() | st.integers(), max_size=4)
    | st.dictionaries(JSON_TEXT, children, max_size=4),
    max_leaves=25,
)


@given(st.dictionaries(JSON_TEXT, JSON_TREES, max_size=5))
@settings(max_examples=400, deadline=None)
def test_dumps_writes_what_json_writes(doc):
    assert serialize.dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"a": [], "b": {}, "c": [[], {}, [[]]]},
        {"\"quoted\"\n": "tab\there", "é": "\x00", "\U0001f600": " "},
        {"ints": [0, -1, 10 ** 30, -(10 ** 30)], "mixed": [True, 1, False, 0, None, "1"]},
        {"bools": [True, False], "nested": [[1, 2], [3, [4, 5]]], "one": [7]},
    ],
)
def test_dumps_edge_cases(doc):
    assert serialize.dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "doc",
    [{"a": 1.5}, {"a": [1, 0.5]}, {1: "a"}, {"a": {None: 1}}, {"a": {1, 2}}, {"a": Fraction(1, 2)}],
)
def test_dumps_rejects_other_types(doc):
    with pytest.raises(TypeError):
        serialize.dumps(doc)


@pytest.mark.parametrize(
    "value,message",
    [
        ("1,0", "vectors must be integer arrays, got '1,0'"),
        ({"a": 1}, "vectors must be integer arrays, got {'a': 1}"),
        (b"\x01\x00", "vectors must be integer arrays, got b'\\x01\\x00'"),
        (5, "vectors must be integer arrays, got 5"),
        (None, "vectors must be integer arrays, got None"),
        ([1, 0.5], "vector entries must be integers, got [1, 0.5]"),
        ([1, True], "vector entries must be integers, got [1, True]"),
        ([], "vectors must have at least one entry"),
    ],
)
def test_parse_vector_rejects(value, message):
    with pytest.raises(InputError) as raised:
        parse_vector(value)
    assert str(raised.value) == message


def test_parse_vector_accepts_arrays():
    assert parse_vector([3, -1, 0], 3) == (3, -1, 0)
    assert parse_vector((3, -1), 2) == (3, -1)
    with pytest.raises(InputError, match="^expected a vector of length 2, got 3$"):
        parse_vector([3, -1, 0], 2)
