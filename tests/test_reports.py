"""``reports.write_json`` against the reference encoder it replaces:
``json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)``."""

import json
import math
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multiplicity import reports
from multiplicity.reports import write_json

# control characters, a line separator, non-ASCII and the formatting
# character of the writer's row templates
SPECIAL = st.sampled_from(["\n", "\x00", "\x1f", "\"", "\\", " ", "é", "日本", "%", "%s"])
TEXT = st.one_of(st.text(max_size=6), st.lists(SPECIAL, max_size=3).map("".join))
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    TEXT,
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(TEXT, children, max_size=5),
        st.dictionaries(st.integers(), children, max_size=3),
        st.dictionaries(st.floats(allow_nan=False, allow_infinity=False), children, max_size=3),
        # tables: dicts that share a key set, and dicts that almost do
        st.lists(TEXT, min_size=1, max_size=4, unique=True).flatmap(
            lambda keys: st.lists(
                st.fixed_dictionaries({k: children for k in keys}), min_size=1, max_size=4
            )
        ),
        st.lists(
            st.fixed_dictionaries({"a": children}, optional={"b": children}), max_size=4
        ),
        # one object at several places, at equal and at unequal depths
        children.map(lambda v: [v, v, {"x": v}, [v]]),
        children.map(lambda v: {"p": [v], "q": [v], "r": v}),
    )


PAYLOADS = st.recursive(SCALARS, _containers, max_leaves=25)
BAD = st.sampled_from([math.nan, math.inf, -math.inf, object(), {1, 2}, b"x", 1j])


def _reference(payload):
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def _refuse(*args, **kwargs):
    raise AssertionError("json.dumps called")


def _write(directory, payload):
    """The bytes the writer's own encoder writes, not its fallback to json."""
    path = directory / "out.json"
    path.unlink(missing_ok=True)
    with mock.patch.object(reports.json, "dumps", _refuse):
        write_json(path, payload)
    return path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(payload=PAYLOADS)
# equal keys of other types name other members: "0", "0.0" and "false"
@example(payload=[{0: 1}, {0.0: 1}, {False: 1}, {0: 1, 1.0: 2}, {1: 2, 0.0: 1}])
def test_bytes_match_json_dumps(tmp_path_factory, payload):
    expected = (_reference(payload) + "\n").encode("ascii")
    assert _write(tmp_path_factory.getbasetemp(), payload) == expected


def _plant(payload, bad, where):
    """``payload`` with ``bad`` in it: beside its scalars or inside a copy
    of one of its containers; ``where`` picks the container."""
    containers = []

    def walk(v):
        if isinstance(v, dict):
            containers.append(v)
            for child in v.values():
                walk(child)
        elif isinstance(v, list):
            containers.append(v)
            for child in v:
                walk(child)

    payload = json.loads(json.dumps(payload))  # fresh containers, tuples as lists
    walk(payload)
    if not containers:
        return [payload, bad]
    target = containers[where % len(containers)]
    if isinstance(target, dict):
        target["\uffff"] = bad  # last in key order
    else:
        target.append(bad)
    return payload


@settings(max_examples=200, deadline=None)
@given(payload=PAYLOADS, bad=BAD, where=st.integers(0, 50))
def test_rejected_payloads_raise_json_errors(tmp_path_factory, payload, bad, where):
    payload = _plant(payload, bad, where)
    with pytest.raises((TypeError, ValueError)) as expected:
        _reference(payload)
    path = tmp_path_factory.getbasetemp() / "rejected.json"
    path.unlink(missing_ok=True)
    with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
        write_json(path, payload)
    assert not path.exists()


@pytest.mark.parametrize(
    "payload",
    [
        {},
        [],
        "top",
        None,
        [{}, {}],
        [[], {}, ()],
        {"a": [], "b": {}},
        [{"k%s": 1, "%": "%d"}, {"k%s": 2, "%": "%%"}],
        {3: "int", 1.5: "float", -2: "neg"},
        {True: 1, False: 0},
        [{"t": [{"u": 1}, {"u": 2}]}, {"t": [{"u": 3}]}],
        [{"a": 1}, {"b": 2}, 3],
    ],
)
def test_edge_payloads_match_json_dumps(tmp_path, payload):
    assert _write(tmp_path, payload) == (_reference(payload) + "\n").encode("ascii")


@pytest.mark.parametrize(
    "payload, error",
    [
        ({"a": 1, 2: 3}, TypeError),  # keys json cannot sort
        ({(1, 2): 3}, TypeError),
        ({math.nan: 1}, ValueError),
        ([[1, math.inf]], ValueError),
        ([{"a": math.nan}, {"a": 1.0}], ValueError),
    ],
)
def test_edge_rejections_match_json_dumps(tmp_path, payload, error):
    with pytest.raises(error) as expected:
        _reference(payload)
    with pytest.raises(error, match=f"^{re.escape(str(expected.value))}$"):
        write_json(tmp_path / "out.json", payload)


def test_cycles_raise_json_error(tmp_path):
    cycle = {"a": []}
    cycle["a"].append(cycle)
    with pytest.raises(ValueError, match="Circular reference detected"):
        write_json(tmp_path / "out.json", cycle)


def test_too_deep_for_the_encoder_is_written_by_json(tmp_path):
    payload = []
    for _ in range(600):  # json nests one frame per level, the encoder two
        payload = [payload, 1]
    with pytest.raises(RecursionError):
        reports._values([payload], 0)
    write_json(tmp_path / "out.json", payload)
    assert (tmp_path / "out.json").read_text() == _reference(payload) + "\n"
